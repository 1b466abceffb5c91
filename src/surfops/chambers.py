"""Barycentric subdivisions, chamber systems, double chambers and flips.

The barycentric subdivision ``B_G`` has one vertex per vertex (type 0),
edge (type 1) and face (type 2) of ``G``; its triangular faces are the
chambers.  Crossing the edge of a chamber that misses its type-i corner
is the involution ``s_i``; together the three involutions generate a
transitive action of the free Coxeter group on the chambers.
"""

from __future__ import annotations

from .embedded import EmbeddedGraph


class NotOnChamberBoundary(ValueError):
    """A chamber flip was requested at a subpath not bounding the chamber."""


class BarycentricSubdivision:
    """``B_G`` together with the origin of every subdivision vertex.

    Subdivision vertices are laid out as: ids ``0..V-1`` are the vertices
    of ``G``, then one id per edge, then one per face.  ``origin[x]`` is
    ("vertex", v), ("edge", e) or ("face", f).
    """

    __slots__ = ("base", "_graph", "origin", "_chambers")

    def __init__(self, base):
        self.base = base
        self._graph = None
        nv, ne, nf = base.vertex_count, base.edge_count, len(base.faces())
        origin = [("vertex", v) for v in range(nv)]
        origin += [("edge", e) for e in range(ne)]
        origin += [("face", f) for f in range(nf)]
        self.origin = tuple(origin)
        self._chambers = None

    @property
    def graph(self):
        """``B_G`` itself, built on first use."""
        if self._graph is None:
            self._graph = _build_bary(self.base)
        return self._graph

    def chamber_system(self):
        if self._chambers is None:
            self._chambers = ChamberSystem(self.graph)
        return self._chambers


def _build_bary(g):
    """Rotation system of the barycentric subdivision.

    B-edges are indexed 0..6E-1: id d is the vertex--edge edge for dart d,
    2E+d the vertex--face edge for the angle closed by dart d, 4E+d the
    edge--face edge for the walk occurrence of dart d.  B-dart 2*b is at
    the first endpoint named above, 2*b+1 at the second.
    """
    n = g.dart_count
    nv = g.vertex_count
    g.edge_darts()
    g.faces()
    vm = lambda d, side: 2 * d + side
    vc = lambda d, side: 2 * (n + d) + side
    mc = lambda d, side: 2 * (2 * n + d) + side

    rotations = []
    labels = []
    for v in range(nv):
        seq = []
        for d in g.rotations()[v]:
            seq.append(vm(d, 0))
            seq.append(vc(g.sigma[d], 0))
        rotations.append(seq)
        labels.append(0)
    for d, dprime in g.edge_darts():
        rotations.append([vm(d, 1), mc(d, 0), vm(dprime, 1), mc(dprime, 0)])
        labels.append(1)
    for walk in g.faces():
        seq = [vc(walk[0], 1)]
        for i in range(len(walk) - 1, 0, -1):
            seq.append(mc(walk[i], 1))
            seq.append(vc(walk[i], 1))
        seq.append(mc(walk[0], 1))
        rotations.append(seq)
        labels.append(2)
    pairing = [None] * (6 * n)
    for b in range(3 * n):
        pairing[2 * b] = 2 * b + 1
        pairing[2 * b + 1] = 2 * b
    return EmbeddedGraph.from_rotations(rotations, pairing, labels=labels, check=False)


def barycentric(g):
    """Barycentric subdivision of an embedded graph."""
    return BarycentricSubdivision(g)


class ChamberSystem:
    """Chambers of a labelled triangulation with the three involutions.

    ``triangulation`` must have vertex labels in {0,1,2} and no edge
    between equal labels.  For an operation with a marked outer face pass
    its face index: that face is excluded and ``s_i`` fixes chambers whose
    i-edge lies on it.
    """

    __slots__ = ("triangulation", "outer_face", "chambers", "s", "corner", "_face_to_chamber")

    def __init__(self, triangulation, outer_face=None):
        t = triangulation
        if t.labels is None:
            raise ValueError("chamber system needs a labelled triangulation")
        self.triangulation = t
        self.outer_face = outer_face
        faces = t.faces()
        chamber_faces = [i for i in range(len(faces)) if i != outer_face]
        self._face_to_chamber = {f: c for c, f in enumerate(chamber_faces)}
        self.chambers = tuple(chamber_faces)
        corner = []
        s = [[None] * len(chamber_faces) for _ in range(3)]
        for c, fi in enumerate(chamber_faces):
            walk = faces[fi]
            if len(walk) != 3:
                raise ValueError("chamber %d is not a triangle" % fi)
            corners = {}
            for d in walk:
                corners[t.labels[t.vertex_of[d]]] = t.vertex_of[d]
            if sorted(corners) != [0, 1, 2]:
                raise ValueError("chamber %d misses a corner type" % fi)
            corner.append((corners[0], corners[1], corners[2]))
            for d in walk:
                a = t.labels[t.vertex_of[d]]
                b = t.labels[t.head(d)]
                i = 3 - a - b  # the type missing from this edge
                nb = t.face_of(t.inv[d])
                s[i][c] = c if nb == outer_face else self._face_to_chamber[nb]
        self.corner = tuple(corner)
        self.s = tuple(tuple(row) for row in s)

    def __len__(self):
        return len(self.chambers)

    def is_transitive(self):
        if not self.chambers:
            return False
        seen = {0}
        todo = [0]
        while todo:
            c = todo.pop()
            for i in range(3):
                d = self.s[i][c]
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return len(seen) == len(self.chambers)


class DoubleChamberSystem:
    """Faces of the subgraph of ``B_G`` on type-1 and type-2 edges only.

    Every face is a quadrilateral with two type-0 corners (equal exactly
    when the underlying edge of G is a loop), one of type 1 and one of
    type 2.

    The graph is read off G in one pass, without building ``B_G``: it
    keeps the B-darts 0..4n-1 of ``_build_bary`` (n darts in G), so B-dart
    2b+1 is the reverse of 2b, and numbers its vertices by their
    smallest dart, as the embedded subgraph of ``B_G`` on those darts
    would.
    """

    __slots__ = ("bary", "graph")

    def __init__(self, bary):
        self.bary = bary
        g = bary.base
        n = g.dart_count
        # smallest dart -> (type, rotation)
        nodes = [None] * (4 * n)
        for rot in g.rotations():
            seq = []
            for d in rot:
                seq += (2 * d, 2 * (n + g.sigma[d]))
            nodes[seq[0]] = (0, seq)
        for d, dp in g.edge_darts():
            nodes[2 * d + 1] = (1, (2 * d + 1, 2 * dp + 1))
        for walk in g.faces():
            seq = [2 * (n + walk[0]) + 1] + [2 * (n + d) + 1 for d in reversed(walk[1:])]
            nodes[seq[0]] = (2, seq)
        nodes = [x for x in nodes if x is not None]
        self.graph = EmbeddedGraph.from_rotations(
            [x[1] for x in nodes], [d ^ 1 for d in range(4 * n)],
            labels=[x[0] for x in nodes], check=False,
        )

    def double_chambers(self):
        return self.graph.faces()


def double_chambers(g):
    """Double chamber system of an embedded graph."""
    return DoubleChamberSystem(barycentric(g))


def _chamber_path_between(t, face_walk, u, v):
    """Both boundary paths of a triangle from u to v: (one edge, two edges)."""
    # face_walk darts x->y->z->x
    darts = list(face_walk)
    tails = [t.vertex_of[d] for d in darts]
    one = None
    for i, d in enumerate(darts):
        if tails[i] == u and t.head(d) == v:
            one = [d]
        if tails[i] == v and t.head(d) == u:
            one = [t.inv[d]]
        if one:
            break
    if one is None:
        return None
    # complementary path through the third corner, from u to v
    i = darts.index(one[0]) if one[0] in darts else darts.index(t.inv[one[0]])
    a, bdart = darts[(i + 1) % 3], darts[(i + 2) % 3]
    if one[0] in darts:
        two = [t.inv[bdart], t.inv[a]]
    else:
        two = [a, bdart]
    return one, two


def chamber_flip(t, walk, position, chamber_face, closed=True, arity=None):
    """Replace the walk subpath at ``position`` by the complementary
    boundary path of the chamber.

    ``walk`` is a dart sequence in the triangulation ``t``; ``chamber_face``
    a face index.  If the dart pair at ``position`` runs along two edges of
    the chamber it is replaced by the single opposite edge, otherwise the
    single dart at ``position`` is replaced by the two-edge path through
    the third corner.  When both subpaths bound the chamber, ``arity``
    (1 or 2) picks the one to replace; by default the two-edge subpath
    wins.  Raises ``NotOnChamberBoundary`` if nothing applies.
    """
    walk = list(walk)
    L = len(walk)
    face_walk = t.faces()[chamber_face]
    edge_set = {t.edge_of(d) for d in face_walk}
    d0 = walk[position]
    nxt = walk[(position + 1) % L] if (closed or position + 1 < L) else None
    if (
        arity != 1
        and nxt is not None
        and t.edge_of(d0) in edge_set
        and t.edge_of(nxt) in edge_set
        and t.edge_of(d0) != t.edge_of(nxt)
    ):
        u = t.vertex_of[d0]
        v = t.head(nxt)
        pair = _chamber_path_between(t, face_walk, u, v)
        if pair is not None:
            one, two = pair
            if [t.edge_of(x) for x in two] == [t.edge_of(d0), t.edge_of(nxt)]:
                if (position + 1) % L == 0:
                    return one + walk[1:-1] if not closed else walk[1:-1] + one
                return walk[:position] + one + walk[position + 2 :]
    if arity != 2 and t.edge_of(d0) in edge_set:
        u = t.vertex_of[d0]
        v = t.head(d0)
        pair = _chamber_path_between(t, face_walk, u, v)
        if pair is not None and t.edge_of(pair[0][0]) == t.edge_of(d0):
            one, two = pair
            return walk[:position] + two + walk[position + 1 :]
    raise NotOnChamberBoundary(
        "walk position %d does not bound face %d" % (position, chamber_face)
    )


def legal_flips(t, walk, closed=True):
    """All (position, chamber_face, arity) triples where a flip applies."""
    L = len(walk)
    out = []
    for i, d in enumerate(walk):
        e = t.edge_of(d)
        for f in (t.face_of(d), t.face_of(t.inv[d])):
            if len(t.faces()[f]) == 3:
                out.append((i, f, 1))
        if closed or i + 1 < L:
            nxt = walk[(i + 1) % L]
            if t.edge_of(nxt) == e:
                continue
            shared = {t.face_of(d), t.face_of(t.inv[d])} & {
                t.face_of(nxt),
                t.face_of(t.inv[nxt]),
            }
            for f in shared:
                if len(t.faces()[f]) == 3:
                    out.append((i, f, 2))
    return out


def walk_cycles(t, walk):
    """Split a closed walk into the simple cycles it contains.

    Splitting happens at repeated vertices; back-and-forth spikes
    (a dart immediately followed by its reverse, in cyclic order) are
    discarded since they bound no cycle.
    """
    walk = list(walk)
    # drop spikes until stable
    changed = True
    while changed and walk:
        changed = False
        L = len(walk)
        for i in range(L):
            j = (i + 1) % L
            if walk[j] == t.inv[walk[i]]:
                if j > i:
                    walk = walk[:i] + walk[j + 1 :]
                else:
                    walk = walk[1:i]
                changed = True
                break
    if not walk:
        return []
    tails = [t.vertex_of[d] for d in walk]
    pos = {}
    for i, v in enumerate(tails):
        if v in pos:
            first = pos[v]
            part1 = walk[first:i]
            part2 = walk[i:] + walk[:first]
            return walk_cycles(t, part1) + walk_cycles(t, part2)
        pos[v] = i
    return [walk]
