"""Contractibility, face-width, ck-embeddings.

A simple cycle is contractible when one of its sides is a disc, which a
walk over the faces of the smaller side decides by its Euler
characteristic.  The face-width of G is half the minimal length of a
non-contractible cycle in the barycentric subdivision ``B_G``; the
search runs on its radial subgraph ``R(G)``, which has the same minimum,
read off G: one R-edge per dart and one R-face per edge of G.  Its roots
are the vertices of a cut graph K, which every non-contractible cycle
passes, taken from the tree-cotree split that sets the homology classes;
K has at most 2g (2 diam + 1) vertices.  One BFS per root reads the
homology class of every closed walk a non-tree edge makes; on genus >= 2
it also sends the class-0 walks that can be a shortest cycle rooted at
its smallest vertex of K, each once, to the contractibility test, which
alone builds R(G).  R(G) has no loops: the scan ends at length 2.  That
BFS, ``_search``, takes its tables from ``_tables`` on any graph and
from ``_radial_tables`` for R(G).

``_ck`` decides k for all three ck checks by the short-cycle
characterisation: ``_polyhedral`` reads c3 off how the faces of G meet,
one pass of ``_face_meetings``; on maps it rejects, k = 1 at a 2-cycle
of ``B_G``, which ``_two_cycle_of`` reads off G, and k = 2 otherwise, at
a nontrivial 4-cycle, which walks along its two sides decide locally.
So ``is_ck_embedded``, ``ck_via_cycles`` and ``classify_ck`` on
O(witness) know k without building ``B_G`` or T, or searching for a cut;
the cut and the 4-cycle witness are found on their first read.  The cut
is read off the same face meetings (``_face_cut``), which rule out a
cut vertex, or found vertex by vertex (``_smallest_cut``), whose first
DFS finds the cut vertices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .chambers import barycentric, radial
from .embedded import Deferred, InternalInvariant


def is_contractible(g, cycle_darts):
    """Whether the simple cycle C, darts in order, bounds a disc.

    The faces on each side of C grow across the edges off C, one face per
    side in turn.  When the two sides meet, C does not separate, so it
    does not bound.  Otherwise one side closes first.  Counted with C,
    a side is a surface whose one boundary curve is C, so it is a disc
    exactly when its Euler characteristic V - E + F is 1.  C adds as
    many vertices as edges, so the other side's is chi(G) minus the
    closed side's.  O(smaller side), once g has its face table.
    """
    cyc = list(cycle_darts)
    k = len(cyc)
    vertex_of, inv, faces, face_of = g.vertex_of, g.inv, g.faces(), g.face_table()
    c_vertices = {vertex_of[d] for d in cyc}
    if (not k or len(c_vertices) != k or len({g.edge_of(d) for d in cyc}) != k
            or any(vertex_of[inv[cyc[i - 1]]] != vertex_of[cyc[i]] for i in range(k))):
        raise ValueError("not a simple cycle")
    c_darts = set(cyc) | {inv[d] for d in cyc}
    side_of = {}
    grown = ([], [])  # the faces of each side, in the order they are reached

    def meets(f, s):
        """Put face f on side s; whether it is on the other side."""
        t = side_of.get(f)
        if t is None:
            side_of[f] = s
            grown[s].append(f)
        return t == 1 - s

    if any(meets(face_of[d], 0) for d in cyc) or any(meets(face_of[inv[d]], 1) for d in cyc):
        return False
    done = [0, 0]
    while True:
        for s in (0, 1):
            if done[s] == len(grown[s]):
                walks = [faces[f] for f in grown[s]]
                inside = {vertex_of[d] for w in walks for d in w} - c_vertices
                chi = len(inside) - (sum(map(len, walks)) - k) // 2 + len(walks)
                return chi == 1 or g.euler_characteristic() - chi == 1
            walk = faces[grown[s][done[s]]]
            done[s] += 1
            if any(meets(face_of[inv[d]], s) for d in walk if d not in c_darts):
                return False


# ---------------------------------------------------------------------------
# homology classes and face-width searches


def _classes(nbrs, dual, sides, ends, first=0):
    """(classes, cut): the Z2-homology classes of the edges, as ints of 2g
    bits, and the vertices of a cut graph K, ascending, of the graph with
    neighbour lists ``nbrs`` (``_tables``), ``dual`` the edges of each
    face in facial order, and edge e on faces f and ``sides[e] ^ f``.

    The class of a cycle, the XOR over its edges, is 0 exactly when the
    cycle bounds a union of faces.  Up to genus 1 a simple cycle is
    contractible exactly when its class is 0; beyond, a separating cycle
    has class 0 and may still be non-contractible.

    A tree-cotree decomposition sets both in O(V + E).  Edges of a BFS
    tree T from vertex 0 get 0.  The other edges span the dual graph; a
    spanning tree of the dual on them, grown from face ``first``, leaves
    2g edges over, and each gets one unit bit.  A dual tree edge gets the
    XOR of the other edges of its child face, children before parents,
    so every face boundary has class 0.  The fundamental cycle of the
    i-th left-over edge has class bit i.

    K is vertex 0, the left-over edges and the tree paths from their
    ends, ``ends(e)``, up to vertex 0.  Cut along T and the left-over
    edges, the surface falls apart into its faces glued along the dual
    tree: an open disc.  A branch of T that leads to no left-over edge
    only pokes into that disc, so cut along K alone the surface is an
    open disc too.  Each left-over edge adds at most 2 ecc(0) + 1
    vertices, so |K| <= 2g (2 ecc(0) + 1).
    """
    nv, ne = len(nbrs), len(sides)
    spanned = [False] * ne  # in T or in the dual tree
    parent = [None] * nv  # the parent of a vertex in T
    reached = [False] * nv
    reached[0] = True
    order = [0]
    for u in order:
        for w, e, _ in nbrs[u]:
            if not reached[w]:
                reached[w] = True
                parent[w] = u
                spanned[e] = True
                order.append(w)
    up = [None] * len(dual)  # the edge of a face to its dual parent
    reached = [False] * len(dual)
    reached[first] = True
    order = [first]
    for f in order:
        for e in dual[f]:
            if not spanned[e] and not reached[child := sides[e] ^ f]:
                reached[child] = True
                spanned[e] = True
                up[child] = e
                order.append(child)
    cls, in_cut = [0] * ne, [True] + [False] * (nv - 1)
    bit = 1
    for e in range(ne):
        if not spanned[e]:
            cls[e] = bit
            bit <<= 1
            for v in ends(e):
                while not in_cut[v]:
                    in_cut[v] = True
                    v = parent[v]
    for f in reversed(order[1:]):
        vec = 0
        for e in dual[f]:
            if e != up[f]:
                vec ^= cls[e]
        cls[up[f]] = vec
    return cls, [v for v in range(nv) if in_cut[v]]


def _tables(g):
    """(neighbours, classes, cut, tails, inv) of g for ``_search``: (head, edge,
    dart) per dart of a vertex in rotation order, then ``_classes`` of g."""
    vertex_of, inv, edge_of, face_of = g.vertex_of, g.inv, g.edge_table(), g.face_table()
    edge_darts = g.edge_darts()
    nbrs = [[(vertex_of[inv[d]], edge_of[d], d) for d in rot] for rot in g.rotations()]
    return (nbrs, *_classes(nbrs, [[edge_of[d] for d in walk] for walk in g.faces()],
                            [face_of[a] ^ face_of[b] for a, b in edge_darts],
                            lambda e: [vertex_of[d] for d in edge_darts[e]]), vertex_of, inv)


def _radial_tables(g):
    """(neighbours, classes, cut, tails, inv) of ``radial(g)``, read off g.

    Dart d of g gives R-edge d: R-dart 2d at its tail, 2d + 1 at its
    face, vertex V + face_of(d).  R rotates as g at the vertices and
    against the facial walks at the faces, each from its smallest dart.
    phi_R maps 2d to 2 phi^-1(d) + 1 and 2d + 1 to 2 sigma(d), so edge
    {a, b} of g gives the R-face (2 sigma b, 2a + 1, 2 sigma a, 2b + 1)
    and R-dart 2x lies on the face of the edge of sigma^-1(x).  With each
    walk from its smallest R-dart and the dual tree grown from the face
    of R-dart 0, the tables are those ``_tables(radial(g))`` makes.
    """
    n, nv, vertex_of, sigma = g.dart_count, g.vertex_count, g.vertex_of, g.sigma
    edge_of, face_of = g.edge_table(), g.face_table()
    nbrs = [[(nv + face_of[d], d, 2 * d) for d in rot] for rot in g.rotations()]
    nbrs += [[(vertex_of[d], d, 2 * d + 1) for d in (walk[0],) + walk[:0:-1]]
             for walk in g.faces()]
    before = [0] * n  # sigma^-1
    for d, s in enumerate(sigma):
        before[s] = d
    dual = [(a, sa, b, sb) if a < min(sa, sb) else (sb, a, sa, b) if sb < sa
            else (sa, b, sb, a) for a, b in g.edge_darts() for sa, sb in ((sigma[a], sigma[b]),)]
    sides = [edge_of[x] ^ e for x, e in zip(before, edge_of)]
    tail, inv = [0] * (2 * n), [0] * (2 * n)
    tail[::2], tail[1::2] = vertex_of, [nv + f for f in face_of]
    inv[::2], inv[1::2] = range(1, 2 * n, 2), range(0, 2 * n, 2)
    return (nbrs, *_classes(nbrs, dual, sides, lambda d: (vertex_of[d], nv + face_of[d]),
                            edge_of[before[0]]), tail, inv)


def _fundamental_cycle(vertex_of, inv, depth, parent_dart, d):
    """The cycle the non-tree dart d closes in a BFS tree: d, then up
    from its head to the lowest common ancestor, then down to its tail."""
    up, down = [], []
    a, b = vertex_of[d], vertex_of[inv[d]]
    while a != b:
        if depth[a] >= depth[b]:
            down.append(parent_dart[a])
            a = vertex_of[parent_dart[a]]
        else:
            up.append(parent_dart[b])
            b = vertex_of[parent_dart[b]]
    return [d] + [inv[x] for x in up] + down[::-1]


def shortest_noncontractible_cycle(g):
    """A minimum-length non-contractible cycle of g, or None if plane.

    Cut along the cut graph K of ``_tables`` the surface is an open
    disc.  A cycle that misses the vertices of K misses its edges too, so
    it lies in that disc and is contractible: every non-contractible
    cycle passes a vertex of K, and only those are roots.  One BFS per
    root carries the class of each tree path, so a non-tree edge uw gives
    the class of the closed walk root -> u -> w -> root in O(1).  An edge
    is read from its end nearer the root, so a BFS stops at the first
    level whose walks cannot be shorter than the best cycle so far.  With
    |K| <= 2g (2 ecc(0) + 1) that is O(g diam (V + E)) at worst.  A walk
    of non-zero class has a fundamental cycle of the same class, which
    therefore bounds nothing; it becomes the best, and its length the
    bound.

    Let r be the smallest vertex of K on any shortest non-contractible
    cycle C, of length L.  The walks that the edges of C close in the BFS
    from r are at most L long and compose to C, so one of them is
    non-contractible.  Its fundamental cycle is then at most L long, so
    it is the walk itself: a shortest non-contractible cycle whose tree
    paths meet only at r (a loop at r counts), and which by the choice of
    r passes no vertex of K below r.  Up to genus 1 that walk has a
    non-zero class.  Beyond, a separating cycle can be non-contractible
    with class 0, so a class-0 walk shorter than the best goes through
    ``is_contractible`` if it has those two properties.  A cycle is thus
    tested only from its smallest vertex of K, and an edge between two
    vertices of equal depth is read from one end only, so no cycle is
    tested twice.
    """
    genus = g.genus()
    if genus == 0:
        return None
    return _search(*_tables(g), genus, lambda cyc: is_contractible(g, cyc), 1)


def _search(nbrs, edge_class, cut, vertex_of, inv, genus, contractible, floor):
    """The BFS per root of ``shortest_noncontractible_cycle`` on a graph's
    neighbour lists, edge classes, cut graph and darts; ``contractible``
    tests a class-0 cycle.  No cycle is shorter than ``floor`` (1, or 2
    without loops), so the scan ends at one of that length."""
    nv = len(nbrs)
    in_cut = [False] * nv
    for v in cut:
        in_cut[v] = True
    best, bound = None, math.inf
    for root in cut:
        if bound <= floor:
            break
        depth = [-1] * nv
        prefix = [0] * nv
        parent_dart = [None] * nv
        depth[root] = 0
        # genus >= 2: per vertex, the child of the root its tree path
        # starts with, or -1 if that path passes a vertex of K below the root
        branch = None
        if genus >= 2:
            branch = [-1] * nv
            branch[root] = root
        level, frontier = 0, [root]
        while frontier and 2 * level + 1 < bound:
            reached = []
            for u in frontier:
                hu = prefix[u]
                bu = -1 if branch is None else branch[u]
                for w, e, d in nbrs[u]:
                    dw = depth[w]
                    if dw < 0:
                        depth[w] = level + 1
                        prefix[w] = hu ^ edge_class[e]
                        parent_dart[w] = d
                        reached.append(w)
                        if bu >= 0 and (w > root or not in_cut[w]):
                            branch[w] = w if level == 0 else bu
                    elif dw >= level and level + dw + 1 < bound:
                        if hu ^ prefix[w] ^ edge_class[e]:
                            best = _fundamental_cycle(vertex_of, inv, depth, parent_dart, d)
                            bound = len(best)
                        elif (bu >= 0 and branch[w] >= 0 and (branch[w] != bu or w == root)
                              and parent_dart[w] != d and (dw > level or d < inv[d])):
                            cyc = _fundamental_cycle(vertex_of, inv, depth, parent_dart, d)
                            if not contractible(cyc):
                                best, bound = cyc, len(cyc)
            frontier = reached
            level += 1
    if best is None:
        raise InternalInvariant("face-width", "positive genus but no closed walk of non-zero class")
    return best


def face_width(g):
    """Half the minimal length of a non-contractible cycle of B_G; inf if plane.

    The search runs on the radial graph R(G), the subgraph of B_G on its
    vertex--face edges.  A minimum-length non-contractible cycle of B_G
    through an edge vertex can always be rerouted through the
    neighbouring vertex or face corner at equal length (or decomposes
    into something shorter, by the one-flip lemma), so R(G) has the
    same minimum as B_G.
    """
    return face_width_witness(g)[0]


def face_width_witness(g):
    """(face width, shortest non-contractible cycle of B_G or None).

    The cycle is ``shortest_noncontractible_cycle(radial(g))``, R-dart r
    as B-dart 2n + r, found on R(G) read off g (``_radial_tables``).
    ``radial(g)`` is built only to test a class-0 walk for
    contractibility, and the scan ends at length 2."""
    genus = g.genus()
    if genus == 0:
        return math.inf, None
    r = functools.cache(lambda: radial(g))
    cyc = _search(*_radial_tables(g), genus, lambda c: is_contractible(r(), c), 2)
    return len(cyc) // 2, tuple(2 * g.dart_count + x for x in cyc)


# ---------------------------------------------------------------------------
# ck-embeddedness


@dataclass
class CkReport(Deferred):
    """What a ck check found.  ``k_max``, ``passed``, the degree and face
    minima and ``face_width`` are computed at once.  Below k_max 3,
    ``smallest_cut`` and ``witness`` may wait for their first read
    (``Deferred``): in ``is_ck_embedded``, which then finds the cut; in
    ``ck_via_cycles`` for the first nontrivial 4-cycle, where it builds
    B_G."""

    _deferred = ("smallest_cut", "witness")

    k_max: int
    passed: bool
    min_degree: int
    min_face_size: int
    face_width: object = None  # int | math.inf | None (not computed)
    # no class-level default for the deferred fields, which would shadow them
    smallest_cut: tuple = field(default_factory=lambda: None)
    witness: dict = field(default_factory=dict)


def _articulation_points(adjacency, skip=None):
    """Cut vertices of the graph minus the vertex ``skip``, by one
    iterative Tarjan DFS; the graph minus ``skip`` must be connected."""
    nv = len(adjacency)
    disc = [0] * nv  # DFS discovery time, 0 while unvisited
    low = [0] * nv
    root = 0 if skip != 0 else 1
    disc[root] = low[root] = 1
    time = 1
    root_children = 0
    cuts = set()
    stack = [(root, iter(adjacency[root]))]
    while stack:
        v, todo = stack[-1]
        for w in todo:
            if w == skip:
                continue
            if not disc[w]:
                time += 1
                disc[w] = low[w] = time
                stack.append((w, iter(adjacency[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            parent = stack[-1][0]
            if low[v] < low[parent]:
                low[parent] = low[v]
            if parent == root:
                root_children += 1
            elif low[v] >= disc[parent]:
                cuts.add(parent)
    if root_children > 1:
        cuts.add(root)
    return cuts


def _adjacency(g):
    """The head of every dart of a vertex, in rotation order."""
    vertex_of, inv = g.vertex_of, g.inv
    return [[vertex_of[inv[d]] for d in rot] for rot in g.rotations()]


def _cut_vertex(g):
    """(the smallest cut vertex of g,), or None; one DFS."""
    cuts = _articulation_points(_adjacency(g))
    return (min(cuts),) if cuts else None


def _smallest_cut(g):
    """Smallest vertex cut of size 1 or 2, or None.

    Among the cuts of the smallest size the lexicographically first is
    returned.  1-cuts are the cut vertices of G, read by one DFS over one
    ``_adjacency``; once there are none, {a, b} is a cut exactly when b
    is a cut vertex of G - a, read by further DFS over the same table.
    Each size costs at most V depth-first searches, O(V (V + E)) in all.
    """
    adjacency = _adjacency(g)
    cuts = _articulation_points(adjacency)
    if cuts or g.vertex_count <= 2:
        return (min(cuts),) if cuts else None
    for a in range(g.vertex_count):
        later = [b for b in _articulation_points(adjacency, skip=a) if b > a]
        if later:
            return (a, min(later))
    return None


def _face_meetings(g):
    """(between, shared): the faces of every edge, keyed by its ends, and
    the vertices on both of every pair of faces, ascending; or None at a
    loop, a parallel edge, an edge with one face on both sides or a face
    through a vertex twice.  Pairs are one int each: ends u < w as
    u * V + w, faces f < h as f * F + h.  O(sum of squared degrees)."""
    vertex_of, face_of, rotations = g.vertex_of, g.face_table(), g.rotations()
    nv, nf = len(rotations), len(g.faces())
    between, shared = {}, {}
    for d, dp in g.edge_darts():
        u, w, f, h = vertex_of[d], vertex_of[dp], face_of[d], face_of[dp]
        uw = u * nv + w if u < w else w * nv + u
        if u == w or f == h or uw in between:
            return None
        between[uw] = f * nf + h if f < h else h * nf + f
    for v, rot in enumerate(rotations):
        at = sorted([face_of[d] for d in rot])
        for i, f in enumerate(at):
            for h in at[i + 1:]:
                if h == f:
                    return None
                shared.setdefault(f * nf + h, []).append(v)
    return between, shared


def _face_cut(g):
    """``_smallest_cut(g)`` on a map of face-width >= 3, read off how its
    faces meet (``_face_meetings``) in O(sum of squared degrees) when g
    is simple.

    Where ``_face_meetings`` gives None, g goes to ``_smallest_cut``.
    Otherwise g has no cut vertex, and {a, b} is a cut exactly when a and
    b lie on two faces F, F' with no edge ab between them, so the first
    such pair a < b is the first 2-cut.

    A cut vertex v has a face through it twice: at an angle of v between
    edges into two components of g - v, a face leaves v into one of them
    and can come back only through v, at another angle.  So no DFS is
    needed once ``_face_meetings`` gives tables.  If F and F' share a and
    b, a curve from a through F to b and back through F' meets g in a and
    b only, so at face-width >= 3 it bounds a disc.  At a, the angles of
    F and F' split the edges into two arcs, one on each side.  An arc
    whose one edge is ab, the only one in a simple map, puts ab between
    F and F'; so otherwise each side holds an edge from a to a third
    vertex, and {a, b} separates them.  Conversely, let {a, b} be a
    2-cut and C a component of g - a - b.  Without a cut vertex, a has
    edges into every such component.  A face with an angle at a between
    an edge into C and one not into C walks from C to outside C without
    passing a again, so it passes b.  The arcs into C and not into C
    meet at two or more such angles, on distinct faces.  With two, the
    arc not into C holds an edge into another component, so it is not ab
    alone, and no edge ab lies between the two faces.  With four or
    more, some two of the faces are not the two sides of the one edge ab.
    """
    meetings = _face_meetings(g)
    if meetings is None:
        return _smallest_cut(g)
    between, shared = meetings
    nv = g.vertex_count
    # per pair of faces the first (a, b) in O(|s|): a fails with at most two b
    firsts = (next(((a, b) for i, a in enumerate(s) for b in s[i + 1:]
                    if between.get(a * nv + b) != fh), None) for fh, s in shared.items())
    return min(filter(None, firsts), default=None)


def is_ck_embedded(g, k):
    """Direct evaluation of the ck-embeddedness definition.

    No cut with fewer than k vertices, and face-width, minimum face size
    and minimum degree all at least k.  The report carries the largest k
    in {1,2,3} for which all four conditions hold.

    The degree and face minima and face-width are computed at once, and
    k_max is taken from ``_ck``, which the ck characterisation makes
    equal to the definition's.  A c3 map is 3-connected, so it has no
    cut.  Below k_max 3, ``smallest_cut`` and ``witness`` wait for their
    first read, which reads the first cut off the faces (``_face_cut``)
    from face-width 3 on, and runs ``_smallest_cut``, O(V (V + E)),
    below it.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    min_deg = min(g.degree(v) for v in range(g.vertex_count))
    min_face = min(len(f) for f in g.faces())
    fw, fw_cycle = face_width_witness(g)
    k_max = _ck(g)[0]
    known = dict(k_max=k_max, passed=k_max >= k, min_degree=min_deg, min_face_size=min_face,
                 face_width=fw)
    if k_max == 3:
        return CkReport(**known)

    def found():
        cut = _face_cut(g) if fw >= 3 else _smallest_cut(g)
        witness = {}
        if k_max < k:
            if min_deg < k:
                witness["degree"] = min(range(g.vertex_count), key=g.degree)
            if min_face < k:
                witness["face"] = min(range(len(g.faces())), key=lambda f: len(g.faces()[f]))
            if cut is not None and len(cut) < k:
                witness["cut"] = cut
            if fw != math.inf and fw < k:
                witness["cycle"] = fw_cycle
        return dict(smallest_cut=cut, witness=witness)

    return CkReport.deferred(found, **known)


def _two_cycle(b):
    """A pair of parallel edges of B_G, as a dart cycle, or None."""
    seen = {}
    for e, (d, dp) in enumerate(b.edge_darts()):
        key = (min(b.vertex_of[d], b.vertex_of[dp]), max(b.vertex_of[d], b.vertex_of[dp]))
        if key in seen:
            d0 = seen[key]
            if b.vertex_of[d0] != b.vertex_of[d]:
                d0 = b.inv[d0]
            return (d, b.inv[d0])
        seen[key] = d
    return None


def _two_cycle_of(g):
    """``_two_cycle(barycentric(g))``, read off g without building B_G.

    ``_two_cycle`` returns the first B-edge whose ends repeat an earlier
    one's, with its first B-dart and the reverse of the earlier one's
    dart at the same end.  With n darts in g, ``barycentric`` lists the
    vertex--edge edges d, then the vertex--face edges n + d, then the
    edge--face edges 2n + d, and B-edge e has B-darts 2e and 2e + 1, at
    its ends in that order.  Ends of two kinds differ in type, so a
    repeat stays within a kind: a loop (d' = inv d), one vertex and face
    at two angles, or one face on both sides of an edge (d' = inv d).
    """
    n, inv, vertex_of, face_of = g.dart_count, g.inv, g.vertex_of, g.face_table()
    for d in range(n):
        if inv[d] < d and vertex_of[inv[d]] == vertex_of[d]:
            return 2 * d, 2 * inv[d] + 1
    first, nf = {}, len(g.faces())  # (vertex, face) of an angle -> the first dart closing it
    for x in range(n):
        x0 = first.setdefault(vertex_of[x] * nf + face_of[x], x)
        if x0 != x:
            return 2 * (n + x), 2 * (n + x0) + 1
    for d in range(n):
        if inv[d] < d and face_of[inv[d]] == face_of[d]:
            return 2 * (2 * n + d), 2 * (2 * n + inv[d]) + 1
    return None


def four_cycles(b):
    """All simple 4-cycles of a graph, as dart quadruples, in the order
    of ``_four_cycle_walk``."""
    return list(_four_cycle_walk(b))


def _four_cycle_walk(b):
    """The simple 4-cycles u-x-w-y of a graph, as dart quadruples, one at
    a time.

    The cycles come from two-hop walks u -> x -> w with w > u: for each u
    the walks are grouped by w, and every pair of middle vertices x, y of
    one group closes a cycle.  Groups are visited in increasing w and
    keep the x values in ``adj[u]`` order, so the cycles come ordered by
    the diagonal (u, w) and then by x and y.  A cycle is met from both of
    its diagonals.  Without loops or parallel edges both meetings give
    the same edges, and the first is the one where u is the smallest
    vertex, so walks through an x < u are skipped.  Otherwise the edge
    sets met so far tell repeats apart.  O(sum of squared degrees) for
    all of them.
    """
    vertex_of, inv, rotations = b.vertex_of, b.inv, b.rotations()
    nv = len(rotations)
    adj = [dict() for _ in range(nv)]
    for d in range(b.dart_count):
        adj[vertex_of[d]][vertex_of[inv[d]]] = d
    simple = all(len(adj[v]) == len(rotations[v]) for v in range(nv))
    edge_of = b.edge_table()
    seen = set()
    for u in range(nv):
        groups = {}
        for x in adj[u]:
            if x == u or (simple and x < u):
                continue
            for w in adj[x]:
                if w > u and w != x:
                    groups.setdefault(w, []).append(x)
        for w in sorted(groups):
            common = groups[w]
            for i, x in enumerate(common):
                for y in common[i + 1:]:
                    cyc = (adj[u][x], adj[x][w], adj[w][y], adj[y][u])
                    if not simple:
                        key = frozenset(edge_of[d] for d in cyc)
                        if key in seen:
                            continue
                        seen.add(key)
                    yield cyc


def _side_walk(b, cyc):
    """Whether the bridges on the side of the 4-cycle ``cyc`` that ``phi``
    turns to hold no vertex, or a single type-1 vertex only.

    The walk reads the darts in the angles of that side at each corner
    and stops at a second vertex off the cycle, or at one that is not of
    type 1 or has a neighbour off the cycle.  A chord leads to no vertex
    off the cycle; a bridge met in both faces counts on both sides.
    """
    sigma, inv, vertex_of = b.sigma, b.inv, b.vertex_of
    corners = {vertex_of[d] for d in cyc}
    inside = None
    for i, d in enumerate(cyc):
        x = sigma[inv[cyc[i - 1]]]
        while x != d:
            w = vertex_of[inv[x]]
            if w not in corners and w != inside:
                if inside is not None or b.labels[w] != 1:
                    return False
                if not {vertex_of[inv[y]] for y in b.rotations()[w]} <= corners | {w}:
                    return False
                inside = w
            x = sigma[x]
    return True


def four_cycle_is_trivial(b, cyc):
    """Trivial 4-cycles have a face whose interior holds no vertex, or a
    single type-1 vertex only.

    ``cyc`` is a simple 4-cycle as ``four_cycles`` gives it.  The side
    walk of each side reads at most one vertex off the cycle past the
    angles of that side, so the test stays local.
    """
    back = tuple(b.inv[d] for d in reversed(cyc))
    return _side_walk(b, cyc) or _side_walk(b, back)


def _short_cycles(b):
    """(k_max, witness) of the short-cycle characterisation on the
    triangulation b: 1 with the first 2-cycle, 2 with the first
    nontrivial 4-cycle, else 3 with no witness."""
    two = _two_cycle(b)
    if two is not None:
        return 1, {"two_cycle": two}
    return _four_cycle_witness(b)


def _four_cycle_witness(b):
    """(2, witness) at the first nontrivial 4-cycle of b, which the walk
    stops at, else (3, {})."""
    for cyc in _four_cycle_walk(b):
        if not four_cycle_is_trivial(b, cyc):
            return 2, {"four_cycle": cyc}
    return 3, {}


def _polyhedral(g):
    """Whether g is c3, read off how its faces meet (``_face_meetings``)
    in O(sum of squared degrees): no loop or parallel edge, no edge with one face on both
    sides, no face through a vertex twice, and two faces share at most
    two vertices, and two only with an edge between them on both.

    This equals ``_short_cycles(barycentric(g))[0] == 3``.  B_G has a
    2-cycle exactly when g has a loop (types 0-1), an edge with one face
    on both sides (1-2) or a face through a vertex twice (0-2).  Without
    those B_G is simple, a side of a 4-cycle that holds no vertex has a
    chord, and each 4-cycle has one of six type patterns:

    * 0101, u-e-v-f: e, f are parallel edges; no chord or type-1 vertex
      fits inside, so the cycle is nontrivial;
    * 1212, e-F-f-F': faces F, F' share two edges, nontrivial likewise;
    * 0202, u-F-v-F': trivial exactly when an edge uv has sides F and
      F', the one type-1 vertex that fits inside;
    * 0102, u-e-v-F: trivial exactly when e is on F, by the chord eF;
    * 0121, u-e-F-f: F passes u once, so e and f are the two edges of
      its corner at u, and the chord uF makes it trivial;
    * 0212, u-F-e-F': trivial by the chord ue when e is at u.

    On a map that passes, two shared edges would mean three shared
    vertices, so there is no 0101 or 1212, and every 0202 is trivial.
    A 0102 with e off F would leave F and a face of e sharing u and v
    without e, the only edge uv; a 0212 with e off u would leave F and
    F' sharing u and both ends of e.  So k is 3.  Conversely, a loop,
    an edge with one face on both sides or a face through a vertex twice
    is a 2-cycle, and a parallel edge a 0101.  Two faces sharing just u
    and v without an edge uv between them give a nontrivial 0202.  Two
    sharing a, b and c give one too, unless the edges ab and bc both
    have sides F and F', which makes a 1212.
    """
    meetings = _face_meetings(g)
    if meetings is None:
        return False
    between, shared = meetings
    nv = g.vertex_count
    return all(len(s) == 1 or len(s) == 2 and between.get(s[0] * nv + s[1]) == fh
               for fh, s in shared.items())


def _ck(g):
    """(k_max, two_cycle) of g by the short-cycle characterisation of ck,
    read off g without building B_G: (3, None) when ``_polyhedral``
    accepts g, else (1, the first 2-cycle of B_G) when ``_two_cycle_of``
    finds one, else (2, None)."""
    if _polyhedral(g):
        return 3, None
    two = _two_cycle_of(g)
    return (1, two) if two else (2, None)


def ck_via_cycles(g, k):
    """ck-embeddedness via short cycles of B_G: c2 iff no 2-cycles, c3 iff
    additionally no nontrivial 4-cycles.  k_max comes from ``_ck``, with
    its 2-cycle as the witness at k_max 1.  At k_max 2 the first read of
    ``witness`` builds B_G and walks its 4-cycles to the first nontrivial
    one."""
    if k not in (2, 3):
        raise ValueError("the cycle characterisation covers k=2 and k=3")
    known = dict(min_degree=min(g.degree(v) for v in range(g.vertex_count)),
                 min_face_size=min(len(f) for f in g.faces()))
    k_max, two = _ck(g)
    if k_max == 3:
        return CkReport(k_max=3, passed=True, **known)
    if two:
        return CkReport(k_max=1, passed=False, witness={"two_cycle": two}, **known)
    return CkReport.deferred(lambda: dict(witness=_four_cycle_witness(barycentric(g))[1]),
                             k_max=2, passed=k == 2, face_width=None, smallest_cut=None, **known)
