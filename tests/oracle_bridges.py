"""Definitional subgraph code, kept as test oracles.

The package decides contractibility, 4-cycle triviality and the cut-open
patch by local walks.  The code here is what those walks replaced, and
the tests compare against it:

* ``embedded_subgraph`` re-embeds the subgraph on a dart set closed
  under ``inv``, one ``SubgraphComponent`` per connected component.
* A subgraph S of G is given as a set of darts closed under ``inv``.
  Its faces are the orbits of the restricted successor function
  (``subgraph_faces``); a bridge is either a single edge between
  vertices of S (a chord) or a component of G minus V(S) together with
  its attachment edges (``bridges``).  A face of S is simple when no
  bridge lying in it lies in another face as well; the internal
  component of a simple face re-embeds its interior with repeated
  boundary vertices split (``internal_component``).
* A cycle is contractible when one of its faces is simple and
  internally plane (``is_contractible``); a 4-cycle of B_G is trivial
  when one of its faces holds no vertex, or a single type-1 vertex
  (``four_cycle_is_trivial``).
* ``double_chamber_patch`` is the internal component of the single face
  of a cut-path.
"""

from __future__ import annotations

from dataclasses import dataclass

from surfops.embedded import EmbeddedGraph, InternalInvariant
from surfops.operations import DoubleChamberPatch, _check_cut_path


class EmptySelection(ValueError):
    """An embedded subgraph was requested for an empty dart set."""


class SubgraphComponent:
    """A connected component of an embedded subgraph.

    ``dart_map[i]`` / ``vertex_map[i]`` give the parent dart / vertex for
    dart / vertex ``i`` of the component graph.
    """

    __slots__ = ("graph", "dart_map", "vertex_map")

    def __init__(self, graph, dart_map, vertex_map):
        self.graph = graph
        self.dart_map = dart_map
        self.vertex_map = vertex_map


def embedded_subgraph(parent, keep_darts):
    """Embedded subgraph induced by a dart set closed under ``inv``.

    Returns one ``SubgraphComponent`` per connected component; the
    rotation of every surviving vertex is the rotation of the parent
    restricted to surviving darts.
    """
    keep = frozenset(keep_darts)
    if not keep:
        raise EmptySelection("no darts selected")
    for d in keep:
        if parent.inv[d] not in keep:
            raise ValueError("dart set not closed under inv")
    # split into components over sigma-restriction and inv
    nxt = {}
    for v in set(parent.vertex_of[d] for d in keep):
        rot = [d for d in parent.rotations()[v] if d in keep]
        for i, d in enumerate(rot):
            nxt[d] = rot[(i + 1) % len(rot)]
    comp = {}
    comps = []
    for start in sorted(keep):
        if start in comp:
            continue
        cid = len(comps)
        todo = [start]
        comp[start] = cid
        members = [start]
        while todo:
            d = todo.pop()
            for e in (nxt[d], parent.inv[d]):
                if e not in comp:
                    comp[e] = cid
                    members.append(e)
                    todo.append(e)
        comps.append(sorted(members))
    out = []
    for members in comps:
        newid = {d: i for i, d in enumerate(members)}
        vs = []
        vmap = []
        vseen = {}
        rotations = []
        for d in members:
            v = parent.vertex_of[d]
            if v not in vseen:
                vseen[v] = len(rotations)
                vmap.append(v)
                rot = [x for x in parent.rotations()[v] if x in newid]
                rotations.append([newid[x] for x in rot])
        pairing = [newid[parent.inv[d]] for d in members]
        labels = None
        if parent.labels is not None:
            labels = [parent.labels[v] for v in vmap]
        g = EmbeddedGraph.from_rotations(rotations, pairing, labels=labels, check=False)
        out.append(SubgraphComponent(g, tuple(members), tuple(vmap)))
    return out


class FaceIsBridged(ValueError):
    """Internal components exist only for simple faces."""


@dataclass(frozen=True)
class Bridge:
    kind: str  # "chord" | "component"
    vertices: tuple  # attachment vertices on S
    edges: tuple  # G-edge ids of the bridge
    faces: tuple  # indices of the S-faces the bridge is in
    interior_vertices: tuple = ()


@dataclass
class SubgraphFaces:
    """Faces of a dart subset S plus the angle bookkeeping used by bridges."""

    darts: frozenset
    walks: tuple  # faces of S as dart tuples
    face_of: dict  # S-dart -> face index (of the walk starting there)
    angle_of: dict  # non-S dart at an S-vertex -> (face index, walk position)


def subgraph_faces(g, sub_darts):
    """Faces of the embedded subgraph S and the face/position every angle
    gap belongs to."""
    s = frozenset(sub_darts)
    for d in s:
        if g.inv[d] not in s:
            raise ValueError("subgraph darts not closed under inv")
    # one backward walk per rotation: next_s[x] is the first S-dart after
    # x clockwise, for x in S and, in gap_end, for the darts outside S
    next_s = {}
    gap_end = {}
    for v in {g.vertex_of[d] for d in s}:
        rot = g.rotations()[v]
        k = len(rot)
        last = next(i for i in range(k - 1, -1, -1) if rot[i] in s)
        nxt = rot[last]
        for i in range(last - 1, last - 1 - k, -1):
            d = rot[i]
            if d in s:
                next_s[d] = nxt
                nxt = d
            else:
                gap_end[d] = nxt
    walks = []
    face_of = {}
    seen = set()
    for start in sorted(s):
        if start in seen:
            continue
        walk = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = next_s[g.inv[d]]
        fi = len(walks)
        walks.append(tuple(walk))
        for d in walk:
            face_of[d] = fi
    # every dart in a gap belongs to the angle whose leaving dart closes it
    position_of_leaving = {}
    for fi, walk in enumerate(walks):
        for pos, d in enumerate(walk):
            position_of_leaving[d] = (fi, pos)
    angle_of = {d: position_of_leaving[x] for d, x in gap_end.items()}
    return SubgraphFaces(s, tuple(walks), face_of, angle_of)


def bridges(g, sub_darts, sf=None):
    """Bridges of the subgraph S in G with their face assignment.

    Returns (bridges, simple) where ``simple[f]`` says whether the f-th
    face of S is simple, i.e. shares no bridge with another face.
    """
    sf = sf or subgraph_faces(g, sub_darts)
    s = sf.darts
    s_vertices = {g.vertex_of[d] for d in s}
    out = []
    g.edge_darts()
    # chords: single non-S edges with both ends on S
    comp_id = {}
    comps = []
    for v in range(g.vertex_count):
        if v in s_vertices or v in comp_id:
            continue
        cid = len(comps)
        comp_id[v] = cid
        members = [v]
        todo = [v]
        while todo:
            u = todo.pop()
            for d in g.rotations()[u]:
                w = g.head(d)
                if w not in s_vertices and w not in comp_id:
                    comp_id[w] = cid
                    members.append(w)
                    todo.append(w)
        comps.append(members)
    comp_edges = [[] for _ in comps]
    comp_attach = [set() for _ in comps]
    comp_faces = [set() for _ in comps]
    for d, dprime in g.edge_darts():
        if d in s:
            continue
        u, w = g.vertex_of[d], g.vertex_of[dprime]
        if u in s_vertices and w in s_vertices:
            fs = {sf.angle_of[d][0], sf.angle_of[dprime][0]}
            out.append(
                Bridge("chord", tuple(sorted({u, w})), (g.edge_of(d),), tuple(sorted(fs)))
            )
            continue
        for dart, tail in ((d, u), (dprime, w)):
            if tail not in s_vertices:
                cid = comp_id[tail]
                break
        comp_edges[cid].append(g.edge_of(d))
        for dart, tail in ((d, u), (dprime, w)):
            if tail in s_vertices:
                comp_attach[cid].add(tail)
                comp_faces[cid].add(sf.angle_of[dart][0])
    for cid, members in enumerate(comps):
        out.append(
            Bridge(
                "component",
                tuple(sorted(comp_attach[cid])),
                tuple(sorted(comp_edges[cid])),
                tuple(sorted(comp_faces[cid])),
                interior_vertices=tuple(sorted(members)),
            )
        )
    simple = [True] * len(sf.walks)
    for br in out:
        if len(br.faces) > 1:
            for f in br.faces:
                simple[f] = False
    return out, simple


@dataclass
class InternalComponent:
    """The interior of a simple face re-embedded as a standalone graph.

    ``copy_of`` maps every vertex back to G; boundary position j carries
    the vertex at walk position j.  ``outer_face`` is the face of the
    component corresponding to the original face.
    """

    graph: EmbeddedGraph
    copy_of: tuple
    outer_face: int
    dart_origin: tuple  # component dart -> G-dart it copies


def internal_component(g, sub_darts, face_index, sf=None, brs=None):
    sf = sf or subgraph_faces(g, sub_darts)
    if brs is None:
        brs, simple = bridges(g, sub_darts, sf)
    else:
        brs, simple = brs
    if not simple[face_index]:
        raise FaceIsBridged("face %d is bridged" % face_index)
    walk = sf.walks[face_index]
    L = len(walk)
    in_bridges = [b for b in brs if b.faces == (face_index,)]
    interior = sorted({v for b in in_bridges for v in b.interior_vertices})
    # component vertices: walk positions then interior vertices
    vid = {}
    copy_of = []
    for j in range(L):
        vid[("pos", j)] = j
        copy_of.append(g.vertex_of[walk[j]])
    for v in interior:
        vid[("int", v)] = len(copy_of)
        copy_of.append(v)
    # component darts: ("w", j)/("wb", j) for walk edges, ("b", d) for bridge darts
    dart_id = {}

    def did(key):
        if key not in dart_id:
            dart_id[key] = len(dart_id)
        return dart_id[key]

    def resolve(d):
        """Component dart for the G-dart d of a bridge edge."""
        return did(("b", d))

    rotations = []
    owners = []
    for j in range(L):
        prev = walk[(j - 1) % L]
        seq = [did(("wb", (j - 1) % L))]
        # gap darts strictly between inv(prev) and walk[j], clockwise
        v = g.vertex_of[walk[j]]
        rot = g.rotations()[v]
        k = len(rot)
        pos = (rot.index(g.inv[prev]) + 1) % k
        while rot[pos] != walk[j]:
            seq.append(resolve(rot[pos]))
            pos = (pos + 1) % k
        seq.append(did(("w", j)))
        rotations.append(seq)
        owners.append(("pos", j))
    for v in interior:
        seq = [resolve(d) for d in g.rotations()[v]]
        rotations.append(seq)
        owners.append(("int", v))
    n = len(dart_id)
    pairing = [None] * n
    for key, i in list(dart_id.items()):
        if key[0] == "w":
            pairing[i] = did(("wb", key[1]))
        elif key[0] == "wb":
            pairing[i] = did(("w", key[1]))
        else:
            pairing[i] = did(("b", g.inv[key[1]]))
    labels = None
    if g.labels is not None:
        labels = [g.labels[copy_of[vid[o]]] for o in owners]
    graph = EmbeddedGraph.from_rotations(rotations, pairing, labels=labels, check=False)
    outer = graph.face_of(dart_id[("wb", 0)])
    dart_origin = [None] * graph.dart_count
    for key, i in dart_id.items():
        if key[0] == "w":
            dart_origin[i] = walk[key[1]]
        elif key[0] == "wb":
            dart_origin[i] = g.inv[walk[key[1]]]
        else:
            dart_origin[i] = key[1]
    return InternalComponent(graph, tuple(copy_of), outer, tuple(dart_origin))


def is_contractible(g, cycle_darts):
    """Whether a simple cycle has a simple internally plane face."""
    s = set(cycle_darts) | {g.inv[d] for d in cycle_darts}
    sf = subgraph_faces(g, s)
    if len(sf.walks) != 2:
        raise ValueError("not a simple cycle (expected exactly two faces)")
    brs, simple = bridges(g, s, sf)
    for f in range(2):
        if not simple[f]:
            continue
        ic = internal_component(g, s, f, sf=sf, brs=(brs, simple))
        if ic.graph.genus() == 0:
            return True
    return False


def four_cycle_is_trivial(b, cyc):
    """Whether a face of the 4-cycle ``cyc`` of B_G holds no vertex, or a
    single type-1 vertex only, read off the bridges over all of b."""
    s = set(cyc) | {b.inv[d] for d in cyc}
    sf = subgraph_faces(b, s)
    brs, simple = bridges(b, s, sf)
    cyc_vertices = {b.vertex_of[d] for d in s}
    for f in range(len(sf.walks)):
        inside = set()
        for br in brs:
            if f in br.faces:
                inside.update(v for v in br.interior_vertices if v not in cyc_vertices)
        if not inside:
            return True
        if len(inside) == 1 and b.labels[next(iter(inside))] == 1:
            return True
    return False


def double_chamber_patch(op, path):
    """Internal component of the single face of the cut-path."""
    op.require_valid()
    _check_cut_path(op, path)
    g = op.graph
    s = set(path.darts) | {g.inv[d] for d in path.darts}
    sf = subgraph_faces(g, s)
    if len(sf.walks) != 1:
        raise InternalInvariant("patch", "a cut-path must have a single face")
    ic = internal_component(g, s, 0, sf=sf)
    copy_of = ic.copy_of
    pg = ic.graph
    corners_v0 = [v for v in range(len(copy_of)) if copy_of[v] == op.v0]
    (v1c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v1]
    (v2c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v2]
    if len(corners_v0) != 2:
        raise InternalInvariant("patch", "expected exactly two copies of v0 on the patch")
    lift_edge = [None] * pg.edge_count
    lift_dart = ic.dart_origin
    for d in range(pg.dart_count):
        lift_edge[pg.edge_of(d)] = g.edge_of(lift_dart[d])
    lift_face = []
    for fi, walk in enumerate(pg.faces()):
        if fi == ic.outer_face:
            lift_face.append(None)
        else:
            lift_face.append(g.face_of(lift_dart[walk[0]]))
    inner = sorted(f for f in lift_face if f is not None)
    if inner != sorted(range(len(g.faces()))):
        raise InternalInvariant("patch", "patch chambers do not cover the operation once each")
    walk = pg.faces()[ic.outer_face]
    tails = [pg.vertex_of[d] for d in walk]
    i1 = tails.index(v1c)
    order = tails[i1:] + tails[:i1]
    v0_left = next(v for v in order if v in corners_v0)
    v0_right = corners_v0[0] if v0_left == corners_v0[1] else corners_v0[1]
    return DoubleChamberPatch(
        pg,
        v1c,
        v2c,
        v0_left,
        v0_right,
        ic.outer_face,
        copy_of,
        tuple(lift_edge),
        tuple(lift_face),
    )
