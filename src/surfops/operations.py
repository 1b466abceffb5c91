"""Lsp- and lopsp-operations: validation, cut-paths, double chamber
patches, application to embedded graphs, the built-in catalog, and
ck-classification.

A lopsp-operation is a typed sphere triangulation with special vertices
v0, v1, v2.  Applying it to G cuts the triangulation open along a
cut-path from v1 through v0 to v2, subdivides the edges of the double
chamber system of G by copies of the two path halves, and glues one copy
of the resulting patch into every double chamber, orientation
consistently.  The glued triangulation is the barycentric subdivision of
the result graph.  An lsp-operation is a typed disc whose copies,
alternating with mirror images, fill the chambers of B_G directly.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from .chambers import ChamberSystem, DoubleChamberSystem, barycentric
from .embedded import EmbeddedGraph
from .topology import internal_component, is_ck_embedded, ck_via_cycles, subgraph_faces

CATALOG_NAMES = ("identity", "dual", "truncation", "ambo", "join", "gyro", "snub")

CATALOG_ENV = "SURFOPS_CATALOG"


class InvalidLopsp(ValueError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(map(str, diagnostics)))
        self.diagnostics = diagnostics


class InvalidLsp(ValueError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(map(str, diagnostics)))
        self.diagnostics = diagnostics


class InvalidOperation(ValueError):
    pass


class UnknownOperation(KeyError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    clause: str
    witness: object = None
    detail: str = ""

    def __str__(self):
        parts = [self.clause]
        if self.witness is not None:
            parts.append("witness=%r" % (self.witness,))
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


def _cutvertices(g):
    out = []
    nv = g.vertex_count
    if nv < 3:
        return out
    nbrs = [sorted({g.head(d) for d in g.rotations()[v]} - {v}) for v in range(nv)]
    for v in range(nv):
        rest = [u for u in range(nv) if u != v]
        seen = {rest[0]}
        todo = [rest[0]]
        while todo:
            u = todo.pop()
            for w in nbrs[u]:
                if w != v and w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(rest):
            out.append(v)
    return out


class LopspOperation:
    """Typed sphere triangulation with special vertices v0, v1, v2."""

    def __init__(self, graph, v0, v1, v2):
        if graph.labels is None:
            raise ValueError("operation graphs need type labels")
        self.graph = graph
        self.v0 = v0
        self.v1 = v1
        self.v2 = v2
        self._diag = None
        self._cs = None
        # face -> inner face of the source operation, for doubled lsp-operations
        self.face_origin = None

    @property
    def specials(self):
        return (self.v0, self.v1, self.v2)

    def types(self):
        return self.graph.labels

    def validate(self):
        if self._diag is None:
            self._diag = validate_lopsp(self)
        return self._diag

    def require_valid(self):
        diag = self.validate()
        if diag:
            raise InvalidLopsp(diag)

    def chamber_system(self):
        if self._cs is None:
            self._cs = ChamberSystem(self.graph)
        return self._cs


class LspOperation:
    """Typed plane near-triangulation with a marked outer face."""

    def __init__(self, graph, v0, v1, v2, outer_dart):
        if graph.labels is None:
            raise ValueError("operation graphs need type labels")
        self.graph = graph
        self.v0 = v0
        self.v1 = v1
        self.v2 = v2
        self.outer_dart = outer_dart
        self._diag = None
        self._cs = None

    @property
    def specials(self):
        return (self.v0, self.v1, self.v2)

    @property
    def outer_face(self):
        return self.graph.face_of(self.outer_dart)

    def outer_walk(self):
        return self.graph.faces()[self.outer_face]

    def outer_vertices(self):
        return {self.graph.vertex_of[d] for d in self.outer_walk()}

    def types(self):
        return self.graph.labels

    def validate(self):
        if self._diag is None:
            self._diag = validate_lsp(self)
        return self._diag

    def require_valid(self):
        diag = self.validate()
        if diag:
            raise InvalidLsp(diag)

    def chamber_system(self):
        if self._cs is None:
            self._cs = ChamberSystem(self.graph, outer_face=self.outer_face)
        return self._cs


def _common_diagnostics(g, v0, v1, v2, skip_faces=()):
    out = []
    types = g.labels
    if any(t not in (0, 1, 2) for t in types):
        out.append(Diagnostic("types-range"))
        return out
    if len({v0, v1, v2}) != 3:
        out.append(Diagnostic("specials-distinct", (v0, v1, v2)))
    if g.genus() != 0:
        out.append(Diagnostic("plane", g.genus(), "genus must be 0"))
    for fi, walk in enumerate(g.faces()):
        if fi in skip_faces:
            continue
        if len(walk) != 3:
            out.append(Diagnostic("triangle", fi, "face size %d" % len(walk)))
    for d, dp in g.edge_darts():
        if types[g.vertex_of[d]] == types[g.vertex_of[dp]]:
            out.append(Diagnostic("same-type-edge", g.edge_of(d)))
    if types[v0] == 1:
        out.append(Diagnostic("special-types", v0, "t(v0) must differ from 1"))
    if types[v2] == 1:
        out.append(Diagnostic("special-types", v2, "t(v2) must differ from 1"))
    if types[v1] == 1 and g.degree(v1) != 2:
        out.append(Diagnostic("v1-degree", v1, "deg %d" % g.degree(v1)))
    cuts = _cutvertices(g)
    if cuts:
        out.append(Diagnostic("two-connected", cuts[0]))
    return out


def validate_lopsp(op):
    """Diagnostics for the lopsp-operation clauses; empty means valid."""
    g = op.graph
    out = _common_diagnostics(g, op.v0, op.v1, op.v2)
    for v in range(g.vertex_count):
        if v in op.specials:
            continue
        if g.labels[v] == 1 and g.degree(v) != 4:
            out.append(Diagnostic("type1-degree", v, "deg %d" % g.degree(v)))
    return out


def validate_lsp(op):
    """Diagnostics for the lsp-operation clauses; empty means valid."""
    g = op.graph
    if not (0 <= op.outer_dart < g.dart_count):
        return [Diagnostic("outer-face", op.outer_dart, "no such dart")]
    outer = op.outer_face
    out = _common_diagnostics(g, op.v0, op.v1, op.v2, skip_faces=(outer,))
    boundary = op.outer_vertices()
    for v in op.specials:
        if v not in boundary:
            out.append(Diagnostic("specials-on-outer", v))
    walk = op.outer_walk()
    tails = [g.vertex_of[d] for d in walk]
    if len(set(tails)) != len(tails):
        out.append(Diagnostic("outer-simple", None, "outer walk revisits a vertex"))
    for v in range(g.vertex_count):
        if v in op.specials or g.labels[v] != 1:
            continue
        want = 3 if v in boundary else 4
        if g.degree(v) != want:
            out.append(
                Diagnostic("type1-degree", v, "deg %d, expected %d" % (g.degree(v), want))
            )
    return out


# ---------------------------------------------------------------------------
# cut-paths


@dataclass(frozen=True)
class CutPath:
    """Simple path from v1 through v0 to v2, as darts; ``split`` is the
    index of v0 in the vertex sequence."""

    darts: tuple
    split: int

    def vertices(self, g):
        seq = [g.vertex_of[self.darts[0]]]
        for d in self.darts:
            seq.append(g.head(d))
        return seq


def _check_cut_path(op, path):
    g = op.graph
    seq = path.vertices(g)
    if seq[0] != op.v1 or seq[-1] != op.v2:
        raise InvalidOperation("cut-path must run from v1 to v2")
    if not 0 < path.split < len(seq) - 1 or seq[path.split] != op.v0:
        raise InvalidOperation("split index does not point at v0")
    if len(set(seq)) != len(seq):
        raise InvalidOperation("cut-path is not a simple path")
    for i, d in enumerate(path.darts):
        if g.vertex_of[d] != seq[i] or g.head(d) != seq[i + 1]:
            raise InvalidOperation("cut-path darts are not consecutive")
    return path


def find_cut_path(op, strategy="minimal", seed=None):
    """A cut-path of the lopsp-operation.

    ``minimal`` gives a path of minimum total length (vertex-disjoint
    shortest pair via node splitting and two shortest-path
    augmentations).  ``seeded-random`` perturbs the edge costs with a
    seeded RNG before taking the cheapest pair, which yields a
    reproducible variety of valid cut-paths.
    """
    op.require_valid()
    g = op.graph
    if strategy == "minimal":
        weight = lambda d: 1
    elif strategy in ("seeded-random", "random"):
        rng = random.Random(seed)
        wedges = [1 + rng.randrange(16) for _ in range(g.edge_count)]
        weight = lambda d: wedges[g.edge_of(d)]
    else:
        raise ValueError("unknown strategy %r" % strategy)
    path_to_v1, path_to_v2 = _disjoint_shortest_pair(g, op.v0, op.v1, op.v2, weight)
    darts = [g.inv[d] for d in reversed(path_to_v1)] + path_to_v2
    return _check_cut_path(op, CutPath(tuple(darts), len(path_to_v1)))


def _disjoint_shortest_pair(g, v0, v1, v2, weight):
    """Internally disjoint dart paths v0->v1 and v0->v2 of minimum total
    weight, by min-cost flow on the split-vertex network."""
    nv = g.vertex_count
    sink = 2 * nv
    source = 2 * v0 + 1
    arcs = [[] for _ in range(sink + 1)]

    def add(u, w, cap, cost, dart=None):
        arcs[u].append([w, cap, cost, len(arcs[w]), dart])
        arcs[w].append([u, 0, -cost, len(arcs[u]) - 1, None])

    for v in range(nv):
        if v not in (v0, v1, v2):
            add(2 * v, 2 * v + 1, 1, 0)
    for d in range(g.dart_count):
        u, w = g.vertex_of[d], g.head(d)
        if u == w or u in (v1, v2) or w == v0:
            continue
        add(2 * u + 1, 2 * w, 1, weight(d), dart=d)
    add(2 * v1, sink, 1, 0)
    add(2 * v2, sink, 1, 0)
    for _ in range(2):
        dist = {source: 0}
        pre = {}
        changed = True
        while changed:
            changed = False
            for u in list(dist):
                du = dist[u]
                for i, arc in enumerate(arcs[u]):
                    w, cap, cost = arc[0], arc[1], arc[2]
                    if cap > 0 and du + cost < dist.get(w, float("inf")):
                        dist[w] = du + cost
                        pre[w] = (u, i)
                        changed = True
        if sink not in dist:
            raise InvalidOperation("no two disjoint paths from v0 to v1 and v2")
        node = sink
        while node != source:
            u, i = pre[node]
            arcs[u][i][1] -= 1
            arcs[node][arcs[u][i][3]][1] += 1
            node = u
    paths = []
    for _ in range(2):
        node = source
        darts = []
        while node != sink:
            for arc in arcs[node]:
                w, cap, cost, rev, dart = arc
                if cap != 0:
                    continue
                if dart is not None:
                    arc[1] = 1  # consume this unit of flow
                    darts.append(dart)
                    node = w
                    break
                if cost == 0:
                    arc[1] = 1
                    node = w
                    break
            else:
                raise AssertionError("flow decomposition failed")
        paths.append(darts)
    p1, p2 = paths
    if g.head(p1[-1]) == v2:
        p1, p2 = p2, p1
    return p1, p2


# ---------------------------------------------------------------------------
# double chamber patches


@dataclass
class DoubleChamberPatch:
    """The 4-gon patch obtained by cutting a lopsp-operation along a
    cut-path: a plane graph whose outer boundary consists of two copies
    of the path meeting at v1 and v2."""

    graph: EmbeddedGraph
    v1: int
    v2: int
    v0_left: int
    v0_right: int
    outer_face: int
    lift_vertex: tuple  # patch vertex -> operation vertex
    lift_edge: tuple  # patch edge -> operation edge
    lift_face: tuple  # patch face -> operation face (None for the outer face)


def double_chamber_patch(op, path):
    """Internal component of the single face of the cut-path."""
    op.require_valid()
    _check_cut_path(op, path)
    g = op.graph
    s = set(path.darts) | {g.inv[d] for d in path.darts}
    sf = subgraph_faces(g, s)
    if len(sf.walks) != 1:
        raise AssertionError("a cut-path must have a single face")
    ic = internal_component(g, s, 0, sf=sf)
    copy_of = ic.copy_of
    pg = ic.graph
    corners_v0 = [v for v in range(len(copy_of)) if copy_of[v] == op.v0]
    (v1c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v1]
    (v2c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v2]
    if len(corners_v0) != 2:
        raise AssertionError("expected exactly two copies of v0 on the patch")
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
        raise AssertionError("patch chambers do not cover the operation once each")
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


# ---------------------------------------------------------------------------
# gluing machinery shared by both application routes


def _assemble(face_cycles, edge_ends, vertex_labels):
    """Build the glued triangulation from oriented face cycles.

    ``face_cycles`` lists (cycle, lifted_face) pairs, a cycle being
    (edge, direction) pairs; dart 2e+dir starts at ends[e][dir].  Every
    directed edge must be traversed exactly once, which pins down the
    rotation system.
    """
    ne = len(edge_ends)
    n = 2 * ne
    phi = [None] * n
    for cycle, _ in face_cycles:
        k = len(cycle)
        for i in range(k):
            e, direction = cycle[i]
            e2, dir2 = cycle[(i + 1) % k]
            d = 2 * e + direction
            if phi[d] is not None:
                raise AssertionError("dart traversed twice while gluing")
            phi[d] = 2 * e2 + dir2
    if any(x is None for x in phi):
        raise AssertionError("some dart not traversed while gluing")
    inv = [None] * n
    vertex_of = [None] * n
    for e, (u, w) in enumerate(edge_ends):
        inv[2 * e] = 2 * e + 1
        inv[2 * e + 1] = 2 * e
        vertex_of[2 * e] = u
        vertex_of[2 * e + 1] = w
    sigma = [phi[inv[d]] for d in range(n)]
    t = EmbeddedGraph(sigma, inv, vertex_of, labels=vertex_labels)
    face_lift = [None] * len(t.faces())
    for cycle, lifted in face_cycles:
        e, direction = cycle[0]
        face_lift[t.face_of(2 * e + direction)] = lifted
    return t, tuple(face_lift)


def _verify_subdivision(t):
    for walk in t.faces():
        if len(walk) != 3:
            raise AssertionError("glued face of size %d" % len(walk))
    for d, dp in t.edge_darts():
        if t.labels[t.vertex_of[d]] == t.labels[t.vertex_of[dp]]:
            raise AssertionError("glued edge between equal types")
    for v in range(t.vertex_count):
        if t.labels[v] == 1 and t.degree(v) != 4:
            raise AssertionError("type-1 vertex of degree %d" % t.degree(v))


def _extract_base(t):
    """The embedded graph whose barycentric subdivision the labelled
    triangulation is: vertices are its type-0 vertices, edges its type-1
    vertices, faces its type-2 vertices."""
    type0 = [v for v in range(t.vertex_count) if t.labels[v] == 0]
    r_darts = []
    dart_index = {}
    rotations = []
    for v in type0:
        rot = []
        for d in t.rotations()[v]:
            if t.labels[t.head(d)] == 1:
                dart_index[d] = len(r_darts)
                rot.append(len(r_darts))
                r_darts.append(d)
        rotations.append(rot)
    pairing = [None] * len(r_darts)
    for m in range(t.vertex_count):
        if t.labels[m] != 1:
            continue
        outs = [d for d in t.rotations()[m] if t.labels[t.head(d)] == 0]
        if len(outs) != 2:
            raise AssertionError("edge vertex with %d endpoints" % len(outs))
        a, b = t.inv[outs[0]], t.inv[outs[1]]
        pairing[dart_index[a]] = dart_index[b]
        pairing[dart_index[b]] = dart_index[a]
    result = EmbeddedGraph.from_rotations(rotations, pairing)
    n_type2 = sum(1 for v in range(t.vertex_count) if t.labels[v] == 2)
    if len(result.faces()) != n_type2:
        raise AssertionError("face count does not match type-2 vertices")
    edge_node = []
    for d, dp in result.edge_darts():
        edge_node.append(t.head(r_darts[d]))
    return result, tuple(type0), tuple(edge_node)


@dataclass
class ApplicationResult:
    """Result graph, its labelled subdivision, and the projection pi."""

    result: EmbeddedGraph
    subdivision: EmbeddedGraph
    pi_vertex: tuple  # subdivision vertex -> operation vertex
    pi_edge: tuple  # subdivision edge -> operation edge
    pi_face: tuple  # subdivision face -> operation face
    result_vertex_node: tuple  # result vertex -> subdivision vertex
    result_edge_node: tuple  # result edge -> subdivision (type-1) vertex
    edge_cells: tuple = ()  # subdivision edge -> cells (double chambers) using it
    cell_adjacency: dict = field(default_factory=dict)
    operation: object = None


class _Segment:
    """One corner-to-corner stretch of a boundary walk."""

    __slots__ = ("corner_from", "corner_to", "darts")

    def __init__(self, corner_from, corner_to, darts):
        self.corner_from = corner_from
        self.corner_to = corner_to
        self.darts = darts


def _parse_boundary(graph, walk, corner_set, start_corner):
    """Split a face walk at corner vertices, starting at ``start_corner``."""
    tails = [graph.vertex_of[d] for d in walk]
    start = tails.index(start_corner)
    walk = list(walk[start:]) + list(walk[:start])
    tails = tails[start:] + tails[:start]
    marks = [i for i, v in enumerate(tails) if v in corner_set]
    segments = []
    for idx, i in enumerate(marks):
        if idx + 1 < len(marks):
            j = marks[idx + 1]
            segments.append(_Segment(tails[i], tails[j], walk[i:j]))
        else:
            segments.append(_Segment(tails[i], tails[0], walk[i:]))
    return segments


class _FrameEdge:
    """A subdivided edge of the gluing frame.

    ``vertices`` chains the result vertices from the canonical end,
    ``edges`` the result edge ids along the chain, ``lifts`` the operation
    vertices the chain projects to.
    """

    __slots__ = ("vertices", "edges", "lifts")

    def __init__(self, vertices, edges, lifts):
        self.vertices = vertices
        self.edges = edges
        self.lifts = lifts


class _Gluer:
    """Accumulates vertices, edges and oriented faces of a glued surface."""

    def __init__(self, op_graph):
        self.op_graph = op_graph
        self.vertex_labels = []
        self.vertex_lift = []
        self.edge_ends = []
        self.edge_lift = []
        self.edge_cells = []
        self.face_cycles = []

    def new_vertex(self, olift):
        self.vertex_labels.append(self.op_graph.labels[olift])
        self.vertex_lift.append(olift)
        return len(self.vertex_labels) - 1

    def new_edge(self, u, w, olift, cell=None):
        self.edge_ends.append((u, w))
        self.edge_lift.append(olift)
        self.edge_cells.append(set() if cell is None else {cell})
        return len(self.edge_ends) - 1

    def add_face(self, cycle, lifted_face):
        self.face_cycles.append((cycle, lifted_face))

    def dart_for(self, eid, u, w):
        if self.edge_ends[eid] == (u, w):
            return (eid, 0)
        if self.edge_ends[eid] == (w, u):
            return (eid, 1)
        raise AssertionError("edge endpoints drifted while gluing")

    def finish(self, base_genus, operation, cell_adjacency):
        t, face_lift = _assemble(self.face_cycles, self.edge_ends, self.vertex_labels)
        _verify_subdivision(t)
        result, vertex_node, edge_node = _extract_base(t)
        if result.genus() != base_genus:
            raise AssertionError("genus changed under a local operation")
        return ApplicationResult(
            result=result,
            subdivision=t,
            pi_vertex=tuple(self.vertex_lift),
            pi_edge=tuple(self.edge_lift),
            pi_face=face_lift,
            result_vertex_node=vertex_node,
            result_edge_node=edge_node,
            edge_cells=tuple(frozenset(c) for c in self.edge_cells),
            cell_adjacency=cell_adjacency,
            operation=operation,
        )


def _subdivide_frame(gluer, frame_graph, type_of_end, interior_data):
    """Subdivide every edge of the frame graph.

    ``type_of_end(label_pair)`` names the canonical start label of a
    chain; ``interior_data[pair]`` gives (vertex lifts, edge lifts) of the
    subdividing path, oriented away from the canonical end.
    """
    frame = []
    labels = frame_graph.labels
    for d, dp in frame_graph.edge_darts():
        u, w = frame_graph.vertex_of[d], frame_graph.vertex_of[dp]
        pair = frozenset((labels[u], labels[w]))
        start_label = type_of_end(pair)
        start, end = (u, w) if labels[u] == start_label else (w, u)
        vlifts, elifts = interior_data[pair]
        chain = [start]
        lifts = [gluer.vertex_lift[start]]
        for ol in vlifts:
            chain.append(gluer.new_vertex(ol))
            lifts.append(ol)
        chain.append(end)
        lifts.append(gluer.vertex_lift[end])
        edges = [
            gluer.new_edge(chain[i], chain[i + 1], elifts[i])
            for i in range(len(chain) - 1)
        ]
        frame.append(_FrameEdge(chain, edges, lifts))
    return frame


def _glue_cell(gluer, cell_id, patch_graph, patch_faces, outer_face_index,
               boundary_match, lift_vertex, lift_edge, lift_face):
    """Glue one patch copy into a cell.

    ``boundary_match`` maps boundary patch vertices and edges to result
    ids; interior elements get fresh copies keyed to this cell.
    """
    vmap, emap = boundary_match
    pg = patch_graph
    for face_index, walk in patch_faces:
        if face_index == outer_face_index:
            continue
        for d in walk:
            pv = pg.vertex_of[d]
            if pv not in vmap:
                vmap[pv] = gluer.new_vertex(lift_vertex[pv])
        cycle = []
        for d in walk:
            pe = pg.edge_of(d)
            if pe not in emap:
                u, w = vmap[pg.vertex_of[d]], vmap[pg.head(d)]
                emap[pe] = gluer.new_edge(u, w, lift_edge[pe], cell=cell_id)
            u, w = vmap[pg.vertex_of[d]], vmap[pg.head(d)]
            cycle.append(gluer.dart_for(emap[pe], u, w))
        gluer.add_face(cycle, lift_face[face_index])


def _match_segments(gluer, pg, segments, frame, frame_graph, cell_walk,
                    lift_vertex, cell_id):
    """Match the boundary segments of a patch copy onto the subdivided
    sides of a cell, in walk order.  Returns (vmap, emap)."""
    vmap = {}
    emap = {}
    for k, wdart in enumerate(cell_walk):
        seg = segments[k]
        fe = frame[frame_graph.edge_of(wdart)]
        tail, head = frame_graph.vertex_of[wdart], frame_graph.head(wdart)
        if fe.vertices[0] == tail and fe.vertices[-1] == head:
            forward = True
        elif fe.vertices[-1] == tail and fe.vertices[0] == head:
            forward = False
        else:
            raise AssertionError("frame chain does not join the walk dart ends")
        chain = fe.vertices if forward else fe.vertices[::-1]
        edges = fe.edges if forward else fe.edges[::-1]
        lifts = fe.lifts if forward else fe.lifts[::-1]
        seg_tails = [pg.vertex_of[d] for d in seg.darts] + [seg.corner_to]
        if len(seg_tails) != len(chain):
            raise AssertionError("boundary segment length mismatch")
        for t in range(len(chain)):
            pv = seg_tails[t]
            if pv in vmap and vmap[pv] != chain[t]:
                raise AssertionError("inconsistent corner identification")
            vmap[pv] = chain[t]
            if lifts[t] != lift_vertex[pv]:
                raise AssertionError("boundary lift mismatch while gluing")
        for t, d in enumerate(seg.darts):
            emap[pg.edge_of(d)] = edges[t]
            gluer.edge_cells[edges[t]].add(cell_id)
    return vmap, emap


def _quad_adjacency(dg):
    adj = {}
    for d, dp in dg.edge_darts():
        f1, f2 = dg.face_of(d), dg.face_of(dp)
        adj.setdefault(f1, set()).add(f2)
        adj.setdefault(f2, set()).add(f1)
    for f in adj:
        adj[f].discard(f)
    return adj


def apply(op, g, cut_path=None):
    """Apply a lopsp-operation to an embedded graph.

    One patch copy is glued into every double chamber of G, with the
    patch boundary aligned to the facial walk of the double chamber; by
    path invariance the result graph does not depend on the cut-path.
    """
    if isinstance(op, LspOperation):
        op = lsp_to_lopsp(op)
    op.require_valid()
    if cut_path is None:
        cut_path = find_cut_path(op, "minimal")
    patch = double_chamber_patch(op, cut_path)
    pg = patch.graph
    dc = DoubleChamberSystem(barycentric(g))
    dg = dc.graph

    corner_set = {patch.v1, patch.v2, patch.v0_left, patch.v0_right}
    segments = _parse_boundary(
        pg, pg.faces()[patch.outer_face], corner_set, patch.v2
    )
    if len(segments) != 4 or segments[2].corner_from != patch.v1:
        raise AssertionError("patch boundary does not split into two path copies")

    gluer = _Gluer(op.graph)
    for v in range(dg.vertex_count):
        lift = {0: op.v0, 1: op.v1, 2: op.v2}[dg.labels[v]]
        gluer.new_vertex(lift)

    seg_c, seg_m = segments[0], segments[2]  # v2 -> v0 copy, v1 -> v0 copy
    interior_data = {
        frozenset((0, 2)): (
            [patch.lift_vertex[pg.vertex_of[d]] for d in seg_c.darts[1:]],
            [patch.lift_edge[pg.edge_of(d)] for d in seg_c.darts],
        ),
        frozenset((0, 1)): (
            [patch.lift_vertex[pg.vertex_of[d]] for d in seg_m.darts[1:]],
            [patch.lift_edge[pg.edge_of(d)] for d in seg_m.darts],
        ),
    }
    frame = _subdivide_frame(
        gluer, dg, lambda pair: 2 if 2 in pair else 1, interior_data
    )

    patch_faces = list(enumerate(pg.faces()))
    for qi, quad in enumerate(dg.faces()):
        if len(quad) != 4:
            raise AssertionError("double chamber of size %d" % len(quad))
        start = next(i for i, d in enumerate(quad) if dg.labels[dg.vertex_of[d]] == 2)
        walk = list(quad[start:]) + list(quad[:start])
        # the patch boundary runs against the facial walk of the double
        # chamber, so the glued copy keeps the orientation of G
        walk = [dg.inv[d] for d in reversed(walk)]
        match = _match_segments(
            gluer, pg, segments, frame, dg, walk, patch.lift_vertex, qi
        )
        _glue_cell(
            gluer,
            qi,
            pg,
            patch_faces,
            patch.outer_face,
            match,
            patch.lift_vertex,
            patch.lift_edge,
            patch.lift_face,
        )
    return gluer.finish(g.genus(), op, _quad_adjacency(dg))


def lsp_to_lopsp(op):
    """Double an lsp-operation by gluing a mirrored copy into its outer
    face; records which inner face every doubled face came from."""
    op.require_valid()
    g = op.graph
    outer = op.outer_face
    boundary_vertices = op.outer_vertices()
    boundary_edges = {g.edge_of(d) for d in op.outer_walk()}
    gluer = _Gluer(g)
    vmap_plain = {}
    vmap_mirror = {}
    for v in range(g.vertex_count):
        vmap_plain[v] = gluer.new_vertex(v)
        if v in boundary_vertices:
            vmap_mirror[v] = vmap_plain[v]
        else:
            vmap_mirror[v] = gluer.new_vertex(v)
    emap_plain = {}
    emap_mirror = {}
    for e, (d, dp) in enumerate(g.edge_darts()):
        u, w = g.vertex_of[d], g.vertex_of[dp]
        emap_plain[e] = gluer.new_edge(vmap_plain[u], vmap_plain[w], e)
        if e in boundary_edges:
            emap_mirror[e] = emap_plain[e]
        else:
            emap_mirror[e] = gluer.new_edge(vmap_mirror[u], vmap_mirror[w], e)
    face_origin = []
    for fi, walk in enumerate(g.faces()):
        if fi == outer:
            continue
        cycle = []
        for d in walk:
            u, w = vmap_plain[g.vertex_of[d]], vmap_plain[g.head(d)]
            cycle.append(gluer.dart_for(emap_plain[g.edge_of(d)], u, w))
        gluer.add_face(cycle, fi)
        face_origin.append(fi)
    for fi, walk in enumerate(g.faces()):
        if fi == outer:
            continue
        cycle = []
        for d in reversed(walk):
            u, w = vmap_mirror[g.head(d)], vmap_mirror[g.vertex_of[d]]
            cycle.append(gluer.dart_for(emap_mirror[g.edge_of(d)], u, w))
        gluer.add_face(cycle, fi)
        face_origin.append(fi)
    t, face_lift = _assemble(gluer.face_cycles, gluer.edge_ends, gluer.vertex_labels)
    doubled = LopspOperation(
        t, vmap_plain[op.v0], vmap_plain[op.v1], vmap_plain[op.v2]
    )
    doubled.face_origin = face_lift
    diag = doubled.validate()
    if diag:
        raise InvalidLsp(diag)
    return doubled


def doubling_morphism(op):
    """The doubled operation together with the element mapping from its
    Delaney-Dress symbol to the one of the lsp-operation."""
    lop = lsp_to_lopsp(op)
    chamber_index = {f: c for c, f in enumerate(op.chamber_system().chambers)}
    mapping = tuple(chamber_index[f] for f in lop.face_origin)
    return lop, mapping


def apply_lsp_direct(op, g):
    """Apply an lsp-operation by gluing plain and mirrored copies into the
    chambers of B_G, as the chamber orientation dictates."""
    op.require_valid()
    og = op.graph
    b = barycentric(g).graph

    plain_walk = op.outer_walk()
    corner_set = set(op.specials)
    plain_segments = _parse_boundary(og, plain_walk, corner_set, op.v2)
    if len(plain_segments) != 3:
        raise AssertionError("lsp outer walk does not split at the specials")
    mirror_walk = [og.inv[d] for d in reversed(plain_walk)]
    mirror_segments = _parse_boundary(og, mirror_walk, corner_set, op.v2)
    plain_order = (plain_segments[1].corner_from, plain_segments[2].corner_from)
    mirror_order = (mirror_segments[1].corner_from, mirror_segments[2].corner_from)

    special_index = {op.v0: 0, op.v1: 1, op.v2: 2}
    inner_faces = [
        (fi, walk) for fi, walk in enumerate(og.faces()) if fi != op.outer_face
    ]
    mirror_faces = [
        (fi, tuple(og.inv[d] for d in reversed(walk))) for fi, walk in inner_faces
    ]

    gluer = _Gluer(og)
    specials = {0: op.v0, 1: op.v1, 2: op.v2}
    for v in range(b.vertex_count):
        gluer.new_vertex(specials[b.labels[v]])

    # segment between the two corners missing type tau subdivides tau-edges
    seg_by_pair = {}
    for seg in plain_segments:
        pair = frozenset(
            (special_index[seg.corner_from], special_index[seg.corner_to])
        )
        seg_by_pair[pair] = seg
    interior_data = {}
    for pair, seg in seg_by_pair.items():
        # orient from the type-2 corner when present, else from type 1
        want = 2 if 2 in pair else 1
        darts = seg.darts
        if special_index[seg.corner_from] != want:
            darts = [og.inv[d] for d in reversed(darts)]
        interior_data[pair] = (
            [og.vertex_of[d] for d in darts[1:]],
            [og.edge_of(d) for d in darts],
        )
    frame = _subdivide_frame(
        gluer, b, lambda pair: 2 if 2 in pair else 1, interior_data
    )

    identity_lift = tuple(range(og.vertex_count))
    edge_identity = tuple(range(og.edge_count))
    face_identity = tuple(range(len(og.faces())))
    for ci, tri in enumerate(b.faces()):
        start = next(i for i, d in enumerate(tri) if b.labels[b.vertex_of[d]] == 2)
        walk = list(tri[start:]) + list(tri[:start])
        walk = [b.inv[d] for d in reversed(walk)]
        types = tuple(b.labels[b.vertex_of[d]] for d in walk[1:])
        if types == tuple(special_index[c] for c in plain_order):
            segments, faces = plain_segments, inner_faces
        elif types == tuple(special_index[c] for c in mirror_order):
            segments, faces = mirror_segments, mirror_faces
        else:
            raise AssertionError("chamber corners match neither orientation")
        match = _match_segments(
            gluer, og, segments, frame, b, walk, identity_lift, ci
        )
        _glue_cell(
            gluer,
            ci,
            og,
            faces,
            op.outer_face,
            match,
            identity_lift,
            edge_identity,
            face_identity,
        )
    adjacency = _quad_adjacency(b)
    return gluer.finish(g.genus(), op, adjacency)


def inflation_factor(op):
    """Edge multiplication factor: |E(O(G))| = factor * |E(G)|."""
    if isinstance(op, LopspOperation):
        op.require_valid()
        return len(op.graph.faces()) // 2
    op.require_valid()
    return len(op.graph.faces()) - 1


# ---------------------------------------------------------------------------
# catalog


_catalog_cache = {}


def catalog_dir():
    override = os.environ.get(CATALOG_ENV)
    if override:
        return override
    from importlib.resources import files

    return str(files("surfops").joinpath("data/catalog"))


def catalog_names():
    return CATALOG_NAMES


def catalog(name):
    """A validated catalog operation, loaded from its data file."""
    if name in _catalog_cache:
        return _catalog_cache[name]
    base = catalog_dir()
    from . import io as io_mod

    for ext in (".lsp", ".lopsp"):
        path = os.path.join(base, name + ext)
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as handle:
                op = io_mod.parse_op(handle.read())
            op.require_valid()
            _catalog_cache[name] = op
            return op
    raise UnknownOperation(name)


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassifyReport:
    k: int
    witness_report: object  # CkReport of O(witness) for k = 3
    cycle_report: object  # CkReport from the cycle characterisation on the subdivision
    localization: dict


def classify_ck(op, witness=None):
    """Largest k in {0,1,2,3} such that the operation maps ck-embedded
    graphs to ck-embedded graphs, decided on a single ck-embedded witness
    (the tetrahedron by default).

    When k < 3 the short offending cycle of the subdivision is reported
    together with the double chambers it touches.
    """
    if isinstance(op, LspOperation):
        lop = lsp_to_lopsp(op)
    else:
        lop = op
    lop.require_valid()
    if witness is None:
        from .polyhedra import tetrahedron

        witness = tetrahedron()
    res = apply(lop, witness)
    report = is_ck_embedded(res.result, 3, bary_graph=res.subdivision)
    k = report.k_max
    cycle_report = ck_via_cycles(res.result, 3, bary_graph=res.subdivision)
    if cycle_report.k_max != k:
        raise AssertionError(
            "cycle characterisation disagrees with the direct ck test"
        )
    localization = {}
    if k < 3:
        wit = cycle_report.witness.get("two_cycle") or cycle_report.witness.get(
            "four_cycle"
        )
        if wit is not None:
            cells = [res.edge_cells[res.subdivision.edge_of(d)] for d in wit]
            localization["cells"] = cells
            common = set.intersection(*(set(c) for c in cells)) if cells else set()
            localization["single_cell"] = bool(common)
            pair_found = bool(common)
            if not pair_found:
                candidates = set().union(*(set(c) for c in cells))
                for q1 in candidates:
                    for q2 in res.cell_adjacency.get(q1, ()):  # adjacent copies
                        if all(c & {q1, q2} for c in cells):
                            pair_found = True
                            break
                    if pair_found:
                        break
            localization["within_two_adjacent"] = pair_found
    return ClassifyReport(
        k=k, witness_report=report, cycle_report=cycle_report, localization=localization
    )
