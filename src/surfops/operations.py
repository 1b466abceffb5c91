"""Lsp- and lopsp-operations: validation, cut-paths, double chamber
patches, application to embedded graphs, the built-in catalog, and
ck-classification.

A lopsp-operation is a typed sphere triangulation with special vertices
v0, v1, v2.  Applying it to G cuts the triangulation open along a
cut-path from v1 through v0 to v2, subdivides the edges of the double
chamber system of G by copies of the two path halves, and glues one copy
of the resulting patch into every double chamber, orientation
consistently.  The glued triangulation is the subdivision of the result
graph into its chambers.  An lsp-operation is a typed disc; it is applied
as its double, the lopsp-operation made by gluing a mirrored copy into its
outer face, which gives the same result and the same symmetries.

An operation enters the gluing layers once, through ``op.lopsp()``, which
validates it and doubles an lsp-operation; the layers below re-check
nothing that validation proved.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from .chambers import double_chamber_frame
from .embedded import Deferred, EmbeddedGraph, InternalInvariant
from .topology import _ck, _cut_vertex, _four_cycle_witness, _two_cycle

CATALOG_NAMES = ("identity", "dual", "truncation", "ambo", "join", "gyro", "snub")


class _Invalid(ValueError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(map(str, diagnostics)))
        self.diagnostics = diagnostics


class InvalidLopsp(_Invalid):
    pass


class InvalidLsp(_Invalid):
    pass


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
    cut = _cut_vertex(g)
    if cut:
        out.append(Diagnostic("two-connected", cut[0]))
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
    if op.outer_dart not in range(g.dart_count):
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


class _Operation:
    """A typed plane graph with special vertices v0, v1, v2, validated
    once; ``lopsp()`` is the one way from it into the gluing layers.  Only
    an lsp-operation has an outer face, marked by ``outer_dart``."""

    outer_dart = None

    @property
    def outer_face(self):
        return None if self.outer_dart is None else self.graph.face_of(self.outer_dart)

    def outer_walk(self):
        return () if self.outer_dart is None else self.graph.faces()[self.outer_face]

    def outer_vertices(self):
        return {self.graph.vertex_of[d] for d in self.outer_walk()}

    def __init__(self, graph, v0, v1, v2):
        if graph.labels is None:
            raise ValueError("operation graphs need type labels")
        self.graph = graph
        self.v0, self.v1, self.v2 = v0, v1, v2
        self._diag = None

    @property
    def specials(self):
        return (self.v0, self.v1, self.v2)

    def validate(self):
        if self._diag is None:
            self._diag = self._diagnostics()
        return self._diag

    def require_valid(self):
        diag = self.validate()
        if diag:
            raise self._invalid(diag)


class LopspOperation(_Operation):
    """Typed sphere triangulation with special vertices v0, v1, v2."""

    kind = "lopsp"
    _invalid, _diagnostics = InvalidLopsp, validate_lopsp

    def __init__(self, graph, v0, v1, v2):
        super().__init__(graph, v0, v1, v2)
        self._templates = {}  # cut-path (None: minimal) -> cell template
        # face -> inner face of the source operation, for doubled lsp-operations
        self.face_origin = None

    def lopsp(self):
        """The operation itself, once it is validated."""
        self.require_valid()
        return self


class LspOperation(_Operation):
    """Typed plane near-triangulation with a marked outer face."""

    kind = "lsp"
    _invalid, _diagnostics = InvalidLsp, validate_lsp

    def __init__(self, graph, v0, v1, v2, outer_dart):
        super().__init__(graph, v0, v1, v2)
        self.outer_dart = outer_dart
        self._lopsp = None  # the doubled lopsp-operation

    def lopsp(self):
        """The double (``lsp_to_lopsp``), which validates this operation
        and is built once."""
        return lsp_to_lopsp(self)


# ---------------------------------------------------------------------------
# cut-paths


@dataclass(frozen=True)
class CutPath:
    """Simple path from v1 through v0 to v2, as darts."""

    darts: tuple

    def vertices(self, g):
        seq = [g.vertex_of[self.darts[0]]]
        for d in self.darts:
            seq.append(g.head(d))
        return seq


def _check_cut_path(op, path):
    g, n = op.graph, op.graph.dart_count
    if not path.darts:
        raise InvalidOperation("cut-path is empty")
    bad = next((d for d in path.darts if not isinstance(d, int) or not 0 <= d < n), None)
    if bad is not None:
        raise InvalidOperation("cut-path dart %r out of range 0..%d" % (bad, n - 1))
    seq = path.vertices(g)
    if seq[0] != op.v1 or seq[-1] != op.v2:
        raise InvalidOperation("cut-path must run from v1 to v2")
    if op.v0 not in seq[1:-1]:
        raise InvalidOperation("cut-path must pass through v0")
    if len(set(seq)) != len(seq):
        raise InvalidOperation("cut-path is not a simple path")
    if any(g.vertex_of[d] != v for d, v in zip(path.darts, seq)):  # seq holds the heads
        raise InvalidOperation("cut-path darts are not consecutive")
    return path


def find_cut_path(op, strategy="minimal", seed=0):
    """A cut-path of ``op.lopsp()``: of the lopsp-operation, or of the
    double of an lsp-operation, which is what ``apply`` glues.

    ``minimal`` gives a path of minimum total length (vertex-disjoint
    shortest pair via node splitting and two shortest-path
    augmentations).  ``seeded-random`` perturbs the edge costs with an
    RNG seeded by ``seed`` (0 unless given) before taking the cheapest
    pair, which yields a reproducible variety of valid cut-paths.
    """
    op = op.lopsp()
    g = op.graph
    if strategy == "minimal":
        weight = lambda d: 1
    elif strategy == "seeded-random":
        rng = random.Random(seed)
        wedges = [1 + rng.randrange(16) for _ in range(g.edge_count)]
        weight = lambda d: wedges[g.edge_of(d)]
    else:
        raise ValueError("unknown strategy %r" % strategy)
    path_to_v1, path_to_v2 = _disjoint_shortest_pair(g, op.v0, op.v1, op.v2, weight)
    darts = [g.inv[d] for d in reversed(path_to_v1)] + path_to_v2
    # simple by construction; double_chamber_patch checks every path it gets
    return CutPath(tuple(darts))


def _disjoint_shortest_pair(g, v0, v1, v2, weight):
    """Internally disjoint dart paths v0->v1 and v0->v2 of minimum total
    weight, by min-cost flow on the split-vertex network.  A valid
    operation is 2-connected with distinct specials, so by Menger's
    theorem both augmentations reach the sink, and by flow conservation
    each unit of flow leads from the source to the sink."""
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
                    if cap > 0 and (w not in dist or du + cost < dist[w]):
                        dist[w] = du + cost
                        pre[w] = (u, i)
                        changed = True
        node = sink
        while node != source:
            u, i = pre[node]
            arcs[u][i][1] -= 1
            arcs[node][arcs[u][i][3]][1] += 1
            node = u
    # each vertex but v0 is left by at most one unit of flow: its split arc
    # has capacity 1, and v1 and v2 have no out-arcs
    flow = [arc[4] for arc in chain.from_iterable(arcs) if arc[4] is not None and arc[1] == 0]
    leaving = {g.vertex_of[d]: d for d in flow}
    paths = []
    for d in flow:
        if g.vertex_of[d] == v0:
            path = [d]
            while g.head(path[-1]) not in (v1, v2):
                path.append(leaving[g.head(path[-1])])
            paths.append(path)
    paths.sort(key=lambda p: g.head(p[-1]) == v2)
    return paths


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


def _cut_open(g, walk):
    """g cut open along a tree whose single face is ``walk``.

    Walk position j becomes a vertex of its own, whose rotation is the
    reverse of the dart before it, the darts in the angle up to walk[j],
    and walk[j]; the vertices off the tree follow, whole, in increasing
    order.  Darts are numbered rotation by rotation.  Returns the plane
    graph, the g-vertex and the g-dart each of its vertices and darts
    copies, and its outer face.
    """
    rotations = []
    origin = []  # copy dart -> the g-dart it copies
    copy_dart = {}  # g-dart off the walk -> its copy
    on_walk = {g.vertex_of[d] for d in walk}
    copy_of = tuple([g.vertex_of[d] for d in walk]
                    + [v for v in range(g.vertex_count) if v not in on_walk])
    for j, v in enumerate(copy_of):
        rot, n = g.rotations()[v], len(origin)
        if j < len(walk):
            i = rot.index(g.inv[walk[j - 1]])
            m = (rot.index(walk[j]) - i - 1) % len(rot)  # darts strictly between
            rot = (rot[i:] + rot[:i])[:m + 1] + (walk[j],)
            copy_dart.update(zip(rot[1:-1], range(n + 1, n + m + 1)))
        else:
            copy_dart.update(zip(rot, range(n, n + len(rot))))
        rotations.append(range(n, n + len(rot)))
        origin.extend(rot)
    pairing = [None] * len(origin)
    for d, x in copy_dart.items():
        pairing[x] = copy_dart[g.inv[d]]
    for j in range(len(walk)):
        x, y = rotations[j][-1], rotations[(j + 1) % len(walk)][0]
        pairing[x], pairing[y] = y, x
    pg = EmbeddedGraph.from_rotations(rotations, pairing,
                                      labels=[g.labels[v] for v in copy_of], check=False)
    return pg, copy_of, tuple(origin), pg.face_of(rotations[1][0])


def double_chamber_patch(op, path):
    """``op.lopsp()`` cut open along the cut-path, one of its own.  The
    single face of a simple path is the path followed by its reverse,
    here turned to start at its smallest dart.  That walk passes v0, an
    inner vertex of the path, twice and every other path vertex once,
    and every face of the operation lies off the path, so the patch has
    two copies of v0 and one of every face."""
    op = op.lopsp()
    _check_cut_path(op, path)
    g = op.graph
    walk = list(path.darts) + [g.inv[d] for d in reversed(path.darts)]
    i = walk.index(min(walk))
    pg, copy_of, lift_dart, outer = _cut_open(g, walk[i:] + walk[:i])
    corners_v0 = [v for v in range(len(copy_of)) if copy_of[v] == op.v0]
    (v1c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v1]
    (v2c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v2]
    lift_edge = [None] * pg.edge_count
    for d in range(pg.dart_count):
        lift_edge[pg.edge_of(d)] = g.edge_of(lift_dart[d])
    lift_face = [None if fi == outer else g.face_of(lift_dart[walk[0]])
                 for fi, walk in enumerate(pg.faces())]
    tails = [pg.vertex_of[d] for d in pg.faces()[outer]]
    i1 = tails.index(v1c)
    order = tails[i1:] + tails[:i1]
    v0_left = next(v for v in order if v in corners_v0)
    v0_right = corners_v0[0] if v0_left == corners_v0[1] else corners_v0[1]
    return DoubleChamberPatch(pg, v1c, v2c, v0_left, v0_right, outer, copy_of,
                              tuple(lift_edge), tuple(lift_face))


# ---------------------------------------------------------------------------
# gluing a patch into the double chambers of a graph


def _assemble(src, vertex_of, labels, lifts):
    """Build a glued triangulation from its faces: each run of three
    darts in ``src`` is one face, in facial order, with its lift in
    ``lifts``, and dart 2e+dir of edge e starts at ``vertex_of[2e+dir]``.
    Every dart must be listed exactly once in ``src``, which pins down
    the rotation system.  Returns the surface and the lift of each of its
    faces.

    The face table is the runs, each turned to start at its smallest dart
    and sorted: the faces in the order ``faces()`` would find them.  The
    surface is built unchecked; the tests re-derive it from scratch.
    """
    n = len(vertex_of)
    phi = [-1] * n
    runs = []
    for a, b, c, f in zip(src[0::3], src[1::3], src[2::3], lifts):
        phi[a], phi[b], phi[c] = b, c, a
        m = min(a, b, c)
        runs.append(((a, b, c) if m == a else (b, c, a) if m == b else (c, a, b), f))
    if len(src) != n or -1 in phi:
        raise InternalInvariant("assemble", "a dart is traversed twice or not at all")
    runs.sort()
    face_of = [0] * n
    for i, ((a, b, c), _) in enumerate(runs):
        face_of[a] = face_of[b] = face_of[c] = i
    t = EmbeddedGraph([phi[d ^ 1] for d in range(n)], [d ^ 1 for d in range(n)],
                      vertex_of, labels=labels)
    t._faces = tuple(walk for walk, _ in runs)
    t._face_of = tuple(face_of)
    return t, tuple(f for _, f in runs)


_LAZY_FIELDS = (
    "subdivision", "edge_cells",  # the glued T; T-edge -> the cells (double chambers) using it
    "pi_vertex", "pi_edge", "pi_face",  # T-vertex, T-edge, T-face -> the operation's
    "result_vertex_node", "result_edge_node",  # result vertex, result edge -> T-vertex
)


class ApplicationResult(Deferred):
    """Result graph, its labelled subdivision, and the projection pi.
    Gluing makes ``result``; ``build`` makes the ``_LAZY_FIELDS`` on
    first read, once, and they are cached."""

    _deferred = _LAZY_FIELDS

    def __init__(self, result, operation=None, build=None, **fields):
        self.__dict__.update(fields, result=result, operation=operation, _build=build)


@dataclass
class _CellTemplate:
    """One copy of a patch, compiled for gluing by offset arithmetic.

    The boundary walk of the patch splits at its corners into segments;
    segment k lies on the k-th side of a cell, which the gluing frame
    subdivides by a chain of vertices and edges.  Every id is a base
    chosen per cell plus a constant: ``src`` holds (base, const) pairs
    for darts, three per triangle, and ``ends`` for the two end vertices
    of each interior edge.  Dart base 0 is 2 * the cell's first interior
    edge, base 1+k is 2 * the first edge of the chain under segment k.
    Vertex base 0 is the cell's first interior vertex, 1+k the first
    interior vertex of chain k, 1+S+k the cell's k-th corner (S segments).

    ``fans`` has a slot for each type-0 vertex: its darts inside the
    cell, in rotation order, as (vertex, first dart, next, type-1 heads).
    A fan leaves its cell at a chain dart on a side where the fan of the
    cell across starts, in the slot whose first dart has the same const
    on the facing side (sides 1 and 2 face each other, as do 0 and 3);
    ``next`` is the dart base of that side and that slot.  An interior
    vertex's fan starts at its smallest dart and is its own next, at
    base 0.  ``firsts`` groups the slots, as (first dart base, slot), by
    where their first T-dart lies: on the (1, 0) frame edges, on the
    (2, 0) ones, inside the cell, each group by const.  Gluing lays a
    slot down in every cell at once and walks each vertex's fans along
    ``next``, each fan once.
    """

    chains: dict  # (type, type) -> (vertex lifts, edge lifts) of a chain, from the higher type
    src: list
    ends: list
    face_lift: list
    vertex_lift: list
    edge_lift: list
    fans: list
    firsts: list


def _compile_template(patch):
    """The cell template of a double chamber patch.  Read from v2, its
    boundary passes one copy of v0, then v1, then the other copy of v0,
    so its corners have the types (2, 0, 1, 0) of every double chamber
    read from its type-2 corner, and segment k lies on side k.  A chain
    runs from its higher-type end: the (2, 0) and (1, 0) chains are
    segments 0 and 2, from v2 and from v1, and segments 1 and 3 run
    along them backwards.  The inner faces are taken in face order; new
    ids follow first sight in that order.

    The construction proves what is not checked here.  ``_cut_open``
    copies the vertex and edge of each walk dart, so both copies of a
    cut-path half lift alike, and each walk position is a patch vertex
    of its own, so no boundary vertex is met twice.  Inner faces are
    triangles and interior edges join two types because the patch lifts
    them one to one onto the faces and edges of the operation, whose
    validation gives both.  What is checked is that the next of every
    fan starts a fan, which ``_glue`` takes on trust."""
    pg = patch.graph
    walk = pg.faces()[patch.outer_face]
    tails = [pg.vertex_of[d] for d in walk]
    first = tails.index(patch.v2)
    walk, tails = walk[first:] + walk[:first], tails[first:] + tails[:first]
    corners = (patch.v2, patch.v0_right, patch.v1, patch.v0_left)
    marks = list(map(tails.index, corners)) + [len(walk)]
    vref = {v: (5 + k, 0) for k, v in enumerate(corners)}  # patch vertex -> (vertex base, const)
    eref = {}  # patch edge -> (dart base, const, the patch dart it gives)
    tm = _CellTemplate({}, [], [], [], [], [], [], [])
    for k in range(4):
        darts, inner = walk[marks[k]:marks[k + 1]], tails[marks[k] + 1:marks[k + 1]]
        n, up = len(darts), k % 2 == 0  # whether segment k runs from its higher-type end
        if up:
            tm.chains[2 - k // 2, 0] = ([patch.lift_vertex[v] for v in inner],
                                        [patch.lift_edge[pg.edge_of(d)] for d in darts])
        for t, v in enumerate(inner):
            vref[v] = (1 + k, t if up else n - t - 2)
        for t, d in enumerate(darts):
            eref[pg.edge_of(d)] = (1 + k, 2 * t if up else 2 * (n - t) - 1, d)

    def ref(d):  # (base, const) of a patch dart
        base, const, d0 = eref[pg.edge_of(d)]
        return base, const if d == d0 else const ^ 1

    faces = [(patch.lift_face[fi], fwalk) for fi, fwalk in enumerate(pg.faces())
             if fi != patch.outer_face]
    for lifted, fwalk in faces:
        for d in fwalk:
            if pg.vertex_of[d] not in vref:
                vref[pg.vertex_of[d]] = (0, len(tm.vertex_lift))
                tm.vertex_lift.append(patch.lift_vertex[pg.vertex_of[d]])
        for d in fwalk:
            pe = pg.edge_of(d)
            if pe not in eref:
                eref[pe] = (0, 2 * len(tm.edge_lift), d)
                tm.edge_lift.append(patch.lift_edge[pe])
                tm.ends += (vref[pg.vertex_of[d]], vref[pg.head(d)])
        tm.src += map(ref, fwalk)
        tm.face_lift.append(lifted)
    phi = {d: fwalk[(i + 1) % 3] for _, fwalk in faces for i, d in enumerate(fwalk)}
    for v in [v for v, t in enumerate(pg.labels) if t == 0]:  # fans, by sigma of T in the cell
        succ = {d: phi[pg.inv[d]] for d in pg.rotations()[v] if pg.inv[d] in phi}
        starts = set(succ) - set(succ.values())  # an interior vertex has none
        fan = [starts.pop() if starts else min(succ, key=ref)]
        while succ[fan[-1]] in succ and succ[fan[-1]] != fan[0]:
            fan.append(succ[fan[-1]])
        heads = [vref[pg.head(d)] for d in fan if pg.labels[pg.head(d)] == 1]
        tm.fans.append((vref[v], ref(fan[0]), ref(succ[fan[-1]]), heads))
    slot_of = {fan[1]: f for f, fan in enumerate(tm.fans)}  # (base, const) of a first dart
    for f, (v, first, (nb, nc), heads) in enumerate(tm.fans):
        if (_ACROSS[nb], nc) not in slot_of:
            raise InternalInvariant("compile", "a fan's next starts no fan in the cell across")
        tm.fans[f] = (v, first, (nb, slot_of[_ACROSS[nb], nc]), heads)
    firsts = sorted((fc, f, fb) for f, (_, (fb, fc), _, _) in enumerate(tm.fans))
    tm.firsts = [[(fb, f) for _, f, fb in firsts if fb in group] for group in ((2, 3), (1, 4), (0,))]
    return tm


# dart base of a cell side -> that of the side facing it in the cell across:
# sides 1 and 2 face through inv, 0 and 3 through phi; the interior stays
_ACROSS = {0: 0, 1: 4, 2: 3, 3: 2, 4: 1}


def _shifted(column, c):
    return [x + c for x in column] if c else column


def _glue(g, tm, base_genus, op):
    """Glue a copy of the template into every cell (double chamber) of the
    frame of G, after subdividing each frame edge by the chain of its
    types.

    Only the result graph is made, a template slot at a time: fan f n + d
    is slot f's fan in the cell of dart d, and each of its ids is a column
    over the darts, read off G as ``DoubleChamberFrame`` documents.  A
    fan's ``next`` starts the fan of its slot in the cell across.  The
    result's vertices are T's type-0 vertices in T's order; each takes
    its fans once, from the one with its smallest T-dart, in the order of
    ``firsts``, and a ``next`` that starts another vertex's fan or one
    taken is an ``InternalInvariant``.  Result darts are numbered vertex
    by vertex, so rotations are ranges.  T's counts must give G's Euler
    characteristic, and every result dart must be listed once.  T and the
    fields indexed by it wait for ``_glue_slots``.
    """
    frame = double_chamber_frame(g)
    n, inv = g.dart_count, g.inv
    # the chains of the n frame edges of types (1, 0), then of the n of types (2, 0)
    (v1, e1), (v2, e2) = (map(len, tm.chains[t, 0]) for t in (1, 2))
    nvf = len(frame.labels)
    vbase = [nvf + x * v1 for x in range(n)] + [nvf + n * v1 + x * v2 for x in range(n)]
    nvt, net = nvf + n * (v1 + v2), n * (e1 + e2)  # the cells' interiors follow
    cv, ce = len(tm.vertex_lift), len(tm.edge_lift)  # interior vertices and edges of a cell
    if nvt - net + n * (cv - ce + len(tm.face_lift)) != 2 - 2 * base_genus:
        raise InternalInvariant("glue", "Euler characteristic differs from the base graph's")

    phi = [g.sigma[x] for x in inv]
    phi_inv = [0] * n
    for d, x in enumerate(phi):
        phi_inv[x] = d
    side = ([n + x for x in phi], inv, range(n), range(n, 2 * n))  # frame edge of side k
    # by dart base: the cell across, and the cell with the x-th frame edge
    # of its class (or the x-th cell) there, each by its dart
    across = (range(n), phi, inv, inv, phi_inv)
    owner = [[d for pair in g.edge_darts() for d in pair], phi_inv, inv, range(n), range(n)]
    cell = [0] * n
    for q, d in enumerate(owner[0]):
        cell[d] = q

    def vcol(b):  # the T-vertex of template vertex base b in the cell of each dart
        return ([nvt + cv * q for q in cell] if b == 0
                else [vbase[x] for x in side[b - 1]] if b < 5
                else [frame.tail[x] for x in inv] if b == 6
                else (frame.face, None, frame.edge, frame.tail)[b - 5])

    vbases = {b for (b, _), _, _, heads in tm.fans for b in (b, *(h for h, _ in heads))}
    vcols = {b: vcol(b) for b in vbases}

    vert, nxt, hd = [], [], []  # of fan f n + d: its T-vertex, the next fan, the heads
    for (b, c), _, (nb, t), heads in tm.fans:
        vert += _shifted(vcols[b], c)
        nxt += _shifted(across[nb], t * n)
        hd += zip(*[_shifted(vcols[hb], hc) for hb, hc in heads]) if heads else [()] * n
    # the fans by first T-dart: in each group of slots by frame edge or cell, then by const
    by_first = []
    for slots in tm.firsts:
        by_first += chain.from_iterable(zip(*[_shifted(owner[fb], f * n) for fb, f in slots]))

    type0, around = [], []  # each vertex and the heads of its fans
    for i0 in by_first:
        v = vert[i0]
        if v < 0:  # taken
            continue
        vertex_heads, i = [], i0
        while vert[i] == v:
            vert[i] = -1
            vertex_heads += hd[i]
            i = nxt[i]
        if i != i0:
            raise InternalInvariant("glue", "a vertex's fans do not close up in the cell of G's",
                                    dart=i % n)
        type0.append(v)
        around.append(vertex_heads)
    by_vertex = sorted(range(len(type0)), key=type0.__getitem__)
    type0 = tuple(map(type0.__getitem__, by_vertex))
    if len(set(type0)) < len(type0):
        raise InternalInvariant("glue", "a vertex's fans close up twice")
    around = list(map(around.__getitem__, by_vertex))
    heads = list(chain.from_iterable(around))
    degrees = list(map(len, around))
    if 0 in degrees:
        raise InternalInvariant("glue", "a result vertex has no darts")
    # the two result darts into each type-1 vertex of T are reverses
    pairing = [-1] * len(heads)
    first_in = [-1] * (nvt + n * cv)  # T-vertex -> the first dart into it, -2 once it has two
    for d, h in enumerate(heads):
        e = first_in[h]
        if e == -2:
            raise InternalInvariant("glue", "a result dart is listed twice or not at all")
        if e < 0:
            first_in[h] = d
        else:
            pairing[d], pairing[e], first_in[h] = e, d, -2
    if -1 in pairing:
        raise InternalInvariant("glue", "a result dart is listed twice or not at all")
    his = list(accumulate(degrees))  # each vertex's darts are a range, in rotation order
    los = [0] + his[:-1]
    sigma = list(range(1, len(heads) + 1))
    for lo, hi in zip(los, his):
        sigma[hi - 1] = lo
    vertex_of = chain.from_iterable(map(repeat, range(len(los)), degrees))
    result = EmbeddedGraph(sigma, pairing, vertex_of)
    result._rotations = tuple(map(tuple, map(range, los, his)))
    return ApplicationResult(result, op, lambda: dict(
        _glue_slots(frame, tm, op, owner[0], cell, side, phi_inv, vbase, vcol),
        result_vertex_node=type0, result_edge_node=tuple(heads[d] for d, _ in result.edge_darts())))


def _runs(items, k):
    """Each item k times in a row."""
    return list(chain.from_iterable(map(repeat, items, repeat(k))))


def _glue_slots(frame, tm, op, cells, cell, side, phi_inv, vbase, vcol):
    """T itself, glued a template slot at a time into all cells of
    ``frame``, with the fields indexed by it, from ``_glue``'s columns
    over G's darts.  Cell q is the cell of dart ``cells[q]``, the q-th of
    G's ``edge_darts``.  T's vertices are the frame vertices, then the
    chains in frame edge order, from ``vbase``, then each cell's interior,
    cell by cell; T's edges likewise.  Each chain position, interior edge
    end and face dart of the template is written, over all chains or
    cells at once, into a strided slice; no cell is listed."""
    n = len(cells)
    (vl1, el1), (vl2, el2) = tm.chains[1, 0], tm.chains[2, 0]
    e1, e2, ce = len(el1), len(el2), len(tm.edge_lift)
    ebase = [x * e1 for x in range(n)] + [n * e1 + x * e2 for x in range(n)]
    net = n * (e1 + e2)  # the cells' interiors follow the chains
    vertex_of = [0] * (2 * (net + n * ce))  # dart 2e+dir of T-edge e starts at vertex_of[2e+dir]
    lo = 0
    for hi, vb, k in ((frame.edge, vbase[:n], e1), (frame.face, vbase[n:], e2)):
        # chain edge i of frame edge d runs from its vertex i to i + 1, from hi(d) to tail(d)
        ends = [hi, *(_shifted(vb, i) for i in range(k - 1)), frame.tail]
        for i in range(k):
            vertex_of[lo + 2 * i:lo + 2 * n * k:2 * k] = ends[i]
            vertex_of[lo + 2 * i + 1:lo + 2 * n * k:2 * k] = ends[i + 1]
        lo += 2 * n * k
    # the columns of the template's bases in cell order
    vq = {b: list(map(vcol(b).__getitem__, cells)) for b in {b for b, _ in tm.ends}}
    dq = {b: range(2 * net, 2 * (net + n * ce), 2 * ce) if b == 0
          else [2 * ebase[side[b - 1][d]] for d in cells] for b in {b for b, _ in tm.src}}
    for j, (b, c) in enumerate(tm.ends):
        vertex_of[2 * net + j::2 * ce] = _shifted(vq[b], c)
    src = [0] * (n * len(tm.src))
    for j, (b, c) in enumerate(tm.src):
        src[j::len(tm.src)] = _shifted(dq[b], c)
    vertex_lift = ([op.specials[x] for x in frame.labels] + vl1 * n + vl2 * n
                   + tm.vertex_lift * n)
    t, face_lift = _assemble(src, vertex_of, [op.graph.labels[x] for x in vertex_lift],
                             tm.face_lift * n)
    # a chain edge lies on the cells on both sides of its frame edge, one
    # frozenset shared by the chain; an interior edge in its cell's alone
    beside = [map(cell.__getitem__, x) for x in (side[1], phi_inv)]
    edge_cells = (_runs(map(frozenset, zip(cell, beside[0])), e1)
                  + _runs(map(frozenset, zip(cell, beside[1])), e2)
                  + _runs(map(frozenset, zip(range(n))), ce))
    return dict(subdivision=t, pi_vertex=tuple(vertex_lift),
                pi_edge=tuple(el1 * n + el2 * n + tm.edge_lift * n),
                pi_face=face_lift, edge_cells=tuple(edge_cells))


def apply(op, g, cut_path=None):
    """Apply a lopsp- or lsp-operation to an embedded graph.

    One patch copy is glued into every double chamber of G, with the
    patch boundary aligned to the facial walk of the double chamber; by
    path invariance the result graph does not depend on the cut-path.
    The patch is compiled once per operation and cut-path into a cell
    template; gluing a cell is then offset arithmetic.

    The operation enters through ``op.lopsp()``, which validates it; an
    lsp-operation is glued as its double (``lsp_to_lopsp``), so a
    ``cut_path`` is one of the double's.  Then ``res.operation`` is the
    double, the ``pi_*`` fields index it, and
    ``res.operation.face_origin`` maps each of its faces back to a face
    of the lsp-operation.
    """
    op = op.lopsp()
    if cut_path not in op._templates:
        path = cut_path if cut_path is not None else find_cut_path(op, "minimal")
        op._templates[cut_path] = _compile_template(double_chamber_patch(op, path))
    return _glue(g, op._templates[cut_path], g.genus(), op)


def lsp_to_lopsp(op):
    """Double an lsp-operation by gluing a mirrored copy into its outer
    face; records which inner face every doubled face came from.  It
    validates the lsp-operation and makes the double once per operation;
    ``op.lopsp()`` of an lsp-operation is this call, and the layers
    below it re-check neither.  A lopsp-operation is returned as it is,
    once it is validated."""
    op.require_valid()
    if op.outer_dart is None:
        return op
    if op._lopsp is not None:
        return op._lopsp
    g = op.graph
    outer = op.outer_face
    boundary_vertices = op.outer_vertices()
    boundary_edges = {g.edge_of(d) for d in op.outer_walk()}
    vplain, vmirror, lift = [], [], []
    for v in range(g.vertex_count):
        vplain.append(len(lift))
        lift += [v] if v in boundary_vertices else [v, v]
        vmirror.append(len(lift) - 1)
    eplain, emirror, vertex_of = [], [], []
    for e, (d, dp) in enumerate(g.edge_darts()):
        u, w = g.vertex_of[d], g.vertex_of[dp]
        eplain.append(len(vertex_of) // 2)
        vertex_of += (vplain[u], vplain[w])
        if e not in boundary_edges:
            vertex_of += (vmirror[u], vmirror[w])
        emirror.append(len(vertex_of) // 2 - 1)
    src, lifts = [], []
    for emap, mirrored in ((eplain, False), (emirror, True)):
        for fi, walk in enumerate(g.faces()):
            if fi == outer:
                continue
            cycle = [2 * emap[g.edge_of(d)] + ((d > g.inv[d]) != mirrored)
                     for d in (walk[::-1] if mirrored else walk)]
            src += cycle
            lifts.append(fi)
    t, face_lift = _assemble(src, vertex_of, [g.labels[v] for v in lift], lifts)
    doubled = LopspOperation(t, vplain[op.v0], vplain[op.v1], vplain[op.v2])
    doubled.face_origin = face_lift
    # Valid by construction from the valid lsp-operation, clause by clause:
    # types and specials are copied; a type-1 vertex has degree 4 (an inner
    # one in each copy, a boundary one 2*3 - 2), v1 of type 1 keeps 2*2 - 2.
    # Two discs glued along a simple boundary walk make a sphere of
    # triangles.  Copied edges join two types, so there is no loop; so no
    # triangle passes a vertex twice, which some face at a cut vertex does.
    doubled._diag = []
    op._lopsp = doubled
    return doubled


def apply_lsp_direct(op, g):
    """``apply(op, g)``, kept only because the benchmark in ``perfbench``
    names it; it goes when ROADMAP item 1 clears the benchmark's debts."""
    return apply(op, g)


def inflation_factor(op):
    """Edge multiplication factor: |E(O(G))| = factor * |E(G)|, half the
    faces of ``op.lopsp()`` (F - 1 for an lsp-operation with F faces)."""
    return len(op.lopsp().graph.faces()) // 2


# ---------------------------------------------------------------------------
# catalog


_catalog_cache = {}


def catalog_dir():
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
class ClassifyReport(Deferred):
    """``k`` is computed at once; ``witness`` and ``localization`` wait
    for their first read when k < 3 (``Deferred``)."""

    _deferred = ("witness", "localization")

    k: int
    witness: dict  # {"two_cycle" or "four_cycle": darts of the subdivision} if k < 3
    localization: dict


def classify_ck(op, witness=None):
    """Largest k in {1,2,3} such that the operation maps ck-embedded
    graphs to ck-embedded graphs, decided on a single ck-embedded witness
    (the tetrahedron by default).  On a witness that is not c3, k is that
    of O(witness), not of the operation (dual gives 2 on the digon).

    k is read off O(witness) by the short-cycle characterisation of ck
    (``topology._ck``), without building T, its barycentric subdivision
    as a labelled map, whose short cycles give the same k.  The paper proves
    the characterisation equal to the definition; the tests check it,
    and the independence of the witness, on random polyhedral maps.
    When k < 3 the first read of ``witness`` or ``localization`` builds
    T and runs the one search that k names on it: the first 2-cycle at
    k = 1, the first nontrivial 4-cycle, one walk over T's 4-cycles at
    most, at k = 2; and it finds the double chambers the cycle touches.
    """
    if witness is None:
        from .polyhedra import tetrahedron

        witness = tetrahedron()
    res = apply(op, witness)
    k = _ck(res.result)[0]
    if k == 3:
        return ClassifyReport(k=3, witness={}, localization={})
    return ClassifyReport.deferred(lambda: _localize(res, k), k=k)


def _localize(res, k):
    """The first short cycle of T = ``res.subdivision`` that k < 3 names,
    a 2-cycle at k = 1 and a nontrivial 4-cycle at k = 2, and the double
    chambers (cells) its edges lie on."""
    t = res.subdivision
    wit = _two_cycle(t) if k == 1 else _four_cycle_witness(t)
    cycle = {"two_cycle" if k == 1 else "four_cycle": wit}
    cells = [res.edge_cells[t.edge_of(d)] for d in wit]
    common = frozenset.intersection(*cells)
    return dict(witness=cycle, localization=dict(
        cells=cells, single_cell=bool(common),
        within_two_adjacent=bool(common) or any(
            all(c & pair for c in cells)
            for pair in set(res.edge_cells)  # a chain edge lies on two adjacent cells
        )))
