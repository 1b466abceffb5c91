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
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .chambers import ChamberSystem, DoubleChamberSystem
from .embedded import EmbeddedGraph, InternalInvariant
from .topology import _polyhedral, _short_cycles, _smallest_cut

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
        self._templates = {}  # cut-path (None: minimal) -> cell template
        # face -> inner face of the source operation, for doubled lsp-operations
        self.face_origin = None

    @property
    def specials(self):
        return (self.v0, self.v1, self.v2)

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
        self._lopsp = None  # the doubled lopsp-operation

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
    cut = _smallest_cut(g, max_size=1)
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
    """A cut-path of the lopsp-operation, or of the double of an
    lsp-operation, which is what ``apply`` glues.

    ``minimal`` gives a path of minimum total length (vertex-disjoint
    shortest pair via node splitting and two shortest-path
    augmentations).  ``seeded-random`` perturbs the edge costs with a
    seeded RNG before taking the cheapest pair, which yields a
    reproducible variety of valid cut-paths.
    """
    if isinstance(op, LspOperation):
        op = lsp_to_lopsp(op)
    op.require_valid()
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
    return CutPath(tuple(darts), len(path_to_v1))


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
                raise InternalInvariant("cut-path", "flow decomposition failed")
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
    """The operation cut open along the cut-path.  The single face of a
    simple path is the path followed by its reverse, here turned to
    start at its smallest dart."""
    op.require_valid()
    _check_cut_path(op, path)
    g = op.graph
    walk = list(path.darts) + [g.inv[d] for d in reversed(path.darts)]
    i = walk.index(min(walk))
    pg, copy_of, lift_dart, outer = _cut_open(g, walk[i:] + walk[:i])
    corners_v0 = [v for v in range(len(copy_of)) if copy_of[v] == op.v0]
    (v1c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v1]
    (v2c,) = [v for v in range(len(copy_of)) if copy_of[v] == op.v2]
    if len(corners_v0) != 2:
        raise InternalInvariant("patch", "expected exactly two copies of v0 on the patch")
    lift_edge = [None] * pg.edge_count
    for d in range(pg.dart_count):
        lift_edge[pg.edge_of(d)] = g.edge_of(lift_dart[d])
    lift_face = []
    for fi, walk in enumerate(pg.faces()):
        if fi == outer:
            lift_face.append(None)
        else:
            lift_face.append(g.face_of(lift_dart[walk[0]]))
    inner = sorted(f for f in lift_face if f is not None)
    if inner != sorted(range(len(g.faces()))):
        raise InternalInvariant("patch", "patch chambers do not cover the operation once each")
    tails = [pg.vertex_of[d] for d in pg.faces()[outer]]
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
        outer,
        copy_of,
        tuple(lift_edge),
        tuple(lift_face),
    )


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


class ApplicationResult:
    """Result graph, its labelled subdivision, and the projection pi.
    Gluing makes ``result``; ``build`` makes the ``_LAZY_FIELDS`` on
    first read, once, and they are cached."""

    def __init__(self, result, operation=None, build=None, **fields):
        self.__dict__.update(fields, result=result, operation=operation, _build=build)

    def __getattr__(self, name):
        if name not in _LAZY_FIELDS or self.__dict__.get("_build") is None:
            raise AttributeError(name)
        self.__dict__.update(self._build(), _build=None)
        return self.__dict__[name]


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

    ``fans`` gives each type-0 vertex its darts inside the cell, in
    rotation order, as (vertex, first dart, next dart, type-1 heads):
    ``next`` starts the next cell's fan around it, or is ``first`` for an
    interior vertex, whose fan starts at its smallest dart.
    """

    chains: dict  # (type, type) -> (vertex lifts, edge lifts) of a chain, from the higher type
    src: list
    ends: list
    face_lift: list
    vertex_lift: list
    edge_lift: list
    fans: list


def _compile_template(pg, walk, start, corner_type, faces, lift_vertex, lift_edge):
    """The template of a patch whose boundary ``walk`` is split at the
    corners in ``corner_type`` (patch vertex -> 0, 1, 2), starting at
    corner ``start``.  ``faces`` lists (lift, dart walk) for the inner
    faces in gluing order; new ids follow first sight in that order.
    A chain runs from its higher-type end, so segment k runs along it
    when its first corner has the higher type.  Every inner face must be
    a triangle and every interior edge must join two types, and the
    corners must have the types (2, 0, 1, 0) of every double chamber read
    from its type-2 corner; that is checked here, once per template, not
    on every glued graph."""
    tails = [pg.vertex_of[d] for d in walk]
    first = tails.index(start)
    walk, tails = list(walk[first:]) + list(walk[:first]), tails[first:] + tails[:first]
    marks = [i for i, v in enumerate(tails) if v in corner_type] + [len(walk)]
    nseg = len(marks) - 1
    types = tuple(corner_type[tails[i]] for i in marks[:-1])
    if types != (2, 0, 1, 0):
        raise InternalInvariant("template", "corner types %r, not a double chamber's" % (types,))
    vref = {}  # patch vertex -> (vertex base, const)
    eref = {}  # patch edge -> (dart base, const, the patch dart it gives)
    chains = {}
    for k in range(nseg):
        darts = walk[marks[k]:marks[k + 1]]
        seg = tails[marks[k]:marks[k + 1]] + [tails[marks[k + 1] % len(walk)]]
        a, b = types[k], types[(k + 1) % nseg]
        n = len(darts)
        pos = range(n + 1) if a > b else range(n, -1, -1)  # chain position of seg[t]
        chain = ([lift_vertex[v] for v in seg[1:-1]], [lift_edge[pg.edge_of(d)] for d in darts])
        if a < b:
            chain = (chain[0][::-1], chain[1][::-1])
        if chains.setdefault((max(a, b), min(a, b)), chain) != chain:
            raise InternalInvariant("template", "copies of a cut-path half lift differently",
                                    dart=darts[0])
        for t, v in enumerate(seg):
            ref = ((1 + nseg + k, 0) if t == 0 else (1 + nseg + (k + 1) % nseg, 0) if t == n
                   else (1 + k, pos[t] - 1))
            if vref.setdefault(v, ref) != ref:
                raise InternalInvariant("template", "boundary vertex met twice", dart=darts[0])
        for t, d in enumerate(darts):
            eref[pg.edge_of(d)] = (1 + k, 2 * min(pos[t], pos[t + 1]) + (a < b), d)
    tm = _CellTemplate(chains, [], [], [], [], [], [])

    def ref(d):  # (base, const) of a patch dart
        base, const, d0 = eref[pg.edge_of(d)]
        return base, const if d == d0 else const ^ 1

    for lifted, fwalk in faces:
        if len(fwalk) != 3:
            raise InternalInvariant("template", "face of size %d" % len(fwalk), dart=fwalk[0])
        for d in fwalk:
            if pg.vertex_of[d] not in vref:
                vref[pg.vertex_of[d]] = (0, len(tm.vertex_lift))
                tm.vertex_lift.append(lift_vertex[pg.vertex_of[d]])
        for d in fwalk:
            pe = pg.edge_of(d)
            if pe not in eref:
                if pg.labels[pg.vertex_of[d]] == pg.labels[pg.head(d)]:
                    raise InternalInvariant("template", "edge between equal types", dart=d)
                eref[pe] = (0, 2 * len(tm.edge_lift), d)
                tm.edge_lift.append(lift_edge[pe])
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
    return tm


def _frame_chains(frame, chains):
    """Each frame edge as its two darts, from its higher-type end, with
    the vertex and edge lifts of the chain that subdivides it."""
    labels, fv = frame.labels, frame.vertex_of
    for d, dp in frame.edge_darts():
        if labels[fv[d]] < labels[fv[dp]]:
            d, dp = dp, d
        yield d, dp, chains[labels[fv[d]], labels[fv[dp]]]


def _cells(frame):
    """Each face (cell) of the frame with its walk and the frame edges of
    its sides.  A cell is read from its type-2 corner against its facial
    walk, so the glued copies keep the orientation of G."""
    labels, fv, inv, edge_of = frame.labels, frame.vertex_of, frame.inv, frame.edge_of
    for qi, face in enumerate(frame.faces()):
        i = [labels[fv[d]] for d in face].index(2)
        walk = [inv[d] for d in reversed(face[i:] + face[:i])]
        yield qi, walk, [edge_of(d) for d in walk]


def _glue(frame, tm, base_genus, op):
    """Glue a copy of the template into every face (cell) of the double
    chamber graph ``frame``, after subdividing each frame edge by the
    chain of its types.

    Only the result graph is made, from the template's fans; T and the
    fields indexed by it wait for ``_glue_slots``.  The result's vertices
    are T's type-0 vertices in T's order, each with its cells' fans from
    its smallest T-dart.  T's counts must give G's Euler characteristic,
    and every result dart must be listed once.
    """
    fv = frame.vertex_of
    nvt, net, nf = len(frame.rotations()), 0, 0
    vbase, ebase = [], []
    for _, _, (vl, el) in _frame_chains(frame, tm.chains):
        vbase.append(nvt)
        ebase.append(net)
        nvt += len(vl)
        net += len(el)
    fan_at = {}  # first dart of a fan -> (its heads, the first dart of the next fan)
    start = {}  # type-0 vertex -> its smallest dart
    cells = list(_cells(frame))
    for _, walk, sides in cells:
        db = [2 * net] + [2 * ebase[x] for x in sides]
        vb = [nvt] + [vbase[x] for x in sides] + [fv[d] for d in walk]
        for (b, c), (fb, fc), (nb, nc), heads in tm.fans:
            v, first = vb[b] + c, db[fb] + fc
            fan_at[first] = ([vb[x] + y for x, y in heads], db[nb] + nc)
            if first < start.get(v, first + 1):
                start[v] = first
        nvt += len(tm.vertex_lift)
        net += len(tm.edge_lift)
        nf += len(tm.face_lift)
    if nvt - net + nf != 2 - 2 * base_genus:
        raise InternalInvariant("glue", "Euler characteristic differs from the base graph's")
    heads, rotations, type0 = [], [], sorted(start)
    for v in type0:
        lo, d = len(heads), start[v]
        while True:
            fan, d = fan_at[d]
            heads += fan
            if d == start[v]:
                break
        rotations.append(range(lo, len(heads)))
    # the two result darts into each type-1 vertex of T are reverses
    order = sorted(range(len(heads)), key=heads.__getitem__)
    ends = [heads[d] for d in order]
    if ends[0::2] != ends[1::2] or 2 * len(set(ends)) != len(ends):
        raise InternalInvariant("glue", "a result dart is listed twice or not at all")
    pairing = [0] * len(heads)
    for a, b in zip(order[0::2], order[1::2]):
        pairing[a], pairing[b] = b, a
    result = EmbeddedGraph.from_rotations(rotations, pairing, check=False)
    return ApplicationResult(result, op, lambda: dict(
        _glue_slots(frame, cells, tm, op), result_vertex_node=tuple(type0),
        result_edge_node=tuple(heads[d] for d, _ in result.edge_darts())))


def _glue_slots(frame, cells, tm, op):
    """T itself, glued slot by slot into the frame's ``_cells``, with the
    fields indexed by it.  T's vertices are the frame vertices, then the
    chains in frame edge order, then each cell's interior, cell by cell."""
    fv = frame.vertex_of
    vertex_lift = [op.specials[x] for x in frame.labels]
    vertex_of = []  # of the glued darts: dart 2e+dir starts at vertex_of[2e+dir]
    edge_lift, edge_cells, vbase, ebase = [], [], [], []
    for d, dp, (vl, el) in _frame_chains(frame, tm.chains):
        chain = [fv[d], *range(len(vertex_lift), len(vertex_lift) + len(vl)), fv[dp]]
        vbase.append(len(vertex_lift))
        ebase.append(len(edge_lift))
        vertex_of += [x for pair in zip(chain, chain[1:]) for x in pair]
        vertex_lift += vl
        edge_lift += el
        edge_cells += [frozenset((frame.face_of(d), frame.face_of(dp)))] * len(el)
    src, lifts = [], []
    for qi, walk, sides in cells:
        db = [2 * len(edge_lift)] + [2 * ebase[x] for x in sides]
        vb = [len(vertex_lift)] + [vbase[x] for x in sides] + [fv[d] for d in walk]
        src += [db[b] + c for b, c in tm.src]
        vertex_of += [vb[b] + c for b, c in tm.ends]
        lifts += tm.face_lift
        vertex_lift += tm.vertex_lift
        edge_lift += tm.edge_lift
        edge_cells += [frozenset((qi,))] * len(tm.edge_lift)
    t, face_lift = _assemble(src, vertex_of, [op.graph.labels[x] for x in vertex_lift], lifts)
    return dict(subdivision=t, pi_vertex=tuple(vertex_lift), pi_edge=tuple(edge_lift),
                pi_face=face_lift, edge_cells=tuple(edge_cells))


def _patch_template(op, cut_path):
    """The cell template of the patch of a lopsp-operation."""
    patch = double_chamber_patch(op, cut_path)
    pg = patch.graph
    corner_type = {patch.v0_left: 0, patch.v0_right: 0, patch.v1: 1, patch.v2: 2}
    faces = [(patch.lift_face[fi], walk) for fi, walk in enumerate(pg.faces())
             if fi != patch.outer_face]
    return _compile_template(pg, pg.faces()[patch.outer_face], patch.v2, corner_type,
                             faces, patch.lift_vertex, patch.lift_edge)


def apply(op, g, cut_path=None):
    """Apply a lopsp- or lsp-operation to an embedded graph.

    One patch copy is glued into every double chamber of G, with the
    patch boundary aligned to the facial walk of the double chamber; by
    path invariance the result graph does not depend on the cut-path.
    The patch is compiled once per operation and cut-path into a cell
    template; gluing a cell is then offset arithmetic.

    An lsp-operation is glued as its double (``lsp_to_lopsp``), so a
    ``cut_path`` is one of the double's.  Then ``res.operation`` is the
    double, the ``pi_*`` fields index it, and
    ``res.operation.face_origin`` maps each of its faces back to a face
    of the lsp-operation.
    """
    if isinstance(op, LspOperation):
        op = lsp_to_lopsp(op)
    op.require_valid()
    if cut_path not in op._templates:
        path = cut_path if cut_path is not None else find_cut_path(op, "minimal")
        op._templates[cut_path] = _patch_template(op, path)
    return _glue(DoubleChamberSystem(g).graph, op._templates[cut_path], g.genus(), op)


def lsp_to_lopsp(op):
    """Double an lsp-operation by gluing a mirrored copy into its outer
    face; records which inner face every doubled face came from.  The
    double is made once per operation."""
    if op._lopsp is not None:
        return op._lopsp
    op.require_valid()
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


def doubling_morphism(op):
    """The doubled operation together with the element mapping from its
    Delaney-Dress symbol to the one of the lsp-operation."""
    lop = lsp_to_lopsp(op)
    chamber_index = {f: c for c, f in enumerate(op.chamber_system().chambers)}
    mapping = tuple(chamber_index[f] for f in lop.face_origin)
    return lop, mapping


def apply_lsp_direct(op, g):
    """``apply(op, g)``, kept only because the benchmark in ``perfbench``
    names it; it goes when ROADMAP item 1 clears the benchmark's debts."""
    return apply(op, g)


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
    witness: dict  # {"two_cycle" or "four_cycle": darts of the subdivision} if k < 3
    localization: dict


def classify_ck(op, witness=None):
    """Largest k in {1,2,3} such that the operation maps ck-embedded
    graphs to ck-embedded graphs, decided on a single ck-embedded witness
    (the tetrahedron by default).

    k is read off O(witness) by the short-cycle characterisation of ck:
    3 when ``_polyhedral`` accepts the result, else from the short
    cycles of its subdivision T, which is built only then.  The paper
    proves that characterisation equal to the definition; the tests
    check it, and the independence of the witness, on random polyhedral
    maps.  When k < 3 the short offending cycle of T is reported
    together with the double chambers it touches.
    """
    lop = lsp_to_lopsp(op) if isinstance(op, LspOperation) else op
    if witness is None:
        from .polyhedra import tetrahedron

        witness = tetrahedron()
    res = apply(lop, witness)
    if _polyhedral(res.result):
        return ClassifyReport(k=3, witness={}, localization={})
    k, cycle = _short_cycles(res.subdivision)
    localization = {}
    wit = cycle.get("two_cycle") or cycle.get("four_cycle")
    if wit is not None:
        cells = [res.edge_cells[res.subdivision.edge_of(d)] for d in wit]
        common = frozenset.intersection(*cells)
        localization["cells"] = cells
        localization["single_cell"] = bool(common)
        localization["within_two_adjacent"] = bool(common) or any(
            all(c & pair for c in cells)
            for pair in set(res.edge_cells)  # a chain edge lies on two adjacent cells
        )
    return ClassifyReport(k=k, witness=cycle, localization=localization)
