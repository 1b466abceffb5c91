"""Template gluing against the per-dart gluing it replaced.

The oracle is the previous implementation of ``apply``,
``apply_lsp_direct`` and ``lsp_to_lopsp``: it walks every patch face of
every cell, maps patch vertices and edges through dictionaries, finds
each dart's direction by comparing edge ends, builds the double chamber
graph as an embedded subgraph of B_G and the patch as the internal
component of the cut-path's face (both in ``oracle_bridges``).  The
production code must give the same ``ApplicationResult`` in every field,
dart numbering and face table included, and the same ``write_rot``
bytes.

The production code glues the result graph from the templates' fans,
without T, and builds T unchecked on first read, with its face table
read off the template.  ``check_glued`` re-derives, on every T it is
given, what the production code no longer checks per graph: the face
table from the orbits of phi, the full rotation-system validation, the
subdivision properties and the genus.  It also extracts the result from
T by walking its rotations (``oracle_extract_base``), which must give
the fan path's result, vertex nodes and edge nodes exactly.
"""

import dataclasses
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfops import io, polyhedra
from surfops import operations as ops
from surfops.chambers import DoubleChamberSystem, barycentric, radial
from surfops.embedded import EmbeddedGraph, InternalInvariant, _orbits

import oracle_bridges as ob
from conftest import named_seeds, relabeled

DATA = os.path.join(os.path.dirname(__file__), "data")
OPERATION_FILES = sorted(n for n in os.listdir(DATA) if n.endswith((".lsp", ".lopsp")))


# ---------------------------------------------------------------------------
# the oracle: per-dart gluing


def oracle_assemble(face_cycles, edge_ends, vertex_labels):
    n = 2 * len(edge_ends)
    phi = [None] * n
    for cycle, _ in face_cycles:
        k = len(cycle)
        for i in range(k):
            e, direction = cycle[i]
            e2, dir2 = cycle[(i + 1) % k]
            assert phi[2 * e + direction] is None
            phi[2 * e + direction] = 2 * e2 + dir2
    assert None not in phi
    inv = [None] * n
    vertex_of = [None] * n
    for e, (u, w) in enumerate(edge_ends):
        inv[2 * e], inv[2 * e + 1] = 2 * e + 1, 2 * e
        vertex_of[2 * e], vertex_of[2 * e + 1] = u, w
    t = EmbeddedGraph([phi[inv[d]] for d in range(n)], inv, vertex_of, labels=vertex_labels)
    assert_valid(t)
    face_lift = [None] * len(t.faces())
    for cycle, lifted in face_cycles:
        e, direction = cycle[0]
        face_lift[t.face_of(2 * e + direction)] = lifted
    return t, tuple(face_lift)


def oracle_extract_base(t):
    type0 = [v for v in range(t.vertex_count) if t.labels[v] == 0]
    r_darts, dart_index, rotations = [], {}, []
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
        assert len(outs) == 2
        a, b = t.inv[outs[0]], t.inv[outs[1]]
        pairing[dart_index[a]] = dart_index[b]
        pairing[dart_index[b]] = dart_index[a]
    result = EmbeddedGraph.from_rotations(rotations, pairing)
    edge_node = [t.head(r_darts[d]) for d, _ in result.edge_darts()]
    return result, tuple(type0), tuple(edge_node)


def verify_subdivision(t):
    """T is the barycentric subdivision of a map: triangles only, no edge
    between equal types, and type-1 vertices of degree 4."""
    for walk in t.faces():
        assert len(walk) == 3, walk
    for d, dp in t.edge_darts():
        assert t.labels[t.vertex_of[d]] != t.labels[t.vertex_of[dp]], d
    for v, rot in enumerate(t.rotations()):
        assert t.labels[v] != 1 or len(rot) == 4, v


def assert_faces_are_phi_orbits(h):
    """The stored face table is the one ``faces()`` derives from phi."""
    phi = [h.sigma[h.inv[d]] for d in range(h.dart_count)]
    assert h.faces() == tuple(_orbits(phi))
    assert all(h.face_of(d) == i for i, walk in enumerate(h.faces()) for d in walk)


def check_glued(res, g):
    """What the production code no longer checks on every glued T, and
    the result glued from fans against the one extracted from T."""
    t = res.subdivision
    result, vertex_node, edge_node = oracle_extract_base(t)
    assert graph_data(res.result) == graph_data(result)
    assert res.result_vertex_node == vertex_node
    assert res.result_edge_node == edge_node
    assert_faces_are_phi_orbits(t)
    assert_valid(t)
    verify_subdivision(t)
    assert t.genus() == res.result.genus() == g.genus()
    assert len(res.result.faces()) == t.labels.count(2)
    assert_valid(res.result)


class Segment:
    def __init__(self, corner_from, corner_to, darts):
        self.corner_from, self.corner_to, self.darts = corner_from, corner_to, darts


def oracle_parse_boundary(graph, walk, corner_set, start_corner):
    tails = [graph.vertex_of[d] for d in walk]
    start = tails.index(start_corner)
    walk = list(walk[start:]) + list(walk[:start])
    tails = tails[start:] + tails[:start]
    marks = [i for i, v in enumerate(tails) if v in corner_set]
    segments = []
    for idx, i in enumerate(marks):
        if idx + 1 < len(marks):
            j = marks[idx + 1]
            segments.append(Segment(tails[i], tails[j], walk[i:j]))
        else:
            segments.append(Segment(tails[i], tails[0], walk[i:]))
    return segments


class Gluer:
    def __init__(self, op_graph):
        self.op_graph = op_graph
        self.vertex_labels, self.vertex_lift = [], []
        self.edge_ends, self.edge_lift, self.edge_cells = [], [], []
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

    def dart_for(self, eid, u, w):
        if self.edge_ends[eid] == (u, w):
            return (eid, 0)
        assert self.edge_ends[eid] == (w, u)
        return (eid, 1)

    def finish(self, base_genus, operation):
        t, face_lift = oracle_assemble(self.face_cycles, self.edge_ends, self.vertex_labels)
        verify_subdivision(t)
        result, vertex_node, edge_node = oracle_extract_base(t)
        assert result.genus() == base_genus
        return ops.ApplicationResult(
            result=result, subdivision=t, pi_vertex=tuple(self.vertex_lift),
            pi_edge=tuple(self.edge_lift), pi_face=face_lift,
            result_vertex_node=vertex_node, result_edge_node=edge_node,
            edge_cells=tuple(frozenset(c) for c in self.edge_cells), operation=operation,
        )


def oracle_subdivide_frame(gluer, frame_graph, interior_data):
    frame = []
    labels = frame_graph.labels
    for d, dp in frame_graph.edge_darts():
        u, w = frame_graph.vertex_of[d], frame_graph.vertex_of[dp]
        pair = frozenset((labels[u], labels[w]))
        start_label = 2 if 2 in pair else 1
        start, end = (u, w) if labels[u] == start_label else (w, u)
        vlifts, elifts = interior_data[pair]
        chain = [start]
        lifts = [gluer.vertex_lift[start]]
        for ol in vlifts:
            chain.append(gluer.new_vertex(ol))
            lifts.append(ol)
        chain.append(end)
        lifts.append(gluer.vertex_lift[end])
        edges = [gluer.new_edge(chain[i], chain[i + 1], elifts[i]) for i in range(len(chain) - 1)]
        frame.append((chain, edges, lifts))
    return frame


def oracle_glue_cell(gluer, cell_id, pg, patch_faces, outer_face_index, match,
                     lift_vertex, lift_edge, lift_face):
    vmap, emap = match
    for face_index, walk in patch_faces:
        if face_index == outer_face_index:
            continue
        for d in walk:
            if pg.vertex_of[d] not in vmap:
                vmap[pg.vertex_of[d]] = gluer.new_vertex(lift_vertex[pg.vertex_of[d]])
        cycle = []
        for d in walk:
            pe = pg.edge_of(d)
            u, w = vmap[pg.vertex_of[d]], vmap[pg.head(d)]
            if pe not in emap:
                emap[pe] = gluer.new_edge(u, w, lift_edge[pe], cell=cell_id)
            cycle.append(gluer.dart_for(emap[pe], u, w))
        gluer.face_cycles.append((cycle, lift_face[face_index]))


def oracle_match_segments(gluer, pg, segments, frame, frame_graph, cell_walk, lift_vertex, cell_id):
    vmap, emap = {}, {}
    for k, wdart in enumerate(cell_walk):
        seg = segments[k]
        vertices, edges, lifts = frame[frame_graph.edge_of(wdart)]
        tail, head = frame_graph.vertex_of[wdart], frame_graph.head(wdart)
        if not (vertices[0] == tail and vertices[-1] == head):
            assert vertices[-1] == tail and vertices[0] == head
            vertices, edges, lifts = vertices[::-1], edges[::-1], lifts[::-1]
        seg_tails = [pg.vertex_of[d] for d in seg.darts] + [seg.corner_to]
        assert len(seg_tails) == len(vertices)
        for t, pv in enumerate(seg_tails):
            assert vmap.get(pv, vertices[t]) == vertices[t]
            vmap[pv] = vertices[t]
            assert lifts[t] == lift_vertex[pv]
        for t, d in enumerate(seg.darts):
            emap[pg.edge_of(d)] = edges[t]
            gluer.edge_cells[edges[t]].add(cell_id)
    return vmap, emap


def oracle_double_chamber_graph(g):
    b = barycentric(g)
    keep = [d for d in range(b.dart_count) if (d // 2) < 2 * g.dart_count]
    (comp,) = ob.embedded_subgraph(b, keep)
    return comp


def oracle_lsp_to_lopsp(op):
    g = op.graph
    outer = op.outer_face
    boundary_vertices = op.outer_vertices()
    boundary_edges = {g.edge_of(d) for d in op.outer_walk()}
    gluer = Gluer(g)
    vmap_plain, vmap_mirror = {}, {}
    for v in range(g.vertex_count):
        vmap_plain[v] = gluer.new_vertex(v)
        vmap_mirror[v] = vmap_plain[v] if v in boundary_vertices else gluer.new_vertex(v)
    emap_plain, emap_mirror = {}, {}
    for e, (d, dp) in enumerate(g.edge_darts()):
        u, w = g.vertex_of[d], g.vertex_of[dp]
        emap_plain[e] = gluer.new_edge(vmap_plain[u], vmap_plain[w], e)
        if e in boundary_edges:
            emap_mirror[e] = emap_plain[e]
        else:
            emap_mirror[e] = gluer.new_edge(vmap_mirror[u], vmap_mirror[w], e)
    for fi, walk in enumerate(g.faces()):
        if fi != outer:
            cycle = [gluer.dart_for(emap_plain[g.edge_of(d)], vmap_plain[g.vertex_of[d]],
                                    vmap_plain[g.head(d)]) for d in walk]
            gluer.face_cycles.append((cycle, fi))
    for fi, walk in enumerate(g.faces()):
        if fi != outer:
            cycle = [gluer.dart_for(emap_mirror[g.edge_of(d)], vmap_mirror[g.head(d)],
                                    vmap_mirror[g.vertex_of[d]]) for d in reversed(walk)]
            gluer.face_cycles.append((cycle, fi))
    t, face_lift = oracle_assemble(gluer.face_cycles, gluer.edge_ends, gluer.vertex_labels)
    doubled = ops.LopspOperation(t, vmap_plain[op.v0], vmap_plain[op.v1], vmap_plain[op.v2])
    doubled.face_origin = face_lift
    assert not doubled.validate()
    return doubled


def oracle_apply(op, g, cut_path=None):
    if isinstance(op, ops.LspOperation):
        op = oracle_lsp_to_lopsp(op)
    if cut_path is None:
        cut_path = ops.find_cut_path(op, "minimal")
    patch = ob.double_chamber_patch(op, cut_path)
    pg = patch.graph
    dg = oracle_double_chamber_graph(g).graph
    corner_set = {patch.v1, patch.v2, patch.v0_left, patch.v0_right}
    segments = oracle_parse_boundary(pg, pg.faces()[patch.outer_face], corner_set, patch.v2)
    assert len(segments) == 4 and segments[2].corner_from == patch.v1
    gluer = Gluer(op.graph)
    for v in range(dg.vertex_count):
        gluer.new_vertex({0: op.v0, 1: op.v1, 2: op.v2}[dg.labels[v]])
    interior_data = {}
    for pair, seg in ((frozenset((0, 2)), segments[0]), (frozenset((0, 1)), segments[2])):
        interior_data[pair] = (
            [patch.lift_vertex[pg.vertex_of[d]] for d in seg.darts[1:]],
            [patch.lift_edge[pg.edge_of(d)] for d in seg.darts],
        )
    frame = oracle_subdivide_frame(gluer, dg, interior_data)
    patch_faces = list(enumerate(pg.faces()))
    for qi, quad in enumerate(dg.faces()):
        start = next(i for i, d in enumerate(quad) if dg.labels[dg.vertex_of[d]] == 2)
        walk = [dg.inv[d] for d in reversed(list(quad[start:]) + list(quad[:start]))]
        match = oracle_match_segments(gluer, pg, segments, frame, dg, walk, patch.lift_vertex, qi)
        oracle_glue_cell(gluer, qi, pg, patch_faces, patch.outer_face, match,
                         patch.lift_vertex, patch.lift_edge, patch.lift_face)
    return gluer.finish(g.genus(), op)


def oracle_apply_lsp_direct(op, g):
    og = op.graph
    b = barycentric(g)
    plain_walk = op.outer_walk()
    corner_set = set(op.specials)
    plain_segments = oracle_parse_boundary(og, plain_walk, corner_set, op.v2)
    mirror_walk = [og.inv[d] for d in reversed(plain_walk)]
    mirror_segments = oracle_parse_boundary(og, mirror_walk, corner_set, op.v2)
    plain_order = (plain_segments[1].corner_from, plain_segments[2].corner_from)
    mirror_order = (mirror_segments[1].corner_from, mirror_segments[2].corner_from)
    special_index = {op.v0: 0, op.v1: 1, op.v2: 2}
    inner_faces = [(fi, walk) for fi, walk in enumerate(og.faces()) if fi != op.outer_face]
    mirror_faces = [(fi, tuple(og.inv[d] for d in reversed(walk))) for fi, walk in inner_faces]
    gluer = Gluer(og)
    for v in range(b.vertex_count):
        gluer.new_vertex(op.specials[b.labels[v]])
    interior_data = {}
    for seg in plain_segments:
        pair = frozenset((special_index[seg.corner_from], special_index[seg.corner_to]))
        darts = seg.darts
        if special_index[seg.corner_from] != (2 if 2 in pair else 1):
            darts = [og.inv[d] for d in reversed(darts)]
        interior_data[pair] = ([og.vertex_of[d] for d in darts[1:]], [og.edge_of(d) for d in darts])
    frame = oracle_subdivide_frame(gluer, b, interior_data)
    identity_lift = tuple(range(og.vertex_count))
    for ci, tri in enumerate(b.faces()):
        start = next(i for i, d in enumerate(tri) if b.labels[b.vertex_of[d]] == 2)
        walk = [b.inv[d] for d in reversed(list(tri[start:]) + list(tri[:start]))]
        types = tuple(b.labels[b.vertex_of[d]] for d in walk[1:])
        if types == tuple(special_index[c] for c in plain_order):
            segments, faces = plain_segments, inner_faces
        else:
            assert types == tuple(special_index[c] for c in mirror_order)
            segments, faces = mirror_segments, mirror_faces
        match = oracle_match_segments(gluer, og, segments, frame, b, walk, identity_lift, ci)
        oracle_glue_cell(gluer, ci, og, faces, op.outer_face, match, identity_lift,
                         tuple(range(og.edge_count)), tuple(range(len(og.faces()))))
    return gluer.finish(g.genus(), op)


# ---------------------------------------------------------------------------
# comparison


def graph_data(h):
    return (h.sigma, h.inv, h.vertex_of, h.labels, h.rotations())


FIELDS = ("pi_vertex", "pi_edge", "pi_face", "result_vertex_node", "result_edge_node",
          "edge_cells")


def assert_same(res, want):
    assert graph_data(res.result) == graph_data(want.result)
    assert graph_data(res.subdivision) == graph_data(want.subdivision)
    assert res.subdivision.faces() == want.subdivision.faces()
    for name in FIELDS:
        assert getattr(res, name) == getattr(want, name), name
    if res.operation is not want.operation:  # an lsp-operation doubled by each side
        assert graph_data(res.operation.graph) == graph_data(want.operation.graph)
        assert res.operation.graph.faces() == want.operation.graph.faces()
        assert res.operation.specials == want.operation.specials
        assert res.operation.face_origin == want.operation.face_origin
    assert io.write_rot(res.result) == io.write_rot(want.result)


def check_both_routes(op, g):
    res = ops.apply(op, g)
    check_glued(res, g)
    assert_same(res, oracle_apply(op, g))
    if isinstance(op, ops.LspOperation):
        res = ops.apply_lsp_direct(op, g)
        check_glued(res, g)
        assert_same(res, oracle_apply_lsp_direct(op, g))


def data_ops():
    out = {}
    for name in OPERATION_FILES:
        with open(os.path.join(DATA, name)) as handle:
            out[name] = io.parse_op(handle.read())
    return out


@pytest.mark.parametrize("name", ops.catalog_names())
def test_catalog_on_solids_and_k7(name):
    op = ops.catalog(name)
    for g in named_seeds().values():
        check_both_routes(op, g)


@pytest.mark.parametrize("name", OPERATION_FILES)
def test_data_operations(name):
    op = data_ops()[name]
    for g in named_seeds().values():
        check_both_routes(op, g)


@pytest.mark.parametrize("base", ["tetrahedron", "k7"])
@pytest.mark.parametrize("name", ["gyro", "snub"])
def test_second_generation(base, name):
    op = ops.catalog(name)
    g = ops.apply(op, named_seeds()[base]).result
    check_both_routes(op, g)


def test_random_cut_paths():
    op = ops.catalog("gyro")
    for seed in range(4):
        path = ops.find_cut_path(op, "seeded-random", seed=seed)
        for g in (polyhedra.cube(), polyhedra.k7_torus()):
            res = ops.apply(op, g, cut_path=path)
            check_glued(res, g)
            assert_same(res, oracle_apply(op, g, cut_path=path))


def composite(outer, inner):
    """The lopsp-operation of outer(inner(G)): copies of the lsp-operation
    ``outer`` glued into every chamber of ``inner``'s triangulation.  Its
    patch has interior type-0 vertices, which no catalog patch has."""
    ops.apply_lsp_direct(outer, polyhedra.tetrahedron())  # compiles the templates
    lop = ops.lsp_to_lopsp(inner) if isinstance(inner, ops.LspOperation) else inner
    cells = list(ops._cells(lop.graph, outer._templates[None]))
    t = ops._glue_slots(lop.graph, cells, outer)["subdivision"]
    return ops.LopspOperation(t, lop.v0, lop.v1, lop.v2)


@pytest.mark.parametrize("outer, inner", [("truncation", "gyro"), ("truncation", "snub"),
                                          ("truncation", "ambo"), ("ambo", "gyro")])
def test_composite_operations(outer, inner):
    op = composite(ops.catalog(outer), ops.catalog(inner))
    assert not op.validate()
    for g in (polyhedra.cube(), polyhedra.k7_torus()):
        check_both_routes(op, g)
        want = ops.apply(ops.catalog(outer), ops.apply(ops.catalog(inner), g).result).result
        assert ops.apply(op, g).result.canonical_code() == want.canonical_code()
    (tm,) = op._templates[None]
    assert any(vertex[0] == 0 and len(heads) > 1 for vertex, _, _, heads in tm.fans)


def test_random_graphs():
    rng = random.Random(7)
    names = ops.catalog_names()
    for i in range(200):
        g = polyhedra.random_embedded(rng, rng.randint(1, 18))
        check_both_routes(ops.catalog(names[i % len(names)]), g)


# ---------------------------------------------------------------------------
# graphs built without validation


def assert_valid(h):
    """Rebuild h through the checked constructor from its rotation table
    and pairing.  That validates the table: every dart once, the pairing
    a fixed-point-free involution, one label per vertex, connected.  The
    rebuilt sigma, vertex ids and table must equal h's, so sigma is a
    permutation with one orbit per vertex id, and the table is those
    orbits, each from its smallest dart."""
    rebuilt = EmbeddedGraph.from_rotations(h.rotations(), h.inv, labels=h.labels)
    assert graph_data(rebuilt) == graph_data(h)


@pytest.mark.parametrize("name", ops.catalog_names() + ("sprout", "pendant"))
def test_unchecked_graphs_are_valid(name):
    op = data_ops()[name + ".lopsp"] if name in ("sprout", "pendant") else ops.catalog(name)
    lop = ops.lsp_to_lopsp(op) if isinstance(op, ops.LspOperation) else op
    if lop is not op:  # the doubled operation is glued like a result
        assert_faces_are_phi_orbits(lop.graph)
        assert_valid(lop.graph)
    assert_valid(ops.double_chamber_patch(lop, ops.find_cut_path(lop)).graph)
    rng = random.Random(11)
    graphs = list(named_seeds().values()) + [
        polyhedra.random_embedded(rng, rng.randint(1, 15)) for _ in range(10)]
    for g in graphs:
        for h in (barycentric(g), DoubleChamberSystem(g).graph, radial(g), g.dual(), g.mirror()):
            assert_valid(h)
        keep = {x for e in rng.sample(g.edge_darts(), rng.randint(1, g.edge_count)) for x in e}
        for comp in ob.embedded_subgraph(g, keep) + [oracle_double_chamber_graph(g)]:
            assert_valid(comp.graph)
        for res in [ops.apply(op, g)] + (
                [ops.apply_lsp_direct(op, g)] if isinstance(op, ops.LspOperation) else []):
            check_glued(res, g)


def orbit_table(h):
    """The sigma orbits of h, each from its smallest dart, by vertex id."""
    table = [None] * (max(h.vertex_of) + 1)
    for cyc in _orbits(h.sigma):
        table[h.vertex_of[cyc[0]]] = cyc
    return tuple(table)


@pytest.mark.parametrize("name", ops.catalog_names())
def test_unchecked_rotation_tables_are_sigma_orbits(monkeypatch, name):
    """Every unchecked construction hands ``from_rotations`` each rotation
    from its smallest dart, which is then stored as given; at every call
    site the stored table is the sigma orbits."""
    given = []
    from_rotations = EmbeddedGraph.from_rotations.__func__

    def recording(cls, rotations, pairing, labels=None, check=True):
        if not check:
            given.extend(rotations)
        return from_rotations(cls, rotations, pairing, labels, check)

    monkeypatch.setattr(EmbeddedGraph, "from_rotations", classmethod(recording))
    op = ops.catalog(name)
    lop = ops.lsp_to_lopsp(op) if isinstance(op, ops.LspOperation) else op
    sites = {"lsp_to_lopsp": lop.graph,
             "_cut_open": ops.double_chamber_patch(lop, ops.find_cut_path(lop)).graph}
    rng = random.Random(13)
    graphs = list(named_seeds().values()) + [polyhedra.random_embedded(rng, 12)]
    for i, g in enumerate(graphs):
        sites["barycentric %d" % i] = barycentric(g)
        sites["DoubleChamberSystem %d" % i] = DoubleChamberSystem(g).graph
        sites["radial %d" % i] = radial(g)
        sites["dual %d" % i] = g.dual()
        sites["mirror %d" % i] = g.mirror()
        sites["_glue %d" % i] = ops.apply(op, g).result
    for site, h in sites.items():
        assert h.rotations() == orbit_table(h), site
    assert given and all(r[0] == min(r) for r in given)


def test_unchecked_from_rotations_matches_checked():
    rng = random.Random(5)
    for _ in range(50):
        g = polyhedra.random_embedded(rng, rng.randint(1, 20))
        rotations = []
        for rot in g.rotations():
            k = rng.randrange(len(rot))
            rotations.append(list(rot[k:] + rot[:k]))
        want = EmbeddedGraph.from_rotations(rotations, g.inv)
        got = EmbeddedGraph.from_rotations(rotations, g.inv, check=False)
        assert graph_data(got) == graph_data(want)


def patch_cases():
    """Every catalog and ``tests/data`` operation (doubled when lsp) with
    its minimal cut-path and 20 seeded random ones."""
    for op in [ops.catalog(name) for name in ops.catalog_names()] + list(data_ops().values()):
        lop = ops.lsp_to_lopsp(op) if isinstance(op, ops.LspOperation) else op
        yield lop, ops.find_cut_path(lop)
        for seed in range(20):
            yield lop, ops.find_cut_path(lop, "seeded-random", seed=seed)


def test_unchecked_internal_components_are_valid():
    """Every patch cut open unchecked passes the full validation."""
    for lop, path in patch_cases():
        assert_valid(ops.double_chamber_patch(lop, path).graph)


def test_patches_match_oracle():
    """Cutting the operation open along the path's face walk gives the
    internal component of that face, dart for dart."""
    for lop, path in patch_cases():
        got, want = ops.double_chamber_patch(lop, path), ob.double_chamber_patch(lop, path)
        assert graph_data(got.graph) == graph_data(want.graph)
        assert got.graph.faces() == want.graph.faces()
        for name in ("v1", "v2", "v0_left", "v0_right", "outer_face", "lift_vertex",
                     "lift_edge", "lift_face"):
            assert getattr(got, name) == getattr(want, name), name


# ---------------------------------------------------------------------------
# per-operation work is done once


def test_templates_compile_once_per_operation(monkeypatch):
    compiled = []
    compile_template = ops._compile_template

    def counting(*args, **kwargs):
        compiled.append(args)
        return compile_template(*args, **kwargs)

    monkeypatch.setattr(ops, "_compile_template", counting)
    gyro = io.parse_op(io.write_op(ops.catalog("gyro")))
    for g in (polyhedra.cube(), polyhedra.k7_torus(), polyhedra.cube()):
        ops.apply(gyro, g)
    assert len(compiled) == 1
    path = ops.find_cut_path(gyro, "seeded-random", seed=3)
    ops.apply(gyro, polyhedra.cube(), cut_path=path)
    ops.apply(gyro, polyhedra.octahedron(), cut_path=path)
    assert len(compiled) == 2

    ambo = io.parse_op(io.write_op(ops.catalog("ambo")))
    assert ops.lsp_to_lopsp(ambo) is ops.lsp_to_lopsp(ambo)
    for g in (polyhedra.cube(), polyhedra.tetrahedron()):
        ops.apply(ambo, g)
        ops.apply_lsp_direct(ambo, g)
    assert len(compiled) == 2 + 1 + 2  # the double once, plain and mirrored once


def test_apply_validates_no_graph(monkeypatch):
    """Both routes build every graph they derive unchecked: G is
    validated once, where it is parsed."""
    ambo = io.parse_op(io.write_op(ops.catalog("ambo")))
    gyro = io.parse_op(io.write_op(ops.catalog("gyro")))
    g = io.parse_rot(io.write_rot(polyhedra.k7_torus()))
    checks = []
    from_rotations = EmbeddedGraph.from_rotations.__func__

    def counting(cls, rotations, pairing, labels=None, check=True):
        if check:
            checks.append(rotations)
        return from_rotations(cls, rotations, pairing, labels, check)

    monkeypatch.setattr(EmbeddedGraph, "from_rotations", classmethod(counting))
    for res in (ops.apply(gyro, g), ops.apply(ambo, g), ops.apply_lsp_direct(ambo, g)):
        res.result.faces()
        res.subdivision.faces()
    assert checks == []


def test_broken_gluing_is_caught():
    gyro = ops.catalog("gyro")
    patch = ops.double_chamber_patch(gyro, ops.find_cut_path(gyro))
    pg = patch.graph
    boundary = (pg.faces()[patch.outer_face], patch.v2,
                {patch.v0_left: 0, patch.v0_right: 0, patch.v1: 1, patch.v2: 2})
    faces = [(patch.lift_face[fi], walk) for fi, walk in enumerate(pg.faces())
             if fi != patch.outer_face]
    lifts = (patch.lift_vertex, patch.lift_edge)
    assert ops._compile_template(pg, *boundary, faces, *lifts).src
    square = [(faces[0][0], faces[0][1] + faces[0][1][:1])] + faces[1:]
    with pytest.raises(InternalInvariant, match="^template: face of size 4"):
        ops._compile_template(pg, *boundary, square, *lifts)
    flat = EmbeddedGraph(pg.sigma, pg.inv, pg.vertex_of, labels=[0] * pg.vertex_count)
    with pytest.raises(InternalInvariant, match="^template: edge between equal types"):
        ops._compile_template(flat, *boundary, faces, *lifts)

    with pytest.raises(InternalInvariant, match="^assemble: "):
        ops._assemble([0, 2, 4, 0, 3, 5], [0, 1] * 3, [0, 1], [0, 0])

    g = polyhedra.cube()
    ops.apply(gyro, g)
    frame = DoubleChamberSystem(g).graph
    with pytest.raises(InternalInvariant, match="^glue: Euler characteristic"):
        ops._glue(frame, gyro._templates[None], g.genus() + 1, gyro)

    # a fan that lists a result dart twice, or leaves one out
    (tm,) = gyro._templates[None]
    i = next(i for i, fan in enumerate(tm.fans) if fan[3])
    vertex, first, nxt, heads = tm.fans[i]
    for broken in (heads + heads[:1], heads[1:]):
        fans = tm.fans[:i] + [(vertex, first, nxt, broken)] + tm.fans[i + 1:]
        with pytest.raises(InternalInvariant, match="^glue: a result dart is listed twice or not"):
            ops._glue(frame, (dataclasses.replace(tm, fans=fans),), g.genus(), gyro)


# ---------------------------------------------------------------------------
# properties


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    graph_seed=st.integers(0, 2**32 - 1),
    edges=st.integers(1, 20),
    name=st.sampled_from(ops.catalog_names()),
    relabel_seed=st.integers(0, 2**32 - 1),
)
def test_apply_keeps_genus_and_ignores_labelling(graph_seed, edges, name, relabel_seed):
    g = polyhedra.random_embedded(random.Random(graph_seed), edges)
    op = ops.catalog(name)
    res = ops.apply(op, g)
    check_glued(res, g)
    assert res.result.edge_count == ops.inflation_factor(op) * g.edge_count
    other = ops.apply(op, relabeled(g, relabel_seed)).result
    assert other.canonical_code() == res.result.canonical_code()
