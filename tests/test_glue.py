"""Template gluing against the per-dart gluing it replaced.

The oracles are in ``oracle_glue``.  ``apply`` must give the same
``ApplicationResult`` as ``oracle_apply`` in every field, dart numbering
and face table included, and the same ``write_rot`` bytes.  On an
lsp-operation, which ``apply`` glues as its double, it must also give
the result of gluing the operation's plain and mirrored copies into the
chambers of B_G: the same ``write_rot`` bytes and canonical code.

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
from oracle_glue import (assert_matches_chamber_gluing, assert_valid, graph_data,
                         oracle_apply, oracle_double_chamber_graph, oracle_extract_base,
                         oracle_glue_lsp, verify_subdivision)

DATA = os.path.join(os.path.dirname(__file__), "data")
OPERATION_FILES = sorted(n for n in os.listdir(DATA) if n.endswith((".lsp", ".lopsp")))


# ---------------------------------------------------------------------------
# comparison


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
    """``apply`` against both oracles: per-dart gluing of the patch, and
    for an lsp-operation the gluing of its copies into chambers."""
    res = ops.apply(op, g)
    check_glued(res, g)
    assert_same(res, oracle_apply(op, g))
    if isinstance(op, ops.LspOperation):
        assert_matches_chamber_gluing(res, op, g)


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


def random_multigraphs():
    """Twenty random maps at E 4-10, with loops, parallel edges and genus
    up to 3."""
    rng = random.Random(2026)
    return [polyhedra.random_embedded(rng, rng.randint(4, 10)) for _ in range(20)]


def test_random_multigraphs_have_loops_parallels_and_genus_two():
    loops = parallels = 0
    for g in random_multigraphs():
        ends = [frozenset((g.vertex_of[d], g.head(d))) for d, _ in g.edge_darts()]
        links = [e for e in ends if len(e) == 2]
        loops += len(ends) - len(links)
        parallels += len(links) - len(set(links))
    assert loops and parallels
    assert max(g.genus() for g in random_multigraphs()) >= 2


@pytest.mark.parametrize("name", OPERATION_FILES)
def test_data_operations(name):
    op = data_ops()[name]
    for g in list(named_seeds().values()) + random_multigraphs():
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
    ``outer`` glued by the chamber oracle into every chamber of
    ``inner``'s triangulation.  Its patch has interior type-0 vertices,
    which no catalog patch has."""
    lop = inner.lopsp()
    t, _ = oracle_glue_lsp(outer, lop.graph).assemble()
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
    tm = op._templates[None]
    assert any(vertex[0] == 0 and len(heads) > 1 for vertex, _, _, heads in tm.fans)
    for g in random_multigraphs():  # interior fans on loops and parallel edges
        check_both_routes(op, g)


def test_random_graphs():
    rng = random.Random(7)
    names = ops.catalog_names()
    for i in range(200):
        g = polyhedra.random_embedded(rng, rng.randint(1, 18))
        check_both_routes(ops.catalog(names[i % len(names)]), g)


# ---------------------------------------------------------------------------
# graphs built without validation


@pytest.mark.parametrize("name", ops.catalog_names() + ("sprout", "pendant"))
def test_unchecked_graphs_are_valid(name):
    op = data_ops()[name + ".lopsp"] if name in ("sprout", "pendant") else ops.catalog(name)
    lop = op.lopsp()
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
        check_glued(ops.apply(op, g), g)


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
    lop = op.lopsp()
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
        lop = op.lopsp()
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
    assert len(compiled) == 2 + 1  # the double's one template, once


def test_apply_validates_no_graph(monkeypatch):
    """``apply`` builds every graph it derives unchecked, for a lopsp-
    and an lsp-operation: G is validated once, where it is parsed."""
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
    for res in (ops.apply(gyro, g), ops.apply(ambo, g)):
        res.result.faces()
        res.subdivision.faces()
    assert checks == []


def test_warm_apply_builds_rotations_from_dart_ranges(monkeypatch):
    """Gluing numbers the result's darts vertex by vertex and builds it
    trusted, with its rotations as those ranges; ``from_rotations``,
    which would walk them again, is not called."""
    gyro = ops.catalog("gyro")
    g = polyhedra.k7_torus()
    ops.apply(gyro, g)
    calls = []
    from_rotations = EmbeddedGraph.from_rotations.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return from_rotations(cls, *args, **kwargs)

    monkeypatch.setattr(EmbeddedGraph, "from_rotations", classmethod(counting))
    res = ops.apply(gyro, g)
    assert calls == []
    assert res.result.rotations() == orbit_table(res.result)
    rotations = res.result.rotations()
    assert [r[0] for r in rotations] == [0] + [r[-1] + 1 for r in rotations[:-1]]


def test_broken_gluing_is_caught():
    gyro = ops.catalog("gyro")
    assert ops._compile_template(ops.double_chamber_patch(gyro, ops.find_cut_path(gyro))).src

    with pytest.raises(InternalInvariant, match="^assemble: "):
        ops._assemble([0, 2, 4, 0, 3, 5], [0, 1] * 3, [0, 1], [0, 0])

    g = polyhedra.cube()
    ops.apply(gyro, g)
    with pytest.raises(InternalInvariant, match="^glue: Euler characteristic"):
        ops._glue(g, gyro._templates[None], g.genus() + 1, gyro)

    # a fan that lists a result dart twice, or leaves one out: a type-1
    # vertex of T with three darts into it, or four, or one
    tm = gyro._templates[None]
    i = next(i for i, fan in enumerate(tm.fans) if len(fan[3]) >= 2)
    vertex, first, nxt, heads = tm.fans[i]
    for broken in (heads + heads[:1], heads[:1] * 3 + heads[1:], heads[1:],
                   heads[1:2] + heads[1:]):
        fans = tm.fans[:i] + [(vertex, first, nxt, broken)] + tm.fans[i + 1:]
        with pytest.raises(InternalInvariant, match="^glue: a result dart is listed twice or not"):
            ops._glue(g, dataclasses.replace(tm, fans=fans), g.genus(), gyro)

    # a patch whose two copies of v0 are swapped: some fan's next starts
    # no fan, which the compiler reports
    patch = ops.double_chamber_patch(gyro, ops.find_cut_path(gyro))
    swapped = dataclasses.replace(patch, v0_left=patch.v0_right, v0_right=patch.v0_left)
    with pytest.raises(InternalInvariant,
                       match="^compile: a fan's next starts no fan in the cell across$"):
        ops._compile_template(swapped)

    # a fan whose next starts the fan of another vertex (fans[0]'s names
    # fans[1] from across): the walk around a vertex stops
    (vertex, first, _, heads), other = tm.fans[0], tm.fans[1]
    assert other[0] != vertex and other[1][0] > 0
    fans = [(vertex, first, (ops._ACROSS[other[1][0]], 1), heads)] + tm.fans[1:]
    with pytest.raises(InternalInvariant,
                       match="^glue: a vertex's fans do not close up in the cell of G's dart [0-9]+$"):
        ops._glue(g, dataclasses.replace(tm, fans=fans), g.genus(), gyro)

    # a vertex of G whose fans have no heads: fans[0], at corner 3, has
    # none, and the one at corner 1 loses its own
    assert vertex == (8, 0) and not heads
    i = next(i for i, fan in enumerate(tm.fans) if fan[0] == (6, 0))
    fans = tm.fans[:i] + [tm.fans[i][:3] + ([],)] + tm.fans[i + 1:]
    with pytest.raises(InternalInvariant, match="^glue: a result vertex has no darts$"):
        ops._glue(g, dataclasses.replace(tm, fans=fans), g.genus(), gyro)

    # two interior fans of a composite given the same vertex: each closes
    # up on itself, so that vertex's fans close up twice
    op = composite(ops.catalog("truncation"), ops.catalog("gyro"))
    ops.apply(op, g)
    tm = op._templates[None]
    i, j = [i for i, fan in enumerate(tm.fans) if fan[0][0] == 0][:2]
    fans = tm.fans[:i] + [(tm.fans[j][0],) + tm.fans[i][1:]] + tm.fans[i + 1:]
    with pytest.raises(InternalInvariant, match="^glue: a vertex's fans close up twice$"):
        ops._glue(g, dataclasses.replace(tm, fans=fans), g.genus(), op)


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
