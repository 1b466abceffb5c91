import hashlib
import os
import re

import pytest

from surfops import operations as ops
from surfops import polyhedra
from surfops.chambers import barycentric
from surfops.embedded import EmbeddedGraph
from surfops.io import parse_op

from oracle_glue import assert_matches_chamber_gluing, oracle_apply_lsp_direct
from test_ck import oracle_smallest_cut

DATA = os.path.join(os.path.dirname(__file__), "data")


def load_fixture(name):
    with open(os.path.join(DATA, name), "r", encoding="ascii") as handle:
        return parse_op(handle.read())


def identity_lopsp():
    return ops.lsp_to_lopsp(ops.catalog("identity"))


def as_lopsp(name):
    return ops.catalog(name).lopsp()


def test_catalog_names_and_unknown():
    assert set(ops.catalog_names()) == {
        "identity",
        "dual",
        "truncation",
        "ambo",
        "join",
        "gyro",
        "snub",
    }
    with pytest.raises(ops.UnknownOperation):
        ops.catalog("leapfrog")


def test_catalog_all_valid():
    for name in ops.catalog_names():
        assert ops.catalog(name).validate() == []


def test_identity_lopsp_is_two_chamber_sphere():
    lop = identity_lopsp()
    g = lop.graph
    assert (g.vertex_count, g.edge_count, len(g.faces())) == (3, 3, 2)
    assert ops.validate_lopsp(lop) == []


def test_validate_flags_same_type_edge():
    # doubled triangle with two vertices of equal type
    g = EmbeddedGraph.from_rotations(
        [[0, 5], [1, 2], [3, 4]], [1, 0, 3, 2, 5, 4], labels=[0, 1, 1]
    )
    op = ops.LopspOperation(g, 0, 1, 2)
    assert any(d.clause == "same-type-edge" for d in op.validate())
    unlabelled = EmbeddedGraph.from_rotations(g.rotations(), g.inv)
    with pytest.raises(ValueError, match="^operation graphs need type labels$"):
        ops.LopspOperation(unlabelled, 0, 1, 2)


def test_validate_flags_type1_degree():
    gyro = ops.catalog("gyro")
    bad = ops.LopspOperation(gyro.graph, gyro.v0, gyro.v2, gyro.v1)  # swap v1/v2
    clauses = {d.clause for d in bad.validate()}
    assert clauses  # moving specials breaks degree or type clauses


def bad_operation(clause):
    """An operation that breaks ``clause``, and its full diagnostics."""
    gyro, ambo = ops.catalog("gyro"), ops.catalog("ambo")
    D = ops.Diagnostic
    if clause == "specials-distinct":  # v1 := v0, so vertex 1 is a plain type-1 vertex
        return ops.LopspOperation(gyro.graph, 0, 0, 2), [
            D("specials-distinct", (0, 0, 2)), D("type1-degree", 1, "deg 2")]
    if clause == "special-types":
        return ops.LopspOperation(gyro.graph, 4, 1, 2), [
            D("special-types", 4, "t(v0) must differ from 1")]
    if clause == "v1-degree":
        return ops.LopspOperation(gyro.graph, 0, 4, 2), [
            D("v1-degree", 4, "deg 4"), D("type1-degree", 1, "deg 2")]
    if clause == "type1-degree":  # ambo's disc read as a sphere: one square face
        return ops.LopspOperation(ambo.graph, *ambo.specials), [
            D("triangle", 1, "face size 4"), D("type1-degree", 3, "deg 3")]
    assert clause == "outer-face"
    n = ambo.graph.dart_count
    return ops.LspOperation(ambo.graph, *ambo.specials, n), [D("outer-face", n, "no such dart")]


@pytest.mark.parametrize("clause", ["specials-distinct", "special-types", "v1-degree",
                                    "type1-degree", "outer-face"])
def test_validation_clauses(clause):
    """The diagnostics of a broken operation; ``require_valid`` and the
    door ``op.lopsp()`` raise the operation kind's error with them."""
    op, want = bad_operation(clause)
    assert op.validate() == want
    error = {"lopsp": ops.InvalidLopsp, "lsp": ops.InvalidLsp}[op.kind]
    for enter in (op.require_valid, op.lopsp):
        with pytest.raises(error) as caught:
            enter()
        assert caught.value.diagnostics == want
        assert str(caught.value) == "; ".join(map(str, want))


def test_lopsp_is_the_one_door():
    for name in ops.catalog_names():
        op = ops.catalog(name)
        lop = op.lopsp()
        assert lop is ops.lsp_to_lopsp(op)
        assert lop.kind == "lopsp" and lop.lopsp() is lop


def test_inflation_factors():
    expected = {
        "identity": 1,
        "dual": 1,
        "truncation": 3,
        "ambo": 2,
        "join": 2,
        "gyro": 5,
        "snub": 5,
    }
    for name, factor in expected.items():
        assert ops.inflation_factor(ops.catalog(name)) == factor


def test_inflation_factor_governs_edges(seeds):
    for name in ("truncation", "gyro"):
        op = ops.catalog(name)
        factor = ops.inflation_factor(op)
        lop = as_lopsp(name)
        for g in (seeds["tetrahedron"], seeds["k7"]):
            res = ops.apply(lop, g)
            assert res.result.edge_count == factor * g.edge_count


def test_find_cut_path_identity():
    lop = identity_lopsp()
    path = ops.find_cut_path(lop)
    assert len(path.darts) == 2
    assert path.vertices(lop.graph) == [lop.v1, lop.v0, lop.v2]


def test_find_cut_path_minimal_matches_bruteforce():
    for name in ("gyro", "snub"):
        lop = ops.catalog(name)
        best = ops.find_cut_path(lop, "minimal")
        assert len(best.darts) == _bruteforce_min_cut_path_len(lop)


def _bruteforce_min_cut_path_len(op):
    """Exhaustive search over internally disjoint path pairs."""
    g = op.graph
    best = None
    paths = {op.v1: [], op.v2: []}
    for target in (op.v1, op.v2):
        found = []
        stack = [(op.v0, [op.v0], [])]
        while stack:
            v, used, darts = stack.pop()
            for d in g.rotations()[v]:
                w = g.head(d)
                if w == target:
                    found.append((used[1:], darts + [d]))
                elif w not in used and w not in (op.v0, op.v1, op.v2):
                    stack.append((w, used + [w], darts + [d]))
        paths[target] = found
    for mid1, p1 in paths[op.v1]:
        for mid2, p2 in paths[op.v2]:
            if not set(mid1) & set(mid2):
                total = len(p1) + len(p2)
                if best is None or total < best:
                    best = total
    return best


def test_random_cut_paths_valid_and_varied():
    lop = ops.catalog("gyro")
    lengths = set()
    for seed in range(8):
        p = ops.find_cut_path(lop, "seeded-random", seed=seed)
        assert p == ops.find_cut_path(lop, "seeded-random", seed=seed)
        lengths.add(len(p.darts))
    assert len(lengths) >= 1


def test_random_cut_path_without_seed_is_seed_zero():
    """No seed means seed 0, as the command line's ``--seed`` defaults to."""
    for name in ops.catalog_names():
        lop = ops.catalog(name)
        assert ops.find_cut_path(lop, "seeded-random") == ops.find_cut_path(
            lop, "seeded-random", seed=0)


def test_patch_identity():
    lop = identity_lopsp()
    patch = ops.double_chamber_patch(lop, ops.find_cut_path(lop))
    assert patch.graph.vertex_count == 4
    assert len(patch.graph.faces()) == 3  # two chambers and the outer face
    assert patch.graph.genus() == 0


def test_patch_chamber_count_preserved():
    for name in ("gyro", "snub", "truncation"):
        lop = as_lopsp(name)
        patch = ops.double_chamber_patch(lop, ops.find_cut_path(lop))
        assert len(patch.graph.faces()) - 1 == len(lop.graph.faces())
        # lift covers every chamber exactly once
        inner = [f for f in patch.lift_face if f is not None]
        assert sorted(inner) == list(range(len(lop.graph.faces())))


def test_patch_boundary_is_two_path_copies():
    lop = ops.catalog("gyro")
    path = ops.find_cut_path(lop)
    patch = ops.double_chamber_patch(lop, path)
    walk = patch.graph.faces()[patch.outer_face]
    assert len(walk) == 2 * len(path.darts)
    corners = [
        v
        for v in (patch.v1, patch.v2, patch.v0_left, patch.v0_right)
    ]
    tails = [patch.graph.vertex_of[d] for d in walk]
    for c in corners:
        assert tails.count(c) == 1


def test_apply_identity_and_dual(seeds):
    tet = seeds["tetrahedron"]
    cube = seeds["cube"]
    assert ops.apply(identity_lopsp(), tet).result.iso(tet)
    assert ops.apply(as_lopsp("dual"), cube).result.iso(seeds["octahedron"])


def test_apply_on_loops_and_multiedges(corpus):
    lop = as_lopsp("truncation")
    for name in ("loop_vertex", "digon", "theta", "bouquet_torus"):
        g = corpus[name]
        res = ops.apply(lop, g)
        assert res.result.genus() == g.genus(), name
        assert res.result.edge_count == 3 * g.edge_count


def test_apply_random_rotation_systems(corpus):
    # the gluing engine self-verifies the subdivision structure, so a pass
    # over arbitrary rotation systems exercises far more than the counts
    gyro = ops.catalog("gyro")
    names = [n for n in corpus if n.startswith("random_")][:8]
    assert names
    for name in names:
        g = corpus[name]
        res = ops.apply(gyro, g)
        assert res.result.genus() == g.genus(), name
        assert res.result.edge_count == 5 * g.edge_count, name


def test_subdivision_is_barycentric_of_result(seeds):
    for name in ("gyro", "ambo"):
        res = ops.apply(as_lopsp(name), seeds["tetrahedron"])
        assert barycentric(res.result).iso(res.subdivision)


def test_pi_surjective_with_uniform_chamber_fibres(seeds):
    g = seeds["cube"]
    lop = as_lopsp("gyro")
    res = ops.apply(lop, g)
    n_double_chambers = 2 * g.edge_count
    fibres = {}
    for face, lifted in enumerate(res.pi_face):
        fibres.setdefault(lifted, 0)
        fibres[lifted] += 1
    assert set(fibres) == set(range(len(lop.graph.faces())))
    assert all(count == n_double_chambers for count in fibres.values())
    assert set(res.pi_vertex) == set(range(lop.graph.vertex_count))
    assert set(res.pi_edge) == set(range(lop.graph.edge_count))


def test_apply_lsp_direct_matches_doubled_route(seeds):
    """Gluing an lsp-operation's copies into the chambers of B_G (the
    test oracle) gives what ``apply`` gives through the double."""
    for name in ("identity", "dual", "truncation", "ambo", "join"):
        op = ops.catalog(name)
        for gname in ("tetrahedron", "k7"):
            g = seeds[gname]
            assert_matches_chamber_gluing(ops.apply(op, g), op, g)
            direct = oracle_apply_lsp_direct(op, g).result
            doubled = ops.apply(ops.lsp_to_lopsp(op), g).result
            assert direct.iso(doubled), (name, gname)


def test_lsp_direct_dual_on_cube(seeds):
    dual, cube = ops.catalog("dual"), seeds["cube"]
    for res in (ops.apply(dual, cube), oracle_apply_lsp_direct(dual, cube)):
        assert res.result.iso(seeds["octahedron"])


def test_lsp_to_lopsp_degree_relation():
    op = ops.catalog("truncation")
    lop = ops.lsp_to_lopsp(op)
    boundary = op.outer_vertices()
    g, g2 = op.graph, lop.graph
    for x in boundary:
        assert g2.degree(x) == 2 * g.degree(x) - 2
    assert len(g2.faces()) == 2 * (len(g.faces()) - 1)
    assert ops.validate_lopsp(lop) == []


def test_composition_dual_dual(seeds):
    dual = as_lopsp("dual")
    for gname in ("cube", "k7"):
        g = seeds[gname]
        assert ops.apply(dual, ops.apply(dual, g).result).result.iso(g)


def test_snub_chirality(seeds):
    sc = ops.apply(ops.catalog("snub"), seeds["cube"]).result
    assert not sc.iso(sc.mirror())
    assert sc.iso(sc.mirror(), allow_reflection=True)


def test_classify_catalog_all_c3():
    for name in ops.catalog_names():
        assert ops.classify_ck(ops.catalog(name)).k == 3


def test_classify_bad_operations():
    sprout = load_fixture("sprout.lopsp")
    pendant = load_fixture("pendant.lopsp")
    assert sprout.validate() == []
    assert pendant.validate() == []
    rep1 = ops.classify_ck(sprout)
    assert rep1.k == 1
    assert rep1.localization["single_cell"]  # 2-cycle inside one patch copy
    rep2 = ops.classify_ck(pendant)
    assert rep2.k == 2
    assert rep2.localization["within_two_adjacent"]


def test_classify_stable_across_witnesses(seeds):
    for name in ("dual", "gyro"):
        op = ops.catalog(name)
        ks = {
            ops.classify_ck(op, witness=seeds[w]).k
            for w in ("tetrahedron", "cube", "k7")
        }
        assert ks == {3}


def catalog_and_data_ops():
    """Every catalog and ``tests/data`` operation, lsp ones doubled."""
    names = sorted(n for n in os.listdir(DATA) if n.endswith((".lsp", ".lopsp")))
    for op in [ops.catalog(n) for n in ops.catalog_names()] + [load_fixture(n) for n in names]:
        yield op.lopsp()


def test_doubled_lsp_operations_are_valid():
    """``lsp_to_lopsp`` marks its double valid by construction; the full
    lopsp-operation validation agrees on every lsp-operation."""
    doubled = [lop for lop in catalog_and_data_ops() if lop.face_origin is not None]
    assert len(doubled) == 6
    for lop in doubled:
        assert ops.validate_lopsp(lop) == []


def test_found_cut_paths_pass_the_check():
    """``find_cut_path`` returns the flow's path unchecked; the path
    check accepts the minimal one and 20 seeded random ones."""
    for lop in catalog_and_data_ops():
        for path in [ops.find_cut_path(lop)] + [
                ops.find_cut_path(lop, "seeded-random", seed=seed) for seed in range(20)]:
            assert ops._check_cut_path(lop, path) is path


# sha256 over the darts of the minimal cut-path and of the seeded-random
# ones for seeds 0..299 of every catalog and test-data operation, a line each
CUT_PATHS_SHA256 = "f406674509d174a93b3f547578e0ae7cd15ce5b4be006a6a0a60a603a855bd34"


def test_cut_paths_digest():
    """The flow behind ``find_cut_path`` picks the same pair of paths,
    dart for dart, on 3010 cut-paths: T's numbering depends on it."""
    digest, count = hashlib.sha256(), 0
    for lop in catalog_and_data_ops():
        for path in [ops.find_cut_path(lop)] + [
                ops.find_cut_path(lop, "seeded-random", seed=seed) for seed in range(300)]:
            digest.update((" ".join(map(str, path.darts)) + "\n").encode())
            count += 1
    assert count == 3010
    assert digest.hexdigest() == CUT_PATHS_SHA256


def test_cut_path_validation_rejects_nonsense():
    lop = ops.catalog("gyro")
    with pytest.raises(ops.InvalidOperation):
        ops._check_cut_path(lop, ops.CutPath((0,)))


def path_avoiding_v0(lop):
    """Darts of a shortest path from v1 to v2 in the operation minus v0."""
    g, pred, todo = lop.graph, {lop.v1: None}, [lop.v1]
    for v in todo:
        for d in g.rotations()[v]:
            if g.head(d) not in pred and g.head(d) != lop.v0:
                pred[g.head(d)] = d
                todo.append(g.head(d))
    darts, v = [], lop.v2
    while pred[v] is not None:
        darts.append(pred[v])
        v = g.vertex_of[pred[v]]
    return tuple(reversed(darts))


def broken_cut_path(lop, fault):
    g = lop.graph
    darts = ops.find_cut_path(lop).darts
    if fault == "v0":
        return path_avoiding_v0(lop)
    i = [g.head(d) for d in darts].index(lop.v0) + 1
    if fault == "simple":  # out of v0 and straight back
        out = g.rotations()[lop.v0][0]
        return darts[:i] + (out, g.inv[out]) + darts[i:]
    # a dart into the same vertex from elsewhere: the vertex sequence is unchanged
    d = darts[i]
    other = next(g.inv[x] for x in g.rotations()[g.head(d)] if g.head(x) != g.vertex_of[d])
    return darts[:i] + (other,) + darts[i + 1:]


@pytest.mark.parametrize("fault, message", [
    ("v0", "cut-path must pass through v0"),
    ("simple", "cut-path is not a simple path"),
    ("consecutive", "cut-path darts are not consecutive"),
])
def test_cut_path_check_rejects(fault, message):
    lop = ops.catalog("gyro")
    darts = broken_cut_path(lop, fault)
    assert ops.CutPath(darts).vertices(lop.graph)[::len(darts)] == [lop.v1, lop.v2]
    with pytest.raises(ops.InvalidOperation, match="^%s$" % message):
        ops._check_cut_path(lop, ops.CutPath(darts))
    with pytest.raises(ops.InvalidOperation, match="^%s$" % message):
        ops.double_chamber_patch(lop, ops.CutPath(darts))


@pytest.mark.parametrize("fault", ["empty", "past-end", "negative", "not-an-int"])
def test_apply_rejects_cut_path_darts_outside_the_operation(fault):
    """A caller's cut-path is an ``InvalidOperation`` when it is empty or
    names a dart outside 0..n-1: a negative dart would otherwise pass the
    check as an index from the end, and a float would fail as an index."""
    gyro = ops.catalog("gyro")
    n, darts = gyro.graph.dart_count, ops.find_cut_path(gyro).darts
    bad, message = {
        "empty": ((), "cut-path is empty"),
        "past-end": (darts[:-1] + (n,), "cut-path dart %d out of range 0..%d" % (n, n - 1)),
        "negative": ((darts[0] - n,) + darts[1:],
                     "cut-path dart %d out of range 0..%d" % (darts[0] - n, n - 1)),
        "not-an-int": ((1.5,) + darts[1:], "cut-path dart 1.5 out of range 0..%d" % (n - 1)),
    }[fault]
    with pytest.raises(ops.InvalidOperation, match="^%s$" % re.escape(message)):
        ops.apply(gyro, polyhedra.tetrahedron(), cut_path=ops.CutPath(bad))


def test_patch_of_lsp_operation_is_its_doubles():
    """``find_cut_path`` gives a cut-path of the double of an
    lsp-operation, so ``double_chamber_patch`` cuts the double open."""
    for name in ("identity", "ambo", "truncation"):
        op = ops.catalog(name)
        path = ops.find_cut_path(op)
        got, want = ops.double_chamber_patch(op, path), ops.double_chamber_patch(op.lopsp(), path)
        assert got.graph.sigma == want.graph.sigma
        assert (got.lift_vertex, got.lift_edge, got.lift_face) == (
            want.lift_vertex, want.lift_edge, want.lift_face)
        inner = sorted(f for f in got.lift_face if f is not None)
        assert inner == list(range(len(op.lopsp().graph.faces())))


def test_find_cut_path_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="^unknown strategy 'shortest'$"):
        ops.find_cut_path(ops.catalog("ambo"), "shortest")


def test_subdividing_operation_reproduces_barycentric(seeds):
    # the operation whose decoration is the barycentrically subdivided
    # chamber turns every graph into its own subdivision, which the
    # chambers module builds through an entirely different code path
    op = load_fixture("meta.lsp")
    assert op.validate() == []
    assert ops.inflation_factor(op) == 6
    assert ops.classify_ck(op).k == 3
    for name in ("tetrahedron", "cube", "k7"):
        g = seeds[name]
        res = ops.apply(op, g)
        b = barycentric(g)
        unlabeled = EmbeddedGraph(b.sigma, b.inv, b.vertex_of)
        assert res.result.iso(unlabeled), name


def test_cut_vertex_diagnostic():
    # three triangles in a chain; vertices 2 and 4 are cut vertices
    g = EmbeddedGraph.from_adjacency(
        [[1, 2], [2, 0], [0, 1, 3, 4], [4, 2], [2, 3, 5, 6], [6, 4], [4, 5]],
        labels=[0, 1, 2, 0, 1, 0, 2],
    )
    assert oracle_smallest_cut(g, max_size=1) == (2,)
    outer = max(g.faces(), key=len)[0]
    for op in (ops.LopspOperation(g, 0, 1, 6), ops.LspOperation(g, 0, 1, 6, outer)):
        cuts = [d for d in op.validate() if d.clause == "two-connected"]
        assert cuts == [ops.Diagnostic("two-connected", 2)]
