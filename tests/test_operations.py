import os

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
    op = ops.catalog(name)
    return ops.lsp_to_lopsp(op) if isinstance(op, ops.LspOperation) else op


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


def test_validate_flags_type1_degree():
    gyro = ops.catalog("gyro")
    bad = ops.LopspOperation(gyro.graph, gyro.v0, gyro.v2, gyro.v1)  # swap v1/v2
    clauses = {d.clause for d in bad.validate()}
    assert clauses  # moving specials breaks degree or type clauses


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
        yield ops.lsp_to_lopsp(op) if isinstance(op, ops.LspOperation) else op


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


def test_cut_path_validation_rejects_nonsense():
    lop = ops.catalog("gyro")
    with pytest.raises(ops.InvalidOperation):
        ops._check_cut_path(lop, ops.CutPath((0,), 0))


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
