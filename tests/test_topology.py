import math
import random

import pytest

from surfops import polyhedra
from surfops import topology as tp
from surfops.chambers import barycentric

import oracle_bridges as ob
from conftest import cycle, digon, k4_minus_edge, loop_vertex, two_triangles_cutvertex
from test_facewidth import cycle_class, oracle_bfs_candidate_cycles, random_graphs, tube_sum


def cycle_darts(g, vertex_seq):
    """Darts of the cycle visiting vertex_seq in order (simple graphs)."""
    out = []
    for i, u in enumerate(vertex_seq):
        w = vertex_seq[(i + 1) % len(vertex_seq)]
        out.append(next(d for d in g.rotations()[u] if g.head(d) == w))
    return out


def test_plane_cycles_contractible():
    g = polyhedra.cube()
    for f in g.faces():
        assert tp.is_contractible(g, list(f))
    with pytest.raises(ValueError, match="^not a simple cycle$"):
        tp.is_contractible(polyhedra.tetrahedron(), [0, 1])  # two darts out of one vertex


def test_is_contractible_rejects_darts_outside_the_graph():
    """A dart that is not an int in 0..n-1 names no edge of g: a negative
    one would otherwise be read as an index from the end, and a face
    written with such darts would not bound a disc."""
    g = polyhedra.tetrahedron()
    face = list(g.faces()[0])
    assert tp.is_contractible(g, face)
    for darts in ([d - g.dart_count for d in face], [999], [1.5], face[:2] + [str(face[2])]):
        with pytest.raises(ValueError, match="^not a simple cycle$"):
            tp.is_contractible(g, darts)


def test_contractibility_against_slow_oracle(corpus):
    """The side-Euler test against the bridge definition on BFS candidate
    cycles of B(K7), of B_G of the genus-2 and genus-3 tube sums, of
    corpus graphs and of random multigraphs, and of those graphs
    themselves, where loops and parallel edges give cycles of length 1
    and 2."""
    rng = random.Random(7)
    k7 = polyhedra.k7_torus()
    two = tube_sum(k7, k7, 2)
    tubes = [two, tube_sum(two, k7, 2), tube_sum(k7, k7, 3)]
    others = [corpus[name] for name in rng.sample(sorted(corpus), 12)] + random_graphs(12)
    cases = [(barycentric(k7), 60)]
    cases += [(barycentric(g), 400) for g in tubes]
    cases += [(h, 40) for g in others for h in (g, barycentric(g))]
    for b, count in cases:
        cycles = oracle_bfs_candidate_cycles(b)
        rng.shuffle(cycles)
        for cyc in cycles[:count]:
            assert tp.is_contractible(b, cyc) == ob.is_contractible(b, cyc), cyc


def test_homology_fast_path_matches_definition():
    b = barycentric(polyhedra.k7_torus())
    classes = tp._tables(b)[1]
    cycles = oracle_bfs_candidate_cycles(b)
    random.Random(11).shuffle(cycles)
    for cyc in cycles[:60]:
        assert (cycle_class(b, classes, cyc) != 0) == (not tp.is_contractible(b, cyc))


def test_face_width_values(corpus):
    assert tp.face_width(corpus["cube"]) == math.inf
    assert tp.face_width(corpus["k7"]) == 3
    assert tp.face_width(corpus["bouquet_torus"]) == 1


def test_face_width_iff_plane(corpus):
    for name, g in corpus.items():
        fw = tp.face_width(g)
        assert (fw == math.inf) == (g.genus() == 0), name


def test_ck_tetrahedron_polyhedral():
    rep = tp.is_ck_embedded(polyhedra.tetrahedron(), 3)
    assert rep.passed and rep.k_max == 3
    for k in (0, 4):
        with pytest.raises(ValueError, match="^k must be 1, 2 or 3$"):
            tp.is_ck_embedded(polyhedra.tetrahedron(), k)


def test_ck_degree_two_not_c3():
    rep = tp.is_ck_embedded(cycle(4), 3)
    assert not rep.passed
    assert rep.min_degree == 2


def test_ck_k7_c3():
    rep = tp.is_ck_embedded(polyhedra.k7_torus(), 3)
    assert rep.passed
    assert rep.face_width == 3
    assert rep.smallest_cut is None


def test_ck_via_cycles_face_of_size_one():
    rep = tp.ck_via_cycles(loop_vertex(), 2)
    assert not rep.passed
    assert "two_cycle" in rep.witness


def test_ck_via_cycles_digon_not_c3():
    rep = tp.ck_via_cycles(digon(), 3)
    assert not rep.passed
    assert rep.k_max == 2
    assert "four_cycle" in rep.witness


def test_ck_via_cycles_tetrahedron():
    assert tp.ck_via_cycles(polyhedra.tetrahedron(), 3).passed
    with pytest.raises(ValueError, match="^the cycle characterisation covers k=2 and k=3$"):
        tp.ck_via_cycles(polyhedra.tetrahedron(), 1)


def test_cut_witnesses():
    rep = tp.is_ck_embedded(two_triangles_cutvertex(), 2)
    assert not rep.passed
    assert rep.smallest_cut == (0,)
    rep = tp.is_ck_embedded(k4_minus_edge(), 3)
    # a field that is not deferred is missing without building the others
    assert not hasattr(rep, "nope") and rep.__dict__["_build"] is not None
    assert rep.smallest_cut is not None and len(rep.smallest_cut) == 2
