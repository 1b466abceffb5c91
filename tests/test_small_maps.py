"""The catalog operations, the ck fast paths, face-width, the ``rot``
round trip and the canonical code on every map with at most four edges
and on its images under the catalog operations.

The corpus checks itself by two counts.  Summed over the maps, 2E/|Aut+|
counts the rooted maps, which the number of connected sigma gives too:
each rooted map is one sigma for each of the (2E - 1)!! pairings, up to
the (2E - 1)! relabellings that fix the root.  Its plane part is
Tutte's count of rooted planar maps ("A census of planar maps", 1963).
"""

import math
from fractions import Fraction

import pytest

from surfops import io
from surfops import operations as ops
from surfops import topology as tp
from surfops.chambers import barycentric, radial

import oracle_ck as oc
from conftest import relabeled
from small_maps import automorphisms, small_maps
from test_facewidth import assert_matches_all_roots
from test_glue import check_both_routes

EDGES = (1, 2, 3, 4)


def rooted_counts(plane_only=False):
    return [sum(Fraction(2 * e, automorphisms(g)) for g in small_maps(e)[1]
                if not plane_only or g.genus() == 0) for e in EDGES]


def test_rooted_counts():
    from_sigma = [Fraction(small_maps(e)[0] * math.prod(range(1, 2 * e, 2)),
                           math.factorial(2 * e - 1)) for e in EDGES]
    assert rooted_counts() == from_sigma == [2, 10, 74, 706]
    assert sum(len(small_maps(e)[1]) for e in EDGES) == 134


def test_plane_rooted_counts():
    tutte = [2 * 3**e * math.factorial(2 * e) // (math.factorial(e) * math.factorial(e + 2))
             for e in EDGES]
    assert rooted_counts(plane_only=True) == tutte == [2, 9, 54, 378]


def all_small_maps():
    return [g for e in EDGES for g in small_maps(e)[1]]


def corpus_and_images():
    maps = all_small_maps()
    return maps + [ops.apply(ops.catalog(name), g).result
                   for name in ops.catalog_names() for g in maps]


@pytest.fixture(scope="module")
def graphs():
    return corpus_and_images()


@pytest.mark.parametrize("name", ops.catalog_names())
def test_catalog_on_small_maps(name):
    op = ops.catalog(name)
    for g in all_small_maps():
        check_both_routes(op, g)


def test_rot_text_is_a_fixed_point(graphs):
    for g in graphs:
        text = io.write_rot(g)
        h = io.parse_rot(text)
        assert io.write_rot(h) == text
        assert h.canonical_code() == g.canonical_code()


def test_canonical_code_ignores_labelling(graphs):
    for i, g in enumerate(graphs):
        h = relabeled(g, i)
        for reflect in (False, True):
            assert h.canonical_code(allow_reflection=reflect) == g.canonical_code(
                allow_reflection=reflect)


def test_polyhedral_and_two_cycle_read_off_g(graphs):
    assert len(graphs) == 8 * 134
    for g in graphs:
        b = barycentric(g)
        assert tp._polyhedral(g) == (tp._short_cycles(b)[0] == 3)
        assert tp._two_cycle_of(g) == tp._two_cycle(b)


def test_ck_reports_match_oracle(graphs):
    kinds = set()
    for g in graphs:
        for k in (1, 2, 3):
            report = tp.is_ck_embedded(g, k)
            assert report == oc.is_ck_embedded(g, k)
        for k in (2, 3):
            assert tp.ck_via_cycles(g, k) == oc.ck_via_cycles(g, k)
        kinds.add((report.k_max, report.smallest_cut is not None, report.face_width >= 3))
    # every k, with and without a cut, and the face rule's range all occur
    assert {(1, True, True), (2, True, True), (2, False, True), (1, False, False)} <= kinds


def test_cuts_match_oracle(graphs):
    """The first cut vertex and the smallest cut against the search over
    all vertex subsets; a map with face-meeting tables has no cut vertex,
    which lets ``_face_cut`` skip the DFS."""
    from test_ck import oracle_smallest_cut  # test_ck imports this module

    for g in graphs:
        assert tp._cut_vertex(g) == oracle_smallest_cut(g, 1)
        assert tp._smallest_cut(g) == oracle_smallest_cut(g, 2)
        assert tp._face_meetings(g) is None or tp._cut_vertex(g) is None


def test_face_cut_matches_dfs(graphs):
    ruled = [g for g in graphs if tp.face_width(g) >= 3]
    assert len(ruled) > 500
    for g in ruled:
        assert tp._face_cut(g) == tp._smallest_cut(g)


def test_face_width_matches_all_roots(graphs):
    """Face-width against the all-roots scan, and R(G)'s neighbour
    lists, classes and cut graph read off G against those of the built
    ``radial(g)``."""
    assert {g.genus() for g in graphs} == {0, 1, 2}
    for g in graphs:
        assert_matches_all_roots(g)
        r = radial(g)
        assert tp._radial_tables(g)[:3] == tp._tables(r)[:3]
