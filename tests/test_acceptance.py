"""Acceptance criteria, one test per criterion, each printing a pass line.

Expected values are exact: f-vectors come from the edge-multiplication
identities (checked against Euler's formula before being frozen here),
curvatures are exact rationals, and all equalities are canonical-code
equalities.
"""

import math
import os
import random
from functools import lru_cache

import pytest

from surfops import delaney as dd
from surfops import operations as ops
from surfops import polyhedra
from surfops import topology as tp
from surfops.chambers import DoubleChamberSystem, barycentric
from surfops.io import parse_op

import oracle_ck as oc
from conftest import build_corpus, doubling_morphism
from oracle_glue import assert_matches_chamber_gluing
from oracle_flips import chamber_flip, legal_flips, walk_cycles
from test_facewidth import oracle_bfs_candidate_cycles

DATA = os.path.join(os.path.dirname(__file__), "data")

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")


@lru_cache(maxsize=None)
def seed(name):
    if name == "k7":
        return polyhedra.k7_torus()
    return getattr(polyhedra, name)()


@lru_cache(maxsize=None)
def as_lopsp(name):
    return ops.catalog(name).lopsp()


@lru_cache(maxsize=None)
def applied(op_name, graph_name):
    return ops.apply(as_lopsp(op_name), seed(graph_name))


@lru_cache(maxsize=None)
def bad_operation(name):
    with open(os.path.join(DATA, name), "r", encoding="ascii") as handle:
        return parse_op(handle.read())


def _report(number, name):
    print("ACCEPTANCE %d %s: PASS" % (number, name))


# f-vector maps V,E,F -> V',E',F', derived from the inflation identities
# and cross-checked with Euler characteristic 2 before freezing
FVECTORS = {
    "dual": lambda V, E, F: (F, E, V),
    "truncation": lambda V, E, F: (2 * E, 3 * E, F + V),
    "ambo": lambda V, E, F: (E, 2 * E, F + V),
    "join": lambda V, E, F: (V + F, 2 * E, E),
    "gyro": lambda V, E, F: (V + 2 * E + F, 5 * E, 2 * E),
    "snub": lambda V, E, F: (2 * E, 5 * E, F + V + 2 * E),
}


def test_c01_archimedean_regression():
    for op_name, formula in FVECTORS.items():
        for graph_name in SOLIDS:
            g = seed(graph_name)
            want = formula(g.vertex_count, g.edge_count, len(g.faces()))
            assert sum(want[0:1]) - want[1] + want[2] == 2  # Euler sanity
            r = applied(op_name, graph_name).result
            got = (r.vertex_count, r.edge_count, len(r.faces()))
            assert got == want, (op_name, graph_name, got, want)
    # spot checks quoted in the criterion
    tc = applied("truncation", "cube").result
    assert (tc.vertex_count, tc.edge_count, len(tc.faces())) == (24, 36, 14)
    gt = applied("gyro", "tetrahedron").result
    assert (gt.vertex_count, gt.edge_count, len(gt.faces())) == (20, 30, 12)
    sc = applied("snub", "cube").result
    assert (sc.vertex_count, sc.edge_count, len(sc.faces())) == (24, 60, 38)
    _report(1, "archimedean-regression")


def test_c02_path_invariance():
    for op_name in ("gyro", "snub"):
        op = ops.catalog(op_name)
        for graph_name in ("tetrahedron", "cube", "k7"):
            g = seed(graph_name)
            codes = set()
            minimal = ops.find_cut_path(op, "minimal")
            codes.add(ops.apply(op, g, cut_path=minimal).result.canonical_code())
            for s in range(1, 6):
                path = ops.find_cut_path(op, "seeded-random", seed=s)
                codes.add(ops.apply(op, g, cut_path=path).result.canonical_code())
            assert len(codes) == 1, (op_name, graph_name)
    _report(2, "path-invariance")


def test_c03_polyhedrality_preserved_on_k7():
    for op_name in ops.catalog_names():
        res = applied(op_name, "k7")
        assert res.result.genus() == 1, op_name
        rep = tp.is_ck_embedded(res.result, 3)
        assert rep.passed, (op_name, rep)
    _report(3, "polyhedrality-preservation")


def test_c04_face_width_monotone():
    for op_name in ops.catalog_names():
        for graph_name in SOLIDS + ("k7",):
            g = seed(graph_name)
            fw_before = tp.face_width(g)
            fw_after = tp.face_width(applied(op_name, graph_name).result)
            assert fw_after >= fw_before, (op_name, graph_name)
            if graph_name in SOLIDS:
                assert fw_before == fw_after == math.inf
            else:
                assert fw_before == 3 and fw_after >= 3
    _report(4, "face-width-monotonicity")


def test_c05_delaney_dress_validity():
    for op_name in ops.catalog_names():
        op = ops.catalog(op_name)
        sym = dd.dd(op)
        assert dd.validate_dd(sym) == [], op_name
        assert dd.curvature(sym) == 0, op_name
    identity_sym = dd.dd_from_lopsp(as_lopsp("identity"))
    assert identity_sym.size == 2
    assert set(identity_sym.m[(0, 1)]) == {6}
    assert set(identity_sym.m[(1, 2)]) == {3}
    assert set(identity_sym.m[(0, 2)]) == {2}
    _report(5, "delaney-dress-validity")


def test_c06_lsp_lopsp_equivalence():
    for op_name in ("identity", "dual", "truncation", "ambo", "join"):
        op = ops.catalog(op_name)
        lop, mapping = doubling_morphism(op)
        assert dd.is_dd_morphism(
            dd.dd_from_lopsp(lop), dd.dd_from_lsp(op), mapping
        ), op_name
        for graph_name in SOLIDS + ("k7",):
            g = seed(graph_name)
            assert_matches_chamber_gluing(ops.apply(lop, g), op, g)
    _report(6, "lsp-lopsp-equivalence")


def test_c07_characterisation_oracle_equivalence():
    corpus = build_corpus()
    assert len(corpus) >= 50
    # required shapes are present
    assert any(
        any(g.vertex_of[d] == g.head(d) for d in range(g.dart_count))
        for g in corpus.values()
    )  # loops
    assert any(min(len(f) for f in g.faces()) == 1 for g in corpus.values())
    assert any(
        min(g.degree(v) for v in range(g.vertex_count)) == 2 for g in corpus.values()
    )
    assert "k4_minus_edge" in corpus and "k7" in corpus
    # the characterisation against the definition, both in their
    # definitional form; the production checks must give their reports
    disagreements = 0
    for name, g in corpus.items():
        for k in (2, 3):
            direct = oc.is_ck_embedded(g, k)
            cycles = oc.ck_via_cycles(g, k)
            if direct.passed != cycles.passed:
                disagreements += 1
            assert tp.is_ck_embedded(g, k) == direct, name
            assert tp.ck_via_cycles(g, k) == cycles, name
    assert disagreements == 0
    _report(7, "characterisation-oracle-equivalence")


def test_c08_classification_stability():
    expected = {name: 3 for name in ops.catalog_names()}
    expected["sprout.lopsp"] = 1  # patch 2-cycle construction
    expected["pendant.lopsp"] = 2  # nontrivial patch 4-cycle construction
    for name, want in expected.items():
        op = bad_operation(name) if name.endswith(".lopsp") else ops.catalog(name)
        ks = set()
        for w in ("tetrahedron", "cube", "k7"):
            rep = ops.classify_ck(op, witness=seed(w))
            ks.add(rep.k)
            if rep.k < 3:
                # the short witness cycle localizes to few patch copies
                if "two_cycle" in rep.witness:
                    assert rep.localization["single_cell"], name
                else:
                    assert rep.localization["within_two_adjacent"], name
        assert ks == {want}, (name, ks)
    _report(8, "classification-stability")


def test_c09_structural_identities():
    corpus = build_corpus()
    for name, g in corpus.items():
        b = barycentric(g)
        assert b.genus() == g.genus(), name
        assert len(b.faces()) == 4 * g.edge_count, name
        assert len(DoubleChamberSystem(g).graph.faces()) == 2 * g.edge_count, name
    for graph_name in ("tetrahedron", "cube", "k7"):
        g = seed(graph_name)
        assert ops.apply(as_lopsp("identity"), g).result.iso(g)
        dd_twice = ops.apply(
            as_lopsp("dual"), ops.apply(as_lopsp("dual"), g).result
        ).result
        assert dd_twice.iso(g)
    _report(9, "structural-identities")


def test_c10_flip_lemma_property():
    b = barycentric(polyhedra.k7_torus())
    noncontractible = []
    seen = set()
    for cyc in sorted(oracle_bfs_candidate_cycles(b), key=len):
        key = frozenset(b.edge_of(d) for d in cyc)
        if key in seen:
            continue
        seen.add(key)
        if not tp.is_contractible(b, cyc):
            noncontractible.append(cyc)
    rng = random.Random(2024)
    rng.shuffle(noncontractible)
    sample = noncontractible[:100]
    assert len(sample) == 100
    counterexamples = 0
    for cyc in sample:
        for pos, face, arity in legal_flips(b, cyc):
            walk = chamber_flip(b, cyc, pos, face, arity=arity)
            parts = walk_cycles(b, walk)
            if not any(not tp.is_contractible(b, part) for part in parts):
                counterexamples += 1
    assert counterexamples == 0
    _report(10, "flip-lemma")
