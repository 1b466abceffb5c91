"""The paper's theorem as a property test, on random polyhedral maps.

Lsp- and lopsp-operations from 3-connected tilings preserve
polyhedrality (c3) on every surface, and the short-cycle
characterisation of ck equals its definition.  ``classify_ck`` relies on
both: it reads k off a single witness image with the characterisation
alone.  The tests below check, for the catalog and ``tests/data`` on
polyhedral maps of genus 0, 1 and 2, that

* ``apply(op, M)`` is c3 under the definition and the characterisation
  whenever ``classify_ck(op)`` is 3,
* ``classify_ck(op, witness=M)`` does not depend on M,
* face-width does not drop.

The maps come from random edge flips of three start maps, kept only
while the map stays simple and passes the definitional check
``oracle_ck.is_ck_embedded(., 3)``, which searches for 2-cuts on every
map, so the generator does not assume the theorem; their duals are
added.  The images are checked against the definitional checks of
``oracle_ck`` too, and the production checks must give the same reports.
Everything is seeded.
"""

import math
import os
import random
import sys
from collections import namedtuple
from functools import lru_cache

import pytest

from surfops import operations as ops
from surfops import polyhedra
from surfops import topology as tp
from surfops.chambers import barycentric
from surfops.embedded import EmbeddedGraph
from surfops.io import parse_op

import oracle_ck as oc
from conftest import named_seeds
from small_maps import small_maps
from test_facewidth import tube_sum

DATA = os.path.join(os.path.dirname(__file__), "data")

EXPECTED_K = dict.fromkeys(ops.catalog_names(), 3)
EXPECTED_K.update({"meta.lsp": 3, "pendant.lopsp": 2, "sprout.lopsp": 1})

FLIP_TRIES = 20

PolyhedralMap = namedtuple("PolyhedralMap", "name graph flips face_width")


@lru_cache(maxsize=None)
def operation(name):
    if name in ops.catalog_names():
        return ops.catalog(name)
    with open(os.path.join(DATA, name), "r", encoding="ascii") as handle:
        return parse_op(handle.read())


def flip(g, d):
    """g with the edge of dart d turned one step forward in both of its
    faces (for triangles the usual diagonal flip), or None when both
    sides of the edge are one face."""
    dp = g.inv[d]
    if g.face_of(d) == g.face_of(dp):
        return None
    rotations = [list(r) for r in g.rotations()]
    rotations[g.vertex_of[d]].remove(d)
    rotations[g.vertex_of[dp]].remove(dp)
    for dart in (d, dp):
        after = g.inv[g.sigma[g.inv[dart]]]  # the reverse of the next dart in the face
        rot = rotations[g.vertex_of[after]]
        rot.insert(rot.index(after) + 1, dart)
    h = EmbeddedGraph.from_rotations(rotations, list(g.inv))
    assert h.genus() == g.genus()
    return h


def is_simple(g):
    ends = {frozenset((g.vertex_of[d], g.vertex_of[dp])) for d, dp in g.edge_darts()}
    return len(ends) == g.edge_count and all(len(e) == 2 for e in ends)


def kis(g):
    return ops.apply(ops.catalog("dual"), ops.apply(ops.catalog("truncation"), g).result).result


@lru_cache(maxsize=None)
def flip_runs():
    """Per start map, its name, the map its kept flips end at, and every
    flip tried as (flipped map, kept); the flipped map is None where the
    edge has one face on both sides.  The starts are genus 0 from the
    icosahedron, genus 1 from K7, genus 2 from the sum of two K7 through
    a tube of 3 edges."""
    rng = random.Random(2021)
    k7 = polyhedra.k7_torus()
    starts = (
        ("kis icosahedron", kis(polyhedra.icosahedron())),
        ("kis k7", kis(k7)),
        ("k7 tube k7", tube_sum(k7, k7, 3)),
    )
    runs = []
    for name, g in starts:
        tried = []
        for _ in range(FLIP_TRIES):
            h = flip(g, rng.randrange(g.dart_count))
            kept = h is not None and is_simple(h) and oc.is_ck_embedded(h, 3).passed
            tried.append((h, kept))
            if kept:
                g = h
        runs.append((name, g, tuple(tried)))
    return tuple(runs)


@lru_cache(maxsize=None)
def polyhedral_maps():
    """The flipped start maps and their duals."""
    out = []
    for name, g, tried in flip_runs():
        accepted = sum(kept for _, kept in tried)
        for m, graph in ((name, g), (name + " dual", g.dual())):
            out.append(PolyhedralMap(m, graph, accepted, tp.face_width(graph)))
    return tuple(out)


def count_calls(monkeypatch, func):
    """Route every surfops binding of ``func`` through a counting wrapper;
    returns the list its calls are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "surfops" or name.startswith("surfops."):
            for key, value in list(vars(mod).items()):
                if value is func:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_maps_are_polyhedral_and_cover_genus_0_to_2():
    maps = polyhedral_maps()
    assert sorted({m.graph.genus() for m in maps}) == [0, 1, 2]
    for name, g, flips, _ in maps:
        assert flips > 0, name
        assert is_simple(g), name
        assert tp.is_ck_embedded(g, 3).passed, name
        assert tp.ck_via_cycles(g, 3).passed, name


def test_genus_2_maps_reach_the_contractibility_test(monkeypatch):
    calls = count_calls(monkeypatch, tp.is_contractible)
    for name, g, _, _ in polyhedral_maps():
        if g.genus() >= 2:
            before = len(calls)
            assert tp.face_width(g) == 3, name
            assert len(calls) > before, name


@pytest.mark.parametrize("name", sorted(EXPECTED_K))
def test_classification_does_not_depend_on_witness(name):
    op = operation(name)
    for map_name, g, _, _ in polyhedral_maps():
        assert ops.classify_ck(op, witness=g).k == EXPECTED_K[name], map_name


@pytest.mark.parametrize("name", sorted(n for n, k in EXPECTED_K.items() if k == 3))
def test_images_are_polyhedral(name):
    op = operation(name)
    for map_name, g, _, width in polyhedral_maps():
        result = ops.apply(op, g).result
        cycles = oc.ck_via_cycles(result, 3)
        assert cycles.passed, map_name
        assert tp.ck_via_cycles(result, 3) == cycles, map_name
        rep = oc.is_ck_embedded(result, 3)
        assert rep.passed, (map_name, rep)
        assert rep.face_width >= width, map_name
        assert tp.is_ck_embedded(result, 3) == rep, map_name


def test_classify_k_is_the_definitions_k():
    """The k that classify_ck reads off the result is the k of
    the full short-cycle search on B(result), which is built apart from
    T, and the largest k the definition, cut search included, passes on
    the result, for k < 3 images too."""
    for name in sorted(EXPECTED_K):
        op = operation(name)
        for w in (polyhedra.tetrahedron(), polyhedra.cube(), polyhedra.k7_torus()):
            result = ops.apply(op, w).result
            k = ops.classify_ck(op, witness=w).k
            assert oc.ck_via_cycles(result, 3).k_max == k, name
            assert max(j for j in (1, 2, 3) if oc.is_ck_embedded(result, j).passed) == k, name


def test_subdivision_is_the_barycentric_subdivision_of_the_result():
    """T, glued from the patches, is B(O(G)) as a labelled map, so the
    short cycles of T, which ``classify_ck`` reports, give the k it reads
    off O(G): on the catalog and ``tests/data`` operations applied to the
    named seeds and to every map with at most four edges."""
    graphs = list(named_seeds().values()) + [g for e in (1, 2, 3, 4) for g in small_maps(e)[1]]
    ks = set()
    for name in sorted(EXPECTED_K):
        op = operation(name)
        for g in graphs:
            res = ops.apply(op, g)
            t = res.subdivision
            assert t.canonical_code() == barycentric(res.result).canonical_code(), name
            k = ops.classify_ck(op, witness=g).k
            assert oc.short_cycles(t)[0] == k, name
            ks.add(k)
    assert ks == {1, 2, 3}


def test_classify_reads_one_cycle_characterisation(monkeypatch):
    """One ``_polyhedral`` call per classification, and k from the result
    alone: T and its short cycles wait for the first read of the witness
    of a k < 3 operation, once, and then run only the search k names,
    ``_two_cycle`` at k = 1 and ``_four_cycle_witness`` at k = 2; never
    the direct check.  Once read, the report is what the short cycles of
    T give."""
    wants = {}
    for name in EXPECTED_K:
        res = ops.apply(operation(name), polyhedra.tetrahedron())
        k, cycle = oc.short_cycles(res.subdivision)
        wit = next(iter(cycle.values()), ())
        wants[name] = k, cycle, [res.edge_cells[res.subdivision.edge_of(d)] for d in wit]
    polyhedral = count_calls(monkeypatch, tp._polyhedral)
    twos = count_calls(monkeypatch, tp._two_cycle)
    fours = count_calls(monkeypatch, tp._four_cycle_witness)
    glued = count_calls(monkeypatch, ops._glue_slots)
    direct = count_calls(monkeypatch, tp.is_ck_embedded)
    read_t = []
    for calls, name in enumerate(sorted(EXPECTED_K), start=1):
        report = ops.classify_ck(operation(name))
        assert report.k == EXPECTED_K[name]
        assert len(polyhedral) == calls
        assert (twos, fours, glued) == ([], [], []), name
        assert (report.k, report.witness, report.localization.get("cells", [])) == wants[name]
        searches = [len(twos), len(fours)]
        assert searches == {1: [1, 0], 2: [0, 1], 3: [0, 0]}[report.k], name
        assert sum(searches) == len(glued), name
        read_t += [name] * len(glued)
        for calls_made in (twos, fours, glued):
            calls_made.clear()
    assert read_t == ["pendant.lopsp", "sprout.lopsp"]
    assert direct == []


def test_face_width_does_not_reprove_its_witness(monkeypatch, corpus):
    """A non-null witness bounds nothing; up to genus 1 the homology
    scan decides face-width without a contractibility test."""
    k7 = polyhedra.k7_torus()
    graphs = [g for g in corpus.values() if g.genus() <= 1]
    graphs += [m.graph for m in polyhedral_maps() if m.graph.genus() <= 1]
    graphs += [ops.apply(ops.catalog(name), k7).result for name in ops.catalog_names()]
    calls = count_calls(monkeypatch, tp.is_contractible)
    widths = [tp.face_width(g) for g in graphs]
    assert sum(w != math.inf for w in widths) >= 20
    assert calls == []
