"""The pruned canonical search against the exhaustive one.

The oracle codes every start dart at a vertex of minimal (degree, label)
in full, takes the minimum, and emits ``rot`` text from the first start
whose full code is that minimum.  The production search must give the
same codes and the same bytes.
"""

import os
import random
from collections import deque

import pytest

from surfops import io, polyhedra
from surfops import operations as ops
from surfops.chambers import barycentric
from surfops.embedded import EmbeddedGraph

from conftest import build_corpus, named_seeds

DATA = os.path.join(os.path.dirname(__file__), "data")


def oracle_code_from(g, start, sigma):
    dartnum = {}
    entry = {g.vertex_of[start]: start}
    queue = deque([g.vertex_of[start]])
    out = []
    while queue:
        v = queue.popleft()
        out.append(g.degree(v))
        out.append(-2 if g.labels is None else g.labels[v])
        d = entry[v]
        for _ in range(g.degree(v)):
            e = g.inv[d]
            out.append(dartnum.get(e, -1))
            dartnum[d] = len(dartnum)
            w = g.vertex_of[e]
            if w not in entry:
                entry[w] = e
                queue.append(w)
            d = sigma[d]
    return tuple(out)


def oracle_starts(g):
    rot = g.rotations()
    key = lambda v: (len(rot[v]), -2 if g.labels is None else g.labels[v])
    least = min(key(v) for v in range(len(rot)))
    return [d for v in range(len(rot)) if key(v) == least for d in rot[v]]


def oracle_code(g, allow_reflection=False):
    sigmas = [g.sigma]
    if allow_reflection:
        sigmas.append(g.mirror().sigma)
    return min(oracle_code_from(g, s, sig) for sig in sigmas for s in oracle_starts(g))


def oracle_write_rot(g):
    target = oracle_code(g)
    start = next(s for s in oracle_starts(g) if oracle_code_from(g, s, g.sigma) == target)
    entry = {g.vertex_of[start]: start}
    order = [g.vertex_of[start]]
    queue = deque(order)
    while queue:
        v = queue.popleft()
        d = entry[v]
        for _ in range(g.degree(v)):
            w = g.head(d)
            if w not in entry:
                entry[w] = g.inv[d]
                order.append(w)
                queue.append(w)
            d = g.sigma[d]
    lines = ["rot %d %d" % (g.vertex_count, g.edge_count)]
    lines += io._emit_rotation_lines(g, order, entry)
    return "\n".join(lines) + "\n"


def assert_matches_oracle(g):
    # a fresh copy, so no code cached by an earlier call is reused
    fresh = EmbeddedGraph(g.sigma, g.inv, g.vertex_of, g.labels)
    assert fresh.canonical_code(False) == oracle_code(g, False)
    assert fresh.canonical_code(True) == oracle_code(g, True)
    assert io.write_rot(fresh) == oracle_write_rot(g)


def power(op_name, g, k):
    op = ops.catalog(op_name)
    for _ in range(k):
        g = ops.apply(op, g).result
    return g


def test_corpus_matches_oracle(corpus):
    for g in corpus.values():
        assert_matches_oracle(g)


@pytest.mark.parametrize("op_name", ops.catalog_names())
def test_catalog_images_match_oracle(op_name):
    for g in named_seeds().values():
        assert_matches_oracle(ops.apply(ops.catalog(op_name), g).result)


@pytest.mark.parametrize("op_name", ["gyro", "snub", "truncation"])
@pytest.mark.parametrize("seed_name", ["tetrahedron", "k7"])
def test_second_generation_images_match_oracle(op_name, seed_name):
    assert_matches_oracle(power(op_name, named_seeds()[seed_name], 2))


def test_random_graphs_match_oracle():
    rng = random.Random(5150)
    for _ in range(300):
        assert_matches_oracle(polyhedra.random_embedded(rng, rng.randint(3, 60)))


def test_labelled_graphs_match_oracle():
    graphs = [barycentric(g).graph for g in build_corpus().values()]
    graphs += [ops.catalog(name).graph for name in ops.catalog_names()]
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="ascii") as handle:
            graphs.append(io.parse_op(handle.read()).graph)
    for g in graphs:
        assert g.labels is not None
        assert_matches_oracle(g)


@pytest.mark.parametrize(
    "graph, oracle_starts_count",
    [(polyhedra.icosahedron(), 60), (polyhedra.k7_torus(), 42)],
    ids=["icosahedron", "k7"],
)
def test_automorphism_orbits_are_coded_once(monkeypatch, graph, oracle_starts_count):
    assert len(oracle_starts(graph)) == oracle_starts_count
    coded = []
    code_from = EmbeddedGraph._code_from

    def counting(self, start, sigma, best):
        coded.append(start)
        return code_from(self, start, sigma, best)

    monkeypatch.setattr(EmbeddedGraph, "_code_from", counting)
    graph.canonical_code()
    graph.canonical_traversal()
    assert len(coded) <= 6
