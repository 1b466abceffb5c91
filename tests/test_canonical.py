"""The pruned canonical search against the exhaustive one.

The oracle codes every start dart at a vertex of minimal (degree, label)
in full, takes the minimum, and emits ``rot`` text from the first start
whose full code is that minimum.  The production search must give the
same codes and the same bytes.
"""

import hashlib
import os
import random
from collections import deque
from itertools import islice

import pytest

from surfops import io, polyhedra
from surfops import operations as ops
from surfops.chambers import barycentric
from surfops.embedded import EmbeddedGraph, _Numberings

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
    lines += oracle_rotation_lines(g, order, entry)
    return "\n".join(lines) + "\n"


def oracle_rotation_lines(g, vertex_order, entry):
    """Rotation lines in a given vertex order; edges numbered by first
    appearance, + on first sight."""
    edge_id = {}
    lines = []
    for new_v, v in enumerate(vertex_order):
        d = entry[v]
        toks = []
        for _ in range(g.degree(v)):
            e = g.edge_of(d)
            if e not in edge_id:
                edge_id[e] = len(edge_id) + 1
                toks.append("+%d" % edge_id[e])
            else:
                toks.append("-%d" % edge_id[e])
            d = g.sigma[d]
        lines.append("%d: %s" % (new_v + 1, " ".join(toks)))
    return lines


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
    graphs = [barycentric(g) for g in build_corpus().values()]
    graphs += [ops.catalog(name).graph for name in ops.catalog_names()]
    for name in sorted(os.listdir(DATA)):
        if not name.endswith((".lsp", ".lopsp")):
            continue
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
    walks = count_walks(monkeypatch)
    graph.canonical_code()
    graph.canonical_traversal()
    assert len(walks) <= 6


def count_walks(monkeypatch):
    """Record the darts list of every start walk the canonical search
    begins; each list holds the darts that walk numbered."""
    walks = []
    walk = EmbeddedGraph._code_walk

    def counting(self, start, sigma, darts, *rest):
        walks.append(darts)
        return walk(self, start, sigma, darts, *rest)

    monkeypatch.setattr(EmbeddedGraph, "_code_walk", counting)
    return walks


def test_search_reuses_two_numberings(monkeypatch):
    """One search passes every walk a pooled ``num`` array, and there are
    at most two: the best walk's and the challenger's."""
    g = ops.apply(ops.catalog("truncation"), polyhedra.random_embedded(random.Random(5), 1500)).result
    arrays = []
    walk = EmbeddedGraph._code_walk

    def recording(self, start, sigma, darts, num=None, *rest):
        arrays.append(num)
        return walk(self, start, sigma, darts, num, *rest)

    monkeypatch.setattr(EmbeddedGraph, "_code_walk", recording)
    g.canonical_code()
    assert len(arrays) > 100 and None not in arrays
    assert len({id(num) for num in arrays}) <= 2


def pooled_codes_match_fresh(g, sigma):
    """Walk each start through the pool after a partial walk from another
    start was abandoned, and while a third walk holds a pooled pair: its
    full code must equal that of a walk on fresh arrays."""
    pool = _Numberings(g)
    starts = list(range(g.dart_count))
    for k, s in enumerate(starts):
        held = pool.take()
        held_darts = []
        held_walk = g._code_walk(starts[k - 1], sigma, held_darts, *held)
        next(held_walk)
        other = starts[(7 * k + 3) % len(starts)]
        arrays, darts = pool.take(), []
        list(islice(g._code_walk(other, sigma, darts, *arrays), 1 + k % 3))
        pool.give(other, darts, arrays)
        arrays, darts = pool.take(), []
        assert list(g._code_walk(s, sigma, darts, *arrays)) == list(g._code_walk(s, sigma, []))
        pool.give(s, darts, arrays)
        pool.give(starts[k - 1], held_darts, held)
        assert len(pool.free) == 2
    for num, entry in pool.free:
        assert set(num) == set(entry) == {-1}


def test_pooled_walks_match_fresh_walks(corpus):
    graphs = list(corpus.values()) + [barycentric(g) for g in named_seeds().values()]
    graphs += [ops.catalog(name).graph for name in ops.catalog_names()]
    for g in graphs:
        pooled_codes_match_fresh(g, g.sigma)
        pooled_codes_match_fresh(g, g.mirror().sigma)


def test_losing_codes_are_not_finished(monkeypatch):
    """Only ties and the winner are coded to the end: over all walks the
    search numbers at most 6 darts per dart of the graph (about 13.6 when
    every start that beats the best so far is coded in full).  The input
    of snub is read back from its ``rot`` text, as in a pipeline of CLI
    calls."""
    chain = power("gyro", power("ambo", polyhedra.k7_torus(), 1), 1)
    g = power("snub", io.parse_rot(io.write_rot(chain)), 1)
    assert g.edge_count == 1050
    walks = count_walks(monkeypatch)
    g.canonical_code()
    assert sum(map(len, walks)) <= 6 * g.dart_count


# perfbench's grow_large chains, each from its first base: (base, chain,
# final operation)
GROW_CHAINS = (
    ("tetrahedron", ("gyro", "snub"), "gyro"),
    ("k7", ("ambo", "gyro"), "snub"),
    ("cube", ("snub", "gyro"), "gyro"),
    ("cube", ("join", "truncation", "gyro"), "snub"),
    ("tetrahedron", ("gyro", "truncation", "snub"), "gyro"),
    ("cube", ("gyro", "truncation", "truncation"), "snub"),
    ("k7", ("truncation", "ambo", "gyro"), "gyro"),
    ("tetrahedron", ("snub", "gyro", "gyro"), "snub"),
)


def pinned_sets():
    """The corpus, catalog x {5 solids, K7}, and each grow_large chain
    graph with the image its final operation gives of its rot text."""
    catalog = [ops.apply(ops.catalog(name), g).result
               for name in ops.catalog_names() for g in named_seeds().values()]
    grow = []
    for base, chain, last in GROW_CHAINS:
        g = named_seeds()[base]
        for name in chain:
            g = ops.apply(ops.catalog(name), g).result
        grow += [g, ops.apply(ops.catalog(last), io.parse_rot(io.write_rot(g))).result]
    return {"corpus": list(build_corpus().values()), "catalog": catalog, "grow_large": grow}


def digests(graphs):
    rot = hashlib.sha256("".join(io.write_rot(g) for g in graphs).encode("ascii"))
    code = hashlib.sha256(
        "".join("%s\n" % (g.canonical_code(True),) for g in graphs).encode("ascii"))
    return rot.hexdigest(), code.hexdigest()


# sha256 of the write_rot texts and the canonical_code(True) values of each
# set, as given by the search that coded every improving start in full and
# by the edge_of-based writer (``oracle_rotation_lines``)
PINNED = {
    "corpus": ("549640439bf40ecdba7840b44a105f29ea56a4c13111aca4dc0177c6926adb43",
               "08e23c1b9619968c1fe4489ab7b7351a58f4460722c3c855eb97066b9292e70f"),
    "catalog": ("a1f2df151853844d301fb2d4274cf1ea8ab6ceba06beac63df504db69f98459e",
                "1a7e3b62066f59bf40137344ad5bb2b5eb3c44a488ee60f09bd072719f1fc570"),
    "grow_large": ("5a9a7b046dca6701e9e11acb079e3941713cd54164ad82ea19618ddd3512e9fd",
                   "12d9807bcd233191e0a31888cb1d7b518b84a1383131217bb86355190de77070"),
}


def test_write_rot_bytes_are_pinned():
    sets = pinned_sets()
    assert [len(sets[k]) for k in PINNED] == [52, 42, 16]
    for name, graphs in sets.items():
        assert digests(graphs) == PINNED[name], name
