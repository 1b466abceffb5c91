"""The near-linear ck checks against the definitional code they replaced.

The oracles are the former production paths: the brute-force search for
a vertex cut over all vertex subsets, the 4-cycle search over all vertex
pairs, and the triviality test that reads every 4-cycle's bridges
(``oracle_bridges.four_cycle_is_trivial``).  The production code must
give the same cuts, the same 4-cycle lists in the same order and the
same triviality answers, so ck reports and their witnesses stay
identical.
"""

import dataclasses
import hashlib
import random
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfops import polyhedra
from surfops import operations as ops
from surfops import topology as tp
from surfops.chambers import barycentric
from surfops.embedded import EmbeddedGraph

import oracle_bridges as ob
import oracle_ck as oc
from conftest import (build_corpus, digon, loop_vertex, named_seeds, relabeled, single_edge,
                      two_triangles_cutvertex)
from test_polyhedrality import count_calls, flip_runs, polyhedral_maps
from test_small_maps import corpus_and_images


def oracle_smallest_cut(g, max_size=2):
    nv = g.vertex_count
    adjacency = [{g.head(d) for d in g.rotations()[v]} - {v} for v in range(nv)]

    def connected_without(removed):
        rest = [v for v in range(nv) if v not in removed]
        if len(rest) <= 1:
            return True
        seen = {rest[0]}
        todo = [rest[0]]
        while todo:
            v = todo.pop()
            for w in adjacency[v]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(rest)

    for size in range(1, max_size + 1):
        if nv <= size:
            return None

        def rec(chosen, start):
            if len(chosen) == size:
                return tuple(chosen) if not connected_without(set(chosen)) else None
            for v in range(start, nv):
                got = rec(chosen + [v], v + 1)
                if got:
                    return got
            return None

        cut = rec([], 0)
        if cut:
            return cut
    return None


def oracle_four_cycles(b):
    nv = b.vertex_count
    adj = [dict() for _ in range(nv)]
    for d in range(b.dart_count):
        adj[b.vertex_of[d]][b.head(d)] = d
    out = []
    seen = set()
    for u in range(nv):
        for w in range(u + 1, nv):
            common = [x for x in adj[u] if x in adj[w] and x not in (u, w)]
            for i in range(len(common)):
                for j in range(i + 1, len(common)):
                    x, y = common[i], common[j]
                    key = frozenset((b.edge_of(adj[u][x]), b.edge_of(adj[x][w]),
                                     b.edge_of(adj[w][y]), b.edge_of(adj[y][u])))
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append((adj[u][x], adj[x][w], adj[w][y], adj[y][u]))
    return out


def assert_matches_oracle(g, sample=None):
    """Cuts and 4-cycle lists of g and B_G, and the triviality of every
    4-cycle of B_G (of ``sample`` evenly spaced ones, when given)."""
    assert tp._cut_vertex(g) == oracle_smallest_cut(g, 1)
    assert tp._smallest_cut(g) == oracle_smallest_cut(g, 2)
    assert tp.four_cycles(g) == oracle_four_cycles(g)
    b = barycentric(g)
    cycles = tp.four_cycles(b)
    assert cycles == oracle_four_cycles(b)
    if sample is not None:
        cycles = cycles[::max(1, len(cycles) // sample)]
    for cyc in cycles:
        assert tp.four_cycle_is_trivial(b, cyc) == ob.four_cycle_is_trivial(b, cyc), cyc


def power(op_name, g, k):
    for _ in range(k):
        g = ops.apply(ops.catalog(op_name), g).result
    return g


def random_graphs(count=300, seed=8128):
    rng = random.Random(seed)
    return [polyhedra.random_embedded(rng, rng.randint(3, 60)) for _ in range(count)]


def test_corpus_matches_oracle(corpus):
    for g in corpus.values():
        assert_matches_oracle(g)


@pytest.mark.parametrize("op_name", ops.catalog_names())
def test_catalog_images_match_oracle(op_name):
    for name in ("tetrahedron", "cube", "k7"):
        assert_matches_oracle(ops.apply(ops.catalog(op_name), named_seeds()[name]).result)


def test_second_gyro_of_tetrahedron_matches_oracle():
    assert_matches_oracle(power("gyro", polyhedra.tetrahedron(), 2))


def test_random_graphs_match_oracle():
    # the bridge oracle walks all of B_G for each 4-cycle; on every
    # 4-cycle of these graphs (about 150k) it takes minutes
    for g in random_graphs():
        assert_matches_oracle(g, sample=8)


def add_edge(g, d, e=None):
    """g with a new edge from the angle after dart d to the angle after
    dart e, or to a new vertex of type 0 when e is None."""
    n = g.dart_count
    rotations = [list(rot) for rot in g.rotations()]
    for dart, new in ((d, n), (e, n + 1)):
        if dart is None:
            rotations.append([new])
        else:
            rot = rotations[g.vertex_of[dart]]
            rot.insert(rot.index(dart) + 1, new)
    labels = None if g.labels is None else list(g.labels) + [0] * (len(rotations) - g.vertex_count)
    return EmbeddedGraph.from_rotations(rotations, list(g.inv) + [n + 1, n], labels=labels)


@pytest.mark.parametrize(
    "neighbours, labels",
    [
        # the chord 0-2
        ([[1, 2, 3, 4], [2, 0, 4], [4, 3, 0, 1], [2, 4, 0], [0, 3, 2, 1]], [0] * 5),
        # a type-1 apex 4 joined to all corners
        ([[1, 4, 3, 5], [2, 4, 0, 5], [5, 3, 4, 1], [2, 5, 0, 4], [2, 3, 0, 1], [0, 3, 2, 1]],
         [0, 0, 0, 0, 1, 0]),
    ],
    ids=["chord", "apex"],
)
def test_pendant_in_any_angle_near_a_trivial_shape(neighbours, labels):
    # a plane map on the square 0-1-2-3 with a type-0 vertex outside
    # joined to all corners, and one side of the square split into a
    # trivial shape; a pendant vertex in an angle of that side makes the
    # square nontrivial, though the faces along it still look the same
    base = EmbeddedGraph.from_adjacency(neighbours, labels=labels)
    dart = {(base.vertex_of[d], base.head(d)): d for d in range(base.dart_count)}
    cyc = tuple(dart[e] for e in ((0, 1), (1, 2), (2, 3), (3, 0)))
    back = tuple(base.inv[d] for d in reversed(cyc))
    answers = set()
    for d in range(base.dart_count):
        g = add_edge(base, d)
        assert g.genus() == 0
        assert cyc in tp.four_cycles(g)
        for c in (cyc, back):
            want = ob.four_cycle_is_trivial(g, c)
            answers.add(want)
            assert tp.four_cycle_is_trivial(g, c) == want, (d, c)
    assert answers == {False, True}


def simple_underlying(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from((g.vertex_of[d], g.head(d)) for d in range(g.dart_count)
                     if g.vertex_of[d] != g.head(d))
    return h


def adjacency(g):
    return [sorted({g.head(d) for d in g.rotations()[v]} - {v})
            for v in range(g.vertex_count)]


def test_cuts_match_networkx(corpus):
    graphs = list(corpus.values()) + random_graphs(100)
    graphs += [ops.apply(ops.catalog(name), polyhedra.cube()).result
               for name in ops.catalog_names()]
    for g in graphs:
        h = simple_underlying(g)
        adj = adjacency(g)
        nv = g.vertex_count
        cut_vertices = set(nx.articulation_points(h))
        if nv > 1:
            assert tp._articulation_points(adj) == cut_vertices
        if nv > 2 and not cut_vertices:
            for a in range(nv):
                rest = h.copy()
                rest.remove_node(a)
                assert tp._articulation_points(adj, skip=a) == set(
                    nx.articulation_points(rest))
        cut = tp._smallest_cut(g)
        if nv == 1 or h.number_of_edges() == nv * (nv - 1) // 2:
            assert cut is None  # complete graphs have no vertex cut
            continue
        connectivity = nx.node_connectivity(h)
        if connectivity > 2:
            assert cut is None
        else:
            assert len(cut) == connectivity
            rest = h.copy()
            rest.remove_nodes_from(cut)
            assert not nx.is_connected(rest)


def test_cycle_check_on_c3_map_reads_no_bridges():
    g = power("gyro", polyhedra.tetrahedron(), 2)
    report = tp.ck_via_cycles(g, 3)
    assert report.passed and report.k_max == 3


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    graph_seed=st.integers(0, 2**32 - 1),
    edges=st.integers(3, 30),
    relabel_seed=st.integers(0, 2**32 - 1),
)
def test_ck_reports_survive_relabelling(graph_seed, edges, relabel_seed):
    g = polyhedra.random_embedded(random.Random(graph_seed), edges)
    h = relabeled(g, relabel_seed)
    for check, oracle in ((tp.is_ck_embedded, oc.is_ck_embedded),
                          (tp.ck_via_cycles, oc.ck_via_cycles)):
        a, b = check(g, 3), check(h, 3)
        assert a == oracle(g, 3) and b == oracle(h, 3)
        assert (a.k_max, a.passed, a.min_degree, a.min_face_size) == (
            b.k_max, b.passed, b.min_degree, b.min_face_size)
    cut_g, cut_h = tp._smallest_cut(g), tp._smallest_cut(h)
    assert (cut_g is None) == (cut_h is None)
    assert cut_g is None or len(cut_g) == len(cut_h)


# ---------------------------------------------------------------------------
# _polyhedral, the fast accept of both ck checks, against the B_G search


def c3_by_cycles(g):
    return tp._short_cycles(barycentric(g))[0] == 3


def subdivide(g, d):
    """g with the edge of dart d split by a new vertex of degree 2."""
    n, dp = g.dart_count, g.inv[d]
    pairing = list(g.inv) + [d, dp]
    pairing[d], pairing[dp] = n, n + 1
    return EmbeddedGraph.from_rotations(list(g.rotations()) + [[n, n + 1]], pairing)


def wedge(g, h):
    """g and h with the vertex of h's dart 0 merged into the angle after
    g's dart 0: the face of that angle then passes the merged vertex twice."""
    n, v, w = g.dart_count, g.vertex_of[0], h.vertex_of[0]
    rotations = [list(rot) for rot in g.rotations()]
    rot = [n + x for x in h.rotations()[w]]
    rotations[v][1:1] = rot[rot.index(n):] + rot[:rot.index(n)]
    rotations += [[n + x for x in r] for u, r in enumerate(h.rotations()) if u != w]
    return EmbeddedGraph.from_rotations(rotations, list(g.inv) + [n + x for x in h.inv])


def double_diamond():
    """Two diamonds u-a1-a2-v and u-b1-b2-v side by side in the plane: the
    face u-a2-v-b1 between them and the outer face u-a1-v-b2 share u and
    v, which no edge joins."""
    u, v, a1, a2, b1, b2 = range(6)
    return EmbeddedGraph.from_adjacency(
        [[a1, a2, b1, b2], [b2, b1, a2, a1], [a2, u, v], [u, a1, v], [b2, u, v], [u, b1, v]])


def near_misses():
    """One map per reason ``_polyhedral`` rejects, each a small edit of a
    polyhedral map where it can be, with the k of the B_G search."""
    tet = polyhedra.tetrahedron()
    d = 0
    return {
        "loop": (add_edge(tet, d, d), 1),
        "lone loop": (loop_vertex(), 1),
        # at degree 3, sigma^2 is sigma^-1: the angles after d and before
        # tet.inv[d] lie in one face, so the map stays plane
        "parallel edge": (add_edge(tet, d, tet.sigma[tet.sigma[tet.inv[d]]]), 2),
        "lone digon": (digon(), 2),
        "pendant edge": (add_edge(tet, d), 1),
        "lone edge": (single_edge(), 1),
        "face through a vertex twice": (wedge(tet, tet), 1),
        "bowtie": (two_triangles_cutvertex(), 1),
        "two faces share two vertices, no edge": (double_diamond(), 2),
        "two faces share two edges": (subdivide(tet, d), 2),
    }


@pytest.mark.parametrize("name", sorted(near_misses()))
def test_polyhedral_rejects_each_defect(name):
    g, k = near_misses()[name]
    assert g.genus() == 0
    assert tp._short_cycles(barycentric(g))[0] == k
    assert not tp._polyhedral(g)


def test_polyhedral_agrees_on_corpus_and_catalog(corpus):
    solids = [polyhedra.tetrahedron(), polyhedra.cube(), polyhedra.octahedron(),
              polyhedra.dodecahedron(), polyhedra.icosahedron(), polyhedra.k7_torus()]
    graphs = list(corpus.values()) + solids
    graphs += [ops.apply(ops.catalog(name), s).result
               for name in ops.catalog_names() for s in solids]
    answers = [tp._polyhedral(g) for g in graphs]
    assert answers == [c3_by_cycles(g) for g in graphs]
    assert sum(answers) >= 40 and not all(answers)


def test_polyhedral_agrees_on_every_flip_tried():
    graphs = [h for _, _, tried in flip_runs() for h, _ in tried if h is not None]
    graphs += [m.graph for m in polyhedral_maps()]
    answers = [tp._polyhedral(g) for g in graphs]
    assert answers == [c3_by_cycles(g) for g in graphs]
    assert sum(answers) >= 20 and not all(answers)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.builds(polyhedra.random_embedded, st.randoms(use_true_random=False),
                 st.integers(1, 40)))
def test_polyhedral_agrees_on_random_rotation_systems(g):
    """``_polyhedral`` is c3 by the B_G search, the definition's k_max is
    the characterisation's, which production reads it from, and the
    direct check's report is the oracle's."""
    assert tp._polyhedral(g) == c3_by_cycles(g)
    want = oc.is_ck_embedded(g, 3)
    assert want.k_max == oc.ck_via_cycles(g, 3).k_max
    assert_fields_equal(tp.is_ck_embedded(g, 3), want)


# ---------------------------------------------------------------------------
# 2-cuts read off the faces, and the reports they must keep


def late_cut_map():
    """gyro^2(tetrahedron) with its first edge between two vertices above
    V/2 subdivided: the one 2-cut is that edge's ends, which the vertex
    by vertex search reaches late."""
    g = power("gyro", polyhedra.tetrahedron(), 2)
    half = g.vertex_count // 2
    d = next(d for d, dp in g.edge_darts() if min(g.vertex_of[d], g.vertex_of[dp]) > half)
    return subdivide(g, d)


def report_maps():
    graphs = list(build_corpus().values())
    graphs += [ops.apply(ops.catalog(name), named_seeds()[seed]).result
               for seed in ("tetrahedron", "cube", "k7") for name in ops.catalog_names()]
    rng = random.Random(2023)
    graphs += [polyhedra.random_embedded(rng, rng.randint(1, 40)) for _ in range(200)]
    return graphs + [late_cut_map()]


REPORTS_SHA256 = "398d62d6ac308cbbb07df4f665dc77135bb194f8b38f42bcd746b937f5954cc6"


def test_ck_reports_digest():
    """sha256 over the fields of ``is_ck_embedded`` for k = 1, 2, 3 and
    ``ck_via_cycles`` for k = 2, 3 on the corpus, the catalog images of
    three seeds, 200 random maps and the late-cut map."""
    digest = hashlib.sha256()
    for g in report_maps():
        reports = [tp.is_ck_embedded(g, k) for k in (1, 2, 3)]
        reports += [tp.ck_via_cycles(g, k) for k in (2, 3)]
        for r in reports:
            fields = (r.k_max, r.min_degree, r.min_face_size, r.face_width, r.smallest_cut,
                      r.witness)
            digest.update(repr(fields).encode() + b"\n")
    assert digest.hexdigest() == REPORTS_SHA256


def cut_search_calls(monkeypatch):
    """The calls of the cut searches and of the face-meeting table, by name."""
    return {f.__name__: count_calls(monkeypatch, f) for f in (
        tp._articulation_points, tp._face_cut, tp._smallest_cut, tp._face_meetings)}


def assert_no_cut_search(calls):
    assert not (calls["_articulation_points"] or calls["_face_cut"] or calls["_smallest_cut"])
    assert len(calls["_face_meetings"]) <= 1


def test_late_cut_is_read_off_the_faces(monkeypatch):
    """The direct check decides k_max on the late-cut map with no cut
    search and one edge-face table; the first read of ``smallest_cut``
    takes the cut off the faces with no DFS at all: the face tables rule
    out a cut vertex, and no G - a is searched."""
    g = late_cut_map()
    want = oc.is_ck_embedded(g, 3)
    assert min(want.smallest_cut) > g.vertex_count // 2
    calls = cut_search_calls(monkeypatch)
    report = tp.is_ck_embedded(g, 3)
    assert report.k_max == want.k_max == 2
    assert_no_cut_search(calls)
    assert report.smallest_cut == want.smallest_cut
    assert len(calls["_face_cut"]) == 1 and calls["_articulation_points"] == []
    assert calls["_smallest_cut"] == []
    assert report == want


def join_across(g, u, w, faces=1):
    """g with an edge from u to w across each of the first ``faces`` faces
    with an angle at both; the angle after dart x lies on the face of
    sigma(x), and a new edge keeps the darts of the other angles."""
    def angles(v):
        return {g.face_of(g.sigma[x]): x for x in reversed(g.rotations()[v])}

    at_u, at_w = angles(u), angles(w)
    for f in sorted(f for f in at_u if f in at_w)[:faces]:
        g = add_edge(g, at_u[f], at_w[f])
    return g


def glue_k4_minus_edge(g, dp, dq):
    """g with K4 minus the edge pq drawn in one face at its corners p and
    q, the tails of dp and dq, whose following angles lie on that face:
    the chord pq, subdivided twice into p-c-d-q, then pd and cq across
    the faces on its two sides.  {p, q} cuts {c, d} off the rest."""
    n, p, q = g.dart_count, g.vertex_of[dp], g.vertex_of[dq]
    h = subdivide(subdivide(add_edge(g, dp, dq), n), n + 3)
    c, d = h.vertex_count - 2, h.vertex_count - 1
    return join_across(join_across(h, p, d), c, q)


@lru_cache(maxsize=None)
def glued_maps():
    """K4 minus an edge glued at two corners of each face of small plane
    and torus maps, one map per corner pair with the first corner."""
    tet, k7 = polyhedra.tetrahedron(), polyhedra.k7_torus()
    starts = [tet, polyhedra.cube(), polyhedra.octahedron(), k7, k7.dual()]
    starts += [ops.apply(ops.catalog(name), g).result for name in ("ambo", "truncation")
               for g in (tet, k7)]
    out = []
    for g in starts:
        for walk in g.faces():
            # the angle after the reverse of a dart of the walk is the
            # walk's angle at the tail of the next dart
            dp = g.inv[walk[-1]]
            out += [(g, glue_k4_minus_edge(g, dp, g.inv[x])) for x in walk[:-1]
                    if g.vertex_of[g.inv[x]] != g.vertex_of[dp]]
    return tuple(out)


def test_face_cut_on_k4_minus_edge_glued_in():
    found = 0
    for g, h in glued_maps():
        assert h.genus() == g.genus()
        if tp.face_width(h) < 3:
            continue
        cut = tp._face_cut(h)
        assert cut == tp._smallest_cut(h)
        assert tp.is_ck_embedded(h, 3) == oc.is_ck_embedded(h, 3)
        found += cut is not None and len(cut) == 2
    assert found > 100


def test_face_cut_matches_dfs_on_corpus_and_flips(corpus):
    graphs = list(corpus.values())
    graphs += [h for _, _, tried in flip_runs() for h, _ in tried if h is not None]
    ruled = [g for g in graphs if tp.face_width(g) >= 3]
    assert len(ruled) >= 40
    for g in ruled:
        assert tp._face_cut(g) == tp._smallest_cut(g)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.builds(polyhedra.random_embedded, st.randoms(use_true_random=False),
                 st.integers(1, 40)))
def test_face_cut_matches_dfs_on_random_rotation_systems(g):
    if tp.face_width(g) >= 3:
        assert tp._face_cut(g) == tp._smallest_cut(g)


# ---------------------------------------------------------------------------
# k_max from G alone: what the ck checks leave for a read


def parallel_rule_holds(g):
    """Whether g meets the premise of the parallel-edge rule, whose
    conclusion is asserted where it does.

    The rule: on a map of face-width, minimum degree and minimum face
    size at least 3 with no cut vertex, a loop, a parallel edge or an
    edge with one face on both sides means no loop, no edge with one
    face on both sides, and a 2-cut.  It follows from the ck
    characterisation: a loop or an edge with one face on both sides is a
    2-cycle of B_G, which no condition but a cut vertex could meet, and
    a parallel edge is a nontrivial 4-cycle, which only a 2-cut can."""
    if (tp._face_meetings(g) is not None or tp.face_width(g) < 3 or tp._cut_vertex(g)
            or min(map(g.degree, range(g.vertex_count))) < 3 or min(map(len, g.faces())) < 3):
        return False
    ends = [(g.vertex_of[d], g.vertex_of[dp]) for d, dp in g.edge_darts()]
    assert all(u != w for u, w in ends)
    assert all(g.face_of(d) != g.face_of(dp) for d, dp in g.edge_darts())
    assert len(tp._smallest_cut(g)) == 2
    return True


def parallel_edge_maps():
    """Two edges uv across the two faces that meet at a 2-cut {u, v} of
    each glued map, and of the double diamond: {u, v} cuts the map still,
    and no face is a digon."""
    graphs = [join_across(double_diamond(), 0, 1, faces=2)]
    for _, h in glued_maps():
        cut = tp._smallest_cut(h)
        if cut is not None and len(cut) == 2:
            graphs.append(join_across(h, *cut, faces=2))
    return graphs


def test_a_parallel_edge_settles_the_two_cut():
    """The parallel-edge rule on the maps with at most four edges, their
    catalog images and the parallel edge maps.  Its premise holds on none
    of the small maps, but on more than 100 of the others, which are
    oracle inputs: the direct check gives k_max 2 and the oracle's report."""
    for g in corpus_and_images():
        parallel_rule_holds(g)
    held = [g for g in parallel_edge_maps() if parallel_rule_holds(g)]
    assert len(held) > 100 and {g.genus() for g in held} == {0, 1}
    for g in held:
        report = tp.is_ck_embedded(g, 3)
        assert report.k_max == 2
        assert report == oc.is_ck_embedded(g, 3)


def torus_grid(m, n):
    """The m x n grid on the torus: vertex (i, j) is i n + j, with darts
    4v to 4v + 3 toward (i, j + 1), (i + 1, j), (i, j - 1), (i - 1, j).
    With m = 2 the two edges between (0, j) and (1, j) are parallel, and
    a curve through them meets two vertices: face-width 2, no 2-cut."""
    pairing = [None] * (4 * m * n)
    for i in range(m):
        for j in range(n):
            v, right, up = 4 * (i * n + j), 4 * (i * n + (j + 1) % n), 4 * ((i + 1) % m * n + j)
            pairing[v], pairing[right + 2] = right + 2, v
            pairing[v + 1], pairing[up + 3] = up + 3, v + 1
    return EmbeddedGraph.from_rotations([range(4 * v, 4 * v + 4) for v in range(m * n)], pairing)


def assert_fields_equal(report, want):
    for f in dataclasses.fields(want):
        assert getattr(report, f.name) == getattr(want, f.name), f.name


def test_cut_search_waits_for_a_read(monkeypatch):
    """Below face-width 3 and without a 2-cut, the direct check decides
    k_max with no cut search and one edge-face table; the vertex by
    vertex search (``_smallest_cut``) runs when ``smallest_cut`` or
    ``witness`` is read, whichever first."""
    graphs = [torus_grid(2, 5), polyhedra.random_embedded(random.Random(25), 40)]
    wants = [oc.is_ck_embedded(g, 3) for g in graphs]
    assert [(w.face_width, w.k_max, w.smallest_cut) for w in wants] == [(2, 2, None), (1, 1, None)]
    calls = cut_search_calls(monkeypatch)
    for g, want in zip(graphs, wants):
        for field in ("smallest_cut", "witness"):
            for made in calls.values():
                made.clear()
            report = tp.is_ck_embedded(g, 3)
            assert (report.k_max, report.passed, report.face_width) == (
                want.k_max, want.passed, want.face_width)
            assert_no_cut_search(calls)
            getattr(report, field)
            assert len(calls["_smallest_cut"]) == 1
            assert len(calls["_articulation_points"]) > g.vertex_count // 2
            assert_fields_equal(report, want)


def test_cycle_check_builds_no_subdivision_for_k(monkeypatch):
    """A map with no 2-cycle in B_G that ``_polyhedral`` rejects has
    k_max 2 at once; B_G is built on the first read of the witness."""
    graphs = [double_diamond(), subdivide(polyhedra.tetrahedron(), 0), torus_grid(2, 5)]
    wants = [oc.ck_via_cycles(g, k) for g in graphs for k in (2, 3)]
    built = count_calls(monkeypatch, barycentric)
    reports = [tp.ck_via_cycles(g, k) for g in graphs for k in (2, 3)]
    assert [r.k_max for r in reports] == [2] * 6 and [r.passed for r in reports] == [True, False] * 3
    assert built == []
    for report, want in zip(reports, wants):
        assert report.witness["four_cycle"]
        assert_fields_equal(report, want)
    assert len(built) == 6
