"""Face-width by the per-root homology scan against the searches it
replaced.

The oracles are the former production paths.  The first is the BFS
candidate list sorted by length and tested one cycle at a time, with
homology classes reduced by a basis of face vectors on genus <= 1 and
the bridge-based contractibility test (``oracle_bridges.is_contractible``)
above, followed by an exhaustive search over every simple cycle shorter
than the best candidate.  The second is the per-root scan from every
vertex, before its roots came from a cut graph.  The production code
must give the same face-widths, and its witnesses must be shortest
non-contractible cycles; the cut graph must hold vertex 0, stay within
its size bound and meet every non-contractible cycle.
"""

import math
import os
import random
import sys
from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfops import operations as ops
from surfops import polyhedra
from surfops import topology as tp
from surfops import chambers
from surfops.chambers import barycentric, radial
from surfops.embedded import EmbeddedGraph
from surfops.io import parse_rot

import oracle_bridges as ob
import oracle_ck as oc
from conftest import relabeled


class OracleHomologyTester:
    """Classes over the non-tree edges of a spanning forest, reduced by a
    basis of the face vectors."""

    def __init__(self, g):
        self.g = g
        parent = list(range(g.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = set()
        for e, (d, dp) in enumerate(g.edge_darts()):
            a, b = find(g.vertex_of[d]), find(g.vertex_of[dp])
            if a != b:
                parent[a] = b
                tree.add(e)
        sig = [0] * g.edge_count
        bit = 0
        for e in range(g.edge_count):
            if e not in tree:
                sig[e] = 1 << bit
                bit += 1
        basis = {}
        for walk in g.faces():
            vec = 0
            for d in walk:
                vec ^= sig[g.edge_of(d)]
            vec = self._reduce(basis, vec)
            if vec:
                basis[vec.bit_length() - 1] = vec
        self._basis = basis
        self._sig = sig

    @staticmethod
    def _reduce(basis, vec):
        while vec:
            b = basis.get(vec.bit_length() - 1)
            if b is None:
                return vec
            vec ^= b
        return 0

    def cycle_class(self, cycle_darts):
        vec = 0
        for d in cycle_darts:
            vec ^= self._sig[self.g.edge_of(d)]
        return self._reduce(self._basis, vec)


def cycle_class(g, classes, cycle_darts):
    """The XOR of ``classes`` over the edges of a cycle."""
    vec = 0
    for d in cycle_darts:
        vec ^= classes[g.edge_of(d)]
    return vec


def oracle_bfs_candidate_cycles(g, allowed=None):
    seen_keys = set()
    out = []
    roots = range(g.vertex_count) if allowed is None else sorted(allowed)
    for root in roots:
        parent_dart = [None] * g.vertex_count
        depth = [None] * g.vertex_count
        depth[root] = 0
        order = deque([root])
        while order:
            v = order.popleft()
            for d in g.rotations()[v]:
                w = g.head(d)
                if allowed is not None and w not in allowed:
                    continue
                if depth[w] is None:
                    depth[w] = depth[v] + 1
                    parent_dart[w] = d
                    order.append(w)
        tree_edges = {g.edge_of(d) for d in parent_dart if d is not None}
        for e, (d, dp) in enumerate(g.edge_darts()):
            if e in tree_edges:
                continue
            if depth[g.vertex_of[d]] is None or depth[g.vertex_of[dp]] is None:
                continue
            u, w = g.vertex_of[d], g.vertex_of[dp]
            pu, pw = [], []
            a, b = u, w
            while depth[a] > depth[b]:
                pu.append(parent_dart[a])
                a = g.vertex_of[parent_dart[a]]
            while depth[b] > depth[a]:
                pw.append(parent_dart[b])
                b = g.vertex_of[parent_dart[b]]
            while a != b:
                pu.append(parent_dart[a])
                a = g.vertex_of[parent_dart[a]]
                pw.append(parent_dart[b])
                b = g.vertex_of[parent_dart[b]]
            cyc = [d] + [g.inv[x] for x in pw] + list(reversed(pu))
            verts = [g.vertex_of[x] for x in cyc]
            if len(set(verts)) != len(verts):
                continue
            key = frozenset(g.edge_of(x) for x in cyc)
            if len(key) != len(cyc) or key in seen_keys:
                continue
            seen_keys.add(key)
            out.append(cyc)
    return out


def oracle_simple_cycles_upto(g, max_len, allowed=None):
    """All simple cycles of length <= max_len, each once (by edge set)."""
    if max_len < 1:
        return
    adj = g.rotations()
    seen = set()
    nv = g.vertex_count
    anchors = range(nv) if allowed is None else sorted(allowed)
    for s in anchors:
        dist = [None] * nv
        dist[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            if dist[v] >= max_len:
                continue
            for d in adj[v]:
                w = g.head(d)
                if allowed is not None and w not in allowed:
                    continue
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    q.append(w)
        for d in adj[s]:
            if g.head(d) == s and d < g.inv[d]:
                key = frozenset((g.edge_of(d),))
                if key not in seen:
                    seen.add(key)
                    yield [d]
        stack = [(s, [], {s})]
        while stack:
            v, path, used = stack.pop()
            for d in adj[v]:
                w = g.head(d)
                if w < s or (allowed is not None and w not in allowed):
                    continue
                if w == s and path:
                    cyc = path + [d]
                    key = frozenset(g.edge_of(x) for x in cyc)
                    if len(key) == len(cyc) and key not in seen:
                        seen.add(key)
                        yield cyc
                    continue
                if w == s or w in used:
                    continue
                if len(path) + 2 > max_len:
                    continue
                if dist[w] is None or len(path) + 1 + dist[w] > max_len:
                    continue
                stack.append((w, path + [d], used | {w}))


def oracle_shortest_noncontractible_cycle(g, allowed=None):
    if g.genus() == 0:
        return None
    if g.genus() <= 1:
        tester = OracleHomologyTester(g)

        def test(cyc):
            return tester.cycle_class(cyc) != 0
    else:
        def test(cyc):
            return not ob.is_contractible(g, cyc)
    best = None
    for cyc in sorted(oracle_bfs_candidate_cycles(g, allowed), key=len):
        if best is not None and len(cyc) >= len(best):
            break
        if test(cyc):
            best = cyc
    assert best is not None
    for cyc in oracle_simple_cycles_upto(g, len(best) - 1, allowed):
        if test(cyc) and len(cyc) < len(best):
            best = cyc
    return best


def allowed_of(b):
    return {v for v in range(b.vertex_count) if b.labels[v] != 1}


def oracle_face_width(g):
    if g.genus() == 0:
        return None
    b = barycentric(g)
    return len(oracle_shortest_noncontractible_cycle(b, allowed_of(b))) // 2


def oracle_all_roots_cycle(g):
    """A shortest non-contractible cycle of g, or None if plane, by one
    BFS from every vertex; on genus >= 2 a class-0 walk goes through
    ``is_contractible`` when its tree paths meet only at the root and
    none of its vertices is below the root."""
    genus = g.genus()
    if genus == 0:
        return None
    nbrs, edge_class = tp._tables(g)[:2]
    inv = g.inv
    nv = len(nbrs)
    best, bound = None, math.inf
    for root in range(nv):
        depth = [-1] * nv
        prefix = [0] * nv
        parent_dart = [None] * nv
        depth[root] = 0
        branch = None
        if genus >= 2:
            branch = [-1] * nv
            branch[root] = root
        level, frontier = 0, [root]
        while frontier and 2 * level + 1 < bound:
            reached = []
            for u in frontier:
                hu = prefix[u]
                bu = -1 if branch is None else branch[u]
                for w, e, d in nbrs[u]:
                    dw = depth[w]
                    if dw < 0:
                        depth[w] = level + 1
                        prefix[w] = hu ^ edge_class[e]
                        parent_dart[w] = d
                        reached.append(w)
                        if bu >= 0 and w > root:
                            branch[w] = w if level == 0 else bu
                    elif dw >= level and level + dw + 1 < bound:
                        if hu ^ prefix[w] ^ edge_class[e]:
                            best = tp._fundamental_cycle(g.vertex_of, g.inv, depth, parent_dart, d)
                            bound = len(best)
                        elif (bu >= 0 and branch[w] >= 0 and (branch[w] != bu or w == root)
                              and parent_dart[w] != d and (dw > level or d < inv[d])):
                            cyc = tp._fundamental_cycle(g.vertex_of, g.inv, depth, parent_dart, d)
                            if not tp.is_contractible(g, cyc):
                                best, bound = cyc, len(cyc)
            frontier = reached
            level += 1
    assert best is not None
    return best


def eccentricity(g, v):
    depth = {v: 0}
    order = [v]
    for u in order:
        for d in g.rotations()[u]:
            if g.head(d) not in depth:
                depth[g.head(d)] = depth[u] + 1
                order.append(g.head(d))
    return max(depth.values())


def assert_cut_graph(g, cut):
    """K holds vertex 0, has at most 2g (2 ecc(0) + 1) vertices, and
    every cycle of g that misses it is contractible.  For the last it is
    enough that every fundamental cycle of a BFS forest of g - K is: they
    generate the image of the fundamental group of g - K in the
    surface's."""
    assert cut[0] == 0 and cut == sorted(set(cut))
    genus = g.genus()
    if genus == 0:
        assert cut == [0]
        return
    assert len(cut) <= 2 * genus * (2 * eccentricity(g, 0) + 1)
    in_cut = set(cut)
    depth = [-1] * g.vertex_count
    parent_dart = [None] * g.vertex_count
    for start in range(g.vertex_count):
        if start in in_cut or depth[start] >= 0:
            continue
        depth[start] = 0
        order = [start]
        for u in order:
            for d in g.rotations()[u]:
                w = g.head(d)
                if w not in in_cut and depth[w] < 0:
                    depth[w] = depth[u] + 1
                    parent_dart[w] = d
                    order.append(w)
    for d in range(g.dart_count):
        u, w = g.vertex_of[d], g.head(d)
        if (d < g.inv[d] and depth[u] >= 0 and depth[w] >= 0
                and d != parent_dart[w] and g.inv[d] != parent_dart[u]):
            cyc = tp._fundamental_cycle(g.vertex_of, g.inv, depth, parent_dart, d)
            assert tp.is_contractible(g, cyc)


def assert_simple_noncontractible(g, cyc):
    verts = [g.vertex_of[d] for d in cyc]
    assert len(set(verts)) == len(verts)
    assert not tp.is_contractible(g, cyc)


def assert_matches_all_roots(g):
    """Production against the all-roots scan, on g and on R(G): the same
    lengths, and both cycles simple and non-contractible; the oracle's
    cycle meets the cut graph, which passes ``assert_cut_graph``.  On
    B_G both witnesses pass ``assert_witness``."""
    for h in (g, radial(g)):
        cut = tp._tables(h)[2]
        assert_cut_graph(h, cut)
        want = oracle_all_roots_cycle(h)
        got = tp.shortest_noncontractible_cycle(h)
        if want is None:
            assert got is None
            continue
        assert len(got) == len(want)
        assert set(cut) & {h.vertex_of[d] for d in want}
        for cyc in (got, want):
            assert_simple_noncontractible(h, cyc)
    fw, cyc = tp.face_width_witness(g)
    if want is None:
        assert fw == math.inf
        return
    assert fw == len(want) // 2
    b = barycentric(g)
    assert_witness(b, fw, cyc)
    assert_witness(b, fw, [2 * g.dart_count + r for r in want])


def assert_witness(b, fw, cyc):
    """``cyc`` is a simple non-contractible cycle of 2 fw edges of B_G
    through type-0 and type-2 vertices only."""
    assert len(cyc) == 2 * fw
    for i, d in enumerate(cyc):
        assert b.head(d) == b.vertex_of[cyc[(i + 1) % len(cyc)]]
    verts = [b.vertex_of[d] for d in cyc]
    assert len(set(verts)) == len(verts)
    assert len({b.edge_of(d) for d in cyc}) == len(cyc)
    assert set(verts) <= allowed_of(b)
    assert not tp.is_contractible(b, cyc)
    assert not ob.is_contractible(b, cyc)


def assert_matches_oracle(g):
    """Face-width and its witness, and the shortest non-contractible
    cycle of g itself, where odd lengths occur too; against the all-roots
    scan as well."""
    assert_matches_all_roots(g)
    fw, cyc = tp.face_width_witness(g)
    want = oracle_face_width(g)
    if want is None:
        assert cyc is None
        assert tp.shortest_noncontractible_cycle(g) is None
        return
    assert fw == want
    assert_witness(barycentric(g), fw, cyc)
    cyc = tp.shortest_noncontractible_cycle(g)
    assert len(cyc) == len(oracle_shortest_noncontractible_cycle(g))
    verts = [g.vertex_of[d] for d in cyc]
    assert len(set(verts)) == len(verts)
    assert not tp.is_contractible(g, cyc)


def power(op_name, g, k):
    for _ in range(k):
        g = ops.apply(ops.catalog(op_name), g).result
    return g


def random_graphs(count=300, seed=6174):
    rng = random.Random(seed)
    return [polyhedra.random_embedded(rng, rng.randint(3, 60)) for _ in range(count)]


def test_corpus_matches_oracle(corpus):
    for g in corpus.values():
        assert_matches_oracle(g)


@pytest.mark.parametrize("op_name", ops.catalog_names())
def test_catalog_images_of_k7_match_oracle(op_name):
    assert_matches_oracle(ops.apply(ops.catalog(op_name), polyhedra.k7_torus()).result)


def test_random_graphs_match_oracle():
    graphs = random_graphs()
    assert sum(g.genus() >= 1 for g in graphs) >= 200
    assert sum(g.genus() >= 2 for g in graphs) >= 100
    for g in graphs:
        assert_matches_oracle(g)


def test_edge_classes():
    k7 = barycentric(polyhedra.k7_torus())
    graphs = [k7] + [barycentric(g) for g in random_graphs(60) if g.genus() >= 2]
    for b in graphs:
        classes, cut = tp._tables(b)[1:3]
        assert_cut_graph(b, cut)
        for walk in b.faces():
            assert cycle_class(b, classes, walk) == 0
        used = 0
        for cls in classes:
            used |= cls
        assert used == (1 << 2 * b.genus()) - 1
        oracle = OracleHomologyTester(b)
        cycles = oracle_bfs_candidate_cycles(b, allowed_of(b))
        if b is not k7:
            cycles = cycles[::max(1, len(cycles) // 200)]
        for cyc in cycles:
            assert (cycle_class(b, classes, cyc) == 0) == (oracle.cycle_class(cyc) == 0)


def test_face_width_builds_no_subdivision(monkeypatch):
    """Face-width and the direct ck check search R(G); B_G is never built."""
    k7 = polyhedra.k7_torus()
    graphs = [k7, power("gyro", k7, 1)]
    built = []
    build = chambers.barycentric
    spy = lambda g: built.append(g) or build(g)
    for module in (chambers, tp, sys.modules[__name__]):  # production's binding and the oracle's
        monkeypatch.setattr(module, "barycentric", spy)
    for g in graphs:
        assert tp.face_width(g) == tp.is_ck_embedded(g, 3).face_width == oracle_face_width(g)
    assert built == graphs  # by the oracle alone


def k7_loop_sum():
    path = os.path.join(os.path.dirname(__file__), "data", "k7_loop_sum.rot")
    with open(path, encoding="ascii") as handle:
        return parse_rot(handle.read())


def test_face_width_builds_radial_only_for_class_zero_tests(monkeypatch):
    """Production face-width reads R(G) off G: it builds neither B_G nor
    R(G) on genus <= 1, and builds R(G) once on genus >= 2 exactly when
    the search tests a class-0 walk for contractibility."""
    k7 = polyhedra.k7_torus()
    graphs = [polyhedra.tetrahedron(), k7, power("gyro", k7, 1), tube_sum(k7, k7, 2),
              k7_loop_sum(), power("gyro", k7_loop_sum(), 1)] + random_graphs(60)
    built, tested = [], []

    def spy(name):
        build = getattr(chambers, name)
        return lambda g: built.append((name, g)) or build(g)

    for name in ("barycentric", "radial"):
        wrapped = spy(name)
        monkeypatch.setattr(chambers, name, wrapped)
        monkeypatch.setattr(tp, name, wrapped)
    test = tp.is_contractible
    monkeypatch.setattr(tp, "is_contractible", lambda h, cyc: tested.append(h) or test(h, cyc))
    seen = set()
    for g in graphs:
        del built[:], tested[:]
        tp.face_width_witness(g)
        assert built == ([("radial", g)] if tested else [])
        assert not tested or g.genus() >= 2
        seen.add((g.genus() >= 2, bool(tested)))
    assert seen == {(False, False), (True, False), (True, True)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(polyhedra.random_embedded, st.randoms(use_true_random=False),
                 st.integers(3, 40)))
def test_face_width_witness_matches_the_built_radial_graph(g):
    """The search on R(G) read off G gives the witness that the search
    on the built ``radial(g)`` gives, as B-darts."""
    want = tp.shortest_noncontractible_cycle(radial(g))
    if want is None:
        assert tp.face_width_witness(g) == (math.inf, None)
    else:
        assert tp.face_width_witness(g) == (len(want) // 2,
                                            tuple(2 * g.dart_count + r for r in want))


def tube_sum(g, h, k):
    """The connected sum of g and h through a tube of k edges from the
    first k corners of face 0 of g to those of face 0 of h, in reverse."""
    rotations = [list(r) for r in g.rotations()]
    rotations += [[d + g.dart_count for d in r] for r in h.rotations()]
    pairing = list(g.inv) + [d + g.dart_count for d in h.inv]
    ends = []
    for graph, dart_offset, vertex_offset in ((g, 0, 0), (h, g.dart_count, g.vertex_count)):
        row = []
        for d in graph.faces()[0][:k]:
            rot = rotations[graph.head(d) + vertex_offset]
            rot.insert(rot.index(graph.inv[d] + dart_offset) + 1, len(pairing) + len(row))
            row.append(len(pairing) + len(row))
        pairing += [None] * k
        ends.append(row)
    for x, y in zip(ends[0], reversed(ends[1])):
        pairing[x], pairing[y] = y, x
    return EmbeddedGraph.from_rotations(rotations, pairing)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_separating_cycles_of_tube_sums(k):
    """Two K7 tori joined by a tube of k edges: a curve around the tube
    meets k vertices, separates and is non-contractible.  Below k = 3 it
    is shorter than every non-separating cycle, so only the
    contractibility test of class-0 walks inside the one BFS per root
    finds it."""
    k7 = polyhedra.k7_torus()
    two = tube_sum(k7, k7, k)
    for genus, g in ((2, two), (3, tube_sum(two, k7, k))):
        assert g.genus() == genus
        fw, cyc = tp.face_width_witness(g)
        assert fw == k == oracle_face_width(g)
        b = barycentric(g)
        assert_witness(b, fw, cyc)
        assert (cycle_class(b, tp._tables(b)[1], cyc) == 0) == (k < 3)


def test_separating_loop_is_found():
    """K7 and a copy joined at vertex 0, whose rotation there is the
    first copy's, a loop dart, the second copy's and the loop's other
    dart: the loop separates the two tori, so it is a non-contractible
    cycle of length 1 through the root of its BFS."""
    g = k7_loop_sum()
    assert (g.genus(), g.edge_count) == (2, 43)
    cyc = tp.shortest_noncontractible_cycle(g)
    assert len(cyc) == 1 == len(oracle_shortest_noncontractible_cycle(g))
    assert not tp.is_contractible(g, cyc)
    assert_matches_oracle(g)


def test_class_zero_cycles_are_tested_once(monkeypatch):
    """On genus >= 2 each null-homologous cycle goes through
    ``is_contractible`` at most once, from its smallest vertex; a search
    that tested every BFS fundamental cycle shorter than the homology
    minimum made 1926 calls here."""
    k7 = polyhedra.k7_torus()
    g = power("gyro", tube_sum(k7, k7, 3), 1)
    calls = []
    test = tp.is_contractible
    monkeypatch.setattr(tp, "is_contractible", lambda h, cyc: calls.append(
        frozenset(h.edge_of(d) for d in cyc)) or test(h, cyc))
    assert tp.face_width(g) == 6
    assert len(set(calls)) == len(calls) <= 450


def test_face_width_of_second_gyro_of_k7():
    g = power("gyro", polyhedra.k7_torus(), 2)
    assert g.edge_count == 525
    assert tp.face_width(g) == 12
    assert_matches_all_roots(g)


def test_face_width_of_third_gyro_of_k7():
    """Production only: the all-roots scan takes seconds here."""
    g = power("gyro", polyhedra.k7_torus(), 3)
    assert g.edge_count == 2625
    r = radial(g)
    cut = tp._tables(r)[2]
    assert cut[0] == 0
    assert len(cut) <= 2 * (2 * eccentricity(r, 0) + 1)
    assert len(cut) < r.vertex_count // 20
    assert tp.face_width(g) == 24


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tube_sums_match_all_roots(k):
    """Relabelled too: a shortest cycle around the tube whose smallest
    vertex is off K is found only from a root of K above that vertex."""
    k7 = polyhedra.k7_torus()
    two = tube_sum(k7, k7, k)
    for g in (two, tube_sum(two, k7, k)):
        for h in (g, power("gyro", g, 1)):
            assert_matches_all_roots(h)
            for seed in range(6):
                assert_matches_all_roots(relabeled(h, seed))


def test_flip_runs_match_all_roots():
    from test_polyhedrality import flip_runs  # it imports this module

    for _, end, tried in flip_runs():
        assert_matches_all_roots(end)
        for h, _ in tried:
            if h is not None:
                assert_matches_all_roots(h)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    graph_seed=st.integers(0, 2**32 - 1),
    edges=st.integers(3, 40),
    relabel_seed=st.integers(0, 2**32 - 1),
)
def test_face_width_survives_relabelling(graph_seed, edges, relabel_seed):
    g = polyhedra.random_embedded(random.Random(graph_seed), edges)
    assume(g.genus() >= 1)
    assert tp.face_width(relabeled(g, relabel_seed)) == tp.face_width(g)


ONE_VERTEX_TORUS = "rot 1 2\n1: +1 +2 -1 -2\n"


def hang_triangle(g, d):
    """g with a triangle v-a-b hung at v, the tail of dart d, in the angle
    before d: v meets that angle's face twice, around the triangle."""
    n, v = g.dart_count, g.vertex_of[d]
    rotations = [list(r) for r in g.rotations()]
    rotations[v].insert(rotations[v].index(d), n + 5)
    rotations[v].insert(rotations[v].index(d), n)
    rotations += [[n + 1, n + 2], [n + 3, n + 4]]
    pairing = list(g.inv) + [n + 1, n, n + 3, n + 2, n + 5, n + 4]
    return EmbeddedGraph.from_rotations(rotations, pairing)


def test_one_point_curve_declines_around_a_hung_triangle():
    """K7 with a triangle hung at vertex 0 inside one face: its only
    repeated angle is vertex 0 on that face, around the triangle.  The
    curve through it cuts the triangle off and bounds a disc, so the
    test declines, and the search gives 3."""
    k7 = polyhedra.k7_torus()
    g = hang_triangle(k7, k7.rotations()[0][0])
    assert (g.genus(), len(g.faces())) == (1, len(k7.faces()) + 1)
    angles = Counter((g.vertex_of[x], g.face_of(x)) for x in range(g.dart_count))
    assert sorted(angles.values())[-2:] == [1, 2]
    x0, x = tp._repeated_angle(g)
    assert g.vertex_of[x0] == g.vertex_of[x] == 0
    assert not tp._one_point_curve(g)
    assert tp.face_width(g) == 3 == oracle_face_width(g) == oc.is_ck_embedded(g, 3).face_width


def test_one_point_curve_declines_on_the_loop_sum():
    """The first repeated angle of the K7 loop sum gives a separating
    curve; the test declines and the search still finds face-width 1."""
    g = k7_loop_sum()
    assert tp._repeated_angle(g) is not None
    assert not tp._one_point_curve(g)
    assert tp.face_width(g) == 1 == oracle_face_width(g)


def test_one_point_curve_fires_on_the_one_vertex_torus():
    g = parse_rot(ONE_VERTEX_TORUS)
    assert tp._one_point_curve(g)
    assert tp.face_width(g) == 1 == oracle_face_width(g)


def test_one_point_curve_is_sound(corpus):
    """Where the test fires, the oracle gives face-width 1, and it never
    fires on the plane; everywhere ``face_width`` is the search's width."""
    fired = declined = 0
    for g in list(corpus.values()) + random_graphs():
        if tp._one_point_curve(g):
            fired += 1
            assert g.genus() >= 1 and oracle_face_width(g) == 1
        elif tp._repeated_angle(g) is not None and g.genus() >= 1:
            declined += 1
        assert tp.face_width(g) == tp.face_width_witness(g)[0]
    assert fired >= 250 and declined >= 5


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(polyhedra.random_embedded, st.randoms(use_true_random=False),
                 st.integers(1, 40)))
def test_one_point_curve_is_sound_on_random_maps(g):
    if tp._one_point_curve(g):
        assert oracle_face_width(g) == 1
    assert tp.face_width(g) == tp.face_width_witness(g)[0]


def test_face_width_read_off_the_angles_builds_nothing(monkeypatch):
    """Where ``_one_point_curve`` fires, ``face_width`` builds neither
    R(G) nor its tables, and finds no witness; where it declines, the
    search runs, still with no witness."""
    from test_polyhedrality import count_calls  # it imports this module

    graphs = [parse_rot(ONE_VERTEX_TORUS)] + [g for g in random_graphs(60)
                                              if tp._one_point_curve(g)]
    assert len(graphs) > 40 and {g.genus() >= 2 for g in graphs} == {False, True}
    calls = [count_calls(monkeypatch, f) for f in (tp._radial_tables, radial,
                                                     tp.face_width_witness)]
    assert all(tp.face_width(g) == 1 for g in graphs)
    assert calls == [[], [], []]
    assert tp.face_width(k7_loop_sum()) == 1
    assert [len(c) for c in calls] == [1, 1, 0]
