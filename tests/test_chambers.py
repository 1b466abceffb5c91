import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfops import io, polyhedra
from surfops import operations as ops
from surfops.chambers import DoubleChamberSystem, barycentric, double_chamber_frame, radial
from surfops.delaney import DelaneySymbol

from conftest import loop_vertex
from oracle_flips import NotOnChamberBoundary, chamber_flip, legal_flips, walk_cycles


def test_bary_tetrahedron():
    b = barycentric(polyhedra.tetrahedron())
    assert b.vertex_count == 14
    assert len(b.faces()) == 24
    assert b.genus() == 0


def test_bary_cube():
    b = barycentric(polyhedra.cube())
    assert b.vertex_count == 26
    assert len(b.faces()) == 48


def test_bary_invariants(corpus):
    for name, g in corpus.items():
        bg = barycentric(g)
        assert bg.genus() == g.genus(), name
        assert len(bg.faces()) == 4 * g.edge_count, name
        for walk in bg.faces():
            assert len(walk) == 3
            types = sorted(bg.labels[bg.vertex_of[d]] for d in walk)
            assert types == [0, 1, 2]
        for d, dp in bg.edge_darts():
            assert bg.labels[bg.vertex_of[d]] != bg.labels[bg.vertex_of[dp]]
        # interior type-1 vertices have degree four
        for v in range(bg.vertex_count):
            if bg.labels[v] == 1:
                assert bg.degree(v) == 4


def test_bary_origin_mapping():
    g = polyhedra.cube()
    b = barycentric(g)
    nv, ne, nf = g.vertex_count, g.edge_count, len(g.faces())
    assert b.labels == (0,) * nv + (1,) * ne + (2,) * nf


def test_chamber_system_transitive(corpus):
    """The chambers of B_G are its triangles: each has one edge missing
    each corner type i, crossing it is s_i, and the s_i are involutions
    that reach every chamber."""
    for name, g in corpus.items():
        bg = barycentric(g)
        s = [[None] * len(bg.faces()) for _ in range(3)]
        for c, walk in enumerate(bg.faces()):
            missing = [3 - bg.labels[bg.vertex_of[d]] - bg.labels[bg.head(d)] for d in walk]
            assert sorted(missing) == [0, 1, 2], name
            for i, d in zip(missing, walk):
                s[i][c] = bg.face_of(bg.inv[d])
        assert all(row[row[c]] == c for row in s for c in range(len(row))), name
        assert len(DelaneySymbol(s, {}).orbit(0, (0, 1, 2))) == len(bg.faces()), name


def test_double_chambers_counts(corpus):
    for name, g in corpus.items():
        dg = DoubleChamberSystem(g).graph
        quads = dg.faces()
        assert len(quads) == 2 * g.edge_count, name
        for quad in quads:
            assert len(quad) == 4
            labels = sorted(dg.labels[dg.vertex_of[d]] for d in quad)
            assert labels == [0, 0, 1, 2]


def test_double_chamber_loop_corners():
    dg = DoubleChamberSystem(loop_vertex()).graph
    for quad in dg.faces():
        zeros = [dg.vertex_of[d] for d in quad if dg.labels[dg.vertex_of[d]] == 0]
        assert len(zeros) == 2 and zeros[0] == zeros[1]


def test_double_chamber_simple_corners_distinct():
    dg = DoubleChamberSystem(polyhedra.tetrahedron()).graph
    for quad in dg.faces():
        zeros = [dg.vertex_of[d] for d in quad if dg.labels[dg.vertex_of[d]] == 0]
        assert len(set(zeros)) == 2


def oracle_frame(g):
    """The gluing frame as read off the graph form: its labels, the frame
    vertex of each dart d's face, edge and tail, at the far end of B-darts
    2(n + d) and 2d and at the near end of both, and each cell's corners
    and sides from its type-2 corner against its facial walk."""
    dg = DoubleChamberSystem(g).graph
    n, labels, fv, inv = g.dart_count, dg.labels, dg.vertex_of, dg.inv
    assert all(fv[2 * d] == fv[2 * (n + d)] for d in range(n))
    cells = []
    for face in dg.faces():
        i = [labels[fv[d]] for d in face].index(2)
        walk = [inv[d] for d in reversed(face[i:] + face[:i])]
        cells.append((tuple(fv[d] for d in walk), tuple(map(dg.edge_of, walk))))
    return (labels, [fv[2 * (n + d) + 1] for d in range(n)],
            [fv[2 * d + 1] for d in range(n)], [fv[2 * d] for d in range(n)], cells)


def assert_frame_matches_oracle(g):
    """The per-dart tables, and the cell layout that gluing reads off them
    in closed form, as ``DoubleChamberFrame`` documents it."""
    frame = double_chamber_frame(g)
    n, sigma, inv = g.dart_count, g.sigma, g.inv
    face, edge, tail = frame.face, frame.edge, frame.tail
    cells = [((face[d], tail[inv[d]], edge[d], tail[d]), (n + sigma[inv[d]], inv[d], d, n + d))
             for pair in g.edge_darts() for d in pair]
    assert (frame.labels, face, edge, tail, cells) == oracle_frame(g)


def frame_multigraphs():
    """Maps with loops and parallel edges: the loop vertex, the K7 tube
    sum with its loops, and random multigraphs."""
    with open(os.path.join(os.path.dirname(__file__), "data", "k7_loop_sum.rot"),
              encoding="ascii") as handle:
        graphs = [loop_vertex(), io.parse_rot(handle.read())]
    rng = random.Random(4711)
    return graphs + [polyhedra.random_embedded(rng, rng.randint(1, 40)) for _ in range(40)]


def test_frame_matches_graph_form_on_corpus(corpus):
    for name, g in corpus.items():
        assert_frame_matches_oracle(g)


def test_frame_matches_graph_form_on_multigraphs():
    graphs = frame_multigraphs()
    assert any(g.head(d) == g.vertex_of[d] for g in graphs for d in range(g.dart_count))
    for g in graphs:
        assert_frame_matches_oracle(g)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edges=st.integers(1, 30))
def test_frame_matches_graph_form_property(seed, edges):
    assert_frame_matches_oracle(polyhedra.random_embedded(random.Random(seed), edges))


def test_apply_builds_no_double_chamber_graph(monkeypatch):
    built = []
    init = DoubleChamberSystem.__init__

    def counting(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(DoubleChamberSystem, "__init__", counting)
    for name in ("gyro", "ambo"):
        res = ops.apply(ops.catalog(name), polyhedra.k7_torus())
        assert res.subdivision.faces() and res.edge_cells
    assert built == []


def test_radial_is_vertex_face_subgraph(corpus):
    """Dart r of R(G) is B-dart 2n + r, with the same ends, and each
    rotation of R(G) is that of B_G restricted to those darts."""
    for name, g in corpus.items():
        b, r = barycentric(g), radial(g)
        off = 2 * g.dart_count
        node = [v if v < g.vertex_count else v + g.edge_count for v in range(r.vertex_count)]
        assert r.labels == tuple(b.labels[x] for x in node), name
        for d in range(r.dart_count):
            assert b.vertex_of[off + d] == node[r.vertex_of[d]], name
            assert b.inv[off + d] == off + r.inv[d], name
        for v, rot in enumerate(r.rotations()):
            kept = [x - off for x in b.rotations()[node[v]] if off <= x < 2 * off]
            i = kept.index(rot[0])
            assert tuple(kept[i:] + kept[:i]) == rot, name
        assert r.genus() == g.genus(), name
        assert all(len(walk) == 4 for walk in r.faces()), name


def chamber_walk(bg):
    """Some facial triangle of bg as a closed dart walk."""
    return list(bg.faces()[0])


def test_chamber_flip_roundtrip():
    bg = barycentric(polyhedra.tetrahedron())
    walk = chamber_walk(bg)
    d = walk[0]
    other = bg.face_of(bg.inv[d])
    flipped = chamber_flip(bg, walk, 0, other)
    assert len(flipped) == 4
    back = chamber_flip(bg, flipped, 0, other)
    assert back == walk


def test_chamber_flip_two_edges_to_one():
    bg = barycentric(polyhedra.tetrahedron())
    face = list(bg.faces()[5])
    # the two-edge path around face 5 starting at its first dart
    walk = [face[0], face[1], bg.inv[face[1]], bg.inv[face[0]]]
    # positions 0,1 run along two edges of face 5
    flipped = chamber_flip(bg, walk, 0, 5)
    assert len(flipped) == 3


def test_chamber_flip_rejects_far_chamber():
    bg = barycentric(polyhedra.cube())
    walk = chamber_walk(bg)
    edges_in = {bg.edge_of(d) for d in walk}
    far = next(
        fi
        for fi, f in enumerate(bg.faces())
        if not edges_in & {bg.edge_of(d) for d in f}
    )
    with pytest.raises(NotOnChamberBoundary):
        chamber_flip(bg, walk, 0, far)


def test_legal_flips_nonempty():
    bg = barycentric(polyhedra.cube())
    walk = chamber_walk(bg)
    flips = legal_flips(bg, walk)
    assert flips
    for pos, face, arity in flips:
        out = chamber_flip(bg, walk, pos, face, arity=arity)
        assert len(out) == len(walk) + (1 if arity == 1 else -1)


def test_walk_cycles_splits_figure_eight():
    bg = barycentric(polyhedra.tetrahedron())
    f = bg.faces()[0]
    g_walk = list(f) + [f[0], bg.inv[f[0]]]  # cycle plus a spike
    parts = walk_cycles(bg, g_walk)
    assert parts == [list(f)]
