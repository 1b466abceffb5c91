import random

import pytest

from surfops import polyhedra
from surfops.embedded import (
    DartMissingOrDuplicated,
    Disconnected,
    EmbeddedGraph,
    NotInvolution,
)

from conftest import bouquet_plane, bouquet_torus, loop_vertex, relabeled
from oracle_bridges import EmptySelection, embedded_subgraph


def test_tetrahedron_counts():
    g = polyhedra.tetrahedron()
    assert (g.vertex_count, g.edge_count, len(g.faces())) == (4, 6, 4)
    assert all(len(f) == 3 for f in g.faces())
    assert g.genus() == 0


def test_single_loop_vertex():
    g = loop_vertex()
    assert (g.vertex_count, g.edge_count, len(g.faces())) == (1, 1, 2)
    assert g.genus() == 0


def test_pairing_fixed_point_rejected():
    with pytest.raises(NotInvolution):
        EmbeddedGraph.from_rotations([[0, 1]], [0, 1])


@pytest.mark.parametrize("rotations, pairing, message", [
    ([[0, 1]], [1], "pairing covers 1 of 2 darts"),
    ([[0, 1]], [0], "pairing fixes dart 0"),
    # a long pairing fails the range and involution checks on its first
    # n entries before its length
    ([[0, 1]], [2, 0, 1], "pairing image 2 out of range"),
    ([[0, 1, 2, 3]], [1, 2, 3, 0, 0], "pairing is not an involution at dart 0"),
    ([[0, 1]], [1, 0, 5], "pairing covers 3 of 2 darts"),
])
def test_pairing_of_wrong_length_rejected(rotations, pairing, message):
    with pytest.raises(NotInvolution, match="^%s$" % message):
        EmbeddedGraph.from_rotations(rotations, pairing)


def test_duplicate_dart_rejected():
    with pytest.raises(DartMissingOrDuplicated, match="^dart 0 listed twice$"):
        EmbeddedGraph.from_rotations([[0, 0]], [1, 0])
    with pytest.raises(DartMissingOrDuplicated, match="^dart 5 out of range$"):
        EmbeddedGraph.from_rotations([[0, 5]], [1, 0])


def test_disconnected_rejected():
    # two separate single-edge components
    with pytest.raises(Disconnected):
        EmbeddedGraph.from_rotations([[0], [1], [2], [3]], [1, 0, 3, 2])


@pytest.mark.parametrize("rotations", [[[0], [1], []], [[0], [], [1]], [[], [0], [1]]])
def test_isolated_vertex_rejected(rotations):
    # a vertex without darts, last or not, is a component of its own
    with pytest.raises(Disconnected):
        EmbeddedGraph.from_rotations(rotations, [1, 0])


def test_k7_is_torus_triangulation():
    g = polyhedra.k7_torus()
    assert len(g.faces()) == 14
    assert all(len(f) == 3 for f in g.faces())
    assert g.euler_characteristic() == 0
    assert g.genus() == 1


def test_face_partition_of_darts(corpus):
    for name, g in corpus.items():
        seen = sorted(d for f in g.faces() for d in f)
        assert seen == list(range(g.dart_count)), name
        assert sum(len(f) for f in g.faces()) == 2 * g.edge_count


def test_cube_genus_and_dual_roundtrip():
    c = polyhedra.cube()
    assert c.euler_characteristic() == 2
    d = c.dual()
    assert d.iso(polyhedra.octahedron())
    # dual faces recover the original vertex degrees
    degrees = sorted(c.degree(v) for v in range(c.vertex_count))
    sizes = sorted(len(f) for f in d.faces())
    assert degrees == sizes
    assert d.dual().iso(c)


def test_subgraph_identity_and_cycle():
    c = polyhedra.cube()
    (comp,) = embedded_subgraph(c, range(c.dart_count))
    assert comp.graph.iso(c)
    assert comp.graph.genus() == c.genus()
    face = c.faces()[0]
    keep = set(face) | {c.inv[d] for d in face}
    (cyc,) = embedded_subgraph(c, keep)
    assert cyc.graph.vertex_count == 4
    assert len(cyc.graph.faces()) == 2


def test_subgraph_spanning_tree_single_face():
    c = polyhedra.cube()
    # greedy spanning tree
    seen = {0}
    keep = set()
    changed = True
    while changed:
        changed = False
        for d, dp in c.edge_darts():
            u, w = c.vertex_of[d], c.vertex_of[dp]
            if (u in seen) != (w in seen):
                seen |= {u, w}
                keep |= {d, dp}
                changed = True
    (tree,) = embedded_subgraph(c, keep)
    assert tree.graph.edge_count == 7
    assert len(tree.graph.faces()) == 1
    assert len(tree.graph.faces()[0]) == 14


def test_subgraph_empty_selection():
    with pytest.raises(EmptySelection):
        embedded_subgraph(polyhedra.cube(), [])


def test_subgraph_components():
    c = polyhedra.cube()
    f1, f2 = c.faces()[0], None
    for f in c.faces():
        if not set(c.vertex_of[d] for d in f) & set(c.vertex_of[d] for d in f1):
            f2 = f
            break
    keep = set(f1) | {c.inv[d] for d in f1} | set(f2) | {c.inv[d] for d in f2}
    comps = embedded_subgraph(c, keep)
    assert len(comps) == 2


@pytest.mark.parametrize("name", ["cube", "k7", "bouquet_torus", "theta"])
def test_canonical_code_relabeling_invariance(corpus, name):
    g = corpus[name if name != "k7" else "k7"]
    code = g.canonical_code()
    for seed in range(4):
        assert relabeled(g, seed).canonical_code() == code


def test_canonical_code_distinguishes():
    assert polyhedra.cube().canonical_code() != polyhedra.octahedron().canonical_code()
    # the two bouquet embeddings have the same graph but different genus
    assert (
        bouquet_torus().canonical_code()
        != bouquet_plane().canonical_code()
    )


def test_labels_take_part_in_code():
    g1 = EmbeddedGraph.from_rotations([[0], [1]], [1, 0], labels=[0, 1])
    g2 = EmbeddedGraph.from_rotations([[0], [1]], [1, 0], labels=[1, 0])
    assert g1.canonical_code() == g2.canonical_code()  # swap is an isomorphism
    g3 = EmbeddedGraph.from_rotations([[0], [1]], [1, 0], labels=[1, 1])
    assert g1.canonical_code() != g3.canonical_code()
    for labels in ([0], [0, 1, 2]):
        with pytest.raises(ValueError, match="^label table does not match vertex count$"):
            EmbeddedGraph.from_rotations([[0], [1]], [1, 0], labels=labels)


@pytest.mark.parametrize("neighbours", [[[0, 1], [0]], [[1, 1], [0, 0]]])
def test_from_adjacency_needs_a_simple_graph(neighbours):
    # a loop at vertex 0; two parallel edges listed as a repeated neighbour
    with pytest.raises(ValueError, match="^from_adjacency needs a simple graph$"):
        EmbeddedGraph.from_adjacency(neighbours)


def test_reflection_flag():
    k7 = polyhedra.k7_torus()
    m = k7.mirror()
    assert k7.iso(m, allow_reflection=True)
    assert k7.iso(m) == (k7.canonical_code() == m.canonical_code())


@pytest.mark.parametrize("n_edges", [0, -3])
def test_random_embedded_needs_an_edge(n_edges):
    """No edge count below one is drawn for: the call fails at once,
    leaving the generator as it was."""
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^a rotation system needs at least one edge, not %d$"
                       % n_edges):
        polyhedra.random_embedded(rng, n_edges)
    assert rng.getstate() == state


def test_random_embedded_retries_only_disconnected_draws(monkeypatch):
    """A disconnected draw is drawn again; any other error of
    ``from_rotations`` is a fault and reaches the caller."""
    from_rotations = EmbeddedGraph.from_rotations.__func__

    def failing(cls, rotations, pairing, labels=None, check=True):
        from_rotations(cls, rotations, pairing, labels, check)  # a disconnected draw raises here
        raise NotInvolution("planted fault")

    monkeypatch.setattr(EmbeddedGraph, "from_rotations", classmethod(failing))
    with pytest.raises(NotInvolution, match="planted fault"):
        polyhedra.random_embedded(5, 6)
