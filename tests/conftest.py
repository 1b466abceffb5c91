import random

import pytest

from surfops import polyhedra
from surfops.embedded import EmbeddedGraph


# ---------------------------------------------------------------------------
# small multigraphs: loops, parallel edges, faces of size one and two, a
# cut vertex and a 2-cut


def single_edge():
    """Two vertices joined by one edge; one face of size two."""
    return EmbeddedGraph.from_rotations([[0], [1]], [1, 0])


def digon():
    """Two vertices joined by two parallel edges."""
    return EmbeddedGraph.from_rotations([[0, 2], [1, 3]], [1, 0, 3, 2])


def theta():
    """Two vertices joined by three parallel edges."""
    return EmbeddedGraph.from_rotations([[0, 2, 4], [5, 3, 1]], [1, 0, 3, 2, 5, 4])


def loop_vertex():
    """One vertex with a single loop; two faces of size one."""
    return EmbeddedGraph.from_rotations([[0, 1]], [1, 0])


def bouquet_torus():
    """One vertex, two loops interleaved (rotation a b a' b'): genus 1."""
    return EmbeddedGraph.from_rotations([[0, 2, 1, 3]], [1, 0, 3, 2])


def bouquet_plane():
    """One vertex, two loops nested (rotation a a' b b'): genus 0."""
    return EmbeddedGraph.from_rotations([[0, 1, 2, 3]], [1, 0, 3, 2])


def cycle(n):
    """Plane n-cycle."""
    rot = [[2 * v, (2 * v - 1) % (2 * n)] for v in range(n)]
    pairing = [None] * (2 * n)
    for v in range(n):
        pairing[2 * v] = (2 * v + 1) % (2 * n)
        pairing[(2 * v + 1) % (2 * n)] = 2 * v
    return EmbeddedGraph.from_rotations(rot, pairing)


def two_triangles_cutvertex():
    """Two triangles glued at one vertex (a cut vertex)."""
    return EmbeddedGraph.from_adjacency(
        [
            [1, 2, 3, 4],
            [2, 0],
            [0, 1],
            [4, 0],
            [0, 3],
        ]
    )


def k4_minus_edge():
    """Plane K4 without one edge: the two degree-3 vertices form a 2-cut."""
    return EmbeddedGraph.from_adjacency(
        [
            [2, 1, 3],
            [2, 3, 0],
            [0, 1],
            [1, 0],
        ]
    )


# ---------------------------------------------------------------------------
# the doubled lsp-operation as a Delaney-Dress morphism


def doubling_morphism(op):
    """The double ``op.lopsp()`` of an lsp-operation together with the
    element mapping from its Delaney-Dress symbol to the one of ``op``:
    chamber c of a symbol is its operation's c-th inner face, so a face
    of the double whose origin in ``op`` is f maps to f - (f > outer)."""
    lop, outer = op.lopsp(), op.outer_face
    return lop, tuple(f - (f > outer) for f in lop.face_origin)


# ---------------------------------------------------------------------------
# seeds and corpus


def relabeled(g, seed):
    """Randomly permute dart and vertex identifiers of a graph."""
    rng = random.Random(seed)
    n = g.dart_count
    dperm = list(range(n))
    rng.shuffle(dperm)
    nv = g.vertex_count
    vperm = list(range(nv))
    rng.shuffle(vperm)
    rotations = [None] * nv
    for v in range(nv):
        rot = list(g.rotations()[v])
        k = rng.randrange(len(rot))
        rotations[vperm[v]] = [dperm[d] for d in rot[k:] + rot[:k]]
    pairing = [None] * n
    for d in range(n):
        pairing[dperm[d]] = dperm[g.inv[d]]
    labels = None
    if g.labels is not None:
        labels = [None] * nv
        for v in range(nv):
            labels[vperm[v]] = g.labels[v]
    return EmbeddedGraph.from_rotations(rotations, pairing, labels=labels)


def named_seeds():
    return {
        "tetrahedron": polyhedra.tetrahedron(),
        "cube": polyhedra.cube(),
        "octahedron": polyhedra.octahedron(),
        "dodecahedron": polyhedra.dodecahedron(),
        "icosahedron": polyhedra.icosahedron(),
        "k7": polyhedra.k7_torus(),
    }


def small_menagerie():
    return {
        "single_edge": single_edge(),
        "digon": digon(),
        "theta": theta(),
        "loop_vertex": loop_vertex(),
        "bouquet_torus": bouquet_torus(),
        "bouquet_plane": bouquet_plane(),
        "cycle3": cycle(3),
        "cycle4": cycle(4),
        "cutvertex": two_triangles_cutvertex(),
        "k4_minus_edge": k4_minus_edge(),
    }


def build_corpus():
    """At least 50 embedded graphs covering loops, parallel edges, a face
    of size one, a degree-2 vertex, a 2-cut and the K7 torus."""
    corpus = dict(named_seeds())
    corpus.update(small_menagerie())
    rng = random.Random(20240)
    i = 0
    while len(corpus) < 52:
        g = polyhedra.random_embedded(rng, rng.randint(2, 8))
        corpus["random_%02d" % i] = g
        i += 1
    return corpus


@pytest.fixture(scope="session")
def seeds():
    return named_seeds()


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
