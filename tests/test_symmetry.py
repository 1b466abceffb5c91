"""The paper's symmetry claim, counted: lopsp-operations keep every
orientation-preserving symmetry of G, and lsp-operations every symmetry.

|Aut+(G)| is counted by brute force as the number of start darts whose
BFS code (``_code_walk`` under sigma) equals the minimum over all darts,
and |Aut(G)| as the number of (dart, orientation) pairs whose code,
under sigma or under its inverse, equals the minimum over both.  A map
symmetry lifts to the image of every operation, so the image's group
contains a copy of G's, and Lagrange's theorem gives divisibility.
"""

from itertools import chain

import pytest

from surfops import operations as ops
from surfops import polyhedra

from conftest import named_seeds
from test_polyhedrality import EXPECTED_K, operation


def automorphism_counts(g):
    """(|Aut+(g)|, |Aut(g)|), by coding the map from every dart."""
    sigmas = (g.sigma, g.mirror().sigma)
    codes = [[tuple(chain.from_iterable(g._code_walk(s, sigma, [])))
              for s in range(g.dart_count)] for sigma in sigmas]
    plus = codes[0].count(min(codes[0]))
    both = codes[0] + codes[1]
    return plus, both.count(min(both))


def test_counts_of_known_maps():
    """The solids' rotation and full groups, K7's chiral 42, and two
    images from the paper's examples: gyro of the tetrahedron is the
    icosahedron, and gyro of the cube is chiral."""
    want = {"tetrahedron": (12, 24), "cube": (24, 48), "octahedron": (24, 48),
            "dodecahedron": (60, 120), "icosahedron": (60, 120), "k7": (42, 42)}
    for name, g in named_seeds().items():
        assert automorphism_counts(g) == want[name], name
    gyro = ops.catalog("gyro")
    assert automorphism_counts(ops.apply(gyro, polyhedra.tetrahedron()).result) == (60, 120)
    assert automorphism_counts(ops.apply(gyro, polyhedra.cube()).result) == (24, 24)


@pytest.mark.parametrize("name", sorted(EXPECTED_K))  # the catalog and tests/data
def test_operations_keep_symmetries(name):
    op = operation(name)
    lsp = op.kind == "lsp"
    for seed_name, g in named_seeds().items():
        plus, full = automorphism_counts(g)
        image_plus, image_full = automorphism_counts(ops.apply(op, g).result)
        assert image_plus % plus == 0, (seed_name, plus, image_plus)
        if lsp:
            assert image_full % full == 0, (seed_name, full, image_full)
