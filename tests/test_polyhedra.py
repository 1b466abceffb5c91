"""The five solids are exact tables.  Each must equal the 3D coordinate
construction of ``oracle_solids`` dart for dart, and the paper's
operations must build the octahedron, cube, icosahedron and dodecahedron
from the tetrahedron."""

import pytest

from surfops import io, polyhedra
from surfops import operations as ops

import oracle_solids


@pytest.mark.parametrize("name", sorted(oracle_solids.SOLIDS))
def test_solid_table_equals_coordinates(name):
    g = getattr(polyhedra, name)()
    ref = oracle_solids.SOLIDS[name]()
    assert (g.sigma, g.inv, g.vertex_of) == (ref.sigma, ref.inv, ref.vertex_of)
    assert io.write_rot(g) == io.write_rot(ref)


@pytest.mark.parametrize("ops_names, solid", [
    (("ambo",), "octahedron"),
    (("ambo", "dual"), "cube"),
    (("snub",), "icosahedron"),
    (("gyro",), "dodecahedron"),
])
def test_catalog_images_of_tetrahedron(ops_names, solid):
    g = polyhedra.tetrahedron()
    for name in ops_names:
        g = ops.apply(ops.catalog(name), g).result
    want = getattr(polyhedra, solid)()
    for reflect in (False, True):
        assert g.canonical_code(allow_reflection=reflect) == want.canonical_code(
            allow_reflection=reflect)
