"""Convex polyhedra from 3D coordinates, kept as a test oracle.

``from_coordinates`` joins the closest pairs of points and orders each
vertex's neighbours clockwise as seen from outside the solid, through a
tangent basis at the radial normal.  It is floating-point geometry, so
the package does not use it: ``polyhedra`` holds the five solids as
exact tables, and the tests check each table against this construction
dart for dart.
"""

import math

from surfops.embedded import EmbeddedGraph

PHI = (1 + math.sqrt(5)) / 2


def from_coordinates(points):
    """Convex-polyhedron graph: edges between closest pairs, clockwise rotations."""
    n = len(points)
    d2 = {}
    for i in range(n):
        for j in range(i + 1, n):
            d2[(i, j)] = sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
    mind = min(d2.values())
    adj = [[] for _ in range(n)]
    for (i, j), dd in d2.items():
        if dd < mind * (1 + 1e-9):
            adj[i].append(j)
            adj[j].append(i)
    rotations = []
    for i in range(n):
        nx, ny, nz = points[i]
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        nx, ny, nz = nx / norm, ny / norm, nz / norm
        # tangent basis at the (radial) outward normal
        ax, ay, az = (1.0, 0.0, 0.0) if abs(nx) < 0.9 else (0.0, 1.0, 0.0)
        t1 = (ay * nz - az * ny, az * nx - ax * nz, ax * ny - ay * nx)
        t1n = math.sqrt(sum(c * c for c in t1))
        t1 = tuple(c / t1n for c in t1)
        t2 = (
            ny * t1[2] - nz * t1[1],
            nz * t1[0] - nx * t1[2],
            nx * t1[1] - ny * t1[0],
        )

        def angle(j):
            w = tuple(points[j][k] - points[i][k] for k in range(3))
            return math.atan2(
                sum(a * b for a, b in zip(w, t2)), sum(a * b for a, b in zip(w, t1))
            )

        rotations.append(sorted(adj[i], key=angle, reverse=True))
    return EmbeddedGraph.from_adjacency(rotations)


def _cube_points():
    return [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def _golden_points(a_values):
    """The cyclic permutations of (0, a, b) for a in ``a_values`` and
    b = -PHI, PHI."""
    pts = []
    for a in a_values:
        for b in (-PHI, PHI):
            pts += [(0, a, b), (a, b, 0), (b, 0, a)]
    return pts


def tetrahedron():
    return from_coordinates([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def cube():
    return from_coordinates(_cube_points())


def octahedron():
    return from_coordinates(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def icosahedron():
    return from_coordinates(_golden_points((-1, 1)))


def dodecahedron():
    return from_coordinates(_cube_points() + _golden_points((-1 / PHI, 1 / PHI)))


def truncated_cube():
    xi = 2 ** 0.5 - 1
    pts = []
    for x in (-xi, xi):
        for y in (-1, 1):
            for z in (-1, 1):
                pts += [(x, y, z), (z, x, y), (y, z, x)]
    return from_coordinates(pts)


SOLIDS = {
    "tetrahedron": tetrahedron,
    "cube": cube,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "dodecahedron": dodecahedron,
}
