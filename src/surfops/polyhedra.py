"""Seed graphs: platonic solids, the K7 torus triangulation, small multigraphs.

The solids are built from 3D coordinates; the rotation at a vertex is the
clockwise order of its neighbours seen from outside the solid, which gives
a genus-0 rotation system without any hand-tuned tables.
"""

from __future__ import annotations

import math
import random

from .embedded import Disconnected, EmbeddedGraph

_PHI = (1 + math.sqrt(5)) / 2


def _from_coordinates(points):
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


def tetrahedron():
    return _from_coordinates([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def cube():
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    return _from_coordinates(pts)


def octahedron():
    return _from_coordinates(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


def icosahedron():
    pts = []
    for a in (-1, 1):
        for b in (-_PHI, _PHI):
            pts += [(0, a, b), (a, b, 0), (b, 0, a)]
    return _from_coordinates(pts)


def dodecahedron():
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    inv = 1 / _PHI
    for a in (-inv, inv):
        for b in (-_PHI, _PHI):
            pts += [(0, a, b), (a, b, 0), (b, 0, a)]
    return _from_coordinates(pts)


def k7_torus():
    """K7 with rotation (v+1, v+3, v+2, v+6, v+4, v+5) at v: a genus-1 triangulation."""
    rot = []
    for v in range(7):
        rot.append([(v + k) % 7 for k in (1, 3, 2, 6, 4, 5)])
    return EmbeddedGraph.from_adjacency(rot)


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


_SAMPLE_TRIES = 500  # draws before ``random_embedded`` gives up


def random_embedded(rng_or_seed, n_edges):
    """Random connected rotation system on ``n_edges`` >= 1 edges.

    Loops and parallel edges occur naturally; the genus is whatever the
    random rotations give.  Deterministic for a given seed.
    """
    if n_edges < 1:
        raise ValueError("a rotation system needs at least one edge, not %d" % n_edges)
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, random.Random)
        else random.Random(rng_or_seed)
    )
    n = 2 * n_edges
    for _ in range(_SAMPLE_TRIES):
        darts = list(range(n))
        rng.shuffle(darts)
        pairing = [None] * n
        for i in range(0, n, 2):
            a, b = darts[i], darts[i + 1]
            pairing[a] = b
            pairing[b] = a
        nv = rng.randint(1, n_edges)
        order = list(range(n))
        rng.shuffle(order)
        rotations = [[] for _ in range(nv)]
        for i, d in enumerate(order):
            rotations[i % nv].append(d)
        rotations = [r for r in rotations if r]
        try:
            return EmbeddedGraph.from_rotations(rotations, pairing)
        except Disconnected:
            continue
    raise RuntimeError("could not sample a connected rotation system")
