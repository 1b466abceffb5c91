"""Seed graphs: the five platonic solids, the K7 torus triangulation and
random rotation systems, for ``classify_ck``'s witness and the benchmark.

Each solid is an exact table: vertex v lists its neighbours in clockwise
order seen from outside the solid, which gives a genus-0 rotation system.
The tests rebuild every table from 3D coordinates and compare dart for
dart, and check the paper's construction of the solids from the
tetrahedron by ambo, dual, snub and gyro.
"""

from __future__ import annotations

import random

from .embedded import Disconnected, EmbeddedGraph


def tetrahedron():
    return EmbeddedGraph.from_adjacency([[1, 3, 2], [0, 2, 3], [1, 0, 3], [0, 1, 2]])


def cube():
    return EmbeddedGraph.from_adjacency(
        [
            [4, 2, 1], [5, 0, 3], [6, 3, 0], [7, 1, 2],
            [5, 6, 0], [7, 4, 1], [4, 7, 2], [6, 5, 3],
        ]
    )


def octahedron():
    return EmbeddedGraph.from_adjacency(
        [
            [4, 2, 5, 3], [5, 2, 4, 3], [5, 0, 4, 1],
            [4, 0, 5, 1], [2, 0, 3, 1], [3, 0, 2, 1],
        ]
    )


def icosahedron():
    return EmbeddedGraph.from_adjacency(
        [
            [7, 5, 6, 2, 1], [3, 7, 0, 2, 8], [0, 6, 4, 8, 1], [9, 11, 7, 1, 8],
            [6, 10, 9, 8, 2], [7, 11, 10, 6, 0], [0, 5, 10, 4, 2], [11, 5, 0, 1, 3],
            [9, 3, 1, 2, 4], [10, 11, 3, 8, 4], [5, 11, 9, 4, 6], [10, 5, 7, 3, 9],
        ]
    )


def dodecahedron():
    return EmbeddedGraph.from_adjacency(
        [
            [9, 8, 10], [11, 9, 16], [14, 12, 10], [12, 17, 16], [13, 8, 15],
            [19, 15, 11], [13, 18, 14], [19, 17, 18], [4, 14, 0], [15, 0, 1],
            [2, 16, 0], [17, 5, 1], [18, 3, 2], [19, 6, 4], [8, 6, 2],
            [5, 4, 9], [10, 3, 1], [7, 11, 3], [6, 7, 12], [7, 13, 5],
        ]
    )


def k7_torus():
    """K7 with rotation (v+1, v+3, v+2, v+6, v+4, v+5) at v: a genus-1 triangulation."""
    rot = []
    for v in range(7):
        rot.append([(v + k) % 7 for k in (1, 3, 2, 6, 4, 5)])
    return EmbeddedGraph.from_adjacency(rot)


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
