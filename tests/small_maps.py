"""Every connected map with at most four edges, as a test corpus.

A map on 2E darts is a rotation sigma with the pairing d -> d ^ 1, and
it is connected exactly when sigma and the pairing together reach every
dart from dart 0.  Listing every such sigma and keeping one map per
canonical code gives each map once, up to orientation-preserving
isomorphism.  These maps are where the degenerate cases live: loops,
bridges, vertices of degree 1 and edges with one face on both sides.
"""

from functools import lru_cache
from itertools import permutations

from surfops.embedded import EmbeddedGraph, _orbits

from test_canonical import oracle_code_from


def connected(sigma):
    seen, todo = {0}, [0]
    while todo:
        d = todo.pop()
        for e in (sigma[d], d ^ 1):
            if e not in seen:
                seen.add(e)
                todo.append(e)
    return len(seen) == len(sigma)


@lru_cache(maxsize=None)
def small_maps(edges):
    """(number of connected sigma, the maps up to isomorphism) on
    ``edges`` edges, the maps in the order their first sigma comes."""
    n = 2 * edges
    count, maps = 0, {}
    for sigma in permutations(range(n)):
        if connected(sigma):
            count += 1
            g = EmbeddedGraph.from_rotations(_orbits(sigma), [d ^ 1 for d in range(n)],
                                             check=False)
            maps.setdefault(g.canonical_code(), g)
    return count, tuple(maps.values())


def automorphisms(g):
    """|Aut+| of a map: the darts that start the same BFS code as dart 0."""
    code = oracle_code_from(g, 0, g.sigma)
    return sum(oracle_code_from(g, d, g.sigma) == code for d in range(g.dart_count))
