"""Barycentric subdivisions, double chambers and the radial graph.

The barycentric subdivision ``B_G`` has one vertex per vertex (type 0),
edge (type 1) and face (type 2) of ``G``; its triangular faces are the
chambers.  Crossing the edge of a chamber that misses its type-i corner
is the involution ``s_i``; together the three involutions generate a
transitive action of the free Coxeter group on the chambers.  On an
operation's chambers, ``delaney`` reads the ``s_i`` off its faces.

The double chamber graph and the radial graph ``R(G)`` are subgraphs of
``B_G`` read off G in one pass, without building ``B_G``.  With n darts
in G, the double chamber graph keeps the B-darts 0..4n-1, and dart r of
``R(G)`` is B-dart 2n + r.  Gluing reads the double chamber graph as a
frame (``double_chamber_frame``): the frame vertex of each dart's face,
edge and tail, numbered as the graph form (``DoubleChamberSystem``, kept
as the tests' oracle) numbers them, but without building that graph.
The ends of the frame's edges and the corners and sides of its cells are
closed-form functions of those tables and G's darts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedded import EmbeddedGraph


def barycentric(g):
    """``B_G``, its vertices labelled by type: ids 0..V-1 are the vertices
    of G, then one id per edge, then one per face.

    B-edges are indexed 0..6E-1: id d is the vertex--edge edge for dart d,
    2E+d the vertex--face edge for the angle closed by dart d, 4E+d the
    edge--face edge for the walk occurrence of dart d.  B-dart 2*b is at
    the first endpoint named above, 2*b+1 at the second.
    """
    n = g.dart_count
    nv = g.vertex_count
    g.edge_darts()
    g.faces()
    vm = lambda d, side: 2 * d + side
    vc = lambda d, side: 2 * (n + d) + side
    mc = lambda d, side: 2 * (2 * n + d) + side

    rotations = []
    labels = []
    for v in range(nv):
        seq = []
        for d in g.rotations()[v]:
            seq.append(vm(d, 0))
            seq.append(vc(g.sigma[d], 0))
        rotations.append(seq)
        labels.append(0)
    for d, dprime in g.edge_darts():
        rotations.append([vm(d, 1), mc(d, 0), vm(dprime, 1), mc(dprime, 0)])
        labels.append(1)
    for walk in g.faces():
        seq = [vc(walk[0], 1)]
        for i in range(len(walk) - 1, 0, -1):
            seq.append(mc(walk[i], 1))
            seq.append(vc(walk[i], 1))
        seq.append(mc(walk[0], 1))
        rotations.append(seq)
        labels.append(2)
    pairing = [None] * (6 * n)
    for b in range(3 * n):
        pairing[2 * b] = 2 * b + 1
        pairing[2 * b + 1] = 2 * b
    return EmbeddedGraph.from_rotations(rotations, pairing, labels=labels, check=False)


def radial(g):
    """``R(G)``: the subgraph of ``B_G`` on its vertex--face edges.

    Its vertices are those of G (type 0), then one per face (type 2), in
    the order of ``B_G``.  Darts 2d and 2d + 1 form the edge for the
    angle closed by dart d of G.  Each face is the quadrilateral around a
    type-1 vertex of ``B_G``, in G's surface.  Face-width reads R(G) off
    G, and builds it only to test a class-0 walk; the tests compare both.
    """
    rotations = [[2 * d for d in rot] for rot in g.rotations()]
    rotations += [[2 * walk[0] + 1] + [2 * d + 1 for d in reversed(walk[1:])]
                  for walk in g.faces()]
    labels = [0] * g.vertex_count + [2] * len(g.faces())
    return EmbeddedGraph.from_rotations(
        rotations, [r ^ 1 for r in range(2 * g.dart_count)], labels=labels, check=False)


@dataclass(frozen=True)
class DoubleChamberFrame:
    """The double chamber graph of G as a gluing frame.

    With n darts in G the frame has V + E + F vertices, 2n edges and n
    cells, numbered as in ``DoubleChamberSystem(g).graph``:

    * vertices by their smallest B-dart: vertex v of G at twice its
      smallest dart, edge e at twice its smallest dart plus one, and the
      faces after them in G's face order; ``labels`` gives their types,
      and ``face``, ``edge`` and ``tail`` the frame vertex of each dart's
      face, edge and tail;
    * frame edge d < n joins tail(d) to edge(d) (B-darts 2d, 2d + 1), and
      frame edge n + d joins tail(d) to face_of(d), across the angle that
      dart d closes (B-darts 2(n + d), 2(n + d) + 1);
    * cell 2 edge(d) + (d > inv d) is the double chamber of dart d, with
      corners (face_of d, head d, edge d, tail d), read from its type-2
      corner against its facial walk, and sides, the frame edges
      (n + sigma(inv d), inv d, d, n + d) between consecutive corners.

    Gluing reads the ends, corners and sides off these per-dart tables and
    lists no cell.
    """

    labels: tuple
    face: list
    edge: list
    tail: list


def double_chamber_frame(g):
    """The double chamber graph of G as a ``DoubleChamberFrame``, read off
    G's darts in O(E) without building the graph."""
    n = g.dart_count
    inv, vertex_of, rotations = g.inv, g.vertex_of, g.rotations()
    node = [0] * len(rotations)  # vertex of G -> frame vertex
    labels, edge, face = [], [0] * n, [0] * n
    for d in range(n):
        if rotations[vertex_of[d]][0] == d:  # the smallest dart of its vertex
            node[vertex_of[d]] = len(labels)
            labels.append(0)
        if d < inv[d]:
            edge[d] = edge[inv[d]] = len(labels)
            labels.append(1)
    for f, walk in enumerate(g.faces(), len(labels)):
        for d in walk:
            face[d] = f
    labels += [2] * len(g.faces())
    return DoubleChamberFrame(tuple(labels), face, edge, [node[v] for v in vertex_of])


class DoubleChamberSystem:
    """Faces of the subgraph of ``B_G`` on type-1 and type-2 edges only,
    as an embedded graph.  Gluing reads the same numbering off G with
    ``double_chamber_frame``; this graph form is kept as its oracle.

    Every face is a quadrilateral with two type-0 corners (equal exactly
    when the underlying edge of G is a loop), one of type 1 and one of
    type 2.

    The graph keeps the B-darts 0..4n-1 of ``barycentric``, so B-dart
    2b+1 is the reverse of 2b, and numbers its vertices by their
    smallest dart, as the embedded subgraph of ``B_G`` on those darts
    would.
    """

    __slots__ = ("graph",)

    def __init__(self, g):
        n = g.dart_count
        # smallest dart -> (type, rotation)
        nodes = [None] * (4 * n)
        for rot in g.rotations():
            seq = []
            for d in rot:
                seq += (2 * d, 2 * (n + g.sigma[d]))
            nodes[seq[0]] = (0, seq)
        for d, dp in g.edge_darts():
            nodes[2 * d + 1] = (1, (2 * d + 1, 2 * dp + 1))
        for walk in g.faces():
            seq = [2 * (n + walk[0]) + 1] + [2 * (n + d) + 1 for d in reversed(walk[1:])]
            nodes[seq[0]] = (2, seq)
        nodes = [x for x in nodes if x is not None]
        self.graph = EmbeddedGraph.from_rotations(
            [x[1] for x in nodes], [d ^ 1 for d in range(4 * n)],
            labels=[x[0] for x in nodes], check=False,
        )
