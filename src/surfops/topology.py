"""Contractibility, face-width, ck-embeddings.

A simple cycle is contractible when one of its sides is a disc, which a
walk over the faces of the smaller side decides by its Euler
characteristic.  The face-width of G is half the minimal length of a
non-contractible cycle in the barycentric subdivision ``B_G``; the
search runs on its radial subgraph ``R(G)``, which has the same minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chambers import barycentric, radial
from .embedded import InternalInvariant


def is_contractible(g, cycle_darts):
    """Whether the simple cycle C, darts in order, bounds a disc.

    The faces on each side of C grow across the edges off C, one face per
    side in turn.  When the two sides meet, C does not separate, so it
    does not bound.  Otherwise one side closes first.  Counted with C,
    a side is a surface whose one boundary curve is C, so it is a disc
    exactly when its Euler characteristic V - E + F is 1.  C adds as
    many vertices as edges, so the other side's is chi(G) minus the
    closed side's.  O(smaller side), once g has its face table.
    """
    cyc = list(cycle_darts)
    k = len(cyc)
    vertex_of, inv, faces, face_of = g.vertex_of, g.inv, g.faces(), g.face_of
    c_vertices = {vertex_of[d] for d in cyc}
    if (not k or len(c_vertices) != k or len({g.edge_of(d) for d in cyc}) != k
            or any(vertex_of[inv[cyc[i - 1]]] != vertex_of[cyc[i]] for i in range(k))):
        raise ValueError("not a simple cycle")
    c_darts = set(cyc) | {inv[d] for d in cyc}
    side_of = {}
    grown = ([], [])  # the faces of each side, in the order they are reached

    def meets(f, s):
        """Put face f on side s; whether it is on the other side."""
        t = side_of.get(f)
        if t is None:
            side_of[f] = s
            grown[s].append(f)
        return t == 1 - s

    if any(meets(face_of(d), 0) for d in cyc) or any(meets(face_of(inv[d]), 1) for d in cyc):
        return False
    done = [0, 0]
    while True:
        for s in (0, 1):
            if done[s] == len(grown[s]):
                walks = [faces[f] for f in grown[s]]
                inside = {vertex_of[d] for w in walks for d in w} - c_vertices
                chi = len(inside) - (sum(map(len, walks)) - k) // 2 + len(walks)
                return chi == 1 or g.euler_characteristic() - chi == 1
            walk = faces[grown[s][done[s]]]
            done[s] += 1
            if any(meets(face_of(inv[d]), s) for d in walk if d not in c_darts):
                return False


# ---------------------------------------------------------------------------
# homology classes and face-width searches


class _HomologyTester:
    """Z2-homology classes of cycles; exact for genus <= 1 surfaces.

    On a plane or torus map a simple cycle is contractible exactly when
    its class vanishes (it then separates, and one side is plane).  On
    higher genus this is only a necessary condition, so callers fall back
    to ``is_contractible`` there.

    ``edge_class[e]`` is an int of 2g bits, set by a tree-cotree
    decomposition in O(V + E).  Edges of a spanning tree T get 0.  The
    other edges span the dual graph; a spanning tree of the dual on them
    leaves 2g edges over, and each gets one unit bit.  A dual tree edge
    gets the XOR of the other edges of its child face, children before
    parents, so every face boundary has class 0.  The fundamental cycle
    of the i-th left-over edge has class bit i, so the class of a cycle,
    the XOR over its edges, is 0 exactly when the cycle bounds.
    """

    def __init__(self, g):
        self.g = g
        vertex_of, inv, edge_of = g.vertex_of, g.inv, g.edge_of
        spanned = [False] * g.edge_count  # in T or in the dual tree
        reached = [False] * g.vertex_count
        reached[0] = True
        todo = [0]
        while todo:
            for d in g.rotations()[todo.pop()]:
                w = vertex_of[inv[d]]
                if not reached[w]:
                    reached[w] = True
                    spanned[edge_of(d)] = True
                    todo.append(w)
        faces = g.faces()
        up = [None] * len(faces)  # dart of a face on the edge to its dual parent
        reached = [False] * len(faces)
        reached[0] = True
        order = [0]
        for f in order:
            for d in faces[f]:
                e = edge_of(d)
                child = g.face_of(inv[d])
                if not spanned[e] and not reached[child]:
                    reached[child] = True
                    spanned[e] = True
                    up[child] = inv[d]
                    order.append(child)
        cls = [0] * g.edge_count
        bit = 1
        for e in range(g.edge_count):
            if not spanned[e]:
                cls[e] = bit
                bit <<= 1
        for f in reversed(order[1:]):
            vec = 0
            for d in faces[f]:
                if d != up[f]:
                    vec ^= cls[edge_of(d)]
            cls[edge_of(up[f])] = vec
        self.edge_class = cls

    def cycle_class(self, cycle_darts):
        vec = 0
        for d in cycle_darts:
            vec ^= self.edge_class[self.g.edge_of(d)]
        return vec


def _neighbours(g):
    """(head, edge, dart) for every dart of a vertex, in rotation order."""
    return [[(g.head(d), g.edge_of(d), d) for d in rot] for rot in g.rotations()]


def _bfs_tree(nbrs, root, max_depth=None):
    """BFS order, depths and parent darts of a BFS tree; vertices further
    than ``max_depth`` from the root stay unreached (depth None)."""
    depth = [None] * len(nbrs)
    parent_dart = [None] * len(nbrs)
    depth[root] = 0
    order = [root]
    for v in order:
        if depth[v] == max_depth:
            continue
        for w, _, d in nbrs[v]:
            if depth[w] is None:
                depth[w] = depth[v] + 1
                parent_dart[w] = d
                order.append(w)
    return order, depth, parent_dart


def _fundamental_cycle(g, depth, parent_dart, d):
    """The cycle the non-tree dart d closes in a BFS tree: d, then up
    from its head to the lowest common ancestor, then down to its tail."""
    up, down = [], []
    a, b = g.vertex_of[d], g.head(d)
    while depth[a] > depth[b]:
        down.append(parent_dart[a])
        a = g.vertex_of[parent_dart[a]]
    while depth[b] > depth[a]:
        up.append(parent_dart[b])
        b = g.vertex_of[parent_dart[b]]
    while a != b:
        down.append(parent_dart[a])
        a = g.vertex_of[parent_dart[a]]
        up.append(parent_dart[b])
        b = g.vertex_of[parent_dart[b]]
    return [d] + [g.inv[x] for x in up] + down[::-1]


def _bfs_candidate_cycles(g, max_len):
    """Simple cycles of at most ``max_len`` edges from BFS-tree
    fundamental cycles, all roots, each edge set once.

    By the three-path condition a shortest non-contractible cycle occurs
    among these.  Each BFS stops at depth ``max_len // 2``, which keeps
    every fundamental cycle through its root of that length.
    """
    seen_keys = set()
    out = []
    nbrs = _neighbours(g)
    for root in range(g.vertex_count):
        order, depth, parent_dart = _bfs_tree(nbrs, root, max_len // 2)
        tree_edges = {g.edge_of(parent_dart[v]) for v in order[1:]}
        closing = {e for v in order for w, e, _ in nbrs[v] if depth[w] is not None}
        for e in sorted(closing - tree_edges):
            cyc = _fundamental_cycle(g, depth, parent_dart, g.edge_darts()[e][0])
            if len(cyc) > max_len:
                continue
            key = frozenset(g.edge_of(x) for x in cyc)
            if key not in seen_keys:
                seen_keys.add(key)
                out.append(cyc)
    return out


def _shortest_nonnull_walk(nbrs, edge_class):
    """(length, root, dart) of a shortest closed walk with non-zero class
    that a BFS from some root closes with one non-tree edge, or
    (inf, None, None).

    ``prefix[w]`` is the class of the tree path from the root to w; the
    non-tree edge e from u to w closes a walk of length depth u +
    depth w + 1 and class prefix[u] ^ prefix[w] ^ edge_class[e].  An
    edge is read from its end nearer the root (from both ends when they
    are level), so a BFS stops at the first level whose walks cannot be
    shorter than the best.
    """
    best, best_root, best_dart = math.inf, None, None
    nv = len(nbrs)
    for root in range(nv):
        depth = [-1] * nv
        prefix = [0] * nv
        depth[root] = 0
        level, frontier = 0, [root]
        while frontier and 2 * level + 1 < best:
            reached = []
            for u in frontier:
                hu = prefix[u]
                for w, e, d in nbrs[u]:
                    dw = depth[w]
                    if dw < 0:
                        depth[w] = level + 1
                        prefix[w] = hu ^ edge_class[e]
                        reached.append(w)
                    elif dw >= level and level + dw + 1 < best and hu ^ prefix[w] ^ edge_class[e]:
                        best, best_root, best_dart = level + dw + 1, root, d
            frontier = reached
            level += 1
    return best, best_root, best_dart


def shortest_noncontractible_cycle(g):
    """A minimum-length non-contractible cycle of g, or None if plane.

    Take a BFS tree rooted on a shortest non-null cycle C.  The walks
    root -> u -> w -> root that the edges uw of C close are at most as
    long as C, and their classes add up to the class of C, so one of
    them is non-null.  The shortest non-null walk over all roots is
    therefore as long as C, and its fundamental cycle is a witness.  It
    has the walk's non-zero class, so it bounds nothing and needs no
    contractibility test: O(V (V + E)), with early stops.  Up to genus 1
    a simple cycle is non-contractible exactly when it is non-null.
    Beyond, a separating cycle can be non-contractible too; by the
    three-path condition the shortest one is a BFS fundamental cycle, so
    those shorter than the homology minimum go through
    ``is_contractible``, shortest first.
    """
    genus = g.genus()
    if genus == 0:
        return None
    nbrs = _neighbours(g)
    length, root, dart = _shortest_nonnull_walk(nbrs, _HomologyTester(g).edge_class)
    if root is None:
        raise InternalInvariant("face-width", "positive genus but no closed walk of non-zero class")
    if genus >= 2:
        for cyc in sorted(_bfs_candidate_cycles(g, length - 1), key=len):
            if not is_contractible(g, cyc):
                return cyc
    _, depth, parent_dart = _bfs_tree(nbrs, root)
    best = _fundamental_cycle(g, depth, parent_dart, dart)
    if len(best) != length:  # its class is that of the walk, so non-zero
        raise InternalInvariant(
            "face-width", "the shortest non-null walk of length %d gave the "
            "shorter cycle %r" % (length, best), dart=dart,
        )
    return best


def face_width(g):
    """Half the minimal length of a non-contractible cycle of B_G; inf if plane.

    The search runs on the radial graph R(G), the subgraph of B_G on its
    vertex--face edges.  A minimum-length non-contractible cycle of B_G
    through an edge vertex can always be rerouted through the
    neighbouring vertex or face corner at equal length (or decomposes
    into something shorter, by the one-flip lemma), so R(G) has the
    same minimum as B_G.
    """
    return face_width_witness(g)[0]


def face_width_witness(g):
    """(face width, shortest non-contractible cycle of B_G or None).

    The cycle is found in R(G), whose dart r is B-dart 2n + r."""
    if g.genus() == 0:
        return math.inf, None
    cyc = shortest_noncontractible_cycle(radial(g))
    return len(cyc) // 2, tuple(2 * g.dart_count + r for r in cyc)


# ---------------------------------------------------------------------------
# ck-embeddedness


@dataclass
class CkReport:
    k_max: int
    requested: int
    passed: bool
    min_degree: int
    min_face_size: int
    face_width: object = None  # int | math.inf | None (not computed)
    smallest_cut: tuple = None
    witness: dict = field(default_factory=dict)
    method: str = "direct"


def _articulation_points(adjacency, skip=None):
    """Cut vertices of the graph minus the vertex ``skip``, by one
    iterative Tarjan DFS; the graph minus ``skip`` must be connected."""
    nv = len(adjacency)
    disc = [0] * nv  # DFS discovery time, 0 while unvisited
    low = [0] * nv
    root = 0 if skip != 0 else 1
    disc[root] = low[root] = 1
    time = 1
    root_children = 0
    cuts = set()
    stack = [(root, iter(adjacency[root]))]
    while stack:
        v, todo = stack[-1]
        for w in todo:
            if w == skip:
                continue
            if not disc[w]:
                time += 1
                disc[w] = low[w] = time
                stack.append((w, iter(adjacency[w])))
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            parent = stack[-1][0]
            if low[v] < low[parent]:
                low[parent] = low[v]
            if parent == root:
                root_children += 1
            elif low[v] >= disc[parent]:
                cuts.add(parent)
    if root_children > 1:
        cuts.add(root)
    return cuts


def _smallest_cut(g, max_size=2):
    """Smallest vertex cut of size <= max_size (1 or 2), or None.

    Among the cuts of the smallest size the lexicographically first is
    returned.  1-cuts are the cut vertices of G; once there are none,
    {a, b} is a cut exactly when b is a cut vertex of G - a.  Each size
    costs at most V depth-first searches, O(V (V + E)) in all.
    """
    if max_size not in (1, 2):
        raise ValueError("max_size must be 1 or 2")
    nv = g.vertex_count
    adjacency = [sorted({g.head(d) for d in g.rotations()[v]} - {v}) for v in range(nv)]
    if nv <= 1:
        return None
    cuts = _articulation_points(adjacency)
    if cuts:
        return (min(cuts),)
    if max_size < 2 or nv <= 2:
        return None
    for a in range(nv):
        later = [b for b in _articulation_points(adjacency, skip=a) if b > a]
        if later:
            return (a, min(later))
    return None


def is_ck_embedded(g, k):
    """Direct evaluation of the ck-embeddedness definition.

    No cut with fewer than k vertices, and face-width, minimum face size
    and minimum degree all at least k.  The report carries the largest k
    in {1,2,3} for which all four conditions hold.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    min_deg = min(g.degree(v) for v in range(g.vertex_count))
    min_face = min(len(f) for f in g.faces())
    fw, fw_cycle = face_width_witness(g)
    cut = _smallest_cut(g, max_size=2)
    cut_free = 3 if cut is None else len(cut)  # no cut smaller than this
    k_max = min(min_deg, min_face, 3, cut_free)
    if fw != math.inf:
        k_max = min(k_max, int(fw))
    k_max = max(k_max, 0)
    witness = {}
    if k_max < k:
        if min_deg < k:
            witness["degree"] = min(
                range(g.vertex_count), key=lambda v: g.degree(v)
            )
        if min_face < k:
            witness["face"] = min(range(len(g.faces())), key=lambda f: len(g.faces()[f]))
        if cut is not None and len(cut) < k:
            witness["cut"] = cut
        if fw != math.inf and fw < k:
            witness["cycle"] = fw_cycle
    return CkReport(
        k_max=k_max,
        requested=k,
        passed=k_max >= k,
        min_degree=min_deg,
        min_face_size=min_face,
        face_width=fw,
        smallest_cut=cut,
        witness=witness,
        method="direct",
    )


def _two_cycle(b):
    """A pair of parallel edges of B_G, as a dart cycle, or None."""
    seen = {}
    for e, (d, dp) in enumerate(b.edge_darts()):
        key = (min(b.vertex_of[d], b.vertex_of[dp]), max(b.vertex_of[d], b.vertex_of[dp]))
        if key in seen:
            d0 = seen[key]
            if b.vertex_of[d0] != b.vertex_of[d]:
                d0 = b.inv[d0]
            return (d, b.inv[d0])
        seen[key] = d
    return None


def four_cycles(b):
    """All simple 4-cycles u-x-w-y of a graph, as dart quadruples.

    The cycles come from two-hop walks u -> x -> w with w > u: for each u
    the walks are grouped by w, and every pair of middle vertices x, y of
    one group closes a cycle.  Groups are visited in increasing w and
    keep the x values in ``adj[u]`` order, so the list is ordered by the
    diagonal (u, w) and then by x and y.  A cycle is met from both of its
    diagonals.  Without loops or parallel edges both meetings give the
    same edges, and the first is the one where u is the smallest vertex,
    so walks through an x < u are skipped.  Otherwise the edge sets met
    so far tell repeats apart.  O(sum of squared degrees).
    """
    nv = b.vertex_count
    adj = [dict() for _ in range(nv)]
    for d in range(b.dart_count):
        adj[b.vertex_of[d]][b.head(d)] = d
    simple = all(len(adj[v]) == b.degree(v) for v in range(nv))
    out = []
    seen = set()
    for u in range(nv):
        groups = {}
        for x in adj[u]:
            if x == u or (simple and x < u):
                continue
            for w in adj[x]:
                if w > u and w != x:
                    groups.setdefault(w, []).append(x)
        for w in sorted(groups):
            common = groups[w]
            for i, x in enumerate(common):
                for y in common[i + 1:]:
                    cyc = (adj[u][x], adj[x][w], adj[w][y], adj[y][u])
                    if not simple:
                        key = frozenset(b.edge_of(d) for d in cyc)
                        if key in seen:
                            continue
                        seen.add(key)
                    out.append(cyc)
    return out


def _trivial_side(b, cyc):
    """Whether the faces of b along the 4-cycle ``cyc``, on the side that
    ``phi = sigma o inv`` turns to, are two triangles sharing a diagonal
    or the four triangles around a type-1 vertex of degree 4.  That side
    then holds no vertex, or that one vertex, and no other bridge."""
    sigma, inv = b.sigma, b.inv

    def phi(d):
        return sigma[inv[d]]

    for i in (0, 1):
        # triangles (d, e, c) and (f, h, inv c) with the diagonal c
        d, e, f, h = cyc[i], cyc[i + 1], cyc[i + 2], cyc[(i + 3) % 4]
        c = phi(e)
        if phi(d) == e and phi(c) == d and phi(f) == h and phi(h) == inv[c] and phi(inv[c]) == f:
            return True
    # triangles (cyc[i], spoke[i], inv spoke[i-1]); sigma then maps each
    # inv spoke to the one before, so the spokes meet at an apex whose
    # rotation is exactly the four of them
    spokes = [phi(d) for d in cyc]
    if not all(
        phi(spokes[i]) == inv[spokes[i - 1]] and phi(inv[spokes[i - 1]]) == cyc[i]
        for i in range(4)
    ):
        return False
    return b.labels[b.head(spokes[0])] == 1


def _side_walk(b, cyc):
    """Whether the bridges on the side of the 4-cycle ``cyc`` that ``phi``
    turns to hold no vertex, or a single type-1 vertex only.

    The walk reads the darts in the angles of that side at each corner
    and stops at a second vertex off the cycle, or at one that is not of
    type 1 or has a neighbour off the cycle.  A chord leads to no vertex
    off the cycle; a bridge met in both faces counts on both sides.
    """
    sigma, inv, vertex_of = b.sigma, b.inv, b.vertex_of
    corners = {vertex_of[d] for d in cyc}
    inside = None
    for i, d in enumerate(cyc):
        x = sigma[inv[cyc[i - 1]]]
        while x != d:
            w = vertex_of[inv[x]]
            if w not in corners and w != inside:
                if inside is not None or b.labels[w] != 1:
                    return False
                if not {vertex_of[inv[y]] for y in b.rotations()[w]} <= corners | {w}:
                    return False
                inside = w
            x = sigma[x]
    return True


def four_cycle_is_trivial(b, cyc):
    """Trivial 4-cycles have a face whose interior holds no vertex, or a
    single type-1 vertex only.

    ``cyc`` is a simple 4-cycle as ``four_cycles`` gives it.  An O(1)
    look at the faces of b on either side of the cycle accepts the two
    trivial shapes a triangulation has; only cycles it rejects go
    through ``_side_walk``, which reads at most one vertex off the cycle
    past the angles of each side.
    """
    back = tuple(b.inv[d] for d in reversed(cyc))
    if _trivial_side(b, cyc) or _trivial_side(b, back):
        return True
    return _side_walk(b, cyc) or _side_walk(b, back)


def ck_via_cycles(g, k, bary_graph=None):
    """ck-embeddedness via short cycles of B_G: c2 iff no 2-cycles, c3 iff
    additionally no nontrivial 4-cycles."""
    if k not in (2, 3):
        raise ValueError("the cycle characterisation covers k=2 and k=3")
    b = bary_graph if bary_graph is not None else barycentric(g)
    min_deg = min(g.degree(v) for v in range(g.vertex_count))
    min_face = min(len(f) for f in g.faces())
    witness = {}
    two = _two_cycle(b)
    if two is not None:
        k_max = 1
        witness["two_cycle"] = two
    else:
        k_max = 2
        bad = None
        for cyc in four_cycles(b):
            if not four_cycle_is_trivial(b, cyc):
                bad = cyc
                break
        if bad is None:
            k_max = 3
        else:
            witness["four_cycle"] = bad
    return CkReport(
        k_max=k_max,
        requested=k,
        passed=k_max >= k,
        min_degree=min_deg,
        min_face_size=min_face,
        face_width=None,
        smallest_cut=None,
        witness=witness,
        method="cycles",
    )
