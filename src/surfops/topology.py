"""Bridges, internal components, contractibility, face-width, ck-embeddings.

A subgraph S of G is given as a set of darts closed under ``inv``.  Its
faces are the orbits of the restricted successor function; a bridge is
either a single edge between vertices of S (a chord) or a component of
G minus V(S) together with its attachment edges.  A face of S is simple
when no bridge lying in it lies in another face as well; the internal
component of a simple face re-embeds its interior with repeated boundary
vertices split.  A cycle is contractible when one of its faces is simple
and internally plane, the face-width of G is half the minimal length of
a non-contractible cycle in the barycentric subdivision.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .chambers import barycentric
from .embedded import EmbeddedGraph


class FaceIsBridged(ValueError):
    """Internal components exist only for simple faces."""


@dataclass(frozen=True)
class Bridge:
    kind: str  # "chord" | "component"
    vertices: tuple  # attachment vertices on S
    edges: tuple  # G-edge ids of the bridge
    faces: tuple  # indices of the S-faces the bridge is in
    interior_vertices: tuple = ()


@dataclass
class SubgraphFaces:
    """Faces of a dart subset S plus the angle bookkeeping used by bridges."""

    darts: frozenset
    walks: tuple  # faces of S as dart tuples
    face_of: dict  # S-dart -> face index (of the walk starting there)
    angle_of: dict  # non-S dart at an S-vertex -> (face index, walk position)


def subgraph_faces(g, sub_darts):
    """Faces of the embedded subgraph S and the face/position every angle
    gap belongs to."""
    s = frozenset(sub_darts)
    for d in s:
        if g.inv[d] not in s:
            raise ValueError("subgraph darts not closed under inv")
    vertices = {g.vertex_of[d] for d in s}
    # next_s[x] for x in S: first S-dart after x clockwise
    next_s = {}
    for v in vertices:
        rot = g.rotations()[v]
        k = len(rot)
        for i, d in enumerate(rot):
            if d not in s:
                continue
            pos = (i + 1) % k
            while rot[pos] not in s:
                pos = (pos + 1) % k
            next_s[d] = rot[pos]
    walks = []
    face_of = {}
    seen = set()
    for start in sorted(s):
        if start in seen:
            continue
        walk = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = next_s[g.inv[d]]
        fi = len(walks)
        walks.append(tuple(walk))
        for d in walk:
            face_of[d] = fi
    # every dart in a gap belongs to the angle whose leaving dart closes it
    angle_of = {}
    position_of_leaving = {}
    for fi, walk in enumerate(walks):
        for pos, d in enumerate(walk):
            position_of_leaving[d] = (fi, pos)
    for v in vertices:
        rot = g.rotations()[v]
        for d in rot:
            if d in s:
                continue
            nxt = d
            while nxt not in s:
                nxt = g.sigma[nxt]
            angle_of[d] = position_of_leaving[nxt]
    return SubgraphFaces(s, tuple(walks), face_of, angle_of)


def bridges(g, sub_darts, sf=None):
    """Bridges of the subgraph S in G with their face assignment.

    Returns (bridges, simple) where ``simple[f]`` says whether the f-th
    face of S is simple, i.e. shares no bridge with another face.
    """
    sf = sf or subgraph_faces(g, sub_darts)
    s = sf.darts
    s_vertices = {g.vertex_of[d] for d in s}
    out = []
    g.edge_darts()
    # chords: single non-S edges with both ends on S
    comp_id = {}
    comps = []
    for v in range(g.vertex_count):
        if v in s_vertices or v in comp_id:
            continue
        cid = len(comps)
        comp_id[v] = cid
        members = [v]
        todo = [v]
        while todo:
            u = todo.pop()
            for d in g.rotations()[u]:
                w = g.head(d)
                if w not in s_vertices and w not in comp_id:
                    comp_id[w] = cid
                    members.append(w)
                    todo.append(w)
        comps.append(members)
    comp_edges = [[] for _ in comps]
    comp_attach = [set() for _ in comps]
    comp_faces = [set() for _ in comps]
    for d, dprime in g.edge_darts():
        if d in s:
            continue
        u, w = g.vertex_of[d], g.vertex_of[dprime]
        if u in s_vertices and w in s_vertices:
            fs = {sf.angle_of[d][0], sf.angle_of[dprime][0]}
            out.append(
                Bridge("chord", tuple(sorted({u, w})), (g.edge_of(d),), tuple(sorted(fs)))
            )
            continue
        for dart, tail in ((d, u), (dprime, w)):
            if tail not in s_vertices:
                cid = comp_id[tail]
                break
        comp_edges[cid].append(g.edge_of(d))
        for dart, tail in ((d, u), (dprime, w)):
            if tail in s_vertices:
                comp_attach[cid].add(tail)
                comp_faces[cid].add(sf.angle_of[dart][0])
    for cid, members in enumerate(comps):
        out.append(
            Bridge(
                "component",
                tuple(sorted(comp_attach[cid])),
                tuple(sorted(comp_edges[cid])),
                tuple(sorted(comp_faces[cid])),
                interior_vertices=tuple(sorted(members)),
            )
        )
    simple = [True] * len(sf.walks)
    for br in out:
        if len(br.faces) > 1:
            for f in br.faces:
                simple[f] = False
    return out, simple


@dataclass
class InternalComponent:
    """The interior of a simple face re-embedded as a standalone graph.

    ``copy_of`` maps every vertex back to G; boundary position j carries
    the vertex at walk position j.  ``boundary_darts[j]`` is the dart of
    the component that copies walk dart j, and ``outer_face`` the face of
    the component corresponding to the original face.
    """

    graph: EmbeddedGraph
    copy_of: tuple
    boundary_darts: tuple
    outer_face: int
    edge_origin: tuple  # component edge -> ("walk", j) | ("bridge", G-edge)
    dart_origin: tuple  # component dart -> G-dart it copies


def internal_component(g, sub_darts, face_index, sf=None, brs=None):
    sf = sf or subgraph_faces(g, sub_darts)
    if brs is None:
        brs, simple = bridges(g, sub_darts, sf)
    else:
        brs, simple = brs
    if not simple[face_index]:
        raise FaceIsBridged("face %d is bridged" % face_index)
    walk = sf.walks[face_index]
    L = len(walk)
    in_bridges = [b for b in brs if b.faces == (face_index,)]
    interior = sorted({v for b in in_bridges for v in b.interior_vertices})
    # component vertices: walk positions then interior vertices
    vid = {}
    copy_of = []
    for j in range(L):
        vid[("pos", j)] = j
        copy_of.append(g.vertex_of[walk[j]])
    for v in interior:
        vid[("int", v)] = len(copy_of)
        copy_of.append(v)
    # component darts: ("w", j)/("wb", j) for walk edges, ("b", d) for bridge darts
    dart_id = {}

    def did(key):
        if key not in dart_id:
            dart_id[key] = len(dart_id)
        return dart_id[key]

    def resolve(d):
        """Component dart for the G-dart d of a bridge edge."""
        return did(("b", d))

    rotations = []
    owners = []
    for j in range(L):
        prev = walk[(j - 1) % L]
        seq = [did(("wb", (j - 1) % L))]
        # gap darts strictly between inv(prev) and walk[j], clockwise
        v = g.vertex_of[walk[j]]
        rot = g.rotations()[v]
        k = len(rot)
        pos = (rot.index(g.inv[prev]) + 1) % k
        while rot[pos] != walk[j]:
            seq.append(resolve(rot[pos]))
            pos = (pos + 1) % k
        seq.append(did(("w", j)))
        rotations.append(seq)
        owners.append(("pos", j))
    for v in interior:
        seq = [resolve(d) for d in g.rotations()[v]]
        rotations.append(seq)
        owners.append(("int", v))
    n = len(dart_id)
    pairing = [None] * n
    for key, i in list(dart_id.items()):
        if key[0] == "w":
            pairing[i] = did(("wb", key[1]))
        elif key[0] == "wb":
            pairing[i] = did(("w", key[1]))
        else:
            pairing[i] = did(("b", g.inv[key[1]]))
    labels = None
    if g.labels is not None:
        labels = [g.labels[copy_of[vid[o]]] for o in owners]
    graph = EmbeddedGraph.from_rotations(rotations, pairing, labels=labels)
    boundary = tuple(dart_id[("w", j)] for j in range(L))
    outer = graph.face_of(dart_id[("wb", 0)])
    edge_origin = [None] * graph.edge_count
    dart_origin = [None] * graph.dart_count
    for key, i in dart_id.items():
        e = graph.edge_of(i)
        if key[0] == "w":
            edge_origin[e] = ("walk", key[1])
            dart_origin[i] = walk[key[1]]
        elif key[0] == "wb":
            dart_origin[i] = g.inv[walk[key[1]]]
        else:
            edge_origin[e] = ("bridge", g.edge_of(key[1]))
            dart_origin[i] = key[1]
    return InternalComponent(
        graph, tuple(copy_of), boundary, outer, tuple(edge_origin), tuple(dart_origin)
    )


def is_contractible(g, cycle_darts):
    """Whether a simple cycle has a simple internally plane face."""
    s = set(cycle_darts) | {g.inv[d] for d in cycle_darts}
    sf = subgraph_faces(g, s)
    if len(sf.walks) != 2:
        raise ValueError("not a simple cycle (expected exactly two faces)")
    brs, simple = bridges(g, s, sf)
    for f in range(2):
        if not simple[f]:
            continue
        ic = internal_component(g, s, f, sf=sf, brs=(brs, simple))
        if ic.graph.genus() == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# homology shortcut for contractibility tests inside face-width searches


class _HomologyTester:
    """Z2-homology classes of cycles; exact for genus <= 1 surfaces.

    On a plane or torus map a simple cycle is contractible exactly when
    its class vanishes (it then separates, and one side is plane).  On
    higher genus this is only a necessary condition, so callers fall back
    to the bridge-based definition there.
    """

    def __init__(self, g):
        self.g = g
        n = g.dart_count
        parent = list(range(g.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        g.edge_darts()
        tree = set()
        for e, (d, dp) in enumerate(g.edge_darts()):
            a, b = find(g.vertex_of[d]), find(g.vertex_of[dp])
            if a != b:
                parent[a] = b
                tree.add(e)
        sig = [0] * g.edge_count
        bit = 0
        for e in range(g.edge_count):
            if e not in tree:
                sig[e] = 1 << bit
                bit += 1
        # reduce by the boundary space spanned by face vectors
        basis = {}
        for walk in g.faces():
            vec = 0
            for d in walk:
                vec ^= sig[g.edge_of(d)]
            vec = self._reduce(basis, vec)
            if vec:
                basis[vec.bit_length() - 1] = vec
        self._basis = basis
        self._sig = sig

    @staticmethod
    def _reduce(basis, vec):
        while vec:
            b = basis.get(vec.bit_length() - 1)
            if b is None:
                return vec
            vec ^= b
        return 0

    def cycle_class(self, cycle_darts):
        vec = 0
        for d in cycle_darts:
            vec ^= self._sig[self.g.edge_of(d)]
        return self._reduce(self._basis, vec)


def _noncontractible_test(g, use_fast):
    if use_fast:
        tester = _HomologyTester(g)
        return lambda cyc: tester.cycle_class(cyc) != 0
    return lambda cyc: not is_contractible(g, cyc)


def _bfs_candidate_cycles(g, allowed=None):
    """Simple cycles from BFS-tree fundamental cycles, all roots.

    By the three-path condition a shortest non-contractible cycle occurs
    among these; an exhaustive bounded search below the best candidate
    guards the result regardless.  ``allowed`` restricts the search to a
    vertex subset.
    """
    seen_keys = set()
    out = []
    g.edge_darts()
    roots = range(g.vertex_count) if allowed is None else sorted(allowed)
    for root in roots:
        parent_dart = [None] * g.vertex_count
        depth = [None] * g.vertex_count
        depth[root] = 0
        order = deque([root])
        while order:
            v = order.popleft()
            for d in g.rotations()[v]:
                w = g.head(d)
                if allowed is not None and w not in allowed:
                    continue
                if depth[w] is None:
                    depth[w] = depth[v] + 1
                    parent_dart[w] = d
                    order.append(w)
        tree_edges = {g.edge_of(d) for d in parent_dart if d is not None}
        for e, (d, dp) in enumerate(g.edge_darts()):
            if e in tree_edges:
                continue
            if depth[g.vertex_of[d]] is None or depth[g.vertex_of[dp]] is None:
                continue
            u, w = g.vertex_of[d], g.vertex_of[dp]
            pu, pw = [], []
            a, b = u, w
            while depth[a] > depth[b]:
                pu.append(parent_dart[a])
                a = g.vertex_of[parent_dart[a]]
            while depth[b] > depth[a]:
                pw.append(parent_dart[b])
                b = g.vertex_of[parent_dart[b]]
            while a != b:
                pu.append(parent_dart[a])
                a = g.vertex_of[parent_dart[a]]
                pw.append(parent_dart[b])
                b = g.vertex_of[parent_dart[b]]
            # cycle: u->w by the edge, w up to lca, then lca down to u
            cyc = [d] + [g.inv[x] for x in pw] + list(reversed(pu))
            verts = [g.vertex_of[x] for x in cyc]
            if len(set(verts)) != len(verts):
                continue
            key = frozenset(g.edge_of(x) for x in cyc)
            if len(key) != len(cyc) or key in seen_keys:
                continue
            seen_keys.add(key)
            out.append(cyc)
    return out


def _simple_cycles_upto(g, max_len, allowed=None):
    """All simple cycles of length <= max_len, each once (by edge set).

    ``allowed`` restricts the cycles to a vertex subset.
    """
    if max_len < 1:
        return
    adj = g.rotations()
    seen = set()
    nv = g.vertex_count
    anchors = range(nv) if allowed is None else sorted(allowed)
    # BFS distances for pruning, computed per anchor
    for s in anchors:
        dist = [None] * nv
        dist[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            if dist[v] >= max_len:
                continue
            for d in adj[v]:
                w = g.head(d)
                if allowed is not None and w not in allowed:
                    continue
                if dist[w] is None:
                    dist[w] = dist[v] + 1
                    q.append(w)
        for d in adj[s]:
            if g.head(d) == s and d < g.inv[d]:
                key = frozenset((g.edge_of(d),))
                if key not in seen:
                    seen.add(key)
                    yield [d]
        stack = [(s, [], {s})]
        while stack:
            v, path, used = stack.pop()
            for d in adj[v]:
                w = g.head(d)
                if w < s or (allowed is not None and w not in allowed):
                    continue
                if w == s and path:
                    if len(path) + 1 >= 2:
                        cyc = path + [d]
                        key = frozenset(g.edge_of(x) for x in cyc)
                        if len(key) == len(cyc) and key not in seen:
                            seen.add(key)
                            yield cyc
                    continue
                if w == s or w in used:
                    continue
                if len(path) + 2 > max_len:
                    continue
                if dist[w] is None or len(path) + 1 + dist[w] > max_len:
                    continue
                stack.append((w, path + [d], used | {w}))


def shortest_noncontractible_cycle(g, allowed=None):
    """A minimum-length non-contractible cycle of g, or None if plane.

    ``allowed`` restricts the searched cycles to a vertex subset; the
    caller must know that the restriction preserves the minimum.
    """
    if g.genus() == 0:
        return None
    fast = g.genus() <= 1
    test = _noncontractible_test(g, fast)
    best = None
    for cyc in sorted(_bfs_candidate_cycles(g, allowed), key=len):
        if best is not None and len(cyc) >= len(best):
            break
        if test(cyc):
            best = cyc
    if best is None:
        raise AssertionError("positive genus but no non-contractible candidate")
    # exhaustive guard below the candidate length
    for cyc in _simple_cycles_upto(g, len(best) - 1, allowed):
        if test(cyc) and len(cyc) < len(best):
            best = cyc
    if fast and is_contractible(g, best):
        raise AssertionError(
            "shortest_noncontractible_cycle: homology test accepted the "
            "contractible cycle %r" % (best,)
        )
    return best


def face_width(g, bary_graph=None):
    """Half the minimal length of a non-contractible cycle of B_G; inf if plane.

    The search skips the type-1 vertices of B_G: a minimum-length
    non-contractible cycle through an edge vertex can always be rerouted
    through the neighbouring vertex or face corner at equal length (or
    decomposes into something shorter, by the one-flip lemma), so the
    minimum over the vertex-face incidence subgraph is the minimum over
    all of B_G.
    """
    return face_width_witness(g, bary_graph)[0]


def face_width_witness(g, bary_graph=None):
    """(face width, shortest non-contractible cycle of B_G or None)."""
    if g.genus() == 0:
        return math.inf, None
    b = bary_graph if bary_graph is not None else barycentric(g).graph
    allowed = {v for v in range(b.vertex_count) if b.labels[v] != 1}
    cyc = shortest_noncontractible_cycle(b, allowed)
    if len(cyc) % 2:
        raise AssertionError("odd shortest non-contractible cycle in B_G")
    return len(cyc) // 2, tuple(cyc)


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


def _smallest_cut(g, max_size=2):
    """Smallest vertex cut of size <= max_size, or None."""
    nv = g.vertex_count
    adjacency = [{g.head(d) for d in g.rotations()[v]} - {v} for v in range(nv)]

    def connected_without(removed):
        rest = [v for v in range(nv) if v not in removed]
        if len(rest) <= 1:
            return True
        seen = {rest[0]}
        todo = [rest[0]]
        while todo:
            v = todo.pop()
            for w in adjacency[v]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(rest)

    for size in range(1, max_size + 1):
        if nv <= size:
            return None

        def rec(chosen, start):
            if len(chosen) == size:
                return tuple(chosen) if not connected_without(set(chosen)) else None
            for v in range(start, nv):
                got = rec(chosen + [v], v + 1)
                if got:
                    return got
            return None

        cut = rec([], 0)
        if cut:
            return cut
    return None


def is_ck_embedded(g, k, bary_graph=None):
    """Direct evaluation of the ck-embeddedness definition.

    No cut with fewer than k vertices, and face-width, minimum face size
    and minimum degree all at least k.  The report carries the largest k
    in {1,2,3} for which all four conditions hold.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    min_deg = min(g.degree(v) for v in range(g.vertex_count))
    min_face = min(len(f) for f in g.faces())
    fw, fw_cycle = face_width_witness(g, bary_graph=bary_graph)
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
    """All simple 4-cycles of a simple graph, as dart quadruples."""
    nv = b.vertex_count
    adj = [dict() for _ in range(nv)]
    for d in range(b.dart_count):
        adj[b.vertex_of[d]][b.head(d)] = d
    out = []
    seen = set()
    for u in range(nv):
        for w in range(u + 1, nv):
            common = [x for x in adj[u] if x in adj[w] and x not in (u, w)]
            for i in range(len(common)):
                for j in range(i + 1, len(common)):
                    x, y = common[i], common[j]
                    key = frozenset((b.edge_of(adj[u][x]), b.edge_of(adj[x][w]),
                                     b.edge_of(adj[w][y]), b.edge_of(adj[y][u])))
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append((adj[u][x], adj[x][w], adj[w][y], adj[y][u]))
    return out


def four_cycle_is_trivial(b, cyc):
    """Trivial 4-cycles have a face whose interior holds no vertex, or a
    single type-1 vertex only."""
    s = set(cyc) | {b.inv[d] for d in cyc}
    sf = subgraph_faces(b, s)
    brs, simple = bridges(b, s, sf)
    cyc_vertices = {b.vertex_of[d] for d in s}
    for f in range(len(sf.walks)):
        inside = set()
        for br in brs:
            if f in br.faces:
                inside.update(v for v in br.interior_vertices if v not in cyc_vertices)
        if not inside:
            return True
        if len(inside) == 1 and b.labels[next(iter(inside))] == 1:
            return True
    return False


def ck_via_cycles(g, k, bary_graph=None):
    """ck-embeddedness via short cycles of B_G: c2 iff no 2-cycles, c3 iff
    additionally no nontrivial 4-cycles."""
    if k not in (2, 3):
        raise ValueError("the cycle characterisation covers k=2 and k=3")
    b = bary_graph if bary_graph is not None else barycentric(g).graph
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
