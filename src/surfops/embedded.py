"""Embedded multigraphs on orientable surfaces, given as rotation systems.

A graph with E edges is stored on 2E *darts* (oriented edges) numbered
0..2E-1.  Two permutations describe the embedding:

* ``inv`` -- a fixed-point-free involution pairing each dart with its
  reversal,
* ``sigma`` -- the clockwise successor of a dart in the rotation around
  its start vertex.

Vertices are the orbits of ``sigma``, faces the orbits of
``d -> sigma[inv[d]]``.  Loops and parallel edges are allowed; the graph
must be connected.  Instances are immutable after construction and can be
shared freely between threads.
"""

from __future__ import annotations


class NotInvolution(ValueError):
    """The dart pairing is not a fixed-point-free involution."""


class DartMissingOrDuplicated(ValueError):
    """Some dart is missing from, or repeated in, the rotation data."""


class Disconnected(ValueError):
    """The rotation system describes a disconnected graph."""


class EmptySelection(ValueError):
    """An embedded subgraph was requested for an empty dart set."""


def _orbits(perm):
    """Orbits of a permutation given as a list, ordered by smallest member."""
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return out


class EmbeddedGraph:
    """Connected embedded multigraph with an optional vertex labelling.

    Vertex labels (small integers) take part in canonical forms; they are
    used for the type labels 0/1/2 of barycentric subdivisions and
    operation triangulations.
    """

    __slots__ = (
        "sigma",
        "inv",
        "vertex_of",
        "labels",
        "_rotations",
        "_faces",
        "_face_of",
        "_edge_darts",
        "_edge_of",
        "_degrees",
        "_canon",
    )

    def __init__(self, sigma, inv, vertex_of=None, labels=None, check=True):
        self.sigma = tuple(sigma)
        self.inv = tuple(inv)
        n = len(self.sigma)
        if vertex_of is None:
            vertex_of = [None] * n
            for v, cyc in enumerate(_orbits(list(self.sigma))):
                for d in cyc:
                    vertex_of[d] = v
        self.vertex_of = tuple(vertex_of)
        self.labels = None if labels is None else tuple(labels)
        self._rotations = None
        self._faces = None
        self._face_of = None
        self._edge_darts = None
        self._edge_of = None
        self._degrees = None
        self._canon = {}
        if check:
            self._check()

    # -- construction -------------------------------------------------

    @classmethod
    def from_rotations(cls, rotations, pairing, labels=None):
        """Build a graph from per-vertex clockwise dart sequences.

        ``rotations`` is one dart sequence per vertex; ``pairing`` maps
        every dart to its reverse.  Raises ``NotInvolution``,
        ``DartMissingOrDuplicated`` or ``Disconnected`` on bad input.
        """
        n = sum(len(r) for r in rotations)
        seen = [False] * n
        for rot in rotations:
            for d in rot:
                if not isinstance(d, int) or d < 0 or d >= n:
                    raise DartMissingOrDuplicated("dart %r out of range" % (d,))
                if seen[d]:
                    raise DartMissingOrDuplicated("dart %d listed twice" % d)
                seen[d] = True
        if not all(seen):
            raise DartMissingOrDuplicated("some darts missing from rotations")
        inv = [None] * n
        for d in range(n):
            e = pairing[d]
            if not isinstance(e, int) or e < 0 or e >= n:
                raise NotInvolution("pairing image %r out of range" % (e,))
            inv[d] = e
        for d in range(n):
            if inv[d] == d:
                raise NotInvolution("pairing fixes dart %d" % d)
            if inv[inv[d]] != d:
                raise NotInvolution("pairing is not an involution at dart %d" % d)
        sigma = [None] * n
        vertex_of = [None] * n
        for v, rot in enumerate(rotations):
            k = len(rot)
            for i, d in enumerate(rot):
                sigma[d] = rot[(i + 1) % k]
                vertex_of[d] = v
        return cls(sigma, inv, vertex_of, labels=labels)

    @classmethod
    def from_adjacency(cls, neighbours, labels=None):
        """Build a simple graph from neighbour lists in rotation order.

        Only for loop-free graphs without parallel edges; the dart from u
        to v is paired with the dart from v to u.
        """
        darts = {}
        rotations = []
        n = 0
        for u, row in enumerate(neighbours):
            if len(set(row)) != len(row) or u in row:
                raise ValueError("from_adjacency needs a simple graph")
            rot = []
            for v in row:
                darts[(u, v)] = n
                rot.append(n)
                n += 1
            rotations.append(rot)
        pairing = [None] * n
        for (u, v), d in darts.items():
            if (v, u) not in darts:
                raise ValueError("edge %s-%s only listed at one endpoint" % (u, v))
            pairing[d] = darts[(v, u)]
        return cls.from_rotations(rotations, pairing, labels=labels)

    def _check(self):
        n = len(self.sigma)
        if n == 0:
            raise Disconnected("graph needs at least one edge")
        if n % 2:
            raise DartMissingOrDuplicated("odd number of darts")
        if sorted(self.sigma) != list(range(n)):
            raise DartMissingOrDuplicated("sigma is not a permutation")
        for d in range(n):
            if self.inv[d] == d or self.inv[self.inv[d]] != d:
                raise NotInvolution("bad pairing at dart %d" % d)
            if self.vertex_of[self.sigma[d]] != self.vertex_of[d]:
                raise DartMissingOrDuplicated(
                    "sigma orbit of dart %d leaves its vertex" % d
                )
        nv = max(self.vertex_of) + 1
        if sorted(set(self.vertex_of)) != list(range(nv)):
            raise DartMissingOrDuplicated("vertex identifiers are not dense")
        # one sigma orbit per vertex id
        if len(_orbits(list(self.sigma))) != nv:
            raise DartMissingOrDuplicated("a vertex id covers several rotations")
        if self.labels is not None and len(self.labels) != nv:
            raise ValueError("label table does not match vertex count")
        # connectivity over sigma and inv
        seen = [False] * n
        todo = [0]
        seen[0] = True
        while todo:
            d = todo.pop()
            for e in (self.sigma[d], self.inv[d]):
                if not seen[e]:
                    seen[e] = True
                    todo.append(e)
        if not all(seen):
            raise Disconnected("graph is not connected")

    # -- basic queries -------------------------------------------------

    @property
    def dart_count(self):
        return len(self.sigma)

    @property
    def vertex_count(self):
        return len(self.rotations())

    @property
    def edge_count(self):
        return len(self.sigma) // 2

    def rotations(self):
        """Per-vertex dart sequences (clockwise), indexed by vertex id."""
        if self._rotations is None:
            nv = max(self.vertex_of) + 1
            rot = [None] * nv
            for cyc in _orbits(list(self.sigma)):
                rot[self.vertex_of[cyc[0]]] = cyc
            self._rotations = tuple(rot)
        return self._rotations

    def rotation_at(self, v):
        return self.rotations()[v]

    def degree(self, v):
        return len(self.rotations()[v])

    def head(self, d):
        """Vertex a dart points to."""
        return self.vertex_of[self.inv[d]]

    def faces(self):
        """Faces as cyclic dart tuples; consecutive darts form angles."""
        if self._faces is None:
            phi = [self.sigma[self.inv[d]] for d in range(self.dart_count)]
            self._faces = tuple(_orbits(phi))
            face_of = [None] * self.dart_count
            for i, f in enumerate(self._faces):
                for d in f:
                    face_of[d] = i
            self._face_of = tuple(face_of)
        return self._faces

    def face_of(self, d):
        self.faces()
        return self._face_of[d]

    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + len(self.faces())

    def genus(self):
        chi = self.euler_characteristic()
        if chi % 2:
            raise ValueError("odd Euler characteristic; rotation system broken")
        g = (2 - chi) // 2
        if g < 0:
            raise ValueError("negative genus; rotation system broken")
        return g

    def edge_darts(self):
        """Edges as (dart, inv dart) pairs with dart < inv dart."""
        if self._edge_darts is None:
            pairs = []
            edge_of = [None] * self.dart_count
            for d in range(self.dart_count):
                e = self.inv[d]
                if d < e:
                    edge_of[d] = edge_of[e] = len(pairs)
                    pairs.append((d, e))
            self._edge_darts = tuple(pairs)
            self._edge_of = tuple(edge_of)
        return self._edge_darts

    def edge_of(self, d):
        self.edge_darts()
        return self._edge_of[d]

    def label(self, v):
        return None if self.labels is None else self.labels[v]

    # -- derived graphs -------------------------------------------------

    def dual(self):
        """Dual rotation system: faces become vertices with inverse cyclic order."""
        self.faces()
        n = self.dart_count
        phi = [self.sigma[self.inv[d]] for d in range(n)]
        sigma_dual = [None] * n
        for d in range(n):
            sigma_dual[phi[d]] = d
        vertex_of = [self._face_of[d] for d in range(n)]
        return EmbeddedGraph(sigma_dual, self.inv, vertex_of)

    def mirror(self):
        """Orientation-reversed copy (rotations inverted)."""
        n = self.dart_count
        sigma_inv = [None] * n
        for d in range(n):
            sigma_inv[self.sigma[d]] = d
        return EmbeddedGraph(sigma_inv, self.inv, self.vertex_of, labels=self.labels)

    def embedded_subgraph(self, keep_darts):
        """Embedded subgraph induced by a dart set closed under ``inv``.

        Returns one ``SubgraphComponent`` per connected component; the
        rotation of every surviving vertex is the rotation of the parent
        restricted to surviving darts.
        """
        keep = frozenset(keep_darts)
        if not keep:
            raise EmptySelection("no darts selected")
        for d in keep:
            if self.inv[d] not in keep:
                raise ValueError("dart set not closed under inv")
        # split into components over sigma-restriction and inv
        nxt = {}
        for v in set(self.vertex_of[d] for d in keep):
            rot = [d for d in self.rotations()[v] if d in keep]
            for i, d in enumerate(rot):
                nxt[d] = rot[(i + 1) % len(rot)]
        comp = {}
        comps = []
        for start in sorted(keep):
            if start in comp:
                continue
            cid = len(comps)
            todo = [start]
            comp[start] = cid
            members = [start]
            while todo:
                d = todo.pop()
                for e in (nxt[d], self.inv[d]):
                    if e not in comp:
                        comp[e] = cid
                        members.append(e)
                        todo.append(e)
            comps.append(sorted(members))
        out = []
        for members in comps:
            newid = {d: i for i, d in enumerate(members)}
            vs = []
            vmap = []
            vseen = {}
            rotations = []
            for d in members:
                v = self.vertex_of[d]
                if v not in vseen:
                    vseen[v] = len(rotations)
                    vmap.append(v)
                    rot = [x for x in self.rotations()[v] if x in newid]
                    rotations.append([newid[x] for x in rot])
            pairing = [newid[self.inv[d]] for d in members]
            labels = None
            if self.labels is not None:
                labels = [self.labels[v] for v in vmap]
            g = EmbeddedGraph.from_rotations(rotations, pairing, labels=labels)
            out.append(SubgraphComponent(g, tuple(members), tuple(vmap)))
        return out

    # -- canonical forms -------------------------------------------------

    def _degree_table(self):
        if self._degrees is None:
            self._degrees = tuple(len(r) for r in self.rotations())
        return self._degrees

    def _code_from(self, start, sigma, best):
        """BFS code (a list) from a start dart and the darts in numbering
        order; None as soon as the code exceeds the list ``best``.

        The code lists, per vertex in discovery order, its degree and
        label followed by one entry per dart in rotation order from the
        entry dart: the number of the paired dart if already numbered,
        else -1.  Darts are numbered in that same order.  Equal codes
        characterise isomorphic labelled maps, and two starts with equal
        codes are mapped onto each other by the automorphism that sends
        the i-th numbered dart of one to the i-th of the other.
        """
        inv = self.inv
        vertex_of = self.vertex_of
        labels = self.labels
        deg = self._degree_table()
        num = [-1] * len(sigma)
        entry = [-1] * len(deg)
        entry[vertex_of[start]] = start
        queue = [vertex_of[start]]
        darts = []
        code = []
        better = best is None
        for v in queue:  # grows while it is walked: the BFS queue
            d = entry[v]
            block = [deg[v], -2 if labels is None else labels[v]]
            for _ in range(deg[v]):
                e = inv[d]
                block.append(num[e])
                num[d] = len(darts)
                darts.append(d)
                w = vertex_of[e]
                if entry[w] < 0:
                    entry[w] = e
                    queue.append(w)
                d = sigma[d]
            if not better:
                ref = best[len(code) : len(code) + len(block)]
                if block > ref:
                    return None
                better = block < ref
            code += block
        return code, darts

    def _start_darts(self):
        rot = self.rotations()
        key = lambda v: (len(rot[v]), -2 if self.labels is None else self.labels[v])
        best = min(key(v) for v in range(len(rot)))
        return [d for v in range(len(rot)) if key(v) == best for d in rot[v]]

    def canonical_code(self, allow_reflection=False):
        """Lexicographically minimal BFS code over all start darts.

        Only darts at vertices of minimal (degree, label) can start a
        minimal code, so only those are tried.  With ``allow_reflection``
        the minimum also ranges over the mirrored rotation system, so the
        code identifies maps up to orientation-reversing isomorphism as
        well.

        Cost: one code per automorphism orbit of start darts, each cut
        off as soon as it exceeds the best code so far.  A start that
        ties the best code reveals an automorphism; its dart cycles are
        merged in a union-find, and a start dart that is not the smallest
        of its merged set is skipped, since its code equals that of the
        smallest, which is always coded.
        """
        flag = bool(allow_reflection)
        if flag not in self._canon:
            self._canon[flag] = self._canonical_search(flag)
        return self._canon[flag][0]

    def _canonical_search(self, allow_reflection):
        """(minimal code, the darts in the numbering of a start that
        realises it under ``sigma``, or None if only the mirrored rotation
        system does)."""
        n = self.dart_count
        sigmas = [self.sigma]
        if allow_reflection:
            sigma_inv = [None] * n
            for d in range(n):
                sigma_inv[self.sigma[d]] = d
            sigmas.append(tuple(sigma_inv))
        starts = self._start_darts()
        # Ties within one pass give orientation-preserving automorphisms,
        # which commute with sigma and its inverse alike, so the orbits
        # found in the first pass also prune the mirrored one.
        parent = list(range(n))
        best = best_darts = None
        for sig in sigmas:
            ref = None  # numbering of a start of this pass whose code is best
            for s in starts:
                if _find(parent, s) != s:
                    continue
                res = self._code_from(s, sig, best)
                if res is None:
                    continue
                code, darts = res
                if code != best:
                    best, ref = code, darts
                    best_darts = darts if sig is self.sigma else None
                elif ref is None:
                    ref = darts
                else:
                    for a, b in zip(ref, darts):
                        _union(parent, a, b)
        return tuple(best), best_darts

    def iso(self, other, allow_reflection=False):
        """Embedded-graph isomorphism (label-aware) via canonical codes."""
        return self.canonical_code(allow_reflection) == other.canonical_code(
            allow_reflection
        )

    def canonical_traversal(self):
        """The (sigma-preserving) traversal realising the canonical code.

        Returns (vertex_order, entry_dart) where vertex_order lists the
        old vertex ids in discovery order of the winning BFS.  Used to
        emit graphs in canonical vertex order.
        """
        self.canonical_code(False)
        # the winning numbering lists each vertex's darts from its entry
        # dart, vertices in discovery order
        entry = {}
        order = []
        for d in self._canon[False][1]:
            v = self.vertex_of[d]
            if v not in entry:
                entry[v] = d
                order.append(v)
        return order, entry


def _find(parent, x):
    """Root of ``x`` in a union-find forest whose roots are set minima."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra < rb:
        parent[rb] = ra
    elif rb < ra:
        parent[ra] = rb


class SubgraphComponent:
    """A connected component of an embedded subgraph.

    ``dart_map[i]`` / ``vertex_map[i]`` give the parent dart / vertex for
    dart / vertex ``i`` of the component graph.
    """

    __slots__ = ("graph", "dart_map", "vertex_map")

    def __init__(self, graph, dart_map, vertex_map):
        self.graph = graph
        self.dart_map = dart_map
        self.vertex_map = vertex_map


def build_embedded_graph(rotations, pairing, labels=None):
    """Functional alias for ``EmbeddedGraph.from_rotations``."""
    return EmbeddedGraph.from_rotations(rotations, pairing, labels=labels)


def faces(graph):
    return graph.faces()


def euler_characteristic(graph):
    return graph.euler_characteristic()


def genus(graph):
    return graph.genus()


def embedded_subgraph(graph, keep_darts):
    return graph.embedded_subgraph(keep_darts)


def canonical_code(graph, allow_reflection=False):
    return graph.canonical_code(allow_reflection)


def iso(g, h, allow_reflection=False):
    return g.iso(h, allow_reflection)
