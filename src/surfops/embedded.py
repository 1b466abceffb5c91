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

from itertools import chain


class NotInvolution(ValueError):
    """The dart pairing is not a fixed-point-free involution."""


class DartMissingOrDuplicated(ValueError):
    """Some dart is missing from, or repeated in, the rotation data."""


class Disconnected(ValueError):
    """The rotation system describes a disconnected graph."""


class InternalInvariant(AssertionError):
    """A broken internal invariant: a bug, not bad input.  Names the
    stage, and the dart where it is known."""

    def __init__(self, stage, message, dart=None):
        super().__init__("%s: %s%s" % (stage, message, "" if dart is None else " dart %s" % dart))
        self.stage, self.dart = stage, dart


class Deferred:
    """A record whose ``_deferred`` fields one callable makes on first
    read.  ``deferred(build, **fields)`` sets ``fields`` now; the first
    read of a missing deferred field calls ``build()`` once, which
    returns them all as a dict, and they are cached.  Built with its
    class's own constructor, every field is a plain attribute.  A
    deferred field must not have a class-level default, which would be
    read in its place."""

    _deferred = ()

    @classmethod
    def deferred(cls, build, **fields):
        obj = cls.__new__(cls)
        obj.__dict__.update(fields, _build=build)
        return obj

    def __getattr__(self, name):
        build = self.__dict__.get("_build")
        if name not in self._deferred or build is None:
            raise AttributeError(name)
        self.__dict__.update(build(), _build=None)
        return self.__dict__[name]


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


def _check_assembled(g):
    """The checks of ``from_rotations`` that a rotation system listing
    every dart once, paired by a fixed-point-free involution, can still
    fail: no dart at all, a label table of the wrong length, and more
    than one component."""
    if not g.dart_count:
        raise Disconnected("graph needs at least one edge")
    if g.labels is not None and len(g.labels) != g.vertex_count:
        raise ValueError("label table does not match vertex count")
    vertex_of, inv, rotations = g.vertex_of, g.inv, g.rotations()
    seen = [True] + [False] * (len(rotations) - 1)
    todo = [0]
    while todo:
        for d in rotations[todo.pop()]:
            w = vertex_of[inv[d]]
            if not seen[w]:
                seen[w] = True
                todo.append(w)
    if not all(seen):
        raise Disconnected("graph is not connected")


class EmbeddedGraph:
    """Connected embedded multigraph with an optional vertex labelling.

    Vertex labels (small integers) take part in canonical forms; they are
    used for the type labels 0/1/2 of barycentric subdivisions and
    operation triangulations.  A graph is validated once, where it enters
    the package: ``from_rotations`` is the one checked constructor, and
    ``EmbeddedGraph(sigma, inv, vertex_of, labels)`` trusts its input.
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
        "_canon",
    )

    def __init__(self, sigma, inv, vertex_of, labels=None):
        """The trusted constructor: the permutations and the vertex of
        every dart are taken as given.  It is for graphs the package
        derives from a validated graph by a proven construction; input
        enters through ``from_rotations``."""
        self.sigma = tuple(sigma)
        self.inv = tuple(inv)
        self.vertex_of = tuple(vertex_of)
        self.labels = None if labels is None else tuple(labels)
        self._rotations = None
        self._faces = None
        self._face_of = None
        self._edge_darts = None
        self._edge_of = None
        self._canon = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_rotations(cls, rotations, pairing, labels=None, check=True):
        """Build a graph from per-vertex clockwise dart sequences.

        ``rotations`` is one dart sequence per vertex; ``pairing`` maps
        every dart to its reverse.  This is the one constructor that
        validates: it raises ``NotInvolution``,
        ``DartMissingOrDuplicated`` or ``Disconnected`` on a bad rotation
        system, and ``ValueError`` on a label table of the wrong length.
        ``check=False`` trusts the input, for graphs the package derives
        from a validated graph by a proven construction; a parser that
        has proven the darts complete and their pairing an involution
        runs only ``_check_assembled`` on the result.  Either way the
        rotations are stored as given, each turned to start at its
        smallest dart; the package's own callers pass them that way.
        """
        n = sum(len(r) for r in rotations)
        vertex_of = [None] * n
        if check:
            for v, rot in enumerate(rotations):
                if not rot:
                    raise Disconnected("vertex %d has no darts" % v)
                for d in rot:  # n darts, each in range once: all of them
                    if not isinstance(d, int) or d < 0 or d >= n:
                        raise DartMissingOrDuplicated("dart %r out of range" % (d,))
                    if vertex_of[d] is not None:
                        raise DartMissingOrDuplicated("dart %d listed twice" % d)
                    vertex_of[d] = v
            for d, e in zip(range(n), pairing):
                if not isinstance(e, int) or e < 0 or e >= n:
                    raise NotInvolution("pairing image %r out of range" % (e,))
                if e == d:
                    raise NotInvolution("pairing fixes dart %d" % d)
            # a short pairing fails once its entries are checked, a long
            # one once its first n entries are
            covers = "pairing covers %d of %d darts" % (len(pairing), n)
            if len(pairing) < n:
                raise NotInvolution(covers)
            for d in range(n):
                if pairing[pairing[d]] != d:
                    raise NotInvolution("pairing is not an involution at dart %d" % d)
            if len(pairing) > n:
                raise NotInvolution(covers)
        sigma = [None] * n
        for v, rot in enumerate(rotations):
            k = len(rot)
            for i, d in enumerate(rot):
                sigma[d] = rot[(i + 1) % k]
                vertex_of[d] = v
        g = cls(sigma, pairing, vertex_of, labels=labels)
        rot = tuple(map(tuple, rotations))
        if list(map(min, rot)) != [r[0] for r in rot]:
            rot = tuple(r[i:] + r[:i] for r in rot for i in (r.index(min(r)),))
        g._rotations = rot
        if check:
            _check_assembled(g)
        return g

    @classmethod
    def from_adjacency(cls, neighbours, labels=None):
        """Build a simple graph from neighbour lists in rotation order.

        Only for loop-free graphs without parallel edges; the dart from u
        to v is paired with the dart from v to u.  Once each row is
        simple and each edge listed at both ends, the darts are complete
        and that pairing is a fixed-point-free involution, so of the
        checks of ``from_rotations`` only ``_check_assembled`` runs.
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
        if [] in rotations:
            raise Disconnected("vertex %d has no darts" % rotations.index([]))
        g = cls.from_rotations(rotations, pairing, labels=labels, check=False)
        _check_assembled(g)
        return g

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
            for cyc in _orbits(self.sigma):
                rot[self.vertex_of[cyc[0]]] = cyc
            self._rotations = tuple(rot)
        return self._rotations

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

    def face_table(self):
        """Face index of every dart, as a tuple indexed by dart."""
        if self._face_of is None:
            self.faces()
        return self._face_of

    def face_of(self, d):
        """Face index of a dart; the table is built by the first lookup."""
        return self.face_table()[d]

    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + len(self.faces())

    def genus(self):
        return (2 - self.euler_characteristic()) // 2  # chi = 2 - 2g: the graph is connected

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

    def edge_table(self):
        """Edge id of every dart, as a tuple indexed by dart."""
        if self._edge_of is None:
            self.edge_darts()
        return self._edge_of

    def edge_of(self, d):
        """Edge id of a dart; the table is built by the first lookup."""
        return self.edge_table()[d]

    # -- derived graphs -------------------------------------------------

    def dual(self):
        """Dual rotation system: faces become vertices with inverse cyclic order."""
        n = self.dart_count
        phi = [self.sigma[self.inv[d]] for d in range(n)]
        sigma_dual = [None] * n
        for d in range(n):
            sigma_dual[phi[d]] = d
        vertex_of = self.face_table()
        return EmbeddedGraph(sigma_dual, self.inv, vertex_of)

    def mirror(self):
        """Orientation-reversed copy (rotations inverted)."""
        n = self.dart_count
        sigma_inv = [None] * n
        for d in range(n):
            sigma_inv[self.sigma[d]] = d
        return EmbeddedGraph(sigma_inv, self.inv, self.vertex_of, labels=self.labels)

    # -- canonical forms -------------------------------------------------

    def _code_walk(self, start, sigma, darts, num=None, entry=None):
        """BFS code from a start dart, one vertex block (a list) at a
        time; the darts are appended in numbering order to ``darts``,
        which must start empty.  ``num`` (per dart) and ``entry`` (per
        vertex) are the walk's numbering arrays, all -1 on entry; by
        default fresh ones are made.  The walk leaves ``num`` set on the
        darts it listed and ``entry`` on the start vertex and the heads of
        those darts, and nowhere else.

        A block lists a vertex's degree and label, then one entry per
        dart in rotation order from its entry dart: the number of the
        paired dart if already numbered, else -1.  Vertices come in
        discovery order.  Equal codes characterise isomorphic labelled
        maps, and two starts with equal codes are mapped onto each other
        by the automorphism that sends the i-th numbered dart of one to
        the i-th of the other.
        """
        inv = self.inv
        vertex_of = self.vertex_of
        labels = self.labels
        rotations = self.rotations()
        if num is None:
            num, entry = [-1] * len(sigma), [-1] * len(rotations)
        entry[vertex_of[start]] = start
        queue = [vertex_of[start]]
        for v in queue:  # grows while it is walked: the BFS queue
            d = entry[v]
            rot = rotations[v]
            block = [len(rot), -2 if labels is None else labels[v]]
            for _ in rot:  # deg(v) steps around v from its entry dart
                e = inv[d]
                block.append(num[e])
                num[d] = len(darts)
                darts.append(d)
                w = vertex_of[e]
                if entry[w] < 0:
                    entry[w] = e
                    queue.append(w)
                d = sigma[d]
            yield block

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

        Cost: one walk per automorphism orbit of start darts, coded one
        vertex block at a time against the best code so far, whose own
        walk is suspended and advanced only when a challenger needs its
        next block.  A challenger is dropped at its first larger block
        and becomes the suspended best at its first smaller one, so only
        ties and the winner are coded to the end.  The work is the number
        of blocks compared, plus as many dart steps as those blocks list:
        the numbering arrays are allocated once per search, two pairs for
        the best walk and the challenger, and a finished walk clears only
        the entries it set.  A tie reveals an automorphism; its dart
        cycles are merged in a union-find, and a start dart that is not
        the smallest of its merged set is skipped, since its code equals
        that of the smallest, which is always coded.
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
        sigmas = [self.sigma] + ([self.mirror().sigma] if allow_reflection else [])
        starts = self._start_darts()
        pool = _Numberings(self)
        # Ties within one pass give orientation-preserving automorphisms,
        # which commute with sigma and its inverse alike, so the orbits
        # found in the first pass also prune the mirrored one.
        parent = list(range(n))
        best = []  # blocks of the best code; a prefix while its walk is suspended
        lead = best_darts = None  # the best code's walk and its numbering
        for sig in sigmas:
            ref = None  # numbering of a start of this pass whose code is best
            for s in starts:
                if parent[s] != s:  # not a root, as roots are set minima
                    continue
                darts = []
                arrays = pool.take()
                walk = self._code_walk(s, sig, darts, *arrays)
                if lead is not None:
                    for i, block in enumerate(walk):
                        if i == len(best):
                            best.append(next(lead))
                        if block != best[i]:
                            break
                    else:  # a tie, walked to the end
                        pool.give(s, darts, arrays)
                        if ref is None:
                            ref = darts
                            continue
                        for a, b in zip(ref, darts):  # union of the sets of a and b
                            while parent[a] != a:
                                parent[a] = a = parent[parent[a]]
                            while parent[b] != b:
                                parent[b] = b = parent[parent[b]]
                            if a < b:
                                parent[b] = a
                            elif b < a:
                                parent[a] = b
                        continue
                    if block > best[i]:
                        pool.give(s, darts, arrays)
                        continue
                    del best[i:]
                    best.append(block)
                    pool.give(*held)
                lead, ref, held = walk, darts, (s, darts, arrays)  # held: what lead took from the pool
                best_darts = darts if sig is self.sigma else None
        best.extend(lead)
        return tuple(chain.from_iterable(best)), best_darts

    def iso(self, other, allow_reflection=False):
        """Embedded-graph isomorphism (label-aware) via canonical codes."""
        return self.canonical_code(allow_reflection) == other.canonical_code(
            allow_reflection
        )

    def canonical_traversal(self):
        """The (sigma-preserving) traversal realising the canonical code.

        Returns (vertex_order, entry_dart) where vertex_order lists the
        old vertex ids in discovery order of the winning BFS: the order
        in which ``write_rot`` emits the vertices.
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


class _Numberings:
    """A pool of numbering arrays for the code walks of one graph: (num,
    entry) pairs, all -1 while pooled.  A canonical search holds at most
    two at a time, for the best walk and its challenger, so it makes at
    most two."""

    __slots__ = ("graph", "free")

    def __init__(self, graph):
        self.graph, self.free = graph, []

    def take(self):
        if self.free:
            return self.free.pop()
        return [-1] * self.graph.dart_count, [-1] * self.graph.vertex_count

    def give(self, start, darts, arrays):
        """Pool again the ``arrays`` of the walk from ``start`` that
        numbered ``darts``, after clearing what it set: ``num`` on those
        darts, ``entry`` on the start vertex and their heads."""
        num, entry = arrays
        vertex_of, inv = self.graph.vertex_of, self.graph.inv
        entry[vertex_of[start]] = -1
        for d in darts:
            num[d] = -1
            entry[vertex_of[inv[d]]] = -1
        self.free.append(arrays)
