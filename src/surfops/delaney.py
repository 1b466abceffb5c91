"""Delaney-Dress symbols: a finite set with three involutive generator
actions and maps m01, m02, m12.

A symbol encodes a periodic tiling together with a symmetry group; it is
Euclidean exactly when the curvature, the sum over all elements of
1/m01 + 1/m12 - 1/m02, vanishes.  Curvature arithmetic is exact rational,
never floating point.

``dd`` builds the symbol of an lsp- or lopsp-operation, reading the
outer face, if any, off the operation; ``dd_from_lopsp`` and
``dd_from_lsp`` are other names for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .io import _number

_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class DelaneySymbol:
    """Elements 0..n-1, generator actions (involutions, fixed points allowed)
    and the three m maps."""

    action: tuple  # three tuples: action[i][c] = c * sigma_i
    m: dict  # {(0,1): tuple, (0,2): tuple, (1,2): tuple}

    def __post_init__(self):
        object.__setattr__(self, "m", {k: tuple(v) for k, v in self.m.items()})
        object.__setattr__(self, "action", tuple(tuple(a) for a in self.action))

    @property
    def size(self):
        return len(self.action[0])

    def orbit(self, c, gens):
        """Orbit of c under a set of generator indices."""
        seen = {c}
        todo = [c]
        while todo:
            x = todo.pop()
            for i in gens:
                y = self.action[i][x]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    def orbits(self, gens):
        out = []
        seen = set()
        for c in range(self.size):
            if c in seen:
                continue
            orb = self.orbit(c, gens)
            seen |= orb
            out.append(orb)
        return out


def validate_dd(sym):
    """Diagnostics for the four Delaney-Dress axioms; empty means the symbol
    encodes a Euclidean-plane tiling.  The orbit axioms are read only
    when every generator maps 0..n-1 into itself, an m row only when it
    has n values, and the curvature only when every row has n positive
    values."""
    out = []
    n = sym.size
    if n == 0:
        return ["axiom1: empty element set"]
    walkable = True
    for i in range(3):
        act = sym.action[i]
        if len(act) != n or not all(0 <= x < n for x in act):
            walkable = False
            out.append("axiom0: generator %d does not map 0..%d into itself" % (i, n - 1))
            continue
        if sorted(act) != list(range(n)):
            out.append("axiom0: generator %d is not a permutation" % i)
            continue
        for c in range(n):
            if act[act[c]] != c:
                out.append("axiom0: generator %d not an involution at %d" % (i, c))
    if walkable and len(sym.orbit(0, (0, 1, 2))) != n:
        out.append("axiom2: the action is not transitive")
    full = [(i, j) for (i, j) in _PAIRS if len(sym.m[(i, j)]) == n]
    out += ["axiom3: m%d%d has length %d, not %d" % (i, j, len(sym.m[(i, j)]), n)
            for (i, j) in _PAIRS if (i, j) not in full]
    for (i, j) in full if walkable else ():
        mv = sym.m[(i, j)]
        for orb in sym.orbits((i, j)):
            vals = {mv[c] for c in orb}
            if len(vals) != 1:
                out.append(
                    "axiom3: m%d%d not constant on orbit %s" % (i, j, sorted(orb))
                )
                continue
            val = vals.pop()
            if val <= 0:
                out.append("axiom3: m%d%d not positive on orbit" % (i, j))
                continue
            # c returns within |orb| steps or never; the power fixes c iff r | val
            for c in orb:
                x, r = sym.action[j][sym.action[i][c]], 1
                while x != c and r < min(val, len(orb)):
                    x, r = sym.action[j][sym.action[i][x]], r + 1
                if x != c or val % r:
                    out.append(
                        "axiom3: (s%d s%d)^%d does not fix element %d" % (i, j, val, c)
                    )
                    break
    if any(v != 2 for v in sym.m[(0, 2)]):
        out.append("axiom3: m02 must be constant 2")
    if len(full) == 3 and all(v > 0 for mv in sym.m.values() for v in mv) and curvature(sym) != 0:
        out.append("axiom4: curvature %s is not zero" % curvature(sym))
    return out


def curvature(sym):
    """Exact curvature: sum of 1/m01 + 1/m12 - 1/m02 over all elements;
    ValueError naming an m row without one nonzero value per element."""
    for (i, j), mv in sorted(sym.m.items()):
        if len(mv) != sym.size or 0 in mv:
            raise ValueError("m%d%d needs one nonzero value per element, got %s" % (i, j, mv))
    total = Fraction(0)
    for c in range(sym.size):
        total += (
            Fraction(1, sym.m[(0, 1)][c])
            + Fraction(1, sym.m[(1, 2)][c])
            - Fraction(1, sym.m[(0, 2)][c])
        )
    return total


@dataclass(frozen=True)
class RotationInfo:
    pair: tuple  # (i, j)
    orbit: tuple  # sorted elements
    r: int  # minimal power of (sigma_i sigma_j) fixing the orbit
    fold: int  # f_r = m/r, or f_m = 2m/r at mirror orbits
    mirror: bool  # orbit touches a sigma-fixed element


def rotation_orders(sym):
    """Per <sigma_i, sigma_j>-orbit: r_ij, and the rotation or mirror fold;
    ValueError with the first axiom 0 or axiom 3 line of ``validate_dd``.

    On involutions an orbit is a cycle, on which sigma_i sigma_j turns by
    two, so r is half its size, or a path with fixed ends (a mirror
    orbit), on which r is its size.  Axiom 3 makes r divide m."""
    broken = [line for line in validate_dd(sym) if line.startswith(("axiom0", "axiom3"))]
    if broken:
        raise ValueError(broken[0])
    out = []
    for (i, j) in _PAIRS:
        si, sj = sym.action[i], sym.action[j]
        for orb in sym.orbits((i, j)):
            mirror = any(si[c] == c or sj[c] == c for c in orb)
            r = len(orb) if mirror else len(orb) // 2
            m = sym.m[(i, j)][min(orb)]
            fold = (2 * m if mirror else m) // r
            out.append(RotationInfo((i, j), tuple(sorted(orb)), r, fold, mirror))
    return out


def is_dd_morphism(d1, d2, mapping):
    """Whether ``mapping`` commutes with all generators and preserves all m."""
    if len(mapping) != d1.size:
        return False
    for c in range(d1.size):
        f = mapping[c]
        if not 0 <= f < d2.size:
            return False
        for i in range(3):
            if mapping[d1.action[i][c]] != d2.action[i][f]:
                return False
        for pair in _PAIRS:
            if d1.m[pair][c] != d2.m[pair][f]:
                return False
    return True


# -- extraction from operations --------------------------------------------


def dd(op):
    """Symbol of a lopsp- or lsp-operation, which it validates, on its
    chambers: chamber c is the c-th face that is not the outer face of an
    lsp-operation (a lopsp-operation has none), in face order, so face f
    is chamber f - (f > outer).  Validation proves every such face a
    triangle with one corner of each type, so s_i crosses the one edge of
    c that misses its type-i corner, and fixes c when that edge lies on
    the outer face.  The <s_i, s_j>-orbit of a chamber is the fan around
    its corner v of type 3 - i - j: deg v chambers at an inner vertex,
    where m is half that (deg v is even, as v's neighbours alternate
    between the two other types), and deg v - 1 on an lsp-operation's
    outer walk, which validation proves simple, where m is the orbit
    size; times 2, 3 or 6 at v1, v0 or v2.  So m is read off the degrees,
    walking no orbit."""
    op.require_valid()
    g = op.graph
    labels, vertex_of, faces = g.labels, g.vertex_of, g.faces()
    outer_vertices = op.outer_vertices()
    outer = len(faces) if op.outer_face is None else op.outer_face  # a lopsp's: past all faces
    factor = {op.v1: 2, op.v0: 3, op.v2: 6}
    m_at = [(g.degree(v) - 1 if v in outer_vertices else g.degree(v) // 2)
            * factor.get(v, 1) for v in range(g.vertex_count)]
    size = len(faces) - (outer < len(faces))
    s = [[0] * size for _ in range(3)]
    m = {pair: [0] * size for pair in _PAIRS}
    for f, walk in enumerate(faces):
        if f == outer:
            continue
        c, corner = f - (f > outer), [0] * 3
        for d in walk:
            t = labels[vertex_of[d]]
            corner[t] = vertex_of[d]
            e = g.face_of(g.inv[d])
            s[3 - t - labels[g.head(d)]][c] = c if e == outer else e - (e > outer)
        for (i, j) in _PAIRS:
            m[i, j][c] = m_at[corner[3 - i - j]]
    return DelaneySymbol(s, m)


# other names for ``dd``, which ``surfops.__all__`` and ``perfbench`` use
dd_from_lopsp = dd_from_lsp = dd


# -- serialization ----------------------------------------------------------


def write_dd(sym):
    """Line based text form: element count, three action rows, three m rows."""
    lines = ["dd %d" % sym.size]
    for i in range(3):
        lines.append("s%d %s" % (i, " ".join(map(str, sym.action[i]))))
    for (i, j) in _PAIRS:
        lines.append("m%d%d %s" % (i, j, " ".join(map(str, sym.m[(i, j)]))))
    return "\n".join(lines) + "\n"


def parse_dd(text):
    """The symbol of a ``write_dd`` text; its count and values are ASCII
    digits, read by the strict reader of ``io``."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split() if lines else ()
    n = _number(header[1]) if len(header) == 2 and header[0] == "dd" else None
    if n is None:
        raise ValueError("missing 'dd <n>' header")
    keys = ["s%d" % i for i in range(3)] + ["m%d%d" % pair for pair in _PAIRS]
    rows = {}
    for ln in lines[1:]:
        key, *values = ln.split()
        if key not in keys:
            raise ValueError("unknown row %r" % key)
        if key in rows:
            raise ValueError("duplicate %s row" % key)
        rows[key] = [_number(x) for x in values]

    def row(key, message):
        out = rows.get(key)
        if out is None or len(out) != n or None in out:
            raise ValueError(message % key)
        return out

    action = [row("s%d" % i, "bad or missing action row %s") for i in range(3)]
    m = {(i, j): row("m%d%d" % (i, j), "bad or missing %s row") for (i, j) in _PAIRS}
    return DelaneySymbol(tuple(map(tuple, action)), m)
