"""File formats: signed-edge rotation files, plantri planar code, and the
operation format.

The rot format lists, per vertex, the incident edges in clockwise order
as signed 1-based edge identifiers; every edge appears once with each
sign, a loop shows both signs on one line.  That makes loops and parallel
edges unambiguous, which neighbour lists are not.  Planar code is
supported for interoperability with standard plane-graph generators and
therefore restricted to simple graphs.

The `rot` and operation formats share one strict reader (``_read_header``,
``_number``, ``_darts``): numbers are ASCII digits and edge tokens one
sign and ASCII digits, where ``int`` would also take a sign, an
underscore or a non-ASCII digit.
"""

from __future__ import annotations

import struct

from .embedded import EmbeddedGraph, _check_assembled
from .operations import LopspOperation, LspOperation

PLANAR_CODE_HEADER = b">>planar_code<<"


class ParseError(ValueError):
    """Syntax error with a line (text formats) or byte (binary) position."""

    def __init__(self, message, position):
        super().__init__("%s (at %s)" % (message, position))
        self.position = position


class FormatViolation(ValueError):
    pass


def _number(tok):
    """The value of ASCII digits with whitespace around them, else None."""
    tok = tok.strip()
    return int(tok) if tok.isascii() and tok.isdigit() else None


class _BadToken(Exception):
    """(kind, token, edge) of an edge token with no sign (kind 0), with
    other than ASCII digits (1) or with its edge out of range (2)."""


def _darts(toks, n_edges, seen):
    """Darts of the edge tokens +e and -e, 2e - 2 and 2e - 1 for e in
    1..n_edges, each added to ``seen``, which it must not be in yet."""
    out = []
    for tok in toks:
        sign, digits = tok[0], tok[1:]
        if sign not in "+-" or not (digits.isascii() and digits.isdigit()):
            raise _BadToken(int(sign in "+-"), tok, None)
        e = int(digits)
        if not 1 <= e <= n_edges:
            raise _BadToken(2, tok, e)
        d = 2 * e - 1 if sign == "-" else 2 * e - 2
        if d in seen:
            raise FormatViolation("edge %d appears twice with sign %s" % (e, sign))
        seen.add(d)
        out.append(d)
    return out


def _read_header(text, kinds):
    """(kind, V, E, where, body) of a `<kind> <V> <E>` file: where names
    the header's line, and body holds the non-blank lines after it,
    stripped, each with its line number in the text, blank lines
    counted."""
    lines = [(i, ln) for i, ln in enumerate((raw.strip() for raw in text.splitlines()), 1) if ln]
    if not lines:
        raise ParseError("empty input", "line 1")
    where, header = "line %d" % lines[0][0], lines[0][1].split()
    if len(header) != 3 or header[0] not in kinds:
        raise ParseError("expected header `%s <V> <E>`" % "|".join(kinds), where)
    nv, ne = _number(header[1]), _number(header[2])
    if nv is None or ne is None:
        raise ParseError("bad counts in header", where)
    return header[0], nv, ne, where, lines[1:]


def _parse_signed_rotations(body, n_vertices, n_edges, labels=None):
    """Numbered rotation lines `v: s1 s2 ...` -> the embedded graph.

    Every signed edge is listed once, and the two signs of an edge are
    the darts 2k and 2k + 1, so the darts are complete and paired by
    ``d ^ 1``.  Of the checks of ``from_rotations`` only those of
    ``_check_assembled`` can still fail, so only those run."""
    rotations = [None] * n_vertices
    seen = set()
    for line_no, line in body:
        head, _, rest = line.partition(":")
        v, toks, where = _number(head), rest.split(), "line %d" % line_no
        if v is None:
            raise ParseError("expected `vertex: ...` rotation line", where)
        if not 1 <= v <= n_vertices:
            raise ParseError("vertex %d out of range" % v, where)
        if rotations[v - 1] is not None:
            raise ParseError("vertex %d listed twice" % v, where)
        if not toks:
            raise ParseError("vertex %d has an empty rotation" % v, where)
        try:
            rotations[v - 1] = _darts(toks, n_edges, seen)
        except _BadToken as bad:
            kind, tok, e = bad.args
            raise ParseError(("edge token %r needs a sign" % tok, "bad edge token %r" % tok,
                              "edge %s out of range" % e)[kind], where)
    if None in rotations:
        raise FormatViolation("vertex %d has no rotation line" % (rotations.index(None) + 1))
    if len(seen) < 2 * n_edges:
        d = next(d for d in range(2 * n_edges) if d not in seen)
        raise FormatViolation("edge %d misses its %s occurrence" % (d // 2 + 1, "+-"[d & 1]))
    pairing = [d ^ 1 for d in range(2 * n_edges)]
    g = EmbeddedGraph.from_rotations(rotations, pairing, labels=labels, check=False)
    _check_assembled(g)
    return g


def parse_rot(text):
    """Parse the `rot` format into an embedded graph."""
    _, nv, ne, where, body = _read_header(text, ("rot",))
    if len(body) != nv:
        raise ParseError("expected %d rotation lines, found %d" % (nv, len(body)), where)
    return _parse_signed_rotations(body, nv, ne)


def write_rot(g):
    """Emit a graph in canonical vertex order, so equal graphs give equal
    files.  The lines are read off the canonical code, one per vertex
    block: an entry -1 is the first sight of an edge, which takes the
    next edge number signed +, and an entry q >= 0 is the reverse of the
    dart numbered q, its edge number signed -."""
    code = g.canonical_code()
    lines = ["rot %d %d" % (g.vertex_count, g.edge_count)]
    edge = []  # edge number of each dart, in numbering order
    k = pos = 0
    while pos < len(code):
        end = pos + 2 + code[pos]
        toks = []
        for q in code[pos + 2 : end]:
            if q < 0:
                k += 1
                edge.append(k)
                toks.append("+%d" % k)
            else:
                edge.append(edge[q])
                toks.append("-%d" % edge[q])
        lines.append("%d: %s" % (len(lines), " ".join(toks)))
        pos = end
    return "\n".join(lines) + "\n"


# -- planar code -------------------------------------------------------------


def parse_planar_code(data):
    """All graphs of a planar_code byte stream (simple plane graphs only)."""
    if not data.startswith(PLANAR_CODE_HEADER):
        raise ParseError("missing planar_code header", "byte 0")
    pos = len(PLANAR_CODE_HEADER)
    out = []
    while pos < len(data):
        n, pos, size = data[pos], pos + 1, 1  # size: bytes per number
        if n == 0:
            if pos + 2 > len(data):
                raise ParseError("truncated vertex count", "byte %d" % pos)
            n, pos, size = data[pos] | data[pos + 1] << 8, pos + 2, 2
        neighbours = []
        for v in range(1, n + 1):
            row = []
            while True:
                if pos + size > len(data):
                    raise ParseError("truncated stream", "byte %d" % pos)
                w = data[pos] if size == 1 else data[pos] | data[pos + 1] << 8
                pos += size
                if w == 0:
                    break
                if w == v:
                    raise FormatViolation("planar code import rejects loops (vertex %d)" % v)
                if w in row:
                    raise FormatViolation(
                        "planar code import rejects parallel edges (%d-%d)" % (v, w))
                row.append(w)
            neighbours.append([w - 1 for w in row])
        out.append(EmbeddedGraph.from_adjacency(neighbours))
    return out


def write_planar_code(graphs):
    """Planar code bytes for simple graphs, vertex order preserved."""
    chunks = [PLANAR_CODE_HEADER]
    for g in graphs:
        n = g.vertex_count
        if n > 65535:
            raise FormatViolation("planar code export takes at most 65535 vertices, got %d" % n)
        simple_rows = []
        for v in range(n):
            row = [g.head(d) for d in g.rotations()[v]]
            if v in row or len(set(row)) != len(row):
                raise FormatViolation("planar code export needs a simple graph")
            simple_rows.append(row)
        wide = n > 255
        chunks.append(b"\x00" + struct.pack("<H", n) if wide else bytes([n]))
        for row in simple_rows:
            nums = [w + 1 for w in row] + [0]
            chunks.append(struct.pack("<%dH" % len(nums), *nums) if wide else bytes(nums))
    return b"".join(chunks)


# -- operation files ----------------------------------------------------------


def parse_op(text):
    """Parse an operation file into an LspOperation or LopspOperation."""
    kind, nv, ne, header_at, body = _read_header(text, ("lsp", "lopsp"))
    fields, rot_lines = {}, []  # field -> (tokens, position)
    for i, ln in body:
        key, _, rest = ln.partition(":")
        key = key.strip()
        if key in ("types", "special", "outer"):
            if key in fields:
                raise ParseError("repeated `%s:` line" % key, "line %d" % i)
            fields[key] = (rest.split(), "line %d" % i)
        else:
            rot_lines.append((i, ln))

    def field(key, count, missing):
        """The tokens and position of the `key:` line, which must have ``count``."""
        if key not in fields:
            raise ParseError(missing, header_at)
        toks, where = fields[key]
        if len(toks) != count:
            raise ParseError("`%s:` line has %d entries, expected %d" % (key, len(toks), count),
                             where)
        return toks, where

    def numbers(key):
        toks, where = fields[key]
        out = [_number(tok) for tok in toks]
        if None in out:
            raise ParseError("`%s:` needs integers, got %r" % (key, toks[out.index(None)]), where)
        return out

    field("types", nv, "missing `types:` line")
    _, special_at = field("special", 3, "missing `special: v0 v1 v2` line")
    types = numbers("types")
    v0, v1, v2 = (v - 1 for v in numbers("special"))
    if not all(0 <= v < nv for v in (v0, v1, v2)):
        raise ParseError("special vertex ids must lie in 1..%d" % nv, special_at)
    graph = _parse_signed_rotations(rot_lines, nv, ne, labels=types)
    if kind == "lopsp":
        if "outer" in fields:
            raise FormatViolation("lopsp files carry no outer face")
        return LopspOperation(graph, v0, v1, v2)
    toks, where = field("outer", 1, "lsp files need an `outer: <dart>` line")
    try:
        (outer_dart,) = _darts(toks, ne, set())
    except _BadToken as bad:
        kind, tok, e = bad.args
        if kind == 1:
            raise ParseError("`outer:` needs integers, got %r" % tok[1:], where)
        raise ParseError("outer dart %r needs a sign" % tok if kind == 0
                         else "outer edge %d out of range" % e, where)
    return LspOperation(graph, v0, v1, v2, outer_dart)


def write_op(op):
    """Emit an operation file; vertex ids are kept, rotations start at the
    smallest signed-edge token so the form is stable under reparsing."""
    g = op.graph
    lines = ["%s %d %d" % (op.kind, g.vertex_count, g.edge_count)]
    lines.append("types: " + " ".join(str(t) for t in g.labels))
    lines.append("special: %d %d %d" % (op.v0 + 1, op.v1 + 1, op.v2 + 1))

    def token(d):
        """(edge number, sign); "+" sorts before "-"."""
        e = g.edge_of(d)
        return e + 1, "+" if d == min(g.edge_darts()[e]) else "-"

    def text(toks):
        return " ".join("%s%d" % (sign, e) for e, sign in toks)

    for v, rot in enumerate(g.rotations()):
        toks = [token(d) for d in rot]
        i = toks.index(min(toks))
        lines.append("%d: %s" % (v + 1, text(toks[i:] + toks[:i])))
    if op.kind == "lsp":
        lines.append("outer: " + text([token(op.outer_dart)]))
    return "\n".join(lines) + "\n"
