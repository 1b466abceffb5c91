"""File formats: signed-edge rotation files, plantri planar code, and the
operation format.

The rot format lists, per vertex, the incident edges in clockwise order
as signed 1-based edge identifiers; every edge appears once with each
sign, a loop shows both signs on one line.  That makes loops and parallel
edges unambiguous, which neighbour lists are not.  Planar code is
supported for interoperability with standard plane-graph generators and
therefore restricted to simple graphs.
"""

from __future__ import annotations

import struct

from .embedded import EmbeddedGraph
from .operations import LopspOperation, LspOperation

PLANAR_CODE_HEADER = b">>planar_code<<"


class ParseError(ValueError):
    """Syntax error with a line (text formats) or byte (binary) position."""

    def __init__(self, message, position):
        super().__init__("%s (at %s)" % (message, position))
        self.position = position


class FormatViolation(ValueError):
    pass


def _parse_signed_rotations(lines, n_vertices, n_edges, first_line_no):
    """Rotation lines `v: s1 s2 ...` -> (rotations, pairing)."""
    rotations = [None] * n_vertices
    sign_seen = {}
    for offset, line in enumerate(lines):
        line_no = first_line_no + offset
        head, _, rest = line.partition(":")
        try:
            v = int(head)
        except ValueError:
            raise ParseError("expected `vertex: ...` rotation line", "line %d" % line_no)
        if not 1 <= v <= n_vertices:
            raise ParseError("vertex %d out of range" % v, "line %d" % line_no)
        if rotations[v - 1] is not None:
            raise ParseError("vertex %d listed twice" % v, "line %d" % line_no)
        rot = []
        for tok in rest.split():
            if tok[0] not in "+-":
                raise ParseError("edge token %r needs a sign" % tok, "line %d" % line_no)
            try:
                e = int(tok[1:])
            except ValueError:
                raise ParseError("bad edge token %r" % tok, "line %d" % line_no)
            if not 1 <= e <= n_edges:
                raise ParseError("edge %d out of range" % e, "line %d" % line_no)
            side = 0 if tok[0] == "+" else 1
            key = (e, side)
            if key in sign_seen:
                raise FormatViolation(
                    "edge %d appears twice with sign %s" % (e, tok[0])
                )
            sign_seen[key] = True
            rot.append(2 * (e - 1) + side)
        rotations[v - 1] = rot
    for v in range(n_vertices):
        if rotations[v] is None:
            raise FormatViolation("vertex %d has no rotation line" % (v + 1))
    for e in range(1, n_edges + 1):
        for side in (0, 1):
            if (e, side) not in sign_seen:
                raise FormatViolation(
                    "edge %d misses its %s occurrence" % (e, "+-"[side])
                )
    pairing = [d ^ 1 for d in range(2 * n_edges)]
    return rotations, pairing


def parse_rot(text):
    """Parse the `rot` format into an embedded graph."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty input", "line 1")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "rot":
        raise ParseError("expected header `rot <V> <E>`", "line 1")
    try:
        nv, ne = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError("bad counts in header", "line 1")
    if len(lines) - 1 != nv:
        raise ParseError(
            "expected %d rotation lines, found %d" % (nv, len(lines) - 1), "line 2"
        )
    rotations, pairing = _parse_signed_rotations(lines[1:], nv, ne, 2)
    return EmbeddedGraph.from_rotations(rotations, pairing)


def _emit_rotation_lines(g, vertex_order, entry):
    """Rotation lines in a given vertex order; edges numbered by first
    appearance, + on first sight."""
    edge_id = {}
    lines = []
    for new_v, v in enumerate(vertex_order):
        d = entry[v]
        toks = []
        for _ in range(g.degree(v)):
            e = g.edge_of(d)
            if e not in edge_id:
                edge_id[e] = len(edge_id) + 1
                toks.append("+%d" % edge_id[e])
            else:
                toks.append("-%d" % edge_id[e])
            d = g.sigma[d]
        lines.append("%d: %s" % (new_v + 1, " ".join(toks)))
    return lines


def write_rot(g):
    """Emit a graph in canonical vertex order, so equal graphs give equal
    files."""
    vertex_order, entry = g.canonical_traversal()
    lines = ["rot %d %d" % (g.vertex_count, g.edge_count)]
    lines += _emit_rotation_lines(g, vertex_order, entry)
    return "\n".join(lines) + "\n"


# -- planar code -------------------------------------------------------------


def parse_planar_code(data):
    """All graphs of a planar_code byte stream (simple plane graphs only)."""
    if not data.startswith(PLANAR_CODE_HEADER):
        raise ParseError("missing planar_code header", "byte 0")
    pos = len(PLANAR_CODE_HEADER)
    out = []
    while pos < len(data):
        wide = False
        n = data[pos]
        pos += 1
        if n == 0:
            wide = True
            if pos + 2 > len(data):
                raise ParseError("truncated vertex count", "byte %d" % pos)
            n = struct.unpack_from("<H", data, pos)[0]
            pos += 2

        def read_number():
            nonlocal pos
            if wide:
                if pos + 2 > len(data):
                    raise ParseError("truncated stream", "byte %d" % pos)
                x = struct.unpack_from("<H", data, pos)[0]
                pos += 2
            else:
                if pos >= len(data):
                    raise ParseError("truncated stream", "byte %d" % pos)
                x = data[pos]
                pos += 1
            return x

        neighbours = []
        for v in range(1, n + 1):
            row = []
            while True:
                w = read_number()
                if w == 0:
                    break
                if w == v:
                    raise FormatViolation(
                        "planar code import rejects loops (vertex %d)" % v
                    )
                if w in row:
                    raise FormatViolation(
                        "planar code import rejects parallel edges (%d-%d)" % (v, w)
                    )
                row.append(w)
            neighbours.append([w - 1 for w in row])
        out.append(EmbeddedGraph.from_adjacency(neighbours))
    return out


def write_planar_code(graphs):
    """Planar code bytes for simple graphs, vertex order preserved."""
    chunks = [PLANAR_CODE_HEADER]
    for g in graphs:
        simple_rows = []
        for v in range(g.vertex_count):
            row = [g.head(d) for d in g.rotations()[v]]
            if v in row or len(set(row)) != len(row):
                raise FormatViolation("planar code export needs a simple graph")
            simple_rows.append(row)
        n = g.vertex_count
        wide = n > 255
        if wide:
            chunks.append(b"\x00" + struct.pack("<H", n))
        else:
            chunks.append(bytes([n]))
        for row in simple_rows:
            nums = [w + 1 for w in row] + [0]
            if wide:
                chunks.append(b"".join(struct.pack("<H", x) for x in nums))
            else:
                chunks.append(bytes(nums))
    return b"".join(chunks)


# -- operation files ----------------------------------------------------------


def parse_op(text):
    """Parse an operation file into an LspOperation or LopspOperation."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty input", "line 1")
    header = lines[0].split()
    if len(header) != 3 or header[0] not in ("lsp", "lopsp"):
        raise ParseError("expected header `lsp|lopsp <V> <E>`", "line 1")
    kind = header[0]
    try:
        nv, ne = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError("bad counts in header", "line 1")
    fields = {}
    rot_lines = []
    rot_start = None
    for i, ln in enumerate(lines[1:], start=2):
        key, _, rest = ln.partition(":")
        key = key.strip()
        if key in ("types", "special", "outer"):
            fields[key] = rest.split()
        else:
            rot_lines.append(ln)
            rot_start = rot_start or i
    if "types" not in fields or len(fields["types"]) != nv:
        raise ParseError("missing or short `types:` line", "line 2")
    if "special" not in fields or len(fields["special"]) != 3:
        raise ParseError("missing `special: v0 v1 v2` line", "line 2")
    types = [int(t) for t in fields["types"]]
    v0, v1, v2 = (int(v) - 1 for v in fields["special"])
    if not all(0 <= v < nv for v in (v0, v1, v2)):
        raise ParseError("special vertex ids must lie in 1..%d" % nv, "special line")
    rotations, pairing = _parse_signed_rotations(rot_lines, nv, ne, rot_start or 2)
    graph = EmbeddedGraph.from_rotations(rotations, pairing, labels=types)
    if kind == "lopsp":
        if "outer" in fields:
            raise FormatViolation("lopsp files carry no outer face")
        return LopspOperation(graph, v0, v1, v2)
    if "outer" not in fields or len(fields["outer"]) != 1:
        raise ParseError("lsp files need an `outer: <dart>` line", "line 2")
    tok = fields["outer"][0]
    if tok[0] not in "+-":
        raise ParseError("outer dart %r needs a sign" % tok, "outer line")
    e = int(tok[1:])
    if not 1 <= e <= ne:
        raise ParseError("outer edge %d out of range" % e, "outer line")
    outer_dart = 2 * (e - 1) + (0 if tok[0] == "+" else 1)
    return LspOperation(graph, v0, v1, v2, outer_dart)


def write_op(op):
    """Emit an operation file; vertex ids are kept, rotations start at the
    smallest signed-edge token so the form is stable under reparsing."""
    g = op.graph
    kind = "lsp" if isinstance(op, LspOperation) else "lopsp"
    lines = ["%s %d %d" % (kind, g.vertex_count, g.edge_count)]
    lines.append("types: " + " ".join(str(t) for t in g.labels))
    lines.append(
        "special: %d %d %d" % (op.v0 + 1, op.v1 + 1, op.v2 + 1)
    )

    def token(d):
        e = g.edge_of(d)
        sign = "+" if d == min(g.edge_darts()[e]) else "-"
        return "%s%d" % (sign, e + 1)

    for v in range(g.vertex_count):
        rot = g.rotations()[v]
        toks = [token(d) for d in rot]
        smallest = min(range(len(toks)), key=lambda i: (int(toks[i][1:]), toks[i][0] == "-"))
        toks = toks[smallest:] + toks[:smallest]
        lines.append("%d: %s" % (v + 1, " ".join(toks)))
    if kind == "lsp":
        lines.append("outer: " + token(op.outer_dart))
    return "\n".join(lines) + "\n"
