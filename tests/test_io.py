import pytest

from surfops import io, polyhedra
from surfops import operations as ops
from surfops.embedded import EmbeddedGraph

from conftest import cycle, loop_vertex, theta


def test_rot_roundtrip_canonical():
    text = io.write_rot(polyhedra.tetrahedron())
    g = io.parse_rot(text)
    assert g.iso(polyhedra.tetrahedron())
    assert io.write_rot(g) == text  # canonical content is a fixed point


def test_rot_roundtrip_all(corpus):
    for name, g in corpus.items():
        text = io.write_rot(g)
        h = io.parse_rot(text)
        assert h.iso(g), name
        assert io.write_rot(h) == text, name


def test_rot_loops_and_parallels():
    text = io.write_rot(loop_vertex())
    g = io.parse_rot(text)
    assert g.edge_count == 1 and g.vertex_count == 1
    text = io.write_rot(theta())
    assert io.parse_rot(text).iso(theta())


def test_rot_parse_errors_carry_positions():
    with pytest.raises(io.ParseError) as err:
        io.parse_rot("rot x y\n")
    assert "line 1" in str(err.value)
    with pytest.raises(io.ParseError):
        io.parse_rot("rot 2 1\n1: +1\n")  # missing a line
    with pytest.raises(io.FormatViolation):
        io.parse_rot("rot 2 1\n1: +1\n2: +1\n")  # sign used twice


@pytest.mark.parametrize("token", ["++1", "-+1", "+-1", "+\u0661", "+1_0", "+\u00b9", "+"])
def test_rot_edge_token_is_one_sign_and_ascii_digits(token):
    """``int`` takes a second sign, an underscore and non-ASCII digits;
    an edge token takes none of them, in ``rot`` and operation files
    alike, which share the parser."""
    with pytest.raises(io.ParseError, match="^bad edge token"):
        io.parse_rot("rot 2 1\n1: %s\n2: -1\n" % token)
    text = io.write_op(ops.catalog("gyro"))
    assert "\n1: +1 +4\n" in text
    with pytest.raises(io.ParseError, match="^bad edge token"):
        io.parse_op(text.replace("\n1: +1 +4\n", "\n1: %s +4\n" % token))


def _op_text(name, old, new):
    text = io.write_op(ops.catalog(name))
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("parse, text, message", [
    (io.parse_rot, "rot +1 1\n1: +1 -1\n", "bad counts in header"),
    (io.parse_rot, "rot 1 +0_1\n1: +1 -1\n", "bad counts in header"),
    (io.parse_rot, "rot 1 1\n+1: +1 -1\n", "expected `vertex: ...` rotation line"),
    (io.parse_rot, "rot 1 1\n\u0661: +1 -1\n", "expected `vertex: ...` rotation line"),
    (io.parse_op, _op_text("gyro", "types: 0", "types: +2"), "`types:` needs integers, got '+2'"),
    (io.parse_op, _op_text("gyro", "special: 1 2 3", "special: \u0661 2 3"),
     "`special:` needs integers, got '\u0661'"),
    (io.parse_op, _op_text("ambo", "outer: -1", "outer: -0_1"),
     "`outer:` needs integers, got '0_1'"),
], ids=["signed-count", "underscore-count", "signed-vertex", "arabic-indic-vertex", "signed-type",
        "arabic-indic-special", "underscore-outer"])
def test_numbers_are_ascii_digits(parse, text, message):
    """Counts, vertex numbers, `types:`, `special:` and the edge number
    of `outer:` are ASCII digits: ``int`` would take each of these."""
    with pytest.raises(io.ParseError) as err:
        parse(text)
    assert str(err.value).startswith(message + " (at ")


def test_whitespace_around_a_vertex_number_parses():
    assert io.parse_rot("rot 1 1\n 1 : +1 -1\n").iso(loop_vertex())


def test_op_rotation_lines_keep_their_line_numbers():
    """A rotation line after the `types:` and `special:` lines is
    reported at its own line, not counted among the rotation lines."""
    lines = io.write_op(ops.catalog("gyro")).splitlines()
    assert lines[1].startswith("types:") and lines[4] == "2: -3 -13"
    lines = [lines[0], lines[3], lines[1], lines[2], "2: x3 -13"] + lines[5:]
    with pytest.raises(io.ParseError, match=r"^edge token 'x3' needs a sign \(at line 5\)$"):
        io.parse_op("\n".join(lines))


@pytest.mark.parametrize("text, where", [
    ("rot 2 1\n\n1: +1\n2: x1\n", 4),
    ("rot 2 1\n1: +1\n\n\n2: -2\n", 5),
    ("\n\nrot x 1\n1: +1 -1\n", 3),
], ids=["blank-line", "two-blank-lines", "header-after-blank-lines"])
def test_rot_errors_count_blank_lines(text, where):
    """A line is numbered as it stands in the text, blank lines counted,
    and a header error names the header's own line."""
    with pytest.raises(io.ParseError, match=r"\(at line %d\)$" % where):
        io.parse_rot(text)


def test_op_errors_count_blank_lines():
    lines = io.write_op(ops.catalog("gyro")).splitlines()
    assert lines[4] == "2: -3 -13"
    lines[4] = "2: x3 -13"
    with pytest.raises(io.ParseError, match=r"^edge token 'x3' needs a sign \(at line 7\)$"):
        io.parse_op("\n".join(lines[:2] + ["", ""] + lines[2:]))


def test_missing_rotation_lines_name_the_header():
    with pytest.raises(io.ParseError, match=r"^expected 2 rotation lines, found 1 \(at line 3\)$"):
        io.parse_rot("\n\nrot 2 1\n1: +1 -1\n")


@pytest.mark.parametrize("old, new, message", [
    ("types: 2 0 2 1\n", "", "missing `types:` line (at line 3)"),
    ("types: 2 0 2 1", "types: 2 0 2", "`types:` line has 3 entries, expected 4 (at line 4)"),
    ("types: 2 0 2 1", "types: 2 0 2 1 0", "`types:` line has 5 entries, expected 4 (at line 4)"),
    ("special: 1 2 3\n", "", "missing `special: v0 v1 v2` line (at line 3)"),
    ("special: 1 2 3", "special: 1 2 3 4", "`special:` line has 4 entries, expected 3 (at line 5)"),
    ("special: 1 2 3", "special: 1 2 9", "special vertex ids must lie in 1..4 (at line 5)"),
    ("outer: -1\n", "", "lsp files need an `outer: <dart>` line (at line 3)"),
    ("outer: -1", "outer: -1 +2", "`outer:` line has 2 entries, expected 1 (at line 10)"),
    ("outer: -1", "outer: -99", "outer edge 99 out of range (at line 10)"),
    ("special: 1 2 3\n", "special: 1 2 3\ntypes: 2 0 2 1\n", "repeated `types:` line (at line 6)"),
    ("special: 1 2 3\n", "special: 1 2 3\nspecial: 1 2 3\n",
     "repeated `special:` line (at line 6)"),
    ("outer: -1", "outer: -1\nouter: -1", "repeated `outer:` line (at line 11)"),
], ids=["types", "short-types", "long-types", "special", "long-special", "special-range",
        "outer", "long-outer", "outer-range", "repeated-types", "repeated-special",
        "repeated-outer"])
def test_op_field_errors_name_their_line(old, new, message):
    """A missing field is reported at the header's line, a bad one or a
    repeated one at its own; the header here follows two blank lines."""
    text = io.write_op(ops.catalog("ambo"))
    assert old in text
    with pytest.raises(io.ParseError) as err:
        io.parse_op("\n\n" + text.replace(old, new, 1))
    assert str(err.value) == message


def test_planar_code_is_checked_once(monkeypatch):
    """Planar code rows are proven simple and listed at both ends, so the
    graphs are built unchecked and only ``_check_assembled`` runs."""
    checked = []
    from_rotations = EmbeddedGraph.from_rotations.__func__

    def recording(cls, rotations, pairing, labels=None, check=True):
        checked.append(check)
        return from_rotations(cls, rotations, pairing, labels, check)

    graphs = [polyhedra.cube(), polyhedra.k7_torus(), cycle(300)]
    data = io.write_planar_code(graphs)
    monkeypatch.setattr(EmbeddedGraph, "from_rotations", classmethod(recording))
    parsed = io.parse_planar_code(data)
    assert checked == [False] * 3
    monkeypatch.undo()
    assert all(h.iso(g) for g, h in zip(graphs, parsed))


def test_planar_code_roundtrip_bytes():
    data = io.write_planar_code([polyhedra.cube()])
    graphs = io.parse_planar_code(data)
    assert len(graphs) == 1
    assert graphs[0].iso(polyhedra.cube())
    assert io.write_planar_code(graphs) == data


def test_planar_code_multiple_graphs():
    gs = [polyhedra.tetrahedron(), polyhedra.octahedron()]
    data = io.write_planar_code(gs)
    parsed = io.parse_planar_code(data)
    assert len(parsed) == 2
    assert parsed[0].iso(gs[0]) and parsed[1].iso(gs[1])


def test_planar_code_rejects_multigraphs():
    with pytest.raises(io.FormatViolation):
        io.write_planar_code([theta()])
    # header + 1 vertex with a loop entry
    bad = io.PLANAR_CODE_HEADER + bytes([2, 2, 2, 0, 1, 0])
    with pytest.raises(io.FormatViolation):
        io.parse_planar_code(bad)


def test_planar_code_header_required():
    with pytest.raises(io.ParseError):
        io.parse_planar_code(b"nonsense")


def test_planar_code_wide_counts():
    big = cycle(300)
    data = io.write_planar_code([big])
    (parsed,) = io.parse_planar_code(data)
    assert parsed.vertex_count == 300
    assert parsed.iso(big)
    assert io.write_planar_code([parsed]) == data


def test_planar_code_export_names_the_vertex_limit():
    """Two-byte numbers stop at 65535 vertices; one more is a
    FormatViolation, not a struct.error."""
    with pytest.raises(io.FormatViolation, match="65535"):
        io.write_planar_code([cycle(65536)])


def test_op_roundtrip_catalog():
    for name in ops.catalog_names():
        op = ops.catalog(name)
        text = io.write_op(op)
        op2 = io.parse_op(text)
        assert type(op2) is type(op)
        assert op2.validate() == []
        assert io.write_op(op2) == text
        assert op2.graph.iso(op.graph)


def test_op_roundtrip_doubled():
    lop = ops.lsp_to_lopsp(ops.catalog("truncation"))
    text = io.write_op(lop)
    op2 = io.parse_op(text)
    assert op2.validate() == []
    assert op2.graph.iso(lop.graph)


def test_op_parse_requires_outer_for_lsp():
    text = io.write_op(ops.catalog("ambo"))
    broken = "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("outer")
    )
    with pytest.raises(io.ParseError):
        io.parse_op(broken)


def test_op_parse_rejects_outer_for_lopsp():
    text = io.write_op(ops.catalog("gyro")) + "outer: +1\n"
    with pytest.raises(io.FormatViolation):
        io.parse_op(text)
