import hashlib
import io as stdio
import os
import sys

import pytest

from surfops import io as sio
from surfops import polyhedra
from surfops.cli import main
from surfops.operations import CATALOG_NAMES, apply, catalog, find_cut_path, lsp_to_lopsp

from conftest import build_corpus
from test_facewidth import tube_sum

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture()
def cube_file(tmp_path):
    path = tmp_path / "cube.rot"
    path.write_text(sio.write_rot(polyhedra.cube()), encoding="ascii")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, err = run(capsys, "catalog")
    assert code == 0
    assert "gyro" in out.split()


def test_validate_catalog(capsys):
    code, out, err = run(capsys, "validate", "gyro")
    assert code == 0
    assert "valid" in out


def test_validate_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.lopsp"
    path.write_text(
        "lopsp 3 3\ntypes: 0 0 2\nspecial: 1 2 3\n1: +1 +3\n2: -1 +2\n3: -2 -3\n",
        encoding="ascii",
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "same-type-edge" in err


@pytest.mark.parametrize("special", ["1 2 9", "0 2 3"])
def test_validate_special_out_of_range(tmp_path, capsys, special):
    text = sio.write_op(catalog("gyro"))
    assert "special: 1 2 3\n" in text
    path = tmp_path / "bad.lopsp"
    path.write_text(text.replace("special: 1 2 3", "special: " + special), encoding="ascii")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "special vertex" in err


def test_canon_empty_rotation_line(tmp_path, capsys):
    path = tmp_path / "bad.rot"
    path.write_text("rot 3 1\n1: +1\n2: -1\n3:\n", encoding="ascii")
    code, out, err = run(capsys, "canon", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "empty rotation" in err and "line 4" in err


def test_canon_isolated_vertex_planar_code(tmp_path, capsys):
    # three vertices, the third without neighbours: a disconnected graph
    path = tmp_path / "isolated.pc"
    path.write_bytes(b">>planar_code<<" + bytes([3, 2, 0, 1, 0, 0]))
    code, out, err = run(capsys, "canon", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "no darts" in err


@pytest.mark.parametrize(
    "field, old, new",
    [
        ("types", "types: 2 0 2 1", "types: 2 0 x 1"),
        ("special", "special: 1 2 3", "special: 1 two 3"),
        ("outer", "outer: -1", "outer: -x"),
    ],
)
def test_validate_non_integer_field(tmp_path, capsys, field, old, new):
    text = sio.write_op(catalog("ambo"))
    assert old + "\n" in text
    path = tmp_path / "bad.lsp"
    path.write_text(text.replace(old, new), encoding="ascii")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "`%s:`" % field in err
    assert "invalid literal" not in err


def test_classify_gyro(capsys):
    code, out, err = run(capsys, "classify", "gyro")
    assert code == 0
    assert out.split()[0] == "3"


def test_classify_bad_op(capsys):
    code, out, err = run(capsys, "classify", os.path.join(DATA, "sprout.lopsp"))
    assert code == 0
    assert out.split()[0] == "1"
    assert "witness" in out


def test_apply_pipe_equals_direct_canon(cube_file, capsys, monkeypatch):
    code, out, err = run(capsys, "apply", "truncation", cube_file)
    assert code == 0
    monkeypatch.setattr(sys, "stdin", stdio.StringIO(out))
    code, canon_piped, err = run(capsys, "canon", "-")
    assert code == 0
    # truncated cube built independently from coordinates
    trunc = _truncated_cube_reference()
    assert canon_piped.strip() == " ".join(map(str, trunc.canonical_code()))


def _truncated_cube_reference():
    from surfops.polyhedra import _from_coordinates

    xi = 2 ** 0.5 - 1
    pts = []
    for x in (-xi, xi):
        for y in (-1, 1):
            for z in (-1, 1):
                pts += [(x, y, z), (z, x, y), (y, z, x)]
    return _from_coordinates(pts)


def test_batch_planar_code_stream(tmp_path, capsys):
    stream = tmp_path / "two.pc"
    stream.write_bytes(
        sio.write_planar_code([polyhedra.tetrahedron(), polyhedra.cube()])
    )
    code, out, _ = run(capsys, "canon", str(stream))
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 2
    assert lines[0] == " ".join(map(str, polyhedra.tetrahedron().canonical_code()))
    assert lines[1] == " ".join(map(str, polyhedra.cube().canonical_code()))
    code, out, _ = run(capsys, "apply", "dual", str(stream))
    assert code == 0
    assert out.count("rot ") == 2


def test_apply_seeded_random_deterministic(cube_file, capsys):
    code1, out1, _ = run(
        capsys, "apply", "gyro", cube_file, "--cut-path", "random", "--seed", "7"
    )
    code2, out2, _ = run(
        capsys, "apply", "gyro", cube_file, "--cut-path", "random", "--seed", "7"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_apply_random_cut_path_of_lsp_operation(cube_file, capsys, monkeypatch):
    """``--cut-path random`` on an lsp-operation glues its double along
    the seeded path, here not the minimal one, with the same output."""
    from surfops import operations

    meta = os.path.join(DATA, "meta.lsp")
    applied = []
    glue = operations.apply
    monkeypatch.setattr(operations, "apply",
                        lambda op, g, cut_path=None: applied.append(op) or glue(op, g, cut_path))
    code, minimal, err = run(capsys, "apply", meta, cube_file)
    assert (code, err) == (0, "")
    code, randomised, err = run(capsys, "apply", meta, cube_file, "--cut-path", "random",
                                "--seed", "0")
    assert (code, err) == (0, "")
    assert randomised == minimal
    double = lsp_to_lopsp(applied[-1])
    path = find_cut_path(double, "seeded-random", seed=0)
    assert path != find_cut_path(double)
    assert set(double._templates) == {path}


def test_facewidth(cube_file, capsys, tmp_path):
    code, out, _ = run(capsys, "facewidth", cube_file)
    assert code == 0 and out.strip() == "inf"
    k7 = tmp_path / "k7.rot"
    k7.write_text(sio.write_rot(polyhedra.k7_torus()), encoding="ascii")
    code, out, _ = run(capsys, "facewidth", str(k7))
    assert code == 0 and out.strip() == "3"
    g = polyhedra.k7_torus()
    for _ in range(2):
        g = apply(catalog("gyro"), g).result
    gyro2 = tmp_path / "gyro2_k7.rot"
    gyro2.write_text(sio.write_rot(g), encoding="ascii")
    code, out, _ = run(capsys, "facewidth", str(gyro2))
    assert code == 0 and out.strip() == "12"


def test_ckcheck_both_methods(cube_file, capsys):
    code, out, _ = run(capsys, "ckcheck", cube_file, "-k", "3")
    assert code == 0 and "c3=yes" in out
    code, out, _ = run(capsys, "ckcheck", cube_file, "-k", "3", "--method", "cycles")
    assert code == 0 and "c3=yes" in out


def test_ddsymbol_and_curvature(capsys):
    code, out, _ = run(capsys, "ddsymbol", "truncation")
    assert code == 0 and out.startswith("dd 3")
    code, out, _ = run(capsys, "curvature", "snub")
    assert code == 0 and out.strip() == "0"


def test_convert_emits_valid_lopsp(capsys):
    code, out, _ = run(capsys, "convert", "ambo")
    assert code == 0
    op = sio.parse_op(out)
    assert op.validate() == []


def test_iso_cube_files(cube_file, tmp_path, capsys):
    other = tmp_path / "cube2.rot"
    other.write_text(sio.write_rot(polyhedra.cube()), encoding="ascii")
    code, out, _ = run(capsys, "iso", cube_file, str(other))
    assert code == 0 and out.strip() == "isomorphic"
    oct_file = tmp_path / "oct.rot"
    oct_file.write_text(sio.write_rot(polyhedra.octahedron()), encoding="ascii")
    code, out, _ = run(capsys, "iso", cube_file, str(oct_file))
    assert code == 0 and out.strip() == "not-isomorphic"


def test_planar_code_input(tmp_path, capsys):
    path = tmp_path / "cube.pc"
    path.write_bytes(sio.write_planar_code([polyhedra.cube()]))
    code, out, _ = run(capsys, "facewidth", str(path))
    assert code == 0 and out.strip() == "inf"


def test_usage_errors_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "facewidth", str(tmp_path / "missing.rot"))
    assert code == 2
    assert "error" in err
    code, out, err = run(capsys, "convert", "gyro")
    assert code == 2


def test_catalog_env_override(tmp_path, capsys, monkeypatch):
    import surfops.operations as op_mod

    monkeypatch.setenv(op_mod.CATALOG_ENV, str(tmp_path))
    monkeypatch.setattr(op_mod, "_catalog_cache", {})
    code, out, err = run(capsys, "validate", "gyro")
    assert code == 2  # not found in the overridden directory


def test_internal_invariant_exit_3(cube_file, capsys, monkeypatch):
    """A broken invariant of the eager glue path: a compiled template
    whose fan lists a result dart twice."""
    gyro = catalog("gyro")
    apply(gyro, polyhedra.cube())  # compiles the template
    tm = gyro._templates[None]
    i = next(i for i, fan in enumerate(tm.fans) if fan[3])
    vertex, first, nxt, heads = tm.fans[i]
    fans = tm.fans[:i] + [(vertex, first, nxt, heads + heads[:1])] + tm.fans[i + 1:]
    monkeypatch.setattr(tm, "fans", fans)
    code, out, err = run(capsys, "apply", "gyro", cube_file)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: internal-invariant glue: a result dart is listed twice or not at all"]


@pytest.mark.parametrize("name", ["gyro", "ambo"])
def test_apply_writes_without_subdivision(name, tmp_path, capsys, monkeypatch):
    """``apply`` on the command line glues no triangulation once the
    operation is compiled (ambo is glued as its double).  T is built on
    its first read, once."""
    from surfops import operations

    paths = []
    for g in (polyhedra.cube(), polyhedra.k7_torus()):
        paths.append(tmp_path / ("%d.rot" % len(paths)))
        paths[-1].write_text(sio.write_rot(g), encoding="ascii")
    assert run(capsys, "apply", name, str(paths[0]))[0] == 0  # compiles the operation
    calls = []
    assemble = operations._assemble
    monkeypatch.setattr(operations, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    for path in paths:
        code, out, err = run(capsys, "apply", name, str(path))
        assert code == 0 and out.startswith("rot ")
    assert calls == []
    res = operations.apply(catalog(name), polyhedra.k7_torus())
    assert calls == []
    t = res.subdivision
    assert len(calls) == 1
    assert res.subdivision is t
    assert res.pi_face and res.edge_cells and res.result_edge_node
    assert len(calls) == 1


# ``classify`` reads the lazily built triangulation: its witness darts
# must keep their numbering
CLASSIFY_STDOUT = {
    **{name: "3\n" for name in ("identity", "dual", "truncation", "ambo", "join", "gyro", "snub")},
    "meta.lsp": "3\n",
    "pendant.lopsp": "2\nwitness four_cycle darts 49 56 55 50\n"
                     "witness cells single=False two-adjacent=True\n",
    "sprout.lopsp": "1\nwitness two_cycle darts 48 32\n"
                    "witness cells single=True two-adjacent=True\n",
}


def data_path(arg):
    """A ``tests/data`` file for an operation named with its extension."""
    return os.path.join(DATA, arg) if arg.endswith((".lsp", ".lopsp")) else arg


@pytest.mark.parametrize("name", sorted(CLASSIFY_STDOUT))
def test_classify_stdout(name, capsys):
    code, out, err = run(capsys, "classify", data_path(name))
    assert (code, out, err) == (0, CLASSIFY_STDOUT[name], "")


def test_apply_output_to_missing_directory(cube_file, capsys, tmp_path):
    target = tmp_path / "missing" / "out.rot"
    code, out, err = run(capsys, "apply", "gyro", cube_file, "-o", str(target))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write %s: " % target)
    assert not target.exists()


APPLY_OPERATIONS = CATALOG_NAMES + ("meta.lsp", "pendant.lopsp", "sprout.lopsp")

# the face-width and ck checks, and ``apply`` of every catalog and
# ``tests/data`` operation, run on each graph of the stdout corpus, which
# goes last on the command line
CHECK_COMMANDS = (
    ("facewidth",),
    ("ckcheck", "-k", "1"),
    ("ckcheck", "-k", "2"),
    ("ckcheck", "-k", "3"),
    ("ckcheck", "-k", "2", "--method", "cycles"),
    ("ckcheck", "-k", "3", "--method", "cycles"),
) + tuple(("apply", name) for name in APPLY_OPERATIONS)

# sha256 of the concatenated stdout of each command over the stdout corpus:
# the checks as given by the face-width search on all of B_G without its
# edge vertices, ``apply`` as given by gluing an lsp-operation's plain and
# mirrored copies into the chambers of B_G
CHECK_STDOUT_SHA256 = {
    "facewidth":
        "bddf34c6467477b3ddd0853e39cc04897aa7e43a8bee481fee7c86053affdfc8",
    "ckcheck -k 1":
        "8e4e89cad23b3be1b9a822b012215764637ed3de8c3f6f9a47917e3013011ce2",
    "ckcheck -k 2":
        "19e9418bacc3e15f9e9086e4739ca862e94376717de1d3ea1fbf299bd8d9efd2",
    "ckcheck -k 3":
        "c02e1eea469cdc536dfaf82624aa1c4570f8385d5baa67b6305fb3b4f3d9f3a3",
    "ckcheck -k 2 --method cycles":
        "cf01ff2aac7e702c7b655907eee848ccb4f9c503a05ee5082511774977efa6f1",
    "ckcheck -k 3 --method cycles":
        "8b91e4f2260210bbaa7fdf3baa83db1f8bbf6242d8406aff66c275a2400f415a",
    "apply identity":
        "42941e3d255308d23fe134a2c943ab86b7be30eab25fcb1a6468733414ba9109",
    "apply dual":
        "07ce7283eb02bb9248f2fc155072aa26bcb060b3a337b647d7e176f98f2f5870",
    "apply truncation":
        "4c0d057e3dfb313c623ae7b1820d92d8f1dec934dbe133ca998b18731833130c",
    "apply ambo":
        "1ae2490781c1af67307e22b34a3a53adad491ad41f9280754f68068fd5baca37",
    "apply join":
        "5b4fffd2456e99fab0fe2c9b6d911770e63b3179a9712552127fa2a7cc6e7cdd",
    "apply gyro":
        "ee305ec66cd239ab3d28cef4ecd79d76fa7d911c5aa13779cc201568bd95e4b0",
    "apply snub":
        "d1903b7beb076edf9ee26422114259b325be0c0e69b7bb2bf16820b10e6bc110",
    "apply meta.lsp":
        "bdddc6fbe31da28d5d525d446b9d221065f1d837ca33a9cbd867ad8ba5ac061e",
    "apply pendant.lopsp":
        "86be659e8175698de16a1c0ad399dbf451e7e04c808a3ae3a1951358da83b2ac",
    "apply sprout.lopsp":
        "6ba2a4ab4071f496c07c544a3cb22c79c96c4b3cc6435a3b31e72ac66d8f7659",
}


def stdout_corpus(tmp_path):
    """rot files of the 52-graph corpus and of the six K7 tube sums of
    genus 2 and 3 with tubes of 1, 2 and 3 edges."""
    k7 = polyhedra.k7_torus()
    graphs = list(build_corpus().values())
    for k in (1, 2, 3):
        two = tube_sum(k7, k7, k)
        graphs += [two, tube_sum(two, k7, k)]
    paths = []
    for i, g in enumerate(graphs):
        path = tmp_path / ("g%02d.rot" % i)
        path.write_text(sio.write_rot(g), encoding="ascii")
        paths.append(str(path))
    return paths


def test_check_stdout_is_pinned(tmp_path, capsys):
    paths = stdout_corpus(tmp_path)
    assert len(paths) == 58
    for argv in CHECK_COMMANDS:
        digest = hashlib.sha256()
        for path in paths:
            code, out, err = run(capsys, *map(data_path, argv), path)
            assert (code, err) == (0, "")
            digest.update(out.encode("ascii"))
        assert digest.hexdigest() == CHECK_STDOUT_SHA256[" ".join(argv)], argv
