import io as stdio
import os
import sys

import pytest

from surfops import io as sio
from surfops import polyhedra
from surfops.cli import main
from surfops.operations import catalog

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


def test_facewidth(cube_file, capsys, tmp_path):
    code, out, _ = run(capsys, "facewidth", cube_file)
    assert code == 0 and out.strip() == "inf"
    k7 = tmp_path / "k7.rot"
    k7.write_text(sio.write_rot(polyhedra.k7_torus()), encoding="ascii")
    code, out, _ = run(capsys, "facewidth", str(k7))
    assert code == 0 and out.strip() == "3"


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
