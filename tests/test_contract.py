"""The input contract: properties over random multigraphs, a seeded
fuzz of the command line, the rules that ``src/`` is stdlib-only and
exact (no floating point), and the names ``perfbench/tracing.py``
traces.

The properties draw graphs from ``polyhedra.random_embedded``, which
gives loops, parallel edges and any genus.  The fuzz mutates tokens and
bytes of valid inputs (the catalog files, the cube and K7 as rot and
planar code) and runs each through ``cli.main``: every call must end in
exit 0, 1 or 2, never in an exception, and every stderr line must be an
``error:`` line, a single one on exit 2.

The names the benchmark's tracer wraps must exist in the package: a
missing one would be skipped, and its metrics would read 0.  And every
top-level function and class of the package must have a caller outside
the tests, so that fixtures and test-only helpers live in ``tests/``.
"""

import ast
import hashlib
import importlib
import importlib.util
import os
import random
import re
import symtable
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import surfops
from surfops import io, polyhedra
from surfops import operations as ops
from surfops.cli import main

from conftest import relabeled

SRC = os.path.dirname(surfops.__file__)
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


# ---------------------------------------------------------------------------
# properties over random multigraphs

random_graphs = st.builds(
    lambda seed, edges: polyhedra.random_embedded(random.Random(seed), edges),
    st.integers(0, 2**32 - 1),
    st.integers(1, 24),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(g=random_graphs)
def test_rot_text_is_a_fixed_point(g):
    text = io.write_rot(g)
    h = io.parse_rot(text)
    assert io.write_rot(h) == text
    assert h.canonical_code() == g.canonical_code()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=random_graphs, seed=st.integers(0, 2**32 - 1))
def test_canonical_code_ignores_labelling(g, seed):
    assert relabeled(g, seed).canonical_code() == g.canonical_code()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(g=random_graphs)
def test_dual_of_dual_is_isomorphic(g):
    assert g.dual().dual().canonical_code() == g.canonical_code()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(g=random_graphs)
def test_identity_operation_is_isomorphic(g):
    assert ops.apply(ops.catalog("identity"), g).result.canonical_code() == g.canonical_code()


# ---------------------------------------------------------------------------
# command-line fuzz

FUZZ_CASES = 400
# sha256 over every case's argv, exit code, stderr and stdout digest: any
# parse or validation message that moves or changes shows here
FUZZ_SURFACE_SHA256 = "c3218a8e15a4709c370fda9492f084d9529182b39e1cbfe9fccf4abfed71a2f6"
TOKENS = (b"0", b"1", b"2", b"-1", b"+1", b"-2", b"+7", b"99", b"x", b"", b":", b"1:",
          b"+0", b"rot", b"lsp", b"lopsp", b"types:", b"outer:", b"special:")
COMMANDS = {  # INPUT is the mutated file, CUBE an intact graph
    "graph": (("canon", "INPUT"), ("facewidth", "INPUT"), ("ckcheck", "INPUT", "-k", "3"),
              ("ckcheck", "INPUT", "-k", "2", "--method", "cycles"), ("apply", "gyro", "INPUT")),
    "op": (("validate", "INPUT"), ("classify", "INPUT"), ("apply", "INPUT", "CUBE")),
}


def mutate(rng, data, binary):
    """Swap two edge tokens (bytes of planar code), replace a token, or
    make one to three byte edits.  A swap keeps every token, so the
    permuted rotation system often still parses and reaches the later
    stages.  Planar code keeps its header most of the time, so that its
    body gets parsed."""
    head = len(io.PLANAR_CODE_HEADER) if binary and rng.random() < 0.9 else 0
    if binary:
        parts = [data[:head]] + [data[k:k + 1] for k in range(head, len(data))]
        spots = range(1, len(parts))
    else:
        parts = re.split(rb"(\s+)", data)
        spots = [k for k, tok in enumerate(parts) if tok and not tok.isspace()]
    i, j = rng.choice(spots), rng.choice(spots)
    kind = rng.randrange(3)
    if kind == 0:
        if not binary:  # swap two edge tokens: a permuted rotation system
            i, j = rng.sample([k for k in spots if parts[k][:1] in (b"+", b"-")], 2)
        parts[i], parts[j] = parts[j], parts[i]
    elif kind == 1:
        parts[i] = (bytes([rng.randrange(256)]) if binary
                    else rng.choice(TOKENS + (parts[i] + parts[j],)))
    else:
        data = bytearray(data)
        alphabet = bytes(range(256)) if binary else b"0123456789+-: \nrotlsp\x80"
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(head, len(data) + 1)
            edit = rng.randrange(4)
            if edit == 0:
                data[pos:pos] = bytes([rng.choice(alphabet)])
            elif edit == 1:
                del data[pos:pos + 1]
            elif edit == 2:
                data[pos:pos + 1] = bytes([rng.choice(alphabet)])
            else:
                del data[pos:]
        return bytes(data)
    return b"".join(parts)


def fuzz_inputs():
    graphs = [polyhedra.cube(), polyhedra.k7_torus()]
    out = [("graph", io.write_rot(g).encode("ascii"), False) for g in graphs]
    out += [("graph", io.write_planar_code([g]), True) for g in graphs]
    for name in ops.catalog_names():
        for ext in (".lsp", ".lopsp"):
            path = os.path.join(ops.catalog_dir(), name + ext)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    out.append(("op", handle.read(), False))
    return out


def test_cli_fuzz(tmp_path, capsys):
    rng = random.Random(20261018)
    inputs = fuzz_inputs()
    assert len(inputs) == 4 + len(ops.catalog_names())
    cube = tmp_path / "cube.rot"
    cube.write_text(io.write_rot(polyhedra.cube()), encoding="ascii")
    path = tmp_path / "input"
    surface = hashlib.sha256()  # the whole error surface, path-free
    for case in range(FUZZ_CASES):
        kind, data, binary = rng.choice(inputs)
        path.write_bytes(mutate(rng, data, binary))
        files = {"INPUT": str(path), "CUBE": str(cube)}
        argv = [files.get(arg, arg) for arg in rng.choice(COMMANDS[kind])]
        code = main(argv)
        out, err = capsys.readouterr()
        where = "case %d: %s on %r" % (case, argv[0], path.read_bytes())
        assert code in (0, 1, 2), where
        assert all(line.startswith("error:") for line in err.splitlines()), where
        assert code != 2 or len(err.splitlines()) == 1, where
        record = [" ".join(argv), str(code), err, hashlib.sha256(out.encode()).hexdigest()]
        surface.update("\0".join(record).replace(str(tmp_path), "TMP").encode() + b"\n")
    assert surface.hexdigest() == FUZZ_SURFACE_SHA256


# ---------------------------------------------------------------------------
# the package imports nothing outside the standard library and has no
# floating point


def src_trees():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "operations.py" in modules
    for name in modules:
        with open(os.path.join(SRC, name), encoding="utf-8") as handle:
            yield name, ast.parse(handle.read(), name)


def test_src_is_stdlib_only():
    for name, tree in src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [] if node.level else [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "surfops", (name, root)


def inexact(node):
    """Why ``node`` would bring floating point into the package, or None.
    ``math.inf`` stays allowed: it is the face-width of a plane map."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return "float literal %r" % node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float() call"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr != "inf"):
        return "math.%s" % node.attr
    if isinstance(node, ast.ImportFrom) and node.module == "math" and not node.level:
        names = [alias.name for alias in node.names if alias.name != "inf"]
        return "from math import %s" % ", ".join(names) if names else None
    return None


def test_src_is_exact():
    for name, tree in src_trees():
        for node in ast.walk(tree):
            why = inexact(node)
            assert why is None, "%s:%d: %s" % (name, node.lineno, why)


def test_exactness_check_rejects_floats():
    for line in ("x = 0.5", "y = float(n)", "z = a / b", "a /= 2", "r = math.sqrt(2)",
                 "from math import pi"):
        assert any(inexact(node) for node in ast.walk(ast.parse(line))), line
    for line in ("x = math.inf", "y = a // b", "import math", "from math import inf",
                 "z = Fraction(1, 2)"):
        assert not any(inexact(node) for node in ast.walk(ast.parse(line))), line


# ---------------------------------------------------------------------------
# the benchmark traces names the package has


def test_traced_names_resolve():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS and tracing.METHODS
    for mod_name, attr, *_ in tracing.FUNCTIONS:
        module = importlib.import_module("surfops." + mod_name)
        assert callable(getattr(module, attr, None)), (mod_name, attr)
    for mod_name, cls_name, method, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module("surfops." + mod_name), cls_name, None)
        assert cls is not None and method in vars(cls), (mod_name, cls_name, method)


# ---------------------------------------------------------------------------
# every top-level name of the package has a caller outside the tests


def package_references(tree):
    """The (module, name) pairs of the package that ``tree`` imports or
    reads as ``module.name``; a relative import is one from the package."""
    pairs, modules = set(), {}  # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "surfops" + ("." + base if base else "")
            if base == "surfops":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif base.startswith("surfops."):
                pairs.update((base[len("surfops."):], a.name) for a in node.names)
    pairs.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    return pairs


def own_module_loads(source, filename):
    """Module-level names read in their own module outside their own
    body, by the compiler's symbol tables: a read counts only where the
    name resolves to the module, so a local or a parameter of the same
    name (``cycle``, say) does not, and neither does recursion."""
    top = symtable.symtable(source, filename, "exec")
    out = {sym.get_name() for sym in top.get_symbols() if sym.is_referenced()}
    todo = [(child, child.get_name()) for child in top.get_children()]
    while todo:
        table, owner = todo.pop()
        out.update(sym.get_name() for sym in table.get_symbols()
                   if sym.is_referenced() and sym.is_global() and sym.get_name() != owner)
        todo += [(child, owner) for child in table.get_children()]
    return out


def uncalled_src_names():
    """``module.name`` of every top-level def or class in ``src/`` that
    only the tests read.  A read is an import or a ``module.name`` in
    ``src/`` or ``perfbench/*.py``, a read in its own module outside its
    body, an entry of ``surfops.__all__``, or a string constant in
    ``perfbench/*.py``, which looks names up by string."""
    pairs, names, defined = set(), set(surfops.__all__), []
    for filename, tree in src_trees():
        module = filename[:-len(".py")]
        with open(os.path.join(SRC, filename), encoding="utf-8") as handle:
            pairs.update((module, name) for name in own_module_loads(handle.read(), filename))
        pairs |= package_references(tree)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    for filename in sorted(os.listdir(PERFBENCH)):
        if filename.endswith(".py"):
            with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename)
            pairs |= package_references(tree)
            names.update(node.value for node in ast.walk(tree)
                         if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return ["%s.%s" % pair for pair in defined if pair not in pairs and pair[1] not in names]


def test_src_names_have_callers():
    assert uncalled_src_names() == []


def test_caller_check_resolves_scopes():
    source = "\n".join((
        "def cycle(n): return cycle(n - 1)",  # recursion is no caller
        "def walk(cycle): return cycle",  # a parameter shadows it
        "def ring(): cycle = 3; return [cycle for _ in ()]",  # so does a local
        "def solid(): return lambda: tetrahedron()",  # a read from a nested scope
        "def tetrahedron(): pass",
        "class Graph: pass",
        "DEFAULT = Graph",  # a read at module level
    ))
    assert own_module_loads(source, "m.py") == {"tetrahedron", "Graph"}
    tree = ast.parse("from . import io as io_mod\nfrom surfops.delaney import dd\n"
                     "io_mod.parse_rot(dd)\nimport io\nio.open")
    assert package_references(tree) == {("delaney", "dd"), ("io", "parse_rot")}
