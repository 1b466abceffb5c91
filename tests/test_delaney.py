import hashlib
import os
import signal
import time
from fractions import Fraction

import pytest

from surfops import delaney as dd
from surfops import operations as ops
from surfops.io import parse_op

from conftest import doubling_morphism

DATA = os.path.join(os.path.dirname(__file__), "data")


def hexagonal_symbol():
    """One element fixed by all generators, m01=6, m12=3."""
    return dd.DelaneySymbol(
        ((0,), (0,), (0,)), {(0, 1): (6,), (0, 2): (2,), (1, 2): (3,)}
    )


def test_identity_lsp_symbol():
    sym = dd.dd_from_lsp(ops.catalog("identity"))
    assert sym.size == 1
    assert sym.m[(0, 1)] == (6,)
    assert sym.m[(1, 2)] == (3,)
    assert sym.m[(0, 2)] == (2,)
    assert dd.validate_dd(sym) == []


def test_identity_lopsp_symbol():
    sym = dd.dd_from_lopsp(ops.lsp_to_lopsp(ops.catalog("identity")))
    assert sym.size == 2
    assert set(sym.m[(0, 1)]) == {6}
    assert set(sym.m[(1, 2)]) == {3}
    assert set(sym.m[(0, 2)]) == {2}


def test_truncation_symbol_three_elements():
    sym = dd.dd_from_lsp(ops.catalog("truncation"))
    assert sym.size == 3
    assert sorted(sym.m[(0, 1)]) == [3, 12, 12]
    assert dd.validate_dd(sym) == []


def test_all_catalog_symbols_euclidean():
    for name in ops.catalog_names():
        op = ops.catalog(name)
        sym = dd.dd(op)
        assert dd.validate_dd(sym) == [], name
        assert dd.curvature(sym) == 0, name
        assert all(v == 2 for v in sym.m[(0, 2)]), name


def test_lopsp_symbols_fixed_point_free():
    for name in ("gyro", "snub"):
        sym = dd.dd_from_lopsp(ops.catalog(name))
        for i in range(3):
            assert all(sym.action[i][c] != c for c in range(sym.size))


def test_lopsp_symbols_no_odd_relations():
    # the chamber adjacency of a lopsp symbol is two-colourable, so no
    # odd word in the generators fixes an element
    for name in ("gyro", "snub"):
        sym = dd.dd_from_lopsp(ops.catalog(name))
        colour = {0: 0}
        todo = [0]
        while todo:
            c = todo.pop()
            for i in range(3):
                d = sym.action[i][c]
                if d not in colour:
                    colour[d] = 1 - colour[c]
                    todo.append(d)
                else:
                    assert colour[d] == 1 - colour[c]


def test_curvature_signs():
    assert dd.curvature(hexagonal_symbol()) == 0
    spherical = dd.DelaneySymbol(
        ((0,), (0,), (0,)), {(0, 1): (3,), (0, 2): (2,), (1, 2): (3,)}
    )
    assert dd.curvature(spherical) == Fraction(1, 6)
    hyper = dd.DelaneySymbol(
        ((0,), (0,), (0,)), {(0, 1): (7,), (0, 2): (2,), (1, 2): (3,)}
    )
    assert dd.curvature(hyper) < 0


def test_orbit_constancy_violation_detected():
    sym = dd.dd_from_lsp(ops.catalog("truncation"))
    m = {k: list(v) for k, v in sym.m.items()}
    # break constancy on a <s0,s1>-orbit of size > 1
    m[(0, 1)] = [3, 12, 13]
    bad = dd.DelaneySymbol(sym.action, m)
    assert any("axiom3" in d for d in dd.validate_dd(bad))


def symbol(action, m01, m02, m12):
    return dd.DelaneySymbol(action, {(0, 1): m01, (0, 2): m02, (1, 2): m12})


@pytest.mark.parametrize("sym, diagnostics", [
    (symbol(((1, 1), (1, 0), (1, 0)), (6, 6), (2, 2), (3, 3)),
     ["axiom0: generator 0 is not a permutation", "axiom3: (s0 s1)^6 does not fix element 1",
      "axiom3: (s0 s2)^2 does not fix element 1"]),
    (symbol(((1, 2, 0), (0, 1, 2), (0, 1, 2)), (6,) * 3, (2,) * 3, (3,) * 3),
     ["axiom0: generator 0 not an involution at %d" % c for c in range(3)]
     + ["axiom3: (s0 s2)^2 does not fix element 0"]),
    (symbol(((), (), ()), (), (), ()), ["axiom1: empty element set"]),
    (symbol(((0, 1), (0, 1), (0, 1)), (6, 6), (2, 2), (3, 3)),
     ["axiom2: the action is not transitive"]),
    (symbol(((0,), (0,), (0,)), (-2,), (2,), (1,)), ["axiom3: m01 not positive on orbit"]),
    (symbol(((1, 0), (0, 1), (0, 1)), (3, 3), (2, 2), (6, 6)),
     ["axiom3: (s0 s1)^3 does not fix element 0"]),
    (symbol(((0,), (0,), (0,)), (8,), (4,), (8,)), ["axiom3: m02 must be constant 2"]),
    (symbol(((0,), (0,), (0,)), (0,), (2,), (3,)), ["axiom3: m01 not positive on orbit"]),
    (symbol(((1, 5), (1, 0), (1, 0)), (6, 6), (2, 2), (3, 3)),
     ["axiom0: generator 0 does not map 0..1 into itself"]),
    (symbol(((1, 0), (0, 1), (0, 1)), (6, 6), (2, 2), (3,)), ["axiom3: m12 has length 1, not 2"]),
    (symbol(((1, 0), (0, 1), (0, 1)), (0, 0), (2, 2), (3,)),
     ["axiom3: m12 has length 1, not 2", "axiom3: m01 not positive on orbit"]),
], ids=["not-permutation", "not-involution", "empty", "not-transitive", "not-positive",
        "power-not-fixing", "m02-not-2", "m-zero", "action-outside", "m-short",
        "m-short-and-zero"])
def test_validate_dd_names_each_broken_axiom(sym, diagnostics):
    """One broken symbol per message, each of zero curvature where every
    m is positive; with an m of 0 or a short m row the curvature is not
    read.  The first two break axiom 3 too, whose powers run on the
    broken generator; an action outside the elements stops the orbit
    axioms, and a short m row stops its own."""
    assert dd.validate_dd(sym) == diagnostics


def test_validate_dd_walks_no_more_than_an_orbit():
    """Axiom 3 walks s_i s_j at most |orbit| steps, however large m: an
    m01 of 10**12 is read at once, on an orbit of one element and on one
    of two, where the odd 10**12 + 1 does not fix the element."""
    start = time.perf_counter()
    one = symbol(((0,), (0,), (0,)), (10**12,), (2,), (6,))
    assert dd.validate_dd(one) == ["axiom4: curvature %s is not zero" % dd.curvature(one)]
    for m in (10**12, 10**12 + 1):
        two = symbol(((1, 0), (0, 1), (0, 1)), (m, m), (2, 2), (6, 6))
        broken = ["axiom3: (s0 s1)^%d does not fix element 0" % m] if m % 2 else []
        assert dd.validate_dd(two) == broken + [
            "axiom4: curvature %s is not zero" % dd.curvature(two)]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("sym, row", [
    (symbol(((1, 0), (0, 1), (0, 1)), (6, 6), (2, 2), (3,)), "m12"),
    (symbol(((0,), (0,), (0,)), (0,), (2,), (3,)), "m01"),
], ids=["m-short", "m-zero"])
def test_curvature_names_a_broken_m_row(sym, row):
    with pytest.raises(ValueError, match=row):
        dd.curvature(sym)


@pytest.mark.parametrize("sym, row", [
    (symbol(((1, 0), (0, 1), (0, 1)), (6, 6), (2, 2), (3,)), "m12"),
    (symbol(((0,), (0,), (0,)), (0,), (2,), (3,)), "m01"),
], ids=["m-short", "m-zero"])
def test_rotation_orders_names_a_broken_m_row(sym, row):
    """The axiom-3 line of ``validate_dd`` naming the row: a short row
    raises no IndexError, and an m of 0 gives no fold of 0."""
    with pytest.raises(ValueError, match=row):
        dd.rotation_orders(sym)


def test_rotation_orders_names_a_non_permutation_at_once():
    """A generator that is not a permutation raises the axiom-0 line of
    ``validate_dd``; an s_i s_j walk would wait forever for 0 to come
    back, so an alarm fails the test instead of hanging it."""
    sym = dd.parse_dd("dd 2\ns0 1 1\ns1 0 1\ns2 0 1\nm01 6 6\nm02 2 2\nm12 3 3\n")

    def hung(signum, frame):
        raise TimeoutError("rotation_orders still running after 1 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(1)
    try:
        with pytest.raises(ValueError, match="^axiom0: generator 0 is not a permutation$"):
            dd.rotation_orders(sym)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def walked_rotation_orders(sym):
    """The rotation orders by walking s_i s_j from the smallest element
    of each orbit until it returns; terminates on involutions only."""
    out = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        for orb in sym.orbits((i, j)):
            c0 = x = min(orb)
            r = 0
            while r == 0 or x != c0:
                x, r = sym.action[j][sym.action[i][x]], r + 1
            m = sym.m[(i, j)][c0]
            mirror = any(sym.action[i][c] == c or sym.action[j][c] == c for c in orb)
            assert (2 * m) % r == 0
            fold = 2 * m // r if mirror else m // r
            out.append(dd.RotationInfo((i, j), tuple(sorted(orb)), r, fold, mirror))
    return out


def test_rotation_orders_read_off_orbit_sizes_equal_the_walk():
    """r is half the orbit size on a cycle and its size on a mirror
    orbit, as the walk finds, on every catalog and ``tests/data``
    symbol and the doubles of the lsp-operations."""
    infos = []
    for op in sixteen_operations():
        sym = dd.dd(op)
        assert dd.rotation_orders(sym) == walked_rotation_orders(sym)
        infos += dd.rotation_orders(sym)
    # both kinds of orbit, and orbits of several sizes, occur
    assert {info.mirror for info in infos} == {False, True}
    assert len({len(info.orbit) for info in infos}) > 2


def test_rotation_orders_identity():
    infos = dd.rotation_orders(dd.dd_from_lsp(ops.catalog("identity")))
    by_pair = {info.pair: info for info in infos}
    assert by_pair[(0, 1)].mirror  # boundary chamber: sigma-fixed orbit
    assert by_pair[(0, 1)].r == 1
    assert by_pair[(0, 1)].fold == 12  # f_m = 2*m/r
    for info in infos:
        assert (2 * _m_of(info)) % info.r == 0


def _m_of(info):
    # fold encodes m via r and the mirror flag
    return info.fold * info.r // (2 if info.mirror else 1)


def test_rotation_orders_lopsp_no_mirrors():
    infos = dd.rotation_orders(dd.dd_from_lopsp(ops.catalog("gyro")))
    assert all(not info.mirror for info in infos)
    folds = sorted(info.fold for info in infos if info.pair == (1, 2))
    assert folds[-1] >= 1


def test_rotation_orders_identity_lopsp():
    sym = dd.dd_from_lopsp(ops.lsp_to_lopsp(ops.catalog("identity")))
    infos = {info.pair: info for info in dd.rotation_orders(sym)}
    assert infos[(0, 1)].r == 1 and infos[(0, 1)].fold == 6  # six-fold centres
    assert infos[(1, 2)].r == 1 and infos[(1, 2)].fold == 3
    assert infos[(0, 2)].r == 1 and infos[(0, 2)].fold == 2


def test_morphism_identity_map():
    sym = dd.dd_from_lopsp(ops.catalog("gyro"))
    assert dd.is_dd_morphism(sym, sym, tuple(range(sym.size)))


def test_morphism_broken_commutation():
    sym = dd.dd_from_lopsp(ops.lsp_to_lopsp(ops.catalog("identity")))
    assert not dd.is_dd_morphism(sym, sym, (0, 0))


@pytest.mark.parametrize("other, mapping", [
    (None, (0, 0, 0)),
    (None, (5,)),
    (symbol(((0,), (0,), (0,)), (3,), (2,), (6,)), (0,)),
], ids=["wrong-length", "image-out-of-range", "m-mismatch"])
def test_morphism_rejects(other, mapping):
    sym = hexagonal_symbol()
    assert dd.is_dd_morphism(sym, sym, (0,))
    assert not dd.is_dd_morphism(sym, other or sym, mapping)


def test_dd_chooses_by_kind_at_call_time(monkeypatch):
    """``dd`` picks the symbol by ``op.kind`` and looks the two builders
    up when called, so patching either (as tracing does) is seen."""
    calls = []

    def recorded(name, build):
        def call(op):
            calls.append(name)
            return build(op)
        return call

    for name in ("dd_from_lopsp", "dd_from_lsp"):
        monkeypatch.setattr(dd, name, recorded(name, getattr(dd, name)))
    for name in ("gyro", "ambo"):
        op = ops.catalog(name)
        sym = dd.dd(op)
        assert sym == (dd.dd_from_lsp if op.kind == "lsp" else dd.dd_from_lopsp)(op)
    assert calls == ["dd_from_lopsp", "dd_from_lopsp", "dd_from_lsp", "dd_from_lsp"]


def test_doubling_morphism_all_lsp():
    for name in ("identity", "dual", "truncation", "ambo", "join"):
        op = ops.catalog(name)
        lop, mapping = doubling_morphism(op)
        d2 = dd.dd_from_lopsp(lop)
        d1 = dd.dd_from_lsp(op)
        assert dd.is_dd_morphism(d2, d1, mapping), name


def test_inner_vertex_symbol_case():
    # the subdividing operation has an interior vertex (the chamber
    # centre), whose orbits take the halved m value
    import os

    from surfops.io import parse_op

    path = os.path.join(os.path.dirname(__file__), "data", "meta.lsp")
    with open(path, "r", encoding="ascii") as handle:
        op = parse_op(handle.read())
    sym = dd.dd_from_lsp(op)
    assert sym.size == 6
    assert set(sym.m[(0, 1)]) == {3}  # six chambers around the inner centre
    assert sorted(sym.m[(1, 2)]) == [4, 4, 6, 6, 12, 12]
    assert set(sym.m[(0, 2)]) == {2}
    assert dd.validate_dd(sym) == []
    assert dd.curvature(sym) == 0


def test_serialization_roundtrip():
    for name in ("truncation", "gyro"):
        op = ops.catalog(name)
        sym = dd.dd(op)
        text = dd.write_dd(sym)
        assert dd.parse_dd(text) == sym
        assert dd.write_dd(dd.parse_dd(text)) == text


@pytest.mark.parametrize("text, message", [
    ("dd +1\ns0 0\ns1 0\ns2 0\nm01 6\nm02 2\nm12 3\n", "missing 'dd <n>' header"),
    ("dd 1\ns0 0\ns1 0\ns2 0\nm01 \u0660\nm02 2\nm12 3\n", "bad or missing m01 row"),
    ("dd 1\ns0 0\ns1\ns2 0\nm01 6\nm02 2\nm12 3\n", "bad or missing action row s1"),
    ("dd 1\ns0 0\ns1 0\ns2 0\nm01 6\nm02 2\nm12 3\nm12 6\n", "duplicate m12 row"),
    ("dd 1\ns0 0\ns1 0\ns2 0\nm01 6\nm02 2\nm12 3\nzz 1 2 3\n", "unknown row 'zz'"),
], ids=["signed-count", "arabic-indic-digit", "one-token-row", "duplicate-row", "unknown-row"])
def test_parse_dd_is_strict(text, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        dd.parse_dd(text)


def test_curvature_exact_any_order():
    sym = dd.dd_from_lopsp(ops.catalog("snub"))
    total = Fraction(0)
    for c in reversed(range(sym.size)):
        total += (
            Fraction(1, sym.m[(0, 1)][c])
            + Fraction(1, sym.m[(1, 2)][c])
            - Fraction(1, sym.m[(0, 2)][c])
        )
    assert total == dd.curvature(sym) == 0


def triangle_chambers(op):
    """s_i and the corners by their definition: chamber c is the c-th
    face other than the outer one, a triangle with one corner of each
    type; s_i crosses its edge that misses the type-i corner, and fixes c
    when that edge lies on the outer face."""
    g = op.graph
    chambers = [f for f in range(len(g.faces())) if f != op.outer_face]
    index = {f: c for c, f in enumerate(chambers)}
    s, corners = [[None] * len(chambers) for _ in range(3)], []
    for c, f in enumerate(chambers):
        walk = g.faces()[f]
        corner = {g.labels[g.vertex_of[d]]: g.vertex_of[d] for d in walk}
        assert len(walk) == 3 and sorted(corner) == [0, 1, 2]
        corners.append(corner)
        for d in walk:
            i = 3 - g.labels[g.vertex_of[d]] - g.labels[g.head(d)]
            across = g.face_of(g.inv[d])
            s[i][c] = c if across == op.outer_face else index[across]
    return tuple(map(tuple, s)), corners


def orbit_m(op, outer_vertices):
    """m by its definition: the size of each <s_i, s_j>-orbit, halved at
    an inner corner, times 2, 3 or 6 at v1, v0 or v2."""
    action, corners = triangle_chambers(op)
    shape = dd.DelaneySymbol(action, {})
    factor = {op.v1: 2, op.v0: 3, op.v2: 6}
    m = {}
    for (i, j) in dd._PAIRS:
        row = [0] * len(corners)
        for orb in shape.orbits((i, j)):
            corner = corners[min(orb)][3 - i - j]
            size = len(orb)
            if corner not in outer_vertices:
                assert size % 2 == 0
                size //= 2
            for c in orb:
                row[c] = size * factor.get(corner, 1)
        m[(i, j)] = tuple(row)
    return m


def sixteen_operations():
    """The catalog, the ``tests/data`` operations and the doubles of the
    six lsp-operations among them."""
    out = [ops.catalog(name) for name in ops.catalog_names()]
    for name in sorted(os.listdir(DATA)):
        if name.endswith((".lsp", ".lopsp")):
            with open(os.path.join(DATA, name), encoding="ascii") as handle:
                out.append(parse_op(handle.read()))
    return out + [op.lopsp() for op in out if op.kind == "lsp"]


def test_m_read_off_degrees_equals_orbit_sizes():
    operations = sixteen_operations()
    assert len(operations) == 16
    for op in operations:
        outer = op.outer_vertices() if op.kind == "lsp" else ()
        assert dd.dd(op).m == orbit_m(op, outer)


def test_action_read_off_faces_equals_triangle_definition():
    for op in sixteen_operations():
        assert dd.dd(op).action == triangle_chambers(op)[0]


# sha256 of ``write_dd`` of the sixteen operations' symbols, then of the
# six doubling maps, one line each
SYMBOLS_SHA256 = "d61f66a2d4c60bace4aa4caba95b1289fa2ada2a651da841112908b2bf0ce0c8"


def test_symbols_and_doubling_maps_digest():
    operations = sixteen_operations()
    digest = hashlib.sha256()
    for op in operations:
        digest.update(dd.write_dd(dd.dd(op)).encode())
    for op in operations:
        if op.kind == "lsp":
            digest.update((" ".join(map(str, doubling_morphism(op)[1])) + "\n").encode())
    assert digest.hexdigest() == SYMBOLS_SHA256
