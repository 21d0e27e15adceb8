"""Field, matrix and polynomial layer."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from netcode import galois
from netcode.galois import (
    FieldElement,
    FieldSpec,
    FqMatrix,
    NoSuchElement,
    NotPrime,
    ParseError,
    Poly,
    PolyMatrix,
    ReducibleModulus,
    build_field,
    element_of_order,
    embed,
    poly_eval_matrix,
    spec_from_dict,
    spec_to_dict,
    _check_field_order,
    _factorint,
    _is_prime,
    _MAX_FIELD_ORDER,
)
from netcode.transform import make_plan
from tests.conftest import kron
from tests.oracles import (
    CharacteristicDividesN,
    WrongOrder,
    dft_matrix,
    generator,
    inverse_dft_matrix,
    multiplicative_order,
    poly_matrix,
)

GF2 = build_field(2, 1)
GF8 = build_field(2, 3)
GF9 = build_field(3, 2)
GF16 = build_field(2, 4)
GF64 = build_field(2, 6)


# ----------------------------------------------------------------------
# field construction
# ----------------------------------------------------------------------


def test_auto_modulus_is_smallest_by_encoding():
    # first irreducible cubic over GF(2) in encoding order is x^3 + x + 1
    assert GF8.modulus == (1, 1, 0, 1)
    assert GF64.modulus == (1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1


def test_bad_construction():
    with pytest.raises(NotPrime):
        build_field(4, 1)
    with pytest.raises(ReducibleModulus):
        build_field(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x + 1)^2


def test_spec_roundtrip():
    d = spec_to_dict(GF64)
    assert spec_from_dict(d) == GF64


def test_build_field_is_interned():
    f = build_field(2, 8)
    assert build_field(2, 8) is f
    assert spec_from_dict(spec_to_dict(f)) is f
    assert build_field(2, 8, f.modulus) is f
    assert build_field(2, 8, list(f.modulus)) is f
    # value semantics are unchanged for a spec made outside build_field
    twin = FieldSpec(2, 8, f.modulus)
    assert twin is not f and twin == f and hash(twin) == hash(f)


def test_explicit_and_default_modulus_share_the_spec():
    # GF(3^3)'s default modulus is x^3 + 2x + 1
    f = build_field(3, 3, [1, 2, 0, 1])
    assert build_field(3, 3) is f


def test_bad_modulus_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ReducibleModulus):
            build_field(2, 2, modulus=[1, 0, 1])
        with pytest.raises(ValueError):
            build_field(2, 2, modulus=[1, 2, 1])
        with pytest.raises(ValueError):
            build_field(2, 3, modulus=[1, 1, 1])
        with pytest.raises(NotPrime):
            build_field(4, 1)


def test_prime_field_is_plain_modular():
    gf7 = build_field(7, 1)
    a = FieldElement(gf7, 3)
    b = FieldElement(gf7, 5)
    assert (a * b).coeffs == (1,)  # 15 mod 7
    assert (a + b).coeffs == (1,)
    assert a.inverse() * a == gf7.one()


# ----------------------------------------------------------------------
# element arithmetic
# ----------------------------------------------------------------------


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_ring_axioms(x, y, z):
    a = FieldElement(GF9, x)
    b = FieldElement(GF9, y)
    c = FieldElement(GF9, z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a - b == a + (-b)


@given(st.integers(1, 63))
def test_gf64_inverse(x):
    a = FieldElement(GF64, x)
    assert a * a.inverse() == GF64.one()
    assert a / a == GF64.one()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF8.one() / GF8.zero()


@pytest.mark.parametrize("p, m", [(2, 3), (3, 1), (7, 1), (3, 5), (2, 20)])
def test_arithmetic_refuses_codes_outside_the_field(p, m):
    """The constructor takes any int; every operator refuses an operand
    whose code is not in [0, q), before any table is read. So do a
    matrix's scale and its product with an element, in code lists and,
    9 entries wide, in byte lanes over GF(2^3): over GF(3), 99 once scaled
    [[1, 1]] to [[0, 0]], and over GF(2^3) it raised IndexError."""
    spec = build_field(p, m)
    ok, top = FieldElement(spec, min(3, spec.q - 1)), FieldElement(spec, spec.q - 1)
    binary = [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x / y,
    ]
    unary = [lambda x: -x, lambda x: x.inverse(), lambda x: x**2]
    for width in (2, 9):
        unary += [lambda x, w=width: FqMatrix(spec, [[1] * w]).scale(x),
                  lambda x, w=width: FqMatrix(spec, [[1] * w]) * x]
    for code in (spec.q, spec.q + 91, -1):
        bad = FieldElement(spec, code)
        match = rf"^code {code} is not a code of {re.escape(str(spec))}$"
        for op in binary:
            for x, y in ((bad, ok), (ok, bad), (bad, bad)):
                with pytest.raises(ValueError, match=match):
                    op(x, y)
        for op in unary:
            with pytest.raises(ValueError, match=match):
                op(bad)
    # control: the extreme codes 0 and q - 1 pass through every operator
    assert (top + ok) - ok == top and -(-top) == top
    assert top * top.inverse() == spec.one() == top / top
    assert top**2 == top * top and spec.zero() * top == spec.zero()
    assert (FqMatrix(spec, [[1] * 9]) * top).rows == [[top.code] * 9]


@pytest.mark.parametrize("p, m", [(2, 3), (2, 6), (7, 1), (3, 5), (2, 20)])
def test_poly_arithmetic_refuses_codes_outside_the_field(p, m):
    """The constructor takes any ints; + - * **, eval, format_str and
    PolyMatrix.det refuse a coefficient whose code is not in [0, q), with
    FieldElement's message, in code lists and in byte lanes alike."""
    spec = build_field(p, m)
    ok, x = Poly(spec, [3, 0, 1]), FieldElement(spec, 2)
    one = Poly.one(spec)
    binary = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b]
    for code in (spec.q, spec.q + 91, -1):
        bad = Poly(spec, [1, code, 2])
        match = rf"^code {code} is not a code of {re.escape(str(spec))}$"
        cases = [lambda: -bad, lambda: bad * x, lambda: ok * FieldElement(spec, code),
                 lambda: bad**0, lambda: bad.eval(x), lambda: ok.eval(FieldElement(spec, code)),
                 lambda: bad.format_str()]
        cases += [lambda op=op, a=a, b=b: op(a, b) for op in binary
                  for a, b in ((bad, ok), (ok, bad), (bad, bad))]
        # a 2 x 2 det of degree bound 4 and a 4 x 4 one of degree bound 16,
        # both in byte lanes where the field has them, else in code lists
        for k, diag in ((2, ok), (4, ok.shift(2))):
            rows = [[diag if i == j else one for j in range(k)] for i in range(k)]
            rows[k - 1][0] = bad
            cases.append(lambda rows=rows: PolyMatrix(spec, rows).det())
        for case in cases:
            with pytest.raises(ValueError, match=match):
                case()
    # control: the extreme codes 0 and q - 1 pass through every operation
    top = Poly(spec, [spec.q - 1, 0, 1])
    assert (top + ok) - ok == top and -(-top) == top
    assert top * one == top and top * spec.one() == top
    assert top.eval(spec.one()) == FieldElement(spec, spec._add_codes(spec.q - 1, 1))
    assert top.format_str()
    big = [[top if i == j else one.shift(1) for j in range(4)] for i in range(4)]
    assert PolyMatrix(spec, big).det()


def test_generator_and_orders():
    g8 = generator(GF8)
    assert multiplicative_order(g8) == 7
    assert len({g8**k for k in range(7)}) == 7
    a = element_of_order(GF64, 7)
    assert multiplicative_order(a) == 7
    assert a.coeffs == (0, 0, 0, 1, 1, 0)  # beta^9 under x^6 + x + 1
    with pytest.raises(NoSuchElement):
        element_of_order(GF8, 5)  # 5 does not divide 7


def test_multiplicative_order_rejects_zero():
    with pytest.raises(ValueError):
        multiplicative_order(GF8.zero())


# ----------------------------------------------------------------------
# transform matrices
# ----------------------------------------------------------------------


def test_dft_inverse_pair():
    alpha = element_of_order(GF8, 7)
    F = dft_matrix(alpha, 7)
    Finv = inverse_dft_matrix(alpha, 7)
    assert F * Finv == FqMatrix.identity(GF8, 7)


def test_dft_rejects_char_dividing_n():
    gf3 = build_field(3, 1)
    with pytest.raises(CharacteristicDividesN):
        dft_matrix(gf3.one(), 3)
    with pytest.raises(WrongOrder):
        dft_matrix(GF8.one(), 7)


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------


def _rand_matrix(spec, rng, r, c):
    return FqMatrix(spec, [[rng.randrange(spec.q) for _ in range(c)] for _ in range(r)])


def test_matrix_hand_values():
    one = GF2.one()
    M = FqMatrix(GF2, [[1, 1], [0, 1]])
    assert M.rank() == 2
    assert M.det() == one
    assert M.inverse() * M == FqMatrix.identity(GF2, 2)


def test_solve_and_inverse_random():
    rng = random.Random("matops")
    for _ in range(25):
        n = rng.randrange(1, 7)
        while True:
            A = _rand_matrix(GF16, rng, n, n)
            if A.rank() == n:
                break
        x = _rand_matrix(GF16, rng, n, 2)
        assert A.solve(A * x) == x
        assert A * A.inverse() == FqMatrix.identity(GF16, n)
        assert A.det() != GF16.zero()


def test_odd_characteristic_det_sign():
    # swap-based elimination must negate the product for odd p
    gf3 = build_field(3, 1)
    M = FqMatrix(gf3, [[0, 1], [1, 0]])
    assert M.det() == -gf3.one()


def test_overdetermined_solve():
    rng = random.Random("tall")
    A = _rand_matrix(GF8, rng, 6, 3)
    while A.rank() < 3:
        A = _rand_matrix(GF8, rng, 6, 3)
    x = _rand_matrix(GF8, rng, 3, 1)
    b = A * x
    assert A.solve(b) == x
    # perturbing one entry of a full-column-rank tall system breaks consistency
    bad_rows = [r[:] for r in b.rows]
    bad_rows[0][0] ^= 1
    with pytest.raises(ValueError):
        A.solve(FqMatrix(GF8, bad_rows))


def test_rank_drops_on_dependent_rows():
    M = FqMatrix(GF8, [[1, 1], [1, 1]])
    assert M.rank() == 1
    with pytest.raises(ValueError):
        M.inverse()


def test_kron_and_stack_shapes():
    A = FqMatrix.identity(GF8, 2)
    B = FqMatrix.zeros(GF8, 3, 3)
    K = kron(A, B)
    assert K.shape == (6, 6)
    assert FqMatrix.hstack([A, A]).shape == (2, 4)
    assert FqMatrix(GF8, A.rows + A.rows).shape == (4, 2)


def test_kron_mixed_product():
    rng = random.Random("kron")
    A = _rand_matrix(GF8, rng, 2, 2)
    B = _rand_matrix(GF8, rng, 3, 3)
    C = _rand_matrix(GF8, rng, 2, 2)
    D = _rand_matrix(GF8, rng, 3, 3)
    assert kron(A, B) * kron(C, D) == kron(A * C, B * D)


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------


def test_poly_basic():
    p = Poly(GF2, [0, 0, 0, 1]) + Poly.one(GF2)  # 1 + D^3
    q = Poly(GF2, [0, 1])
    assert (p * q).degree() == 4
    assert p.eval(GF2.one()) == GF2.zero()
    assert Poly.zero(GF2).degree() == -1
    assert p.format_str() == "1 + D^3"
    assert Poly.zero(GF2).format_str() == "0"


def test_poly_shift():
    p = Poly(GF2, [1, 1])
    assert p.shift(2) == Poly(GF2, [0, 0, 1, 1])
    assert p.shift(0) == p


@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=5),
    st.lists(st.integers(0, 7), min_size=1, max_size=5),
    st.integers(0, 7),
)
def test_poly_eval_homomorphism(ac, bc, xv):
    a = Poly(GF8, ac)
    b = Poly(GF8, bc)
    x = FieldElement(GF8, xv)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)


def test_poly_eval_embeds_into_extension():
    # a GF(2) polynomial evaluated at a GF(8) point lands in GF(8)
    p = Poly(GF2, [1, 1])  # 1 + D
    alpha = generator(GF8)
    v = p.eval(alpha)
    assert v.spec == GF8 and v == GF8.one() + alpha


def test_polymatrix_det_and_eval():
    D = Poly(GF2, [0, 1])
    Z = Poly.zero(GF2)
    one = Poly.one(GF2)
    pm = poly_matrix([[D, one], [Z, D]])
    assert pm.det() == D * D
    assert pm.max_degree() == 1
    alpha = generator(GF8)
    ev = poly_eval_matrix(pm, alpha)
    assert ev.spec == GF8
    assert ev.entry(0, 0) == alpha and ev.entry(1, 1) == alpha


# ----------------------------------------------------------------------
# embeddings
# ----------------------------------------------------------------------


def test_embedding_is_a_field_homomorphism():
    rng = random.Random("embed")
    phi = embed(GF8, GF64)
    for _ in range(40):
        a = FieldElement(GF8, rng.randrange(8))
        b = FieldElement(GF8, rng.randrange(8))
        assert phi(a + b) == phi(a) + phi(b)
        assert phi(a * b) == phi(a) * phi(b)
    assert phi(GF8.one()) == GF64.one()
    # orders survive the embedding
    assert multiplicative_order(phi(generator(GF8))) == 7


def _linear_scan_root(sub, sup):
    """The smallest code of sup that is a root of sub's modulus, found by
    trying every code in order."""
    for cand in range(sup.q):
        acc = 0
        for digit in reversed(sub.modulus):
            acc = sup._add_codes(sup._mul_codes(acc, cand), digit)
        if acc == 0:
            return cand
    raise AssertionError("no root")


def _small_lifts():
    for p in (q for q in range(2, 65) if _is_prime(q)):
        m_sup = 1
        while p**m_sup <= 1 << 12:
            for m_sub in range(1, m_sup + 1):
                if m_sup % m_sub == 0:
                    yield p, m_sub, m_sup
            m_sup += 1


def test_embed_root_matches_linear_scan():
    lifts = list(_small_lifts()) + [(2, 4, 16)]
    assert len(lifts) > 60
    for p, m_sub, m_sup in lifts:
        sub, sup = build_field(p, m_sub), build_field(p, m_sup)
        assert embed(sub, sup).root == _linear_scan_root(sub, sup), (p, m_sub, m_sup)
    # a non-default base modulus, whose roots are other elements of sup
    sub, sup = build_field(2, 4, [1, 0, 0, 1, 1]), build_field(2, 8)
    assert embed(sub, sup).root == _linear_scan_root(sub, sup)


# ----------------------------------------------------------------------
# table build and inverses above the table cap
# ----------------------------------------------------------------------


def _stepped_tables(spec):
    """exp/log by one schoolbook multiply by the generator per entry."""
    g = spec._find_generator()
    exp, log, acc = [1] * (spec.q - 1), [0] * spec.q, 1
    for i in range(1, spec.q - 1):
        acc = spec._schoolbook_mul(acc, g)
        exp[i], log[acc] = acc, i
    return exp, log


def _textbook_mul(spec, a, b):
    """Digit-vector product reduced by long division, mod p at every step."""
    p, m = spec.p, spec.m
    av = [a // p**i % p for i in range(m)]
    bv = [b // p**i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] = (prod[i + j] + av[i] * bv[j]) % p
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        for i, mc in enumerate(spec.modulus):
            prod[k - m + i] = (prod[k - m + i] - c * mc) % p
    return sum(c * p**i for i, c in enumerate(prod[:m]))


@pytest.mark.parametrize(
    "p, m, modulus",
    [(2, 8, None), (2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]), (3, 5, None), (5, 3, None),
     (7, 2, None), (2, 17, None), (2, 20, None), (3, 11, None), (5, 7, None),
     (65537, 1, None), (257, 3, None), (4093, 2, None), (3, 15, None)],
)
def test_schoolbook_mul_matches_textbook_product(p, m, modulus):
    spec = build_field(p, m, modulus)
    rng = random.Random(f"mul:{p}:{m}:{modulus}")
    pairs = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(200)]
    # x^(m-1) squared reaches the top power x^(2m-2), and q - 1 (every
    # digit p - 1) the largest digit sums of an odd-p Kronecker product
    edges = (0, 1, p - 1, p, p ** (m - 1), (spec.q - 1) // (p - 1), spec.q - 1)
    pairs += [(a, b) for a in edges for b in edges]
    for a, b in pairs:
        assert spec._schoolbook_mul(a, b) == _textbook_mul(spec, a, b), (a, b)


@pytest.mark.parametrize("m", [17, 20, 24])
def test_carry_less_mul_above_the_table_cap(m):
    # GF(2^m) above _TABLE_CAP multiplies by shifts and XORs on ints
    spec = build_field(2, m)
    assert spec._exp is None
    rng = random.Random(f"clmul:{m}")
    pairs = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(500)]
    edges = (0, 1, 2, 1 << (m - 1), spec.q - 1)
    pairs += [(a, b) for a in edges for b in edges]
    for a, b in pairs:
        assert spec._schoolbook_mul(a, b) == _textbook_mul(spec, a, b), (a, b)


def test_tables_match_schoolbook_steps():
    for p in (2, 3, 5, 7, 11, 13, 61):
        m = 1
        while p**m <= 1 << 12:
            spec = build_field(p, m)
            exp, log = _stepped_tables(spec)
            assert list(spec._exp) == exp and list(spec._log[1:]) == log[1:], (p, m)
            m += 1


@pytest.mark.parametrize("p, m", [(2, 16), (3, 10)])
def test_table_build_uses_few_schoolbook_products(monkeypatch, p, m):
    spec = build_field(p, m)  # its generator is known
    calls = 0
    plain = FieldSpec._schoolbook_mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return plain(self, a, b)

    monkeypatch.setattr(FieldSpec, "_schoolbook_mul", counted)
    exp, log = spec._build_tables()
    assert calls <= 2 * p ** ((m + 1) // 2) + 1
    assert exp == spec._exp and log == spec._log
    g = spec._gen_code
    for i in (1, 2, 12345, spec.q - 2):
        assert exp[i] == plain(spec, exp[i - 1], g)


def _schoolbook_order(spec, a):
    """a's order by schoolbook powers: strip each prime r of q - 1 while a^(order/r) = 1."""
    order = spec.q - 1
    for r in _factorint(spec.q - 1):
        while order % r == 0 and spec._pow_code_slow(a, order // r) == 1:
            order //= r
    return order


@pytest.mark.parametrize(
    "p, m", [(2, m) for m in range(1, 9)] + [(3, k) for k in range(1, 6)] + [(7, 1), (13, 2)]
)
def test_table_order_matches_schoolbook_on_every_element(p, m):
    spec = build_field(p, m)
    assert spec._log is not None
    for a in range(1, spec.q):
        assert multiplicative_order(FieldElement(spec, a)) == _schoolbook_order(spec, a), a


@pytest.mark.parametrize("p, m", [(2, 16), (3, 10)])
def test_table_order_matches_schoolbook_on_seeded_elements(p, m):
    spec = build_field(p, m)
    assert spec._log is not None
    rng = random.Random(f"order:{p}:{m}")
    for a in [rng.randrange(1, spec.q) for _ in range(500)]:
        assert multiplicative_order(FieldElement(spec, a)) == _schoolbook_order(spec, a), a


def test_table_fields_make_no_schoolbook_products(monkeypatch):
    fields = [(build_field(2, 8), 17), (build_field(3, 5), 11)]

    def refuse(*args):
        raise AssertionError("table field took the schoolbook path")

    monkeypatch.setattr(FieldSpec, "_schoolbook_mul", refuse)
    monkeypatch.setattr(FieldSpec, "_pow_code_slow", refuse)
    monkeypatch.setattr(galois, "_pf_inverse", refuse)
    for spec, n in fields:
        alpha = element_of_order(spec, n)
        assert multiplicative_order(alpha) == n
        assert make_plan(n, spec, alpha, 2).n == n
        F = dft_matrix(alpha, n)
        assert F.rank() == n
        eye = FqMatrix.identity(spec, n)
        assert F * F.solve(eye) == eye


def test_import_builds_no_field():
    code = "import netcode.cli, netcode.galois as g; print(len(g._FIELDS))"
    src = str(Path(galois.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0\n"


@pytest.mark.parametrize("p, m", [(2, 17), (2, 20), (3, 11), (5, 7)])
def test_inverse_above_table_cap(p, m):
    spec = build_field(p, m)
    assert spec.q > 1 << 16
    rng = random.Random(f"inv:{p}:{m}")
    for a in [1, p - 1, spec.q - 1] + [rng.randrange(1, spec.q) for _ in range(12)]:
        inv = spec._inv_code(a)
        assert inv == spec._pow_code_slow(a, spec.q - 2)
        assert spec._schoolbook_mul(a, inv) == 1


@pytest.mark.parametrize(
    "p, m, ok",
    [
        (2, 24, True),
        (2, 25, False),
        (4093, 2, True),  # 16,752,649
        (4099, 2, False),
        (16777213, 1, True),
        (16777259, 1, False),
        (2**127 - 1, 10**9, False),  # refused without computing p**m
        (1, 10**9, True),  # not a field: left to build_field
        (2, 0, True),
    ],
)
def test_field_order_limit(p, m, ok):
    assert _MAX_FIELD_ORDER == 1 << 24
    if ok:
        _check_field_order(p, m, "field")
    else:
        with pytest.raises(ParseError, match=r"^field: GF\("):
            _check_field_order(p, m, "field")
