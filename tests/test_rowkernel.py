"""The row kernels against textbook loops over scalar field arithmetic.

Matrix products, row scaling and the DFT each have one loop, and
elimination (rank, det, solve, inverse) and its replay are each one call,
eliminate and solve, of the row kernel that FieldSpec._kernel picks by row
width: byte lanes in GF(2^m) with m <= 8 for rows at least _LANE_MIN_WIDTH
wide, packed lanes in GF(2^m) with 8 < m <= 24 and in every field of odd
p <= _PACKED_MAX_P from their own crossovers on, and the field's code-list
kernel everywhere else. A spec picks that kernel once, by regime: log
tables in GF(2^m) up to the table cap, inline arithmetic in GF(p), and
scalar multiplies and adds in every other field. A product runs on its
transposed operands when only the left side's height reaches the wide
kernel. Here the packed lanes serve from
_LANE_MIN_WIDTH on, as byte lanes do (the autouse fixture below), so the
shapes sit on both sides of every crossover; the first kernel-choice test
pins the real crossovers on fresh specs. Byte lanes eliminate and replay
in loops of their own and packed lanes in the code lists' loops; each wide
kernel's eliminate and solve is checked, called directly, against the code
lists'. Polynomial products and exact divisions are kernel calls too,
checked here in every kernel class that has them against convolution. The
oracles call only the scalar _mul_codes and _add_codes, one element at a
time, and sympy's DomainMatrix rank over prime fields; the scalars meet
digit-wise arithmetic.
"""

import random
import sys
import threading

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from netcode.alignment import align_search
from netcode.galois import (
    _LANE_MIN_WIDTH,
    _PACKED_MAX_P,
    _PACKED_MIN_WIDTH,
    _PACKED_MIN_WIDTH_DIGITS,
    _PACKED_MIN_WIDTH_NO_TABLES,
    FieldElement,
    FieldSpec,
    FqFactors,
    FqMatrix,
    _dft,
    _LaneKernel,
    _LogLists,
    _MulLists,
    _PackedKernel,
    _PrimeLists,
    _spread,
    build_field,
    element_of_order,
)
from netcode.netmodel import _simulate_rows, random_leks, transfer_matrix
from netcode.transform import _dft_apply, make_plan
from tests.conftest import CATEGORY_LENGTHS, cat_net
from tests.oracles import dft_matrix, inverse_dft_matrix

# byte lanes in the first four; packed 16-bit lanes over log tables up to
# GF(2^16) and over carry-less products in GF(2^17); packed 32-bit lanes
# in GF(2^20) and GF(2^24); packed digit lanes in the odd-p fields, in 8
# bits up to GF(3^2) and GF(7), 16 bits in GF(3^5), GF(5^3) and GF(7^4),
# and 64 bits in GF(3^11), whose code lists multiply spread digits
FIELDS = [
    (2, 1), (2, 4), (2, 6), (2, 8), (2, 9), (2, 10), (2, 12), (2, 16), (3, 2), (7, 1),
    (2, 17), (2, 20), (2, 24), (3, 11), (3, 1), (5, 1), (3, 5), (5, 3), (7, 4),
]
PACKED = [(p, m) for p, m in FIELDS if type(build_field(p, m)._wide) is _PackedKernel]
W = _LANE_MIN_WIDTH
SHAPES = [(6, 6), (4, 7), (8, 5), (1, 1), (1, 5), (5, 1), (W + 3, W + 3), (W + 6, W), (4, W + 5)]


@pytest.fixture(autouse=True)
def _packed_lanes_from_w(monkeypatch):
    """Packed lanes serve rows from W entries on, as byte lanes do."""
    for p, m in PACKED:
        monkeypatch.setattr(build_field(p, m), "_wide_min", W)


# ----------------------------------------------------------------------
# textbook oracles: scalar multiplies and adds only
# ----------------------------------------------------------------------


def _neg(spec, a):
    return spec._mul_codes(spec.p - 1, a)


def _inv(spec, a):
    out, e = 1, spec.q - 2
    while e:
        if e & 1:
            out = spec._mul_codes(out, a)
        a = spec._mul_codes(a, a)
        e >>= 1
    return out


def _echelon(spec, rows):
    """(echelon rows, pivot columns, swap count) by Gaussian elimination."""
    mul, add = spec._mul_codes, spec._add_codes
    rows = [row[:] for row in rows]
    pivots, swaps, r = [], 0, 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        inv_p = _inv(spec, rows[r][c])
        for i in range(r + 1, len(rows)):
            f = _neg(spec, mul(rows[i][c], inv_p))
            rows[i] = [add(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, swaps


def _rank(spec, rows):
    return len(_echelon(spec, rows)[1])


def _det(spec, rows):
    ech, pivots, swaps = _echelon(spec, rows)
    if len(pivots) < len(rows):
        return 0
    acc = 1
    for i, c in enumerate(pivots):
        acc = spec._mul_codes(acc, ech[i][c])
    return _neg(spec, acc) if swaps % 2 else acc


def _matmul(spec, a, b):
    mul, add = spec._mul_codes, spec._add_codes
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0]) if b else 0):
            acc = 0
            for k, x in enumerate(arow):
                acc = add(acc, mul(x, b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _solve(spec, a, b):
    """X with a X = b for a of full column rank, by back substitution."""
    mul, add = spec._mul_codes, spec._add_codes
    n = len(a[0])
    ech, pivots, _ = _echelon(spec, [ra + rb for ra, rb in zip(a, b)])
    assert pivots == list(range(n))
    x = [[0] * len(b[0]) for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for j in range(len(b[0])):
            acc = ech[r][n + j]
            for c in range(r + 1, n):
                acc = add(acc, _neg(spec, mul(ech[r][c], x[c][j])))
            x[r][j] = mul(acc, _inv(spec, ech[r][r]))
    return x


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------


def _rand(spec, rng, nrows, ncols, zero_share=0.2):
    return [
        [0 if rng.random() < zero_share else rng.randrange(spec.q) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _singular(spec, rng, n):
    """n x n of rank n - 1: the last row is a combination of two others."""
    rows = _rand(spec, rng, n, n)
    a, b = rng.randrange(1, spec.q), rng.randrange(spec.q)
    mul, add = spec._mul_codes, spec._add_codes
    rows[-1] = [add(mul(a, x), mul(b, y)) for x, y in zip(rows[0], rows[1])]
    return rows


def _swapping(spec, rng, n):
    """n x n whose first column is zero above the last row: a swap is forced."""
    rows = _rand(spec, rng, n, n, zero_share=0.0)
    for row in rows[:-1]:
        row[0] = 0
    rows[-1][0] = rng.randrange(1, spec.q)
    return rows


def _cases(spec, seed):
    rng = random.Random(f"rowkernel:{spec.p}:{spec.m}:{seed}")
    cases = [_rand(spec, rng, r, c) for r, c in SHAPES]
    for n in (5, W + 2):
        cases += [_singular(spec, rng, n), _swapping(spec, rng, n)]
        cases.append([[0] + row for row in _swapping(spec, rng, n - 1)])  # zero leading column
        cases.append([[0] * n for _ in range(3)])
    return cases


def _lanes(spec):
    """The kernel of wide rows of spec, byte or packed lanes, or None when
    every width gets code lists."""
    kern = spec._kernel(W)
    return None if kern is spec._kernel(0) else kern


# the lane bits of each packed field
LANE_BITS = {
    (2, 9): 16, (2, 10): 16, (2, 12): 16, (2, 16): 16, (2, 17): 32, (2, 20): 32, (2, 24): 32,
    (3, 1): 8, (5, 1): 8, (7, 1): 8, (3, 2): 8, (31, 1): 8, (3, 5): 16, (5, 3): 16, (7, 4): 16,
    (11, 2): 16, (3, 10): 32, (3, 11): 64, (3, 15): 64,
}


@pytest.mark.parametrize("p, m", FIELDS + [(11, 2), (31, 1), (37, 1), (3, 10), (3, 15)])
def test_lanes_serve_wide_rows_of_gf2m_up_to_m8(p, m):
    """Byte lanes from width 8 in GF(2^m), m <= 8. Packed lanes from 128 in
    GF(p) and in GF(2^m) with log tables (m <= 16), from 16 in GF(p^m) with
    log tables, and from 8 in every field without them, for p = 2 up to
    m = 24 and for odd p up to 31. Code lists for every width in every
    other field, and below each crossover."""
    assert (_PACKED_MIN_WIDTH, _PACKED_MIN_WIDTH_DIGITS, _PACKED_MIN_WIDTH_NO_TABLES) == (128, 16, 8)
    spec = FieldSpec(p, m, build_field(p, m).modulus)  # the real crossovers
    narrow = spec._kernel(0)
    wide = spec._kernel(1 << 20)
    start = None
    if p == 2 and m <= 8:
        assert type(wide) is _LaneKernel
        start = _LANE_MIN_WIDTH
    elif m <= 24 if p == 2 else p <= _PACKED_MAX_P:
        assert type(wide) is _PackedKernel
        assert wide.bits == LANE_BITS[p, m] and wide.code == "BHIQ"[LANE_BITS[p, m].bit_length() - 4]
        start = 8 if not spec._exp else 128 if p == 2 or m == 1 else 16
    else:
        assert wide is narrow
    start = start or 1 << 20
    for w in (0, 1, 7, 8, 9, 15, 16, 17, 85, 127, 128, 129, 255):
        assert spec._kernel(w) is (wide if w >= start else narrow), w
    if type(wide) is _LaneKernel:
        tables = wide.tables
        assert len(tables) == spec.q and all(len(t) == 256 for t in tables)
        for c in range(spec.q):
            assert list(tables[c][: spec.q]) == [spec._mul_codes(c, x) for x in range(spec.q)]


@pytest.mark.parametrize("p, m", FIELDS)
def test_rank_det_match_textbook_elimination(p, m):
    spec = build_field(p, m)
    for rows in _cases(spec, "rank"):
        A = FqMatrix(spec, [row[:] for row in rows])
        assert A.rank() == _rank(spec, rows), rows
        if A.nrows == A.ncols:
            assert A.det().code == _det(spec, rows), rows
        assert A.rows == rows  # the queries work on a copy


@pytest.mark.parametrize("p, m", FIELDS)
def test_mul_and_scale_match_textbook(p, m):
    spec = build_field(p, m)
    rng = random.Random(f"mul:{p}:{m}")
    for r, k in SHAPES:
        a = _rand(spec, rng, r, k)
        b = _rand(spec, rng, k, rng.randrange(1, 6))
        assert (FqMatrix(spec, a) * FqMatrix(spec, b)).rows == _matmul(spec, a, b)
        for s in (0, 1, rng.randrange(1, spec.q)):
            scaled = [[spec._mul_codes(s, x) for x in row] for row in a]
            assert FqMatrix(spec, a).scale(FieldElement(spec, s)).rows == scaled


# the code-list kernel of each regime, and the kernel of its wide rows
REGIMES = {
    (2, 1): (_LogLists, _LaneKernel), (2, 8): (_LogLists, _LaneKernel),
    (2, 9): (_LogLists, _PackedKernel), (2, 16): (_LogLists, _PackedKernel),
    (2, 17): (_MulLists, _PackedKernel), (2, 20): (_MulLists, _PackedKernel),
    (2, 24): (_MulLists, _PackedKernel), (2, 25): (_MulLists, _MulLists),
    (3, 1): (_PrimeLists, _PackedKernel), (31, 1): (_PrimeLists, _PackedKernel),
    (37, 1): (_PrimeLists, _PrimeLists), (65537, 1): (_PrimeLists, _PrimeLists),
    (3, 2): (_MulLists, _PackedKernel), (3, 10): (_MulLists, _PackedKernel),
    (3, 11): (_MulLists, _PackedKernel), (37, 2): (_MulLists, _MulLists),
}


@pytest.mark.parametrize("p, m", REGIMES)
def test_kernel_class_per_regime(p, m):
    spec = build_field(p, m)
    lists, wide = REGIMES[p, m]
    assert type(spec._kernel(1)) is lists
    assert type(spec._kernel(1 << 20)) is wide
    assert spec._kernel(W - 1) is spec._kernel(1)


def _digitwise(spec, a, b=None):
    """a + b, or -a when b is None, digit by digit in base p."""
    p = spec.p
    out = 0
    for i in reversed(range(spec.m)):
        x = a // p**i % p
        out = out * p + ((-x if b is None else x + b // p**i % p) % p)
    return out


@pytest.mark.parametrize(
    "p, m", [(2, 1), (2, 4), (2, 6), (3, 2), (3, 4), (5, 2), (7, 1), (2, 17), (3, 11), (65537, 1)]
)
def test_add_and_neg_codes_match_digitwise(p, m):
    """Every pair up to q = 81; seeded pairs above the table cap."""
    spec = build_field(p, m)
    if spec.q <= 81:
        pairs = [(a, b) for a in range(spec.q) for b in range(spec.q)]
    else:
        rng = random.Random(f"scalars:{p}:{m}")
        ends = [0, 1, p - 1, spec.q - 1]
        pairs = [(a, b) for a in ends for b in ends]
        pairs += [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(2000)]
    for a, b in pairs:
        assert spec._add_codes(a, b) == _digitwise(spec, a, b), (a, b)
        assert spec._neg_code(a) == _digitwise(spec, a), a


# (rows of A, cols of A = rows of B, cols of B): B wide, B narrow under a
# tall A, both small, and empty inner or outer dimensions
PRODUCT_SHAPES = [
    (3, 5, W), (1, 4, W + 2), (W + 5, W + 1, W + 3), (17, 9, 8),
    (W, 5, 1), (17, 9, 1), (85, 43, 1), (W + 9, 4, 3), (17, 9, 3),
    (3, 4, 2), (W - 1, W - 1, W - 1), (1, 1, 1),
    (W + 2, 3, 0), (3, 3, 0), (W + 1, 0, 0), (2, 0, 0), (0, 0, 0),
]


class _Spy:
    """A row kernel that logs (kernel, width) for each matvec it serves."""

    def __init__(self, kern, log):
        self.kern, self.log = kern, log

    def __getattr__(self, name):
        return getattr(self.kern, name)

    def matvec(self, vec, srcs, width):
        self.log.append((self.kern, width))
        return self.kern.matvec(vec, srcs, width)


@pytest.mark.parametrize("p, m", FIELDS[:6] + [(2, 16), (2, 20), (3, 2), (7, 1)])
def test_products_in_both_lane_orientations(p, m, monkeypatch):
    """A * B by A's columns when A has more rows than B has columns, and
    otherwise by B's rows, so it makes the fewer matvec calls, on the
    longer rows. Those rows run in the wide kernel from W entries on, byte
    lanes in GF(2^m) for m <= 8 and packed lanes for 8 < m <= 24 and in
    GF(3^2) and GF(7), and in code lists below W and in every field without
    lanes. Each output row is one matvec of the selected kernel."""
    spec = build_field(p, m)
    lanes, lists = _lanes(spec), spec._kernel(0)

    def kern(width):
        return lanes if lanes is not None and width >= W else lists

    rng = random.Random(f"orient:{p}:{m}")
    served: list = []
    spies = {id(k): _Spy(k, served) for k in (lanes, lists) if k is not None}
    select = FieldSpec._kernel
    monkeypatch.setattr(FieldSpec, "_kernel", lambda self, w: spies[id(select(self, w))])
    for r, k, c in PRODUCT_SHAPES:
        a, b = _rand(spec, rng, r, k), _rand(spec, rng, k, c)
        zero_a = [[0] * k for _ in range(r)]
        zero_b = [[0] * c for _ in range(k)]
        # a zero row and a zero column in each factor
        holed_a = [[0 if i == r // 2 or j == k // 2 else x for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        holed_b = [[0 if i == k // 2 or j == c // 2 else x for j, x in enumerate(row)]
                   for i, row in enumerate(b)]
        if r > c:
            want = [(kern(r), r)] * c  # A's columns
        else:
            want = [(kern(c), c)] * r  # B's rows
        for x, y in [(a, b), (holed_a, holed_b), (zero_a, b), (a, zero_b), (zero_a, zero_b)]:
            served.clear()
            got = FqMatrix(spec, x) * FqMatrix(spec, y)
            assert got.rows == _matmul(spec, x, y), (r, k, c)
            assert got.shape == (r, c if r else 0)
            assert served == want, (r, k, c)


@pytest.mark.parametrize("p, m", FIELDS)
def test_solve_inverse_match_back_substitution(p, m):
    spec = build_field(p, m)
    rng = random.Random(f"solve:{p}:{m}")
    done = 0
    for n, extra in [(1, 0), (4, 0), (6, 0), (5, 3), (3, 1), (W + 2, 0), (W, 4)] * 4:
        a = _rand(spec, rng, n + extra, n)
        if _rank(spec, a) < n:
            with pytest.raises(ValueError, match="rank deficient"):
                FqMatrix(spec, a).solve(FqMatrix(spec, _rand(spec, rng, n + extra, 2)))
            continue
        x = _rand(spec, rng, n, 3)
        b = _matmul(spec, a, x)  # consistent, also when tall
        got = FqMatrix(spec, a).solve(FqMatrix(spec, b)).rows
        assert got == x == _solve(spec, a, b)
        if not extra:
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert FqMatrix(spec, a).inverse().rows == _solve(spec, a, eye)
        done += 1
    assert done >= 5
    for n in (5, W + 2):
        swapped = _swapping(spec, rng, n)
        if _rank(spec, swapped) == n:
            b = _rand(spec, rng, n, 2)
            got = FqMatrix(spec, swapped).solve(FqMatrix(spec, b)).rows
            assert got == _solve(spec, swapped, b)


def _full_column_rank(spec, rng, draw):
    for _ in range(50):
        a = draw()
        if _rank(spec, a) == len(a[0]):
            return a
    raise AssertionError("no full-rank draw")  # pragma: no cover


@pytest.mark.parametrize("p, m", FIELDS)
def test_factor_solves_match_textbook(p, m):
    """One factor() replays on many right-hand sides: square, tall, singular
    and swap-forcing matrices, with one and three columns."""
    spec = build_field(p, m)
    rng = random.Random(f"factor:{p}:{m}")
    for n in (5, W + 3):
        cases = {
            "square": _full_column_rank(spec, rng, lambda: _rand(spec, rng, n, n)),
            "tall": _full_column_rank(spec, rng, lambda: _rand(spec, rng, n + 4, n)),
            "swapping": _full_column_rank(spec, rng, lambda: _swapping(spec, rng, n)),
            "swapping-tall": _full_column_rank(
                spec, rng, lambda: _swapping(spec, rng, n) + _rand(spec, rng, 3, n)
            ),
            "singular": _singular(spec, rng, n),
        }
        for name, a in cases.items():
            f = FqMatrix(spec, a).factor()
            _, pivots, _ = _echelon(spec, a)
            assert (f.rank, f.pivots) == (len(pivots), pivots), name
            for k in (1, 3, 1):
                if f.rank < n:
                    with pytest.raises(ValueError, match="rank deficient"):
                        f.solve(FqMatrix(spec, _rand(spec, rng, len(a), k)))
                    continue
                x = _rand(spec, rng, n, k)
                b = _matmul(spec, a, x)
                assert f.solve(FqMatrix(spec, b)).rows == x == _solve(spec, a, b), name


@pytest.mark.parametrize("p, m", [(2, 8), (7, 1)])
@pytest.mark.parametrize("n", [3, W + 2])
def test_solve_with_no_columns_gives_distinct_rows(p, m, n):
    spec = build_field(p, m)
    rng = random.Random(f"empty:{p}:{m}:{n}")
    a = _full_column_rank(spec, rng, lambda: _rand(spec, rng, n, n))
    empty = FqMatrix(spec, [[] for _ in range(n)])
    for A in (FqMatrix.identity(spec, n), FqMatrix(spec, a)):
        got = A.solve(empty)
        assert got.rows == [[] for _ in range(n)]
        got.rows[0].append(1)
        assert got.rows[1:] == [[] for _ in range(n - 1)]


@pytest.mark.parametrize("p, m", [(2, 8), (7, 1)])
@pytest.mark.parametrize("n", [4, W + 2])
def test_solve_error_messages(p, m, n):
    """The solve refusals: alignment's SingularDecodeSystem carries these
    messages, as does tests.oracles.SingularAtGeneration.

    An inconsistent tall system reads "rank deficient": eliminated beside
    the matrix, its right-hand side takes a pivot."""
    spec = build_field(p, m)
    rng = random.Random(f"errors:{p}:{m}:{n}")
    tall = _full_column_rank(spec, rng, lambda: _rand(spec, rng, n + 3, n))
    b = _matmul(spec, tall, _rand(spec, rng, n, 1))
    b[-1][0] = spec._add_codes(b[-1][0], 1)
    while _rank(spec, [ra + rb for ra, rb in zip(tall, b)]) == n:  # pragma: no cover
        b[-1][0] = spec._add_codes(b[-1][0], 1)
    deficient_tall = [row[:-1] + row[:1] for row in tall]  # last column repeats the first
    cases = [
        (_singular(spec, rng, n), _rand(spec, rng, n, 1), "system is rank deficient"),
        (deficient_tall, _rand(spec, rng, n + 3, 2), "system is rank deficient"),
        (tall, b, "system is rank deficient"),
        (tall, _rand(spec, rng, n, 1), "right-hand side has wrong number of rows"),
    ]
    for a, rhs, message in cases:
        A = FqMatrix(spec, a)
        for solve in (A.solve, A.factor().solve):
            with pytest.raises(ValueError) as exc:
                solve(FqMatrix(spec, rhs))
            assert str(exc.value) == message
    other = build_field(2, 8) if p == 7 else build_field(7, 1)
    with pytest.raises(ValueError, match="mixed fields"):
        FqMatrix(spec, tall).solve(FqMatrix(other, [[1]] * (n + 3)))


@pytest.mark.parametrize("p, m", [(3, 2), (7, 1)])
def test_swap_sign_in_odd_characteristic(p, m):
    spec = build_field(p, m)
    minus_one = _neg(spec, 1)
    assert FqMatrix(spec, [[0, 1], [1, 0]]).det().code == minus_one
    assert FqMatrix(spec, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det().code == minus_one
    assert FqMatrix(spec, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det().code == 1


@pytest.mark.parametrize("p", [2, 7])
def test_rank_matches_sympy(p):
    spec = build_field(p, 1)
    K = sympy.GF(p)
    rng = random.Random(f"sympy-rank:{p}")
    for r, c in SHAPES + [(7, 7), (9, 4)]:
        rows = _rand(spec, rng, r, c, zero_share=0.5)
        dm = DomainMatrix([[K(x) for x in row] for row in rows], (r, c), K)
        assert FqMatrix(spec, rows).rank() == dm.rank(), rows


@given(
    st.sampled_from(FIELDS),
    st.integers(1, W + 4),
    st.integers(1, W + 4),
    st.randoms(use_true_random=False),
)
def test_property_elimination_and_product(field, nrows, ncols, rng):
    spec = build_field(*field)
    rows = _rand(spec, rng, nrows, ncols, zero_share=rng.random())
    A = FqMatrix(spec, rows)
    assert A.rank() == _rank(spec, rows)
    At = FqMatrix(spec, [list(col) for col in zip(*rows)])
    assert (A * At).rows == _matmul(spec, rows, At.rows)
    if nrows == ncols:
        assert A.det().code == _det(spec, rows)


# ----------------------------------------------------------------------
# polynomial products
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p, m", FIELDS)
def test_mul_into_matches_convolution(p, m):
    spec = build_field(p, m)
    mul, add = spec._mul_codes, spec._add_codes
    rng = random.Random(f"conv:{p}:{m}")
    for la, lb in [(1, 1), (1, 7), (7, 1), (5, 9), (12, 4)]:
        a, b = _rand(spec, rng, 1, la)[0], _rand(spec, rng, 1, lb)[0]
        out = _rand(spec, rng, 1, la + lb - 1)[0]
        want = out[:]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] = add(want[i + j], mul(x, y))
        out = spec._lists.mul_into(out, a, spec._lists.prep(b))
        assert out == want


def _convolve(spec, a, b):
    """a * b for code lists, lowest power first, by scalar calls."""
    mul, add = spec._mul_codes, spec._add_codes
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out


def _trim(codes):
    codes = list(codes)
    while codes and not codes[-1]:
        codes.pop()
    return tuple(codes)


@pytest.mark.parametrize("p, m", FIELDS)
def test_poly_calls_match_convolution_in_every_kernel(p, m):
    """mul_into onto an empty row (zero()) and onto a longer one, and
    div_exact by monic divisors, some with a power of D as a factor, in
    the code lists of every regime and in byte lanes. Packed lanes have no
    polynomial calls: Poly products and PolyMatrix.det run in byte lanes
    or code lists."""
    spec = build_field(p, m)
    kerns = [spec._lists] + ([spec._poly] if spec._poly is not spec._lists else [])
    minus_one = _neg(spec, 1)
    for kern in kerns:
        rng = random.Random(f"polycalls:{p}:{m}")
        pack, unpack, prep = kern.pack, kern.unpack, kern.prep
        for la, lb in [(1, 1), (1, 7), (7, 1), (5, 9), (12, 4), (3, W + 2)]:
            a, b = _rand(spec, rng, 1, la)[0], _rand(spec, rng, 1, lb)[0]
            n = la + lb - 1
            scale = rng.randrange(1, spec.q)
            want = _convolve(spec, a, [spec._mul_codes(scale, y) for y in b])
            assert _trim(unpack(kern.mul_into(kern.zero(), a, prep(b, scale)), n)) == _trim(want)
            out = _rand(spec, rng, 1, n + 3)[0]
            want = [spec._add_codes(x, y) for x, y in zip(out, want + [0] * 3)]
            assert list(unpack(kern.mul_into(pack(out), a, prep(b, scale)), n + 3)) == want
            # the monic divisor D^s * (c + ... + D^d), with s low zeros
            monic = [0] * rng.randrange(3) + _rand(spec, rng, 1, rng.randrange(4))[0] + [1]
            quot = _rand(spec, rng, 1, la)[0]
            dividend = _convolve(spec, quot, monic)
            assert _trim(kern.div_exact(pack(dividend + [0] * 2), prep(monic, minus_one))) \
                == _trim(quot)
            assert tuple(kern.div_exact(pack(dividend), prep(monic, minus_one))) == _trim(quot)
            if len(monic) > 1:
                rem = [0] * (len(monic) - 1)
                rem[rng.randrange(len(rem))] = rng.randrange(1, spec.q)
                bad = [spec._add_codes(x, y) for x, y in zip(dividend, rem + [0] * la)]
                with pytest.raises(ArithmeticError):
                    kern.div_exact(pack(bad), prep(monic, minus_one))


# ----------------------------------------------------------------------
# the DFT across generations
# ----------------------------------------------------------------------


# n below and above W, odd n included; GF(2^17) has no n but 1 below 2^17 - 1
DFT_SIZES = [
    (2, 8, 3), (2, 8, 5), (2, 8, 15), (2, 8, 17), (2, 8, 51), (2, 8, 255), (2, 9, 7),
    (2, 9, 73), (2, 10, 3), (2, 10, 33), (2, 12, 5), (2, 12, 13), (2, 16, 5), (2, 16, 257),
    (2, 17, 1), (2, 20, 5), (2, 20, 41), (2, 24, 7), (2, 24, 17),
]


@pytest.mark.parametrize("p, m, n", DFT_SIZES)
@pytest.mark.parametrize("width", [1, 3])
def test_dft_apply_matches_dense_transform(p, m, n, width):
    spec = build_field(p, m)
    alpha = element_of_order(spec, n)
    plan = make_plan(n, spec, alpha, 0)
    rng = random.Random(f"dft:{p}:{m}:{n}:{width}")
    # stacked row r is generation n-1-r; one generation is all zero
    G = _rand(spec, rng, n, width)
    G[rng.randrange(n)] = [0] * width
    lanes = [[G[n - 1 - t][w] for t in range(n)] for w in range(width)]
    for invert, F in ((False, dft_matrix(alpha, n)), (True, inverse_dft_matrix(alpha, n))):
        want = _matmul(spec, F.rows, G)
        got = _dft_apply(plan, lanes, invert)
        assert [[lane[n - 1 - r] for lane in got] for r in range(n)] == want


# ----------------------------------------------------------------------
# code-list rows: prep, axpy and matvec against scalar calls
# ----------------------------------------------------------------------


def _check_rows(spec, rng):
    lists = spec._lists
    p, mul, add = spec.p, spec._mul_codes, spec._add_codes
    for width in (1, 5, W + 3):
        row = _rand(spec, rng, 1, width)[0]
        dst = _rand(spec, rng, 1, width + 4)[0]
        for scale in (0, 1, rng.randrange(2, spec.q)):
            src = lists.prep(row, scale)
            want = [(j, mul(scale, v)) for j, v in enumerate(row) if mul(scale, v)]
            if type(lists) is _LogLists:  # entries hold (j, log v)
                want = [(j, spec._log[v]) for j, v in want]
            if getattr(lists, "spread", None):  # entries hold (j, v spread)
                want = [(j, _spread(v, p, spec._kron[0])) for j, v in want]
            assert src == want
            for off in (0, 4):
                for f in (0, 1, p - 1, rng.randrange(spec.q)):
                    want = dst[:]
                    for j, v in enumerate(row):
                        want[off + j] = add(want[off + j], mul(f, mul(scale, v)))
                    assert lists.axpy(dst[:], f, src, off) == want
        vec = _rand(spec, rng, 1, 4)[0]
        rows = _rand(spec, rng, 4, width)
        want = [0] * width
        for x, r in zip(vec, rows):
            for j, v in enumerate(r):
                want[j] = add(want[j], mul(x, v))
        assert lists.matvec(vec, [lists.prep(r) for r in rows], width) == want


@pytest.mark.parametrize("p", [3, 7, 65537])  # 65537 is above the table cap
def test_prime_field_rows_match_scalar_calls(p):
    """GF(p) rows update inline, not by scalar calls."""
    _check_rows(build_field(p, 1), random.Random(f"gfp-rows:{p}"))


@pytest.mark.parametrize("p, m", [(2, 4), (2, 8), (2, 16), (3, 2), (2, 17), (3, 11), (5, 3)])
def test_code_list_rows_match_scalar_calls(p, m):
    _check_rows(build_field(p, m), random.Random(f"rows:{p}:{m}"))


@pytest.mark.parametrize("p, m, n", DFT_SIZES)
def test_dft_matches_horner(p, m, n):
    """scale * f(a^k) for polynomials shorter and longer than n, zero ones
    included; their degrees wrap mod n."""
    spec = build_field(p, m)
    a = element_of_order(spec, n).code
    rng = random.Random(f"horner:{p}:{m}:{n}")
    polys = [_rand(spec, rng, 1, k)[0] for k in (0, 1, n, n + 3, 2 * n + 1)] + [[0] * 4]
    scale = rng.randrange(1, spec.q)
    mul, add = spec._mul_codes, spec._add_codes
    got = _dft(spec, polys, a, n, scale)
    for f, row in zip(polys, got):
        assert type(row) is list
        want = []
        for k in range(n):
            x, acc = spec._pow_code(a, k), 0
            for c in reversed(f):
                acc = add(mul(acc, x), c)
            want.append(mul(scale, acc))
        assert row == want


# ----------------------------------------------------------------------
# every kernel's row calls against scalar calls
# ----------------------------------------------------------------------


def _kernels(spec):
    """The code-list kernel of spec and, when it has one, its wide kernel."""
    return [spec._lists] + ([_lanes(spec)] if _lanes(spec) else [])


@pytest.mark.parametrize("p, m", FIELDS)
def test_row_calls_match_scalar_calls(p, m):
    """pack and unpack, column (but in byte lanes), axpy with offsets
    and scales, axpys on a few and on many rows per src, matvec and scaled,
    in every kernel, at widths on both sides of W. matvec and scaled give lists, as
    FqMatrix rows are compared as lists."""
    spec = build_field(p, m)
    mul, add = spec._mul_codes, spec._add_codes
    for kern in _kernels(spec):
        rng = random.Random(f"calls:{p}:{m}:{type(kern).__name__}")
        pack, unpack = kern.pack, kern.unpack
        for width in (1, 5, W, W + 5, 2 * W + 1):
            row = _rand(spec, rng, 1, width)[0]
            dst = _rand(spec, rng, 1, width + 4)[0]
            assert list(unpack(pack(row), width)) == row
            assert list(unpack(pack([0] * width), width)) == [0] * width
            for scale in (0, 1, rng.randrange(1, spec.q)):
                src = kern.prep(row, scale)
                for off in (0, 4):
                    for f in (0, 1, rng.randrange(spec.q)):
                        want = dst[:]
                        for j, v in enumerate(row):
                            want[off + j] = add(want[off + j], mul(f, mul(scale, v)))
                        got = kern.axpy(pack(dst), f, src, off)
                        assert list(unpack(got, width + 4)) == want, (width, scale, off, f)
            f = rng.randrange(spec.q)
            for factor in (0, 1, f):
                got = kern.scaled(factor, row)
                assert type(got) is list and got == [mul(factor, v) for v in row]
            rows = _rand(spec, rng, 4, width)
            vec = _rand(spec, rng, 1, 4)[0]
            want = [0] * width
            for x, r in zip(vec, rows):
                want = [add(w, mul(x, v)) for w, v in zip(want, r)]
            got = kern.matvec(vec, [kern.prep(r) for r in rows], width)
            assert type(got) is list and got == want
            packed = [pack(r) for r in rows]
            # column serves the generic elimination loop; byte lanes run their own
            for c in {0, width // 2, width - 1} if type(kern) is not _LaneKernel else ():
                assert kern.column(packed, 1, c) == [r[c] for r in rows[1:]]
            for height in (4, 2 * W + 3):
                base = _rand(spec, rng, height, width)
                columns = _rand(spec, rng, 2, height - 1, zero_share=0.3)
                srcs = _rand(spec, rng, 2, width)
                scale = rng.randrange(1, spec.q)
                rows_k = [pack(r) for r in base]
                kern.axpys(rows_k, 1, columns, [unpack(pack(r), width) for r in srcs], scale)
                for factors, r in zip(columns, srcs):
                    for i, f in enumerate(factors, 1):
                        base[i] = [add(x, mul(mul(f, scale), v)) for x, v in zip(base[i], r)]
                assert [list(unpack(r, width)) for r in rows_k] == base


@pytest.mark.parametrize("p, m", [(7, 1), (3, 2)])
def test_packed_scales_by_every_factor_as_code_lists(p, m):
    """Packed lanes scale a row by the multiples that the factor's digits
    select, and prepare a scaled row from it once: for every nonzero factor,
    on dense and sparse rows, scaled gives the code lists' product and
    prep(codes, f) the prepared product, which then adds as the code lists'."""
    spec = build_field(p, m)
    packed, lists = _PackedKernel(spec), spec._lists
    rng = random.Random(f"scales:{p}:{m}")
    for width in (1, 5, W, 2 * W + 1):
        for zero_share in (0.2, 0.8):
            row = _rand(spec, rng, 1, width, zero_share)[0]
            for f in range(1, spec.q):
                want = lists.scaled(f, row)
                assert packed.scaled(f, row) == want, (width, f)
                src = packed.prep(row, f)
                assert src == packed.prep(want), (width, f)
                g = rng.randrange(1, spec.q)
                got = packed.unpack(packed.axpy(0, g, src), width).tolist()
                assert got == lists.scaled(g, want), (width, f, g)


@pytest.mark.parametrize("p, m", PACKED)
def test_wide_products_and_scales_compare_as_matrices(p, m):
    """FqMatrix == compares rows as lists, so products and scales in packed
    lanes must come back as lists, or an identity check reads false."""
    spec = build_field(p, m)
    rng = random.Random(f"eq:{p}:{m}")
    a, b = _rand(spec, rng, W + 2, 3), _rand(spec, rng, 3, W + 1)
    s = FieldElement(spec, rng.randrange(2, spec.q))
    assert FqMatrix(spec, a) * FqMatrix(spec, b) == FqMatrix(spec, _matmul(spec, a, b))
    want = [[spec._mul_codes(s.code, x) for x in row] for row in b]
    assert FqMatrix(spec, b).scale(s) == FqMatrix(spec, want)
    assert all(type(row) is list for row in (FqMatrix(spec, a) * FqMatrix(spec, b)).rows)


def test_packed_masks_grow_safely_under_threads():
    """A spec's packed kernel widens its lane masks as wider rows come.
    Threads preparing rows of many widths at once on one fresh kernel get
    what a kernel of their own gives, in GF(2^12) and in GF(3^5)."""
    for spec in (build_field(2, 12), build_field(3, 5)):
        ref = _PackedKernel(spec)
        rng = random.Random("threads")
        rows = [_rand(spec, rng, 1, w)[0] for w in range(1, 400, 5)]
        want = [ref.prep(row) for row in rows]
        wrong = []

        def work(kern, order):
            for i in order:
                if kern.prep(rows[i]) != want[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                kern = _PackedKernel(spec)
                threads = [
                    threading.Thread(
                        target=work, args=(kern, rng.sample(range(len(rows)), len(rows)))
                    )
                    for _ in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [], spec


# ----------------------------------------------------------------------
# packed lanes against code lists on whole jobs
# ----------------------------------------------------------------------


def _lists_only(monkeypatch, spec):
    monkeypatch.setattr(spec, "_wide_min", 1 << 30)


@pytest.mark.parametrize(
    "p, m, steps",
    [
        (2, 10, 9), (2, 10, 129), (2, 16, 131), (2, 20, 9), (3, 1, 128), (3, 1, 131),
        (7, 1, 130), (3, 5, 16), (5, 3, 17), (7, 4, 16), (3, 11, 9),
    ],
)
def test_windows_match_code_lists(p, m, steps, monkeypatch):
    """simulate and transfer windows of odd widths, whose zero rows are
    explicit: a bytes object of steps zero bytes is steps / 2 16-bit codes.
    Dense and sparse inputs; every edge and output term past the first is
    an axpy at an offset, its delay."""
    spec = build_field(p, m)
    rng = random.Random(f"windows:{p}:{m}:{steps}")
    net = cat_net(CATEGORY_LENGTHS["cat1"])
    leks = random_leks(net, spec, "windows", nonzero=True)
    inputs = [[[0], [0], [0]] for _ in range(steps)]
    assert type(spec._kernel(steps)) is _PackedKernel
    tr = transfer_matrix(net, leks)
    for density in (0.7, 0.05):
        codes = [rng.randrange(spec.q) if rng.random() < density else 0 for _ in range(3 * steps)]
        packed = [list(row) for row in _simulate_rows(net, leks, inputs, 0, False, codes)]
        with monkeypatch.context() as patch:
            _lists_only(patch, spec)
            assert packed == _simulate_rows(net, leks, inputs, 0, False, codes)
            assert transfer_matrix(net, leks).M == tr.M


def _cat1_instance(spec, n, seed):
    """The first passing cat1 instance's precoders and free matrices, and
    its decode factors with their steps as codes."""
    inst = align_search(cat_net(CATEGORY_LENGTHS["cat1"]), n, spec, seed=seed).instance
    factors = [
        (f.rank, f.pivots, [list(r) for r in f.upper],
         _step_codes(spec, spec._kernel(f.ncols), f.steps, f.nrows))
        for f in inst.decode_factors
    ]
    return [M.rows for M in (inst.V1, inst.V2, inst.V3, inst.A, inst.B)], factors


@pytest.mark.parametrize(
    "p, m, n", [(2, 10, 16), (2, 20, 20), (2, 8, 25), (2, 6, 31), (3, 11, 11), (5, 3, 15)]
)
def test_cat1_search_matches_code_lists(p, m, n, monkeypatch):
    """The first passing cat1 instance is the same in packed lanes (m > 8,
    or odd p) or byte lanes and in code lists, precoders, free matrices and
    decode factors with their steps included. At N = 63 in GF(2^6) the DFT
    runs over every nonzero element."""
    spec = build_field(p, m)
    wide = _LaneKernel if p == 2 and m <= 8 else _PackedKernel
    assert type(spec._kernel(2 * n + 1)) is wide
    lanes = _cat1_instance(spec, n, "packed")
    _lists_only(monkeypatch, spec)
    assert _cat1_instance(spec, n, "packed") == lanes


# ----------------------------------------------------------------------
# each wide kernel's eliminate and solve against the code lists'
# ----------------------------------------------------------------------


def _step_codes(spec, kern, steps, nrows):
    """Recorded steps of kern as (swapped row, multiplier codes), from
    byte-lane bytes, packed-lane multiples (the row itself is the first in
    GF(2^m) and the second, after the masks, in odd characteristic), or
    code-list (j, value) pairs: (j, log value) over log tables, (j, spread
    value) above them in odd characteristic."""
    out = []
    for k, (p, mults) in enumerate(steps):
        width = nrows - k - 1
        if type(kern) is _LaneKernel:
            codes = list(mults)
        elif type(kern) is _PackedKernel:
            codes = list(kern.unpack(mults[spec.p > 2], width))
        else:
            codes = [0] * width
            for j, v in mults:
                codes[j] = (
                    spec._exp[v] if type(kern) is _LogLists
                    else spec._kron_mul(v, 1, True) if getattr(kern, "spread", None)
                    else v
                )
        out.append((p, codes))
    return out


# (ncols, p, m): byte lanes from 8 to 85 columns, in GF(2) up to GF(2^8),
# and at 127 and 255 in GF(2^8), 255 being the widest decode system of a
# GF(256) align block; packed 16-bit lanes at 128 and 131, and packed
# 32-bit lanes from 8 to 41; packed digit lanes in 8 bits in GF(3) and
# GF(7), 16 bits in GF(3^5), GF(5^3) and GF(7^4), and 64 bits in GF(3^11)
WIDE = (
    [(c, 2, m) for m in (1, 2, 4, 6, 8) for c in (8, 9, 17, 51, 85)]
    + [(c, 2, 8) for c in (127, 255)]
    + [(c, 2, m) for m in (10, 16) for c in (128, 131)]
    + [(c, 2, 20) for c in (8, 9, 41)]
    + [(c, 3, 1) for c in (8, 41, 128)] + [(9, 7, 1), (16, 3, 5), (17, 3, 5), (9, 5, 3), (9, 7, 4)]
    + [(c, 3, 11) for c in (8, 23)]
)


def _swap_heavy(spec, rng, n):
    """n x n on which every pivot step swaps and then clears rows.

    Built backwards from an upper triangle with a nonzero diagonal: for k
    from n - 2 down, the rows below some p > k gain multiples of row k,
    then rows k and p trade places, so step k finds its pivot in row p."""
    lists = spec._lists
    rows = [[0] * i + [rng.randrange(1, spec.q)] + _rand(spec, rng, 1, n - 1 - i)[0]
            for i in range(n)]
    for k in range(n - 2, -1, -1):
        p = rng.randrange(k + 1, min(k + 4, n))
        src = lists.prep(rows[k])
        for i in range(p + 1, n):
            rows[i] = lists.axpy(rows[i], rng.randrange(1, spec.q), src)
        rows[k], rows[p] = rows[p], rows[k]
    return rows


def _square_and_tall(spec, rng, n, full=lambda draw: draw()):
    """Matrices of n columns, by name, each draw passed through full."""
    return {
        "square": full(lambda: _rand(spec, rng, n, n)),
        "tall": full(lambda: _rand(spec, rng, n + 5, n)),
        "swapping": full(lambda: _swapping(spec, rng, n)),
        "swapping-tall": full(lambda: _swapping(spec, rng, n) + _rand(spec, rng, 2, n)),
        "swap-heavy": _swap_heavy(spec, rng, n),
    }


def _elimination_cases(spec, n):
    rng = random.Random(f"lane-elim:{spec.m}:{n}")
    holed = _rand(spec, rng, n, n)
    for row in holed:
        row[n // 3] = 0  # a column with no pivot, mid-matrix
    return {
        **_square_and_tall(spec, rng, n),
        "wide": _rand(spec, rng, n // 2 + 1, n),
        "singular": _singular(spec, rng, n),
        "all-zero": [[0] * n for _ in range(3)],
        "holed": holed,
        "dense": _rand(spec, rng, n, n, zero_share=0.0),
        # no pivot in the first column, none in the last, and a single row
        "first-empty": [[0] + row[1:] for row in _rand(spec, rng, n, n)],
        "last-empty": [row[:-1] + [0] for row in _rand(spec, rng, n, n)],
        "one-row": [[0] + [rng.randrange(1, spec.q)] + _rand(spec, rng, 1, n - 2)[0]],
        # every pivot column already clear below the pivot, and then only
        # the first half of them
        "identity": [[int(i == j) for j in range(n)] for i in range(n)],
        "diagonal": [[rng.randrange(1, spec.q) if i == j else 0 for j in range(n)]
                     for i in range(n)],
        "upper": _upper(spec, rng, n, n),
        "half-upper": _upper(spec, rng, n // 2, n) + [
            [0] * (n // 2) + row for row in _rand(spec, rng, n - n // 2, n - n // 2)
        ],
    }


def _upper(spec, rng, nrows, n):
    """nrows x n, upper triangular with a nonzero diagonal."""
    rows = _rand(spec, rng, nrows, n)
    for i, row in enumerate(rows):
        row[:i + 1] = [0] * i + [rng.randrange(1, spec.q)]
    return rows


def _eliminate(spec, kern, rows, n, record=True):
    """kern's eliminate: echelon rows, pivots, swaps, and with record the
    steps as codes."""
    steps = [] if record else None
    ech, pivots, swaps = kern.eliminate(rows, n, spec, steps)
    out = [list(r) for r in ech], pivots, swaps
    return out + (_step_codes(spec, kern, steps, len(rows)),) if record else out


@pytest.mark.parametrize("ncols, p, m", WIDE)
def test_lane_elimination_matches_code_lists(ncols, p, m):
    """Byte lanes eliminate the rows below each pivot as one int with one
    XOR, packed lanes in the code lists' loop; each wide kernel's
    eliminate gives the code lists' echelon rows, pivots, swaps and
    steps, on full-rank, swap-heavy and rank-deficient matrices alike,
    with no pivot in the first or last column, and on a single row."""
    spec = build_field(p, m)
    wide = spec._wide
    assert type(wide) is (_LaneKernel if p == 2 and m <= 8 else _PackedKernel)
    cases = _elimination_cases(spec, ncols)
    want = {name: _eliminate(spec, spec._lists, rows, ncols) for name, rows in cases.items()}
    for name, rows in cases.items():
        got = _eliminate(spec, wide, rows, ncols)
        assert got == want[name], name
        assert _eliminate(spec, wide, rows, ncols, record=False) == got[:3], name
    assert want["swap-heavy"][2] == ncols - 1 and want["swapping"][2] >= 1
    ranks = [len(want[name][1]) for name in ("singular", "holed")]
    # random draws in GF(2) and GF(4) are often rank deficient of themselves
    assert ranks == [ncols - 1] * 2 if spec.q > 4 else max(ranks) < ncols
    assert want["all-zero"][1] == [] and len(want["wide"][1]) < ncols
    assert want["first-empty"][1][0] == 1 and want["last-empty"][1][-1] < ncols - 1
    assert want["one-row"][1] == [1]
    every = list(range(ncols))
    assert [want[name][1:3] for name in ("identity", "diagonal", "upper")] == [(every, 0)] * 3
    assert want["identity"][0] == cases["identity"]


def _solutions(spec, kern, a, sides):
    """kern's replay of each side on a's factors in kern: the solution's
    rows, or the refusal's message."""
    steps = []
    ech, pivots, _ = kern.eliminate(a, len(a[0]), spec, steps)
    factors = FqFactors(spec, len(a), len(a[0]), pivots, steps, ech[: len(pivots)])
    out = []
    for b in sides:
        try:
            out.append([list(r) for r in zip(*kern.solve(factors, zip(*b)))])
        except ValueError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("ncols, p, m", WIDE + [(7, 2, 6), (7, 2, 8)])
def test_lane_solve_matches_code_lists(ncols, p, m):
    """Byte lanes replay a right-hand side on one big-endian int, packed
    lanes in the code lists' loop; each wide kernel's solve gives the code
    lists' solutions, each the X with A X = B, and refuses an inconsistent
    tall system as they do. Rank-deficient factors are refused before any
    kernel replays them."""
    spec = build_field(p, m)
    wide = spec._wide
    rng = random.Random(f"lane-solve:{m}:{ncols}")
    deficient = "system is rank deficient"

    def full(draw):
        for _ in range(50):
            a = draw()
            if FqMatrix(spec, a).rank() == ncols:
                return a
        raise AssertionError("no full-rank draw")  # pragma: no cover

    for name, a in _square_and_tall(spec, rng, ncols, full).items():
        xs = [_rand(spec, rng, ncols, k) for k in (1, 3)]
        sides = [_matmul(spec, a, x) for x in xs]
        if name == "tall":
            bad = [row[:] for row in sides[1]]
            while FqMatrix(spec, [ra + rb for ra, rb in zip(a, bad)]).rank() == ncols:
                bad[-1][1] = spec._add_codes(bad[-1][1], 1)
            sides.append(bad)
            xs.append(deficient)
        got = _solutions(spec, wide, a, sides)
        assert got == _solutions(spec, spec._lists, a, sides) == xs, name
    singular = FqMatrix(spec, _singular(spec, rng, ncols)).factor()
    with pytest.raises(ValueError, match=deficient):
        singular.solve(FqMatrix(spec, _rand(spec, rng, ncols, 1)))
