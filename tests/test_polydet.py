"""PolyMatrix.det (fraction-free elimination) against independent oracles.

A det runs its products and exact divisions in byte lanes in GF(2^m),
m <= 8, at every size, and in the field's code lists otherwise. The
cases here still put bound + 1, for bound the sum of a matrix's row
degrees, on both sides of _LANE_MIN_WIDTH, the crossover of matrix rows,
which a det does not use.
"""

import itertools
import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, strategies as st

from netcode.galois import (
    FqMatrix,
    Poly,
    PolyMatrix,
    _CodeLists,
    _LaneKernel,
    build_field,
    poly_eval_matrix,
)
from tests.oracles import generator

FIELDS = [build_field(2, 4), build_field(2, 8), build_field(3, 2), build_field(7, 1)]
FIELD_IDS = ["gf2_4", "gf2_8", "gf3_2", "gf7"]


def cofactor_det(pm: PolyMatrix) -> Poly:
    """Cofactor expansion along the first column: k! terms, so k <= 7 only."""

    def rec(rows, cols):
        if len(rows) == 1:
            return pm.rows[rows[0]][cols[0]]
        acc = Poly.zero(pm.spec)
        for k, r in enumerate(rows):
            p = pm.rows[r][cols[0]]
            if p:
                term = p * rec(rows[:k] + rows[k + 1 :], cols[1:])
                acc = acc + (-term if k % 2 else term)
        return acc

    return rec(list(range(pm.nrows)), list(range(pm.ncols)))


def kernels(spec):
    """The code-list kernel of spec, then its byte lanes if it has them:
    the polynomial kernel, when that is not the code lists."""
    return [spec._lists] + ([spec._poly] if spec._poly is not spec._lists else [])


def _div_exact(spec, kern, a, b):
    """a / b for code sequences, through kern.div_exact: the dividend
    carries 1 / lead(b), so that the divisor it prepares is monic."""
    s = spec._inv_code(b[-1])
    rem = kern.mul_into(kern.zero(), a, kern.prep((s,)))
    return tuple(kern.div_exact(rem, kern.prep(b, spec._neg_code(s))))


def pointwise_matches(pm, det, big):
    """det(x) = det M(x) at more points of big than det's degree bound."""
    bound = max(sum(max(p.degree() for p in row) for row in pm.rows), 0)
    assert det.degree() <= bound
    g = generator(big)
    x = big.one()
    for _ in range(bound + 1):
        assert det.eval(x) == poly_eval_matrix(pm, x).det()
        x = x * g


def rand_poly(spec, rng, deg):
    return Poly(spec, [rng.randrange(spec.q) for _ in range(deg + 1)])


def rand_pm(spec, rng, k, deg, density=1.0):
    return PolyMatrix(
        spec,
        [
            [
                rand_poly(spec, rng, rng.randrange(deg + 1))
                if rng.random() < density
                else Poly.zero(spec)
                for _ in range(k)
            ]
            for _ in range(k)
        ],
    )


# ----------------------------------------------------------------------
# against the cofactor expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_dense_random_matches_cofactor(spec):
    rng = random.Random(f"dense:{spec}")
    for k in range(1, 8):
        deg = 3 if k <= 5 else 1
        for _ in range(4 if k <= 5 else 1):
            pm = rand_pm(spec, rng, k, deg)
            assert pm.det() == cofactor_det(pm)


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_sparse_random_matches_cofactor(spec):
    # many zero entries: pivots are missing, so rows swap and some dets vanish
    rng = random.Random(f"sparse:{spec}")
    zeros = 0
    for _ in range(60):
        pm = rand_pm(spec, rng, rng.randrange(2, 7), 2, density=0.35)
        det = pm.det()
        assert det == cofactor_det(pm)
        zeros += not det
    assert 0 < zeros < 60


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_zero_leading_entry_forces_swap(spec):
    D = Poly(spec, [0, 1])
    one, zero = Poly.one(spec), Poly.zero(spec)
    two_by_two = PolyMatrix(spec, [[zero, D], [one, D * D]])
    assert two_by_two.det() == -D
    # the second pivot is also missing after the first step
    three = PolyMatrix(spec, [[zero, one, D], [D, D, one], [zero, D, D * D + one]])
    assert three.det() == cofactor_det(three)


@pytest.mark.parametrize("spec", [build_field(3, 2), build_field(7, 1)], ids=["gf3_2", "gf7"])
def test_permutation_sign_in_odd_characteristic(spec):
    # row i holds c_i at column perm[i]: det = sign(perm) * prod(c_i)
    rng = random.Random(f"perm:{spec}")
    for perm in itertools.permutations(range(4)):
        cs = [rand_poly(spec, rng, 2) for _ in range(4)]
        while not all(cs):
            cs = [rand_poly(spec, rng, 2) for _ in range(4)]
        rows = [[Poly.zero(spec)] * 4 for _ in range(4)]
        for i, c in enumerate(cs):
            rows[i][perm[i]] = c
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(4), 2))
        want = cs[0] * cs[1] * cs[2] * cs[3]
        want = -want if inversions % 2 else want
        assert PolyMatrix(spec, rows).det() == want
        assert cofactor_det(PolyMatrix(spec, rows)) == want


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_singular_and_zero_row(spec):
    rng = random.Random(f"singular:{spec}")
    zero = Poly.zero(spec)
    for k in range(2, 7):
        pm = rand_pm(spec, rng, k, 2)
        rows = [row[:] for row in pm.rows]
        # last row = a * row 0 + b * row k-2: the rank drops inside elimination
        a, b = rand_poly(spec, rng, 1), rand_poly(spec, rng, 1)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[k - 2])]
        assert PolyMatrix(spec, rows).det() == zero
        rows = [row[:] for row in pm.rows]
        rows[rng.randrange(k)] = [zero] * k
        assert PolyMatrix(spec, rows).det() == zero
        rows = [row[:] for row in pm.rows]
        col = rng.randrange(k)
        for row in rows:
            row[col] = zero
        assert PolyMatrix(spec, rows).det() == zero


def test_non_square_rejected():
    spec = FIELDS[0]
    with pytest.raises(ValueError):
        PolyMatrix(spec, [[Poly.one(spec), Poly.one(spec)]]).det()


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.lists(st.integers(0, 8), max_size=3), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_det_property_gf9(entries):
    spec = FIELDS[2]
    pm = PolyMatrix(spec, [[Poly(spec, c) for c in row] for row in entries])
    assert pm.det() == cofactor_det(pm)


# ----------------------------------------------------------------------
# against sympy and pointwise determinants
# ----------------------------------------------------------------------


def test_matches_sympy_over_gf7():
    spec = build_field(7, 1)
    x = sympy.Symbol("D")
    ring = sympy.GF(7)[x]
    rng = random.Random("sympy")
    for k in range(1, 8):
        for _ in range(3):
            pm = rand_pm(spec, rng, k, 3, density=0.8)
            dm = DomainMatrix(
                [[ring.from_sympy(sympy.Add(*(c * x**i for i, c in enumerate(p.codes))))
                  for p in row] for row in pm.rows],
                (k, k),
                ring,
            )
            want = sympy.Poly(ring.to_sympy(dm.det()), x, modulus=7).all_coeffs()
            assert pm.det() == Poly(spec, [int(c) % 7 for c in reversed(want)])


def test_twelve_by_twelve_matches_pointwise_dets():
    # deg det <= 36, so agreeing at 40 distinct points proves equality
    spec, big = build_field(2, 4), build_field(2, 8)
    rng = random.Random("k12")
    pm = rand_pm(spec, rng, 12, 3)
    det = pm.det()
    assert det.degree() <= 36
    g = generator(big)
    x = big.one()
    for _ in range(40):
        assert det.eval(x) == poly_eval_matrix(pm, x).det()
        x = x * g


def test_fq_matrix_det_of_constants():
    # degree-0 entries: the polynomial det is FqMatrix.det
    rng = random.Random("const")
    for spec in FIELDS:
        for k in range(1, 7):
            rows = [[rng.randrange(spec.q) for _ in range(k)] for _ in range(k)]
            pm = PolyMatrix(spec, [[Poly(spec, [c]) for c in row] for row in rows])
            want = FqMatrix(spec, rows).det()
            assert pm.det() == Poly(spec, [want.code])


# ----------------------------------------------------------------------
# exact polynomial division
# ----------------------------------------------------------------------

DIV_FIELDS = [build_field(2, 4), build_field(3, 2), build_field(7, 1)]


@pytest.mark.parametrize("spec", DIV_FIELDS, ids=["p2", "p3", "p7"])
def test_div_exact_inverts_multiplication(spec):
    for kern in kernels(spec):
        rng = random.Random(f"div:{spec}")
        for _ in range(200):
            a = rand_poly(spec, rng, rng.randrange(-1, 8))
            b = rand_poly(spec, rng, rng.randrange(0, 6))
            if not b:
                continue
            assert _div_exact(spec, kern, (a * b).codes, b.codes) == a.codes


@pytest.mark.parametrize("spec", DIV_FIELDS, ids=["p2", "p3", "p7"])
def test_div_exact_raises_on_remainder(spec):
    """In every kernel: GF(2^4) code lists (log tables) and byte lanes,
    GF(3^2) scalar calls and GF(7) inline updates."""
    for kern in kernels(spec):
        rng = random.Random(f"rem:{spec}")
        for _ in range(200):
            b = rand_poly(spec, rng, rng.randrange(1, 6))
            if b.degree() < 1:
                continue
            r = rand_poly(spec, rng, rng.randrange(0, b.degree()))
            if not r:
                continue
            a = rand_poly(spec, rng, rng.randrange(-1, 6))
            with pytest.raises(ArithmeticError):
                _div_exact(spec, kern, (a * b + r).codes, b.codes)
            # a nonzero dividend of lower degree than b has no quotient either
            with pytest.raises(ArithmeticError):
                _div_exact(spec, kern, r.codes, b.codes)


# ----------------------------------------------------------------------
# one kernel per field, whatever a det's size
# ----------------------------------------------------------------------

# each field with a larger one it embeds in, for the pointwise oracle
LANE_FIELDS = [(build_field(2, m), build_field(2, big)) for m, big in [(1, 8), (4, 8), (6, 12), (8, 8)]]
LANE_IDS = ["gf2", "gf2_4", "gf2_6", "gf2_8"]


@pytest.mark.parametrize("spec, big", LANE_FIELDS, ids=LANE_IDS)
def test_det_on_both_sides_of_the_lane_width_matches_cofactor_and_points(spec, big):
    rng = random.Random(f"lanes:{spec}")
    for k, deg in [(2, 1), (3, 2), (4, 1), (4, 2), (5, 2), (6, 1), (6, 2), (7, 2)]:
        for density in (1.0, 0.5):
            pm = rand_pm(spec, rng, k, deg, density)
            det = pm.det()
            assert det == cofactor_det(pm)
            pointwise_matches(pm, det, big)


def _power_factor_pm(spec, rng, k, deg):
    """rand_pm with row i times D^s_i and column j times D^t_j: every
    pivot, and so every divisor Bareiss uses, has a power of D as a factor."""
    pm = rand_pm(spec, rng, k, deg)
    s = [rng.randrange(2) for _ in range(k)]
    t = [rng.randrange(3) for _ in range(k)]
    return PolyMatrix(spec, [[p.shift(s[i] + t[j]) for j, p in enumerate(row)]
                             for i, row in enumerate(pm.rows)])


@pytest.mark.parametrize("spec", FIELDS + [build_field(2, 1)], ids=FIELD_IDS + ["gf2"])
def test_pivots_with_a_power_of_d_factor(spec):
    rng = random.Random(f"dpower:{spec}")
    for k in range(2, 7):
        pm = _power_factor_pm(spec, rng, k, 1 if k < 4 else 2)
        assert pm.det() == cofactor_det(pm)
        # swapped rows negate it; a row that repeats another zeroes it
        rows = pm.rows[1:] + pm.rows[:1]
        sign = -1 if (k - 1) % 2 else 1
        want = cofactor_det(pm)
        assert PolyMatrix(spec, rows).det() == (-want if sign < 0 else want)
        rows = pm.rows[:-1] + [[p.shift(1) for p in pm.rows[0]]]
        assert not PolyMatrix(spec, rows).det()


@pytest.mark.parametrize("spec", [build_field(2, 4), build_field(2, 8)], ids=["gf2_4", "gf2_8"])
def test_known_det_with_a_power_of_d_factor(spec):
    """det = D^5 (11 + 9D + 5D^2), as design's sink blocks have it, or
    D^2 (11 + 9D), from a triangular matrix mixed by row and column
    additions, which keep the det, and one row swap, which in
    characteristic 2 keeps it too."""
    rng = random.Random(f"known:{spec}")
    D = Poly(spec, [0, 1])
    for head in ([D**2, D**3, Poly(spec, [11, 9, 5])], [D, D, Poly(spec, [11, 9])]):
        diag = head + [Poly.one(spec)] * 3
        want = head[0] * head[1] * head[2]
        for k in (3, 4, 6):
            rows = [[diag[i] if i == j else rand_poly(spec, rng, 1) if j > i else Poly.zero(spec)
                     for j in range(k)] for i in range(k)]
            for _ in range(k):
                i, j = rng.sample(range(k), 2)
                c = rand_poly(spec, rng, rng.randrange(2))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
                cols = list(zip(*rows))
                c = rand_poly(spec, rng, 0)
                i, j = rng.sample(range(k), 2)
                cols[i] = tuple(x + c * y for x, y in zip(cols[i], cols[j]))
                rows = [list(r) for r in zip(*cols)]
            i, j = rng.sample(range(k), 2)
            rows[i], rows[j] = rows[j], rows[i]
            assert PolyMatrix(spec, rows).det() == want


@pytest.mark.parametrize("p, m", [(2, 1), (2, 4), (2, 8), (2, 9), (3, 2), (7, 1)])
def test_det_and_products_run_in_one_kernel_per_field(p, m, monkeypatch):
    """Byte lanes in GF(2^m), m <= 8, and code lists in every other field,
    for a 2 x 2 det of bound + 1 = 3 and a 6 x 6 one of bound + 1 = 13
    alike, and for short and long products."""
    spec = build_field(p, m)
    used = set()
    for cls in (_CodeLists, _LaneKernel):
        for name in ("mul_into", "div_exact"):
            call = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, *args, call=call: (
                used.add(type(self)), call(self, *args))[1])
    want = {_LaneKernel} if p == 2 and m <= 8 else {type(spec._lists)}
    rng = random.Random(f"perfield:{spec}")
    for k, deg in [(2, 1), (6, 2)]:
        pm = rand_pm(spec, rng, k, deg)
        used.clear()
        det = pm.det()
        assert used == want, (k, deg)
        assert det == cofactor_det(pm)
    for la, lb in [(1, 1), (2, 3), (9, 9)]:
        used.clear()
        Poly(spec, [1] * la) * Poly(spec, [1] * lb)
        assert used == want, (la, lb)
