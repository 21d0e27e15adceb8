"""The roots-of-unity transform _dft against the loops it replaced.

_dft(spec, lanes, a, n, scale) returns scale * f(a^k) for k < n per code
list f. The oracles here are the old per-point evaluations: Horner on
FieldElements with one embed call per coefficient per point, f.eval at
every power of alpha, poly_eval_matrix at every eigenvalue, and the dense
power-table transform matrix.
"""

import random

import pytest

from netcode.alignment import build_instance, build_tv, tv_assignment_from_alignment
from netcode.feasibility import check_plan
from netcode.galois import (
    FieldElement,
    FqMatrix,
    Poly,
    PolyMatrix,
    _dft,
    _lift,
    build_field,
    element_of_order,
    embed,
    poly_eval_matrix,
)
from netcode.transform import eigen_blocks, make_plan
from tests.oracles import dft_matrix, inverse_dft_matrix

# (subfield (p, m), evaluation field (p, m), n): n divides the big q - 1
CASES = [
    ((2, 3), (2, 3), 7),
    ((2, 8), (2, 8), 17),
    ((2, 8), (2, 8), 15),
    ((2, 1), (2, 3), 7),
    ((2, 4), (2, 8), 51),
    ((2, 4), (2, 8), 85),
    ((3, 1), (3, 2), 8),
    ((3, 1), (3, 2), 4),
    ((5, 1), (5, 2), 24),
    ((7, 1), (7, 1), 3),
    ((2, 20), (2, 20), 41),  # above the table cap
]


def _old_eval(f: Poly, x: FieldElement) -> FieldElement:
    """Horner on FieldElements, embedding each coefficient at each point."""
    emb = (lambda e: e) if f.spec == x.spec else embed(f.spec, x.spec)
    acc = x.spec.zero()
    for c in reversed(f.codes):
        acc = acc * x + emb(FieldElement(f.spec, c))
    return acc


def _rand_poly(spec, rng, length):
    return Poly(spec, [rng.randrange(spec.q) for _ in range(length)])


@pytest.mark.parametrize("sub, sup, n", CASES)
def test_dft_matches_pointwise_evaluation(sub, sup, n):
    sub, sup = build_field(*sub), build_field(*sup)
    alpha = element_of_order(sup, n)
    rng = random.Random(f"dft:{sub}:{sup}:{n}")
    # degree below n, far above n, a constant, and the zero lane
    polys = [_rand_poly(sub, rng, k) for k in (n - 1, 2 * n + 3, 1, 0)]
    polys.append(Poly(sub, [0] * n + [1]))  # D^n, which is 1 at every root
    values = [[_old_eval(f, alpha**k) for k in range(n)] for f in polys]
    scale = FieldElement(sup, rng.randrange(1, sup.q))
    for s in (sup.one(), scale):
        got = _dft(sup, [_lift(sub, sup, f.codes) for f in polys], alpha.code, n, s.code)
        assert got == [[(s * v).code for v in vs] for vs in values]
    assert got[3] == [0] * n
    assert got[4] == [scale.code] * n


def _horner(spec, codes, x):
    mul, add = spec._mul_codes, spec._add_codes
    acc = 0
    for c in reversed(codes):
        acc = add(mul(acc, x), c)
    return acc


@pytest.mark.parametrize(
    "p, m, n", [(2, 6, 7), (2, 6, 9), (2, 8, 5), (2, 8, 15), (2, 8, 17), (2, 8, 51),
                (2, 8, 85), (2, 8, 255)],
)
def test_dft_matches_horner_across_the_lane_crossover(p, m, n):
    """In GF(2^m <= 8) transforms of length at least _LANE_MIN_WIDTH run in
    byte lanes; shorter ones stay in the log domain."""
    spec = build_field(p, m)
    alpha = element_of_order(spec, n)
    rng = random.Random(f"crossover:{p}:{m}:{n}")
    # polynomials of unequal length: degrees past n, degree exactly n and 2n
    # (read at power 0), one short one, an empty one and an all-zero one
    polys = [[rng.randrange(spec.q) for _ in range(k)] for k in (2 * n + 3, n + 1, 2 * n + 1, 2)]
    polys[1][-1] = polys[2][-1] = rng.randrange(1, spec.q)
    polys += [[], [0] * (n + 2)]
    inverse = (spec._inv_code(alpha.code), spec._inv_code(n % p))
    for a, s in [(alpha.code, 1), (alpha.code, rng.randrange(2, spec.q)), inverse]:
        points = [spec._pow_code(a, k) for k in range(n)]
        want = [[spec._mul_codes(s, _horner(spec, f, x)) for x in points] for f in polys]
        assert _dft(spec, polys, a, n, s) == want
    assert want[-1] == want[-2] == [0] * n


@pytest.mark.parametrize("p, m", [(2, 1), (2, 8), (3, 2), (2, 20)])
def test_dft_edge_shapes(p, m):
    spec = build_field(p, m)
    assert _dft(spec, [], 1, 1) == []
    assert _dft(spec, [[], [0, 0]], 1, 1) == [[0], [0]]
    # n = 1 reads every coefficient at power 0: f(1) times the scale
    f = Poly(spec, [1, spec.q - 1, 1 % spec.q, 0, spec.q - 1])
    s = spec.q - 1
    want = (FieldElement(spec, s) * _old_eval(f, spec.one())).code
    assert _dft(spec, [f.codes], 1, 1, s) == [[want]]


@pytest.mark.parametrize("p, m, n", [(2, 3, 7), (2, 8, 15), (3, 2, 8), (2, 20, 41)])
def test_dense_matrices_are_power_tables(p, m, n):
    spec = build_field(p, m)
    alpha = element_of_order(spec, n)
    n_inv = FieldElement(spec, n % p).inverse()
    powers = [alpha**k for k in range(n)]
    F = [[powers[i * j % n].code for j in range(n)] for i in range(n)]
    Finv = [[(n_inv * powers[-i * j % n]).code for j in range(n)] for i in range(n)]
    assert dft_matrix(alpha, n).rows == F
    assert inverse_dft_matrix(alpha, n).rows == Finv


@pytest.mark.parametrize("sub, sup, n", [c for c in CASES if c[2] < 40])
def test_check_plan_matches_pointwise_loop(sub, sup, n):
    sub, sup = build_field(*sub), build_field(*sup)
    plan = make_plan(n, sup, element_of_order(sup, n), 0)
    rng = random.Random(f"plan:{sub}:{n}")
    # random f, and f with forced roots: products of (D - r) for r in sub
    fs = [_rand_poly(sub, rng, rng.randrange(1, 2 * n)) for _ in range(4)]
    for r in range(min(sub.q, 4)):
        fs.append(fs[-1] * Poly(sub, [(-FieldElement(sub, r)).code, 1]))
    for f in fs:
        failing = tuple(t for t in range(n) if not _old_eval(f, plan.alpha**t))
        chk = check_plan(f, plan)
        assert chk.failing == failing and chk.ok == (not failing)


@pytest.mark.parametrize(
    "sub, sup, n", [((2, 1), (2, 3), 7), ((2, 4), (2, 8), 17), ((3, 1), (3, 2), 8)]
)
def test_eigen_blocks_of_subfield_matrix(sub, sup, n):
    sub, sup = build_field(*sub), build_field(*sup)
    plan = make_plan(n, sup, element_of_order(sup, n), 0)
    rng = random.Random(f"eig:{sub}:{n}")
    rows = [[_rand_poly(sub, rng, rng.randrange(0, n + 4)) for _ in range(3)] for _ in range(2)]
    pm = PolyMatrix(sub, rows)
    want = [poly_eval_matrix(pm, plan.alpha ** (n - 1 - t)) for t in range(n)]
    assert eigen_blocks(pm, plan) == want


@pytest.mark.parametrize("n", [3, 4])
def test_tv_theta_is_the_transform_of_v1(ex2, n):
    net, leks = ex2
    inst = build_instance(net, leks, n, seed="0")
    theta, *_ = tv_assignment_from_alignment(build_tv(net, leks, n), inst)
    alpha, N = inst.plan.alpha, inst.N
    Q1 = FqMatrix(inst.field, [[(alpha ** (i * j)).code for j in range(N)] for i in range(N)])
    assert theta == Q1 * inst.V1 == dft_matrix(alpha, N) * inst.V1
