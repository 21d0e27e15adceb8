"""Block transform layer: circulants, eigenblocks, cyclic-prefix pipeline."""

import random

import pytest

from netcode.galois import (
    FieldElement,
    FqMatrix,
    Poly,
    PolyMatrix,
    build_field,
    element_of_order,
)
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    random_leks,
    transfer_matrix,
    validate,
)
from netcode.transform import (
    BlockTooLong,
    WindowMismatch,
    cp_decode,
    cp_encode,
    eigen_blocks,
    make_plan,
    run_pipeline,
)
from netcode.netmodel import CycleDetected
from tests.conftest import kron, random_dag_net
from tests.oracles import (
    SingularAtGeneration,
    build_circulant,
    dft_matrix,
    diagonalize,
    instantaneous_solve,
    inverse_dft_matrix,
    multiplicative_order,
    poly_matrix,
)

GF8 = build_field(2, 3)
GF16 = build_field(2, 4)


def plan8(n=7, d_max=2):
    return make_plan(n, GF8, element_of_order(GF8, n), d_max)


def rand_polymatrix(spec, rng, nu, mu, deg):
    rows = [
        [Poly(spec, [rng.randrange(spec.q) for _ in range(deg + 1)]) for _ in range(mu)]
        for _ in range(nu)
    ]
    return PolyMatrix(spec, rows)


def rand_gens(spec, rng, n, width):
    return [
        [FieldElement(spec, rng.randrange(spec.q)) for _ in range(width)]
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------


def test_make_plan_validation():
    alpha = element_of_order(GF8, 7)
    with pytest.raises(ValueError):
        make_plan(3, GF8, alpha, 1)  # 3 does not divide 7
    with pytest.raises(BlockTooLong):
        make_plan(7, GF8, alpha, 7)
    with pytest.raises(ValueError):
        make_plan(0, GF8, alpha, 0)
    with pytest.raises(ValueError):
        make_plan(7, GF16, alpha, 2)  # alpha lives in GF(8)
    with pytest.raises(ValueError):
        make_plan(7, GF8, GF8.one(), 2)  # order 1, not 7


def _divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


@pytest.mark.parametrize("p, m", [(2, 5), (3, 3)])
def test_plan_order_check_matches_the_order_on_every_element(p, m):
    """make_plan checks alpha^n = 1 and alpha^(n/r) != 1 for each prime
    r | n: it accepts exactly the alpha of order n, for every n | q - 1."""
    spec = build_field(p, m)
    for code in range(1, spec.q):
        alpha = FieldElement(spec, code)
        order = multiplicative_order(alpha)
        for n in _divisors(spec.q - 1):
            if order == n:
                assert make_plan(n, spec, alpha, 0).alpha == alpha
            else:
                with pytest.raises(ValueError, match="order exactly"):
                    make_plan(n, spec, alpha, 0)
    with pytest.raises(ValueError, match="order exactly"):
        make_plan(1, spec, spec.zero(), 0)


def test_plan_order_check_above_the_table_cap():
    """GF(3^11) has no log tables; q - 1 = 2 * 23 * 3851."""
    spec = build_field(3, 11)
    rng = random.Random("plan-order")
    divisors = _divisors(spec.q - 1)
    assert len(divisors) == 8
    alphas = [FieldElement(spec, rng.randrange(1, spec.q)) for _ in range(6)]
    alphas += [element_of_order(spec, n) for n in (23, 46, 3851)]
    for alpha in alphas:
        order = multiplicative_order(alpha)
        for n in divisors:
            if order == n:
                assert make_plan(n, spec, alpha, 0).n == n
            else:
                with pytest.raises(ValueError, match="order exactly"):
                    make_plan(n, spec, alpha, 0)


def test_plan_allows_memoryless():
    p = make_plan(7, GF8, element_of_order(GF8, 7), 0)
    assert p.d_max == 0


# ----------------------------------------------------------------------
# circulant structure
# ----------------------------------------------------------------------


def test_circulant_layout():
    rng = random.Random("layout")
    pm = rand_polymatrix(GF8, rng, 2, 3, 2)
    C = build_circulant(pm, 5)
    assert C.realized.shape == (10, 15)
    L = pm.max_degree()
    for r in range(5):
        for c in range(5):
            d = (c - r) % 5
            want = pm.coeff_matrix(d) if d <= L else FqMatrix.zeros(GF8, 2, 3)
            got = C.realized.submatrix(range(2 * r, 2 * r + 2), range(3 * c, 3 * c + 3))
            assert got == want


def test_circulant_rejects_long_blocks():
    pm = poly_matrix([[Poly(GF8, [0, 0, 0, 1])]])  # degree 3
    with pytest.raises(BlockTooLong):
        build_circulant(pm, 3)
    build_circulant(pm, 4)  # boundary: degree n-1 is fine


def test_circulant_commutes_with_block_shift():
    rng = random.Random("shift")
    pm = rand_polymatrix(GF8, rng, 2, 2, 1)
    n = 5
    C = build_circulant(pm, n).realized
    P = FqMatrix(GF8, [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
    left = kron(P, FqMatrix.identity(GF8, 2)) * C
    right = C * kron(P, FqMatrix.identity(GF8, 2))
    assert left == right


# ----------------------------------------------------------------------
# diagonalization
# ----------------------------------------------------------------------


def test_eigen_blocks_are_evaluations():
    rng = random.Random("eig")
    pm = rand_polymatrix(GF8, rng, 2, 2, 2)
    plan = plan8()
    blocks = eigen_blocks(pm, plan)
    C = build_circulant(pm, plan.n)
    assert diagonalize(C, plan) == blocks
    for t in range(plan.n):
        x = plan.alpha ** (plan.n - 1 - t)
        want = FqMatrix(GF8, [[p.eval(x).code for p in row] for row in pm.rows])
        assert blocks[t] == want


def test_reassembly_identity():
    """realized = (F kron I_nu) . blockdiag . (F kron I_mu)^{-1}."""
    rng = random.Random("reasm")
    for trial in range(8):
        nu, mu = rng.randrange(1, 4), rng.randrange(1, 4)
        plan = plan8()
        pm = rand_polymatrix(GF8, rng, nu, mu, rng.randrange(0, 3))
        C = build_circulant(pm, plan.n)
        blocks = diagonalize(C, plan)
        n = plan.n
        F = dft_matrix(plan.alpha, n)
        Finv = inverse_dft_matrix(plan.alpha, n)
        Qnu = kron(F, FqMatrix.identity(GF8, nu))
        Qmu_inv = kron(Finv, FqMatrix.identity(GF8, mu))
        big = FqMatrix.zeros(GF8, n * nu, n * mu)
        for r in range(n):
            blk = blocks[n - 1 - r]  # stacked position r holds generation n-1-r
            for a in range(nu):
                for b in range(mu):
                    big.rows[r * nu + a][r * mu + b] = blk.rows[a][b]
        assert Qnu * big * Qmu_inv == C.realized


def test_diagonalize_checks_n():
    pm = rand_polymatrix(GF8, random.Random("nchk"), 1, 1, 1)
    C = build_circulant(pm, 5)
    with pytest.raises(ValueError):
        diagonalize(C, plan8(n=7))


# ----------------------------------------------------------------------
# cyclic prefix
# ----------------------------------------------------------------------


def test_cp_encode_layout():
    rng = random.Random("cp")
    plan = plan8(n=7, d_max=2)
    gens = rand_gens(GF8, rng, 7, 3)
    tx = cp_encode(plan, gens)
    assert len(tx) == 9
    # prefix repeats the tail of the transformed block
    assert tx[:2] == tx[7:]


def test_cp_roundtrip():
    rng = random.Random("cprt")
    plan = plan8(n=7, d_max=3)
    gens = rand_gens(GF8, rng, 7, 2)
    assert cp_decode(plan, cp_encode(plan, gens)) == gens


def test_cp_window_checks():
    plan = plan8()
    gens = rand_gens(GF8, random.Random("w"), 6, 1)  # one generation short
    with pytest.raises(WindowMismatch):
        cp_encode(plan, gens)
    with pytest.raises(WindowMismatch):
        cp_decode(plan, rand_gens(GF8, random.Random("w2"), 7, 1))  # needs n + d_max


# ----------------------------------------------------------------------
# end-to-end pipeline
# ----------------------------------------------------------------------


def two_path_net():
    """S -> T along paths of length 2 and 3; transfer entry a + bD."""
    nodes = ["S", "A", "B", "B2", "T"]
    edges = [
        Edge("S", "A"), Edge("A", "T"),
        Edge("S", "B"), Edge("B", "B2"), Edge("B2", "T"),
    ]
    return NetworkSpec(nodes, edges, [Source("S", 1)], [Sink("T", 1)], [(0, 0, 0)])


def test_pipeline_on_two_path_net():
    # Over GF(8) every nonzero element is a 7th root of unity, so the
    # entry a + bD always dies at exactly one generation; the other six
    # must decode exactly.
    net = two_path_net()
    leks = random_leks(net, GF8, "2p", nonzero=True)
    tr = transfer_matrix(net, leks)
    assert tr.d_prime_min == 2 and tr.d_max == 1
    plan = plan8(n=7, d_max=1)
    rng = random.Random("2p-x")
    gens = rand_gens(GF8, rng, 7, 1)
    decoded = run_pipeline(net, leks, plan, [gens])
    blocks = eigen_blocks(tr.block(0, 0), plan)
    singular = []
    for t in range(7):
        want = blocks[t].entry(0, 0) * gens[t][0]
        assert decoded[0][t][0] == want
        if blocks[t].entry(0, 0):
            got = instantaneous_solve([blocks[t]], [(0, 0)], decoded[0][t], t)
            assert got == [gens[t][0]]
        else:
            with pytest.raises(SingularAtGeneration):
                instantaneous_solve([blocks[t]], [(0, 0)], decoded[0][t], t)
            singular.append(t)
    assert len(singular) == 1


def test_pipeline_matches_eigenblock_map_on_random_nets():
    rng = random.Random("pipe")
    checked = 0
    while checked < 12:
        net = random_dag_net(rng)
        try:
            validate(net)
        except CycleDetected:  # pragma: no cover
            continue
        leks = random_leks(net, GF8, f"pipe{checked}")
        tr = transfer_matrix(net, leks)
        if tr.d_max >= 7:
            continue
        plan = plan8(n=7, d_max=max(tr.d_max, 1))
        inputs = [rand_gens(GF8, rng, 7, s.processes) for s in net.sources]
        decoded = run_pipeline(net, leks, plan, inputs)
        for j, snk in enumerate(net.sinks):
            hats = [eigen_blocks(tr.block(i, j), plan) for i in range(len(net.sources))]
            for t in range(7):
                want = FqMatrix.zeros(GF8, snk.outputs, 1)
                for i in range(len(net.sources)):
                    x = FqMatrix(GF8, [[sym.code] for sym in inputs[i][t]])
                    want = want + hats[i][t] * x
                got = [decoded[j][t][r].code for r in range(snk.outputs)]
                assert got == [want.rows[r][0] for r in range(snk.outputs)]
        checked += 1


def test_pipeline_rejects_short_plan():
    net = two_path_net()
    leks = random_leks(net, GF8, "short", nonzero=True)
    plan = plan8(n=7, d_max=0)  # channel memory is 1
    gens = rand_gens(GF8, random.Random("s"), 7, 1)
    with pytest.raises(BlockTooLong):
        run_pipeline(net, leks, plan, [gens])


# ----------------------------------------------------------------------
# instantaneous solve
# ----------------------------------------------------------------------


def test_instantaneous_solve_square_system():
    rng = random.Random("inst")
    spec = GF16
    # two sources, one process each, sink with two outputs
    while True:
        B0 = FqMatrix(spec, [[rng.randrange(16)] for _ in range(2)])
        B1 = FqMatrix(spec, [[rng.randrange(16)] for _ in range(2)])
        M = FqMatrix.hstack([B0, B1])
        if M.rank() == 2:
            break
    x = [FieldElement(spec, rng.randrange(16)) for _ in range(2)]
    y = M * FqMatrix(spec, [[x[0].code], [x[1].code]])
    got = instantaneous_solve(
        [B0, B1], [(0, 0), (1, 0)], [y.entry(0, 0), y.entry(1, 0)]
    )
    assert got == x


def test_instantaneous_solve_errors():
    z = FqMatrix.zeros(GF8, 1, 1)
    with pytest.raises(SingularAtGeneration) as ei:
        instantaneous_solve([z], [(0, 0)], [GF8.one()], t=4)
    assert ei.value.t == 4
    with pytest.raises(ValueError):
        # 2-output sink must demand exactly 2 symbols
        instantaneous_solve([FqMatrix.identity(GF8, 2)], [(0, 0)], [GF8.one(), GF8.one()])
    with pytest.raises(ValueError):
        instantaneous_solve([], [], [])
