"""Acceptance gate: ten end-to-end criteria, one test each.

Every check is exact (zero tolerance) and every runtime bound is
enforced inside the test with a wall clock. Seeds are string literals so
each criterion replays identically everywhere.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from netcode.alignment import (
    NotFound,
    align_search,
    build_instance,
    build_tv,
    check_alignment,
    check_tv,
    encode_decode,
    tv_assignment_from_alignment,
)
from netcode.cli import load_fixture
from netcode.feasibility import check_plan, compute_f, find_plan, invertibility
from netcode.galois import (
    FieldElement,
    FqMatrix,
    Poly,
    PolyMatrix,
    build_field,
    element_of_order,
)
from netcode.netmodel import (
    CycleDetected,
    LekAssignment,
    network_from_dict,
    leks_from_dict,
    random_leks,
    transfer_from_dict,
    transfer_matrix,
    validate,
)
from netcode.transform import (
    eigen_blocks,
    make_plan,
    run_pipeline,
)
from tests.conftest import CATEGORY_LENGTHS, cat_net, kron, random_dag_net
from tests.oracles import (
    build_circulant,
    dft_matrix,
    diagonalize,
    inverse_dft_matrix,
    multiplicative_order,
)

GF2 = build_field(2, 1)
GF8 = build_field(2, 3)
GF16 = build_field(2, 4)
GF64 = build_field(2, 6)


def _mono(spec, d):
    return Poly(spec, [0] * d + [1])


def test_criterion_01_reference_determinants_and_f():
    start = time.perf_counter()
    doc = load_fixture("example1")
    tr = transfer_from_dict(doc["transfer"])
    conns = [tuple(c) for c in doc["connections"]]
    dets = [d for _, d in invertibility(tr, conns)]
    assert dets == [_mono(GF2, 5), _mono(GF2, 5), _mono(GF2, 6),
                    _mono(GF2, 5), _mono(GF2, 4)]
    f, divides = compute_f(dets)
    assert f == _mono(GF2, 25)
    assert f.eval(GF2.one()) == GF2.one()  # f(1) != 0
    assert divides is False
    assert time.perf_counter() - start < 1.0


def test_criterion_02_plan_search_on_f():
    start = time.perf_counter()
    f = _mono(GF2, 25)
    plan = find_plan(f, n_min=5)
    assert plan.n == 7
    assert plan.field.p == 2 and plan.field.m == 3
    # alpha generates the whole multiplicative group of GF(2^3)
    assert multiplicative_order(plan.alpha) == plan.field.q - 1
    chk = check_plan(f, plan)
    assert chk.ok and chk.failing == ()
    for t in range(7):
        assert f.eval(plan.alpha**t) != plan.field.zero()
    assert time.perf_counter() - start < 1.0


def test_criterion_03_circulant_reassembly_identities():
    start = time.perf_counter()
    combos = [(7, GF8), (3, GF16), (5, GF16), (15, GF16), (3, GF64), (7, GF64)]
    rng = random.Random("criterion-3")
    for trial in range(200):
        n, spec = combos[trial % len(combos)]
        nu = rng.randrange(1, 5)
        mu = rng.randrange(1, 5)
        deg = rng.randrange(0, min(n, 5))
        pm = PolyMatrix(
            spec,
            [
                [Poly(spec, [rng.randrange(spec.q) for _ in range(deg + 1)])
                 for _ in range(mu)]
                for _ in range(nu)
            ],
        )
        plan = make_plan(n, spec, element_of_order(spec, n), deg)
        C = build_circulant(pm, n)
        blocks = diagonalize(C, plan)
        Qnu = kron(dft_matrix(plan.alpha, n), FqMatrix.identity(spec, nu))
        Qmu_inv = kron(inverse_dft_matrix(plan.alpha, n), FqMatrix.identity(spec, mu))
        big = FqMatrix.zeros(spec, n * nu, n * mu)
        for r in range(n):
            blk = blocks[n - 1 - r]  # stacked position r carries generation n-1-r
            for a in range(nu):
                for b in range(mu):
                    big.rows[r * nu + a][r * mu + b] = blk.rows[a][b]
        assert Qnu * big * Qmu_inv == C.realized
    assert time.perf_counter() - start < 30.0


def test_criterion_04_pipeline_matches_eigenblock_prediction():
    start = time.perf_counter()
    rng = random.Random("criterion-4")
    fields = {7: GF8, 15: GF16}
    done = 0
    while done < 100:
        net = random_dag_net(rng, max_nodes=12)
        try:
            validate(net)
        except CycleDetected:  # pragma: no cover - edges only go forward
            continue
        n = 7 if done % 2 == 0 else 15
        spec = fields[n]
        leks = random_leks(net, spec, f"c4-{done}")
        tr = transfer_matrix(net, leks)
        if tr.d_max > 4:
            continue
        plan = make_plan(n, spec, element_of_order(spec, n), tr.d_max)
        inputs = [
            [[FieldElement(spec, rng.randrange(spec.q)) for _ in range(s.processes)]
             for _ in range(n)]
            for s in net.sources
        ]
        decoded = run_pipeline(net, leks, plan, inputs)
        for j, snk in enumerate(net.sinks):
            hats = [eigen_blocks(tr.block(i, j), plan)
                    for i in range(len(net.sources))]
            for t in range(n):
                want = FqMatrix.zeros(spec, snk.outputs, 1)
                for i in range(len(net.sources)):
                    col = FqMatrix(spec, [[sym.code] for sym in inputs[i][t]])
                    want = want + hats[i][t] * col
                assert [e.code for e in decoded[j][t]] == [
                    want.rows[r][0] for r in range(snk.outputs)
                ]
        done += 1
    assert time.perf_counter() - start < 60.0


def test_criterion_05_alignment_witness_and_decoding():
    start = time.perf_counter()
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    leks = leks_from_dict(doc["kernels"])
    spec = leks.field
    assert (spec.p, spec.m) == (2, 6)
    assert spec.modulus == (1, 1, 0, 0, 0, 0, 1)  # 1 + x + x^6
    one = spec.one()
    k = lambda t, h: (t, h, 0)
    # a = b = c = 1 on the shared chain, p = r = t = 1 at the fork
    assert leks.alpha[((0, 0), k("S1", "A"))] == one
    assert leks.alpha[((1, 0), k("S2", "A"))] == one
    assert leks.alpha[((2, 0), k("S3", "A"))] == one
    for head in ("E1", "E2", "E3"):
        assert leks.beta[(k("B", "C"), k("C", head))] == one
    assert leks.alpha[((1, 0), k("S2", "G23a"))].coeffs == (1, 0, 1, 1, 1, 1)  # s
    assert leks.alpha[((2, 0), k("S3", "G31a"))].coeffs == (1, 1, 1, 0, 0, 0)  # q
    assert leks.alpha[((0, 0), k("S1", "G12a"))].coeffs == (1, 0, 0, 0, 1, 0)  # u

    inst = build_instance(net, leks, 3)
    assert inst.N == 7
    assert inst.plan.alpha.coeffs == (0, 0, 0, 1, 1, 0)  # beta^9
    rep = check_alignment(inst)
    assert [c["rank"] for c in rep["conditions"]] == [7, 7, 7]
    assert rep["ok"]

    rng = random.Random("criterion-5")
    for _ in range(100):
        x1 = [FieldElement(spec, rng.randrange(64)) for _ in range(4)]
        x2 = [FieldElement(spec, rng.randrange(64)) for _ in range(3)]
        x3 = [FieldElement(spec, rng.randrange(64)) for _ in range(3)]
        out = encode_decode(inst, x1, x2, x3)
        assert out.recovered == (x1, x2, x3)
    assert time.perf_counter() - start < 5.0


def _passing_instances():
    """The witness plus one searched instance per category."""
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    leks = leks_from_dict(doc["kernels"])
    insts = [build_instance(net, leks, 3)]
    for name, lengths in CATEGORY_LENGTHS.items():
        res = align_search(cat_net(lengths), 3, GF64, seed=f"fx-{name}", budget=50)
        insts.append(res.instance)
    return insts


def test_criterion_06_alignment_identities_are_structural():
    def dmul(spec, diag, M):
        mul = spec._mul_codes
        return FqMatrix(spec, [[mul(d, c) for c in row]
                               for d, row in zip(diag, M.rows)])

    checked = 0
    for inst in _passing_instances():
        rep = check_alignment(inst)
        assert rep["ok"]
        assert all(rep["identities"].values())
        spec, N, n = inst.field, inst.N, inst.n
        mh = inst.mhat
        V1, V2, V3 = inst.V1, inst.V2, inst.V3
        if inst.category == "full":
            # interference from sessions 2 and 3 lands in one subspace at sink 1
            assert dmul(spec, mh[1][0], V2) == dmul(spec, mh[2][0], V3)
            # cross signals at sinks 2 and 3 hide inside V1's column span
            assert dmul(spec, mh[2][1], V3) == dmul(spec, mh[0][1], V1).submatrix(
                range(N), range(1, n + 1)
            )
            assert dmul(spec, mh[1][2], V2) == dmul(spec, mh[0][2], V1).submatrix(
                range(N), range(n)
            )
            checked += 3
        elif inst.category == "cat1":
            assert dmul(spec, mh[2][1], V3) == dmul(spec, mh[0][1], V1) * inst.B
            assert dmul(spec, mh[1][2], V2) == dmul(spec, mh[0][2], V1) * inst.A
            checked += 2
        elif inst.category == "cat2":
            assert dmul(spec, mh[1][2], V2) == dmul(spec, mh[0][2], V1) * inst.A
            checked += 1
    assert checked == 3 + 2 + 1  # full + cat1 + cat2 carry identities


def test_criterion_07_rate_accounting_and_trend():
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    gaps = []
    for n, m in ((3, 6), (5, 10), (8, 8)):
        spec = build_field(2, m)
        res = align_search(net, n, spec, seed="rate", budget=50)
        assert res.attempts == 1
        N = 2 * n + 1
        xs = (
            [spec.one()] * (n + 1),
            [spec.one()] * n,
            [spec.one()] * n,
        )
        out = encode_decode(res.instance, *xs)
        assert out.recovered == xs
        assert out.throughputs == (
            Fraction(n + 1, N), Fraction(n, N), Fraction(n, N)
        )
        assert out.channel_uses == N + res.instance.plan.d_max
        assert res.instance.plan.d_max == 2  # this network's memory
        gaps.append([abs(t - Fraction(1, 2)) for t in out.throughputs])
    # every session's rate closes in on 1/2 as n grows
    for k in range(3):
        assert gaps[0][k] > gaps[1][k] > gaps[2][k] > 0


def test_criterion_08_block_length_number_theory():
    start = time.perf_counter()

    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for N in range(3, 100, 2):
        for p in (2, 3, 5):
            exists = any(pow(p, m, N) == 1 for m in range(1, phi(N) + 1))
            assert exists == (N % p != 0)
    assert time.perf_counter() - start < 1.0


def test_criterion_09_time_varying_reduction_and_mutations():
    start = time.perf_counter()
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    leks = leks_from_dict(doc["kernels"])
    spec = leks.field
    inst = build_instance(net, leks, 3)
    tv = build_tv(net, leks, 3)
    theta, A, B, C = tv_assignment_from_alignment(tv, inst)
    assert check_tv(tv, theta, A, B, C)["ok"]

    # twelve single-kernel single-step mutations, all mid-window so the
    # change lands inside the kept output slots
    base_steps = [(leks.alpha, leks.beta, leks.eps) for _ in range(-2, 10)]
    bump = spec.element([0, 1])
    mutations = []
    for step_idx in (3, 4, 5, 6):  # labels 1 .. 4
        for kind, key in (
            ("beta", (("B", "C", 0), ("C", "E1", 0))),
            ("beta", (("B", "C", 0), ("C", "E2", 0))),
            ("alpha", ((0, 0), ("S1", "A", 0))),
        ):
            mutations.append((step_idx, kind, key))
    broken = 0
    for step_idx, kind, key in mutations:
        steps = list(base_steps)
        al, be, ep = steps[step_idx]
        if kind == "alpha":
            al = dict(al)
            al[key] = al[key] + bump
        else:
            be = dict(be)
            be[key] = be[key] + bump
        steps[step_idx] = (al, be, ep)
        mutated = LekAssignment(spec, "time", t0=-2, steps=tuple(steps))
        rep = check_tv(build_tv(net, mutated, 3), theta, A, B, C)
        if not rep["g_zero"]:
            broken += 1
    assert broken >= 10
    assert time.perf_counter() - start < 10.0


def test_criterion_10_category_search_with_field_escalation():
    start = time.perf_counter()
    rng = random.Random("criterion-10")
    for name, lengths in CATEGORY_LENGTHS.items():
        net = cat_net(lengths)
        try:
            res = align_search(net, 3, GF64, seed=f"fx-{name}", budget=500)
        except NotFound:
            # existence only promises a large enough field; escalate once
            res = align_search(net, 3, build_field(2, 12), seed=f"fx-{name}", budget=500)
        assert res.report["ok"]
        assert res.instance.category == name
        spec = res.instance.field
        n, N = 3, 7
        x1 = [FieldElement(spec, rng.randrange(spec.q)) for _ in range(n + 1)]
        x2 = [FieldElement(spec, rng.randrange(spec.q)) for _ in range(n)]
        x3 = [
            FieldElement(spec, rng.randrange(spec.q))
            for _ in range(N if name == "cat4" else n)
        ]
        out = encode_decode(res.instance, x1, x2, x3)
        assert out.recovered == (x1, x2, x3)
        if name == "cat4":
            # session 3 moves a full uncoded block: 2n+1 symbols
            assert len(out.recovered[2]) == 2 * n + 1
            assert out.throughputs[2] == 1
    assert time.perf_counter() - start < 120.0
