"""The per-sink decode systems against the formulations they replaced.

check_alignment, encode_decode and check_tv read one table of decode
systems. Before it, each wrote the systems out in its own form: the rank
checks scaled them by an inverse diagonal block (sink 1 of "full" ranked
[V1, Mhat_11^-1 Mhat_21 V2], not [Mhat_11 V1, Mhat_21 V2]), decode had a
per-category ladder with a direct division at cat4's sink 3, and check_tv
inverted two more stacks. Those formulations are kept here as oracles;
ranks, verdicts, recovered symbols and check_tv reports must agree.
"""

import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

from netcode import alignment
from netcode.alignment import (
    SingularBlock,
    SingularDecodeSystem,
    _diag_mul,
    build_instance,
    build_tv,
    check_alignment,
    check_tv,
    encode_decode,
    tv_assignment_from_alignment,
)
from netcode.cli import load_fixture
from netcode.galois import FieldElement, FqMatrix, _LaneKernel, build_field
from netcode.netmodel import LekAssignment, leks_from_dict, network_from_dict, random_leks
from netcode.transform import run_pipeline
from tests.conftest import CATEGORY_LENGTHS, cat_net

GF8 = build_field(2, 3)
GF64 = build_field(2, 6)


# ----------------------------------------------------------------------
# oracles: the formulations before the decode-system table
# ----------------------------------------------------------------------


def _dv(inst, i, j, V):
    return _diag_mul(inst.field, inst.mhat[i][j], V)


def _diag_inv(spec, diag, where):
    out = []
    for r, d in enumerate(diag):
        if d == 0:
            raise SingularBlock(f"{where} has a zero eigenvalue at position {r}")
        out.append(spec._inv_code(d))
    return out


def _dinv_v(inst, i, j, M):
    inv = _diag_inv(inst.field, inst.mhat[i][j], f"block ({i + 1},{j + 1})")
    return _diag_mul(inst.field, inv, M)


def _diag_matrix(inst, i, j):
    out = FqMatrix.zeros(inst.field, inst.N, inst.N)
    for r, c in enumerate(inst.mhat[i][j]):
        out.rows[r][r] = c
    return out


def ladder_conditions(inst):
    N, n = inst.N, inst.n
    V1, V2, V3 = inst.V1, inst.V2, inst.V3
    out = []

    def cond(name, M, target):
        r = M.rank()
        out.append({"name": name, "rank": r, "target": target, "ok": r == target})

    hs = FqMatrix.hstack
    if inst.category == "full":
        cond("sink1", hs([V1, _dinv_v(inst, 0, 0, _dv(inst, 1, 0, V2))]), N)
        cond("sink2", hs([_dinv_v(inst, 0, 1, _dv(inst, 1, 1, V2)), V1]), N)
        cond("sink3", hs([_dinv_v(inst, 0, 2, _dv(inst, 2, 2, V3)), V1]), N)
    elif inst.category == "cat1":
        cond("sink1", hs([V1, _dinv_v(inst, 0, 0, _dv(inst, 2, 0, V3))]), N)
        cond("sink2", hs([_dinv_v(inst, 0, 1, _dv(inst, 1, 1, V2)), V1]), N)
        cond("sink3", hs([_dinv_v(inst, 0, 2, _dv(inst, 2, 2, V3)), V1]), N)
    elif inst.category == "cat2":
        cond("sink1", _dv(inst, 0, 0, V1), n + 1)
        cond("sink2", hs([_dinv_v(inst, 2, 1, _dv(inst, 1, 1, V2)), V3]), 2 * n)
        cond("sink3", hs([_dinv_v(inst, 2, 2, _dv(inst, 0, 2, V1)), V3]), N)
    elif inst.category == "cat3":
        cond("sink1", hs([V1, _dinv_v(inst, 0, 0, _dv(inst, 1, 0, V2))]), N)
        cond("sink2", hs([_dinv_v(inst, 2, 1, _dv(inst, 1, 1, V2)), V3]), 2 * n)
        cond("sink3", hs([_dinv_v(inst, 2, 2, _dv(inst, 0, 2, V1)), V3]), N)
    else:
        cond("sink3_direct", _diag_matrix(inst, 2, 2), N)
        cond("sink1", hs([V1, _dinv_v(inst, 0, 0, _dv(inst, 1, 0, V2))]), N)
        cond("sink2", hs([_dinv_v(inst, 0, 1, _dv(inst, 1, 1, V2)), V1]), N)
    return out


def ladder_decode(inst, x1, x2, x3):
    spec = inst.field
    n, N = inst.n, inst.N
    xs = (list(x1), list(x2), list(x3))
    V = (inst.V1, inst.V2, inst.V3)
    stacked = [V[k] * FqMatrix(spec, [[s.code] for s in xs[k]]) for k in range(3)]
    by_source = [None, None, None]
    for k in range(3):
        by_source[inst.perm[k]] = [
            [FieldElement(spec, stacked[k].rows[N - 1 - t][0])] for t in range(N)
        ]
    decoded = run_pipeline(inst.net, inst.leks, inst.plan, by_source)
    y = [
        FqMatrix(spec, [[decoded[inst.perm[k]][N - 1 - r][0].code] for r in range(N)])
        for k in range(3)
    ]

    def solve(name, M, rhs, keep):
        try:
            sol = M.solve(rhs)
        except ValueError as exc:
            raise SingularDecodeSystem(f"{name}: {exc}") from None
        return [sol.entry(r, 0) for r in range(keep)]

    c = inst.category
    if c == "cat1":
        sys1 = FqMatrix.hstack([_dv(inst, 0, 0, inst.V1), _dv(inst, 2, 0, inst.V3)])
    elif c == "cat2":
        sys1 = _dv(inst, 0, 0, inst.V1)
    else:
        sys1 = FqMatrix.hstack([_dv(inst, 0, 0, inst.V1), _dv(inst, 1, 0, inst.V2)])
    rec1 = solve("sink 1", sys1, y[0], n + 1)
    if c in ("cat2", "cat3"):
        sys2 = FqMatrix.hstack([_dv(inst, 1, 1, inst.V2), _dv(inst, 2, 1, inst.V3)])
    else:
        sys2 = FqMatrix.hstack([_dv(inst, 1, 1, inst.V2), _dv(inst, 0, 1, inst.V1)])
    rec2 = solve("sink 2", sys2, y[1], n)
    if c == "cat4":
        inv33 = _diag_inv(spec, inst.mhat[2][2], "block (3,3)")
        rec3 = [
            FieldElement(spec, spec._mul_codes(inv33[r], y[2].rows[r][0])) for r in range(N)
        ]
    else:
        sys3 = FqMatrix.hstack([_dv(inst, 2, 2, inst.V3), _dv(inst, 0, 2, inst.V1)])
        rec3 = solve("sink 3", sys3, y[2], n)
    thr3 = Fraction(1) if c == "cat4" else Fraction(n, N)
    return (rec1, rec2, rec3), (Fraction(n + 1, N), Fraction(n, N), thr3)


def ladder_check_tv(inst, theta, A, B, C):
    N = inst.N
    M = inst.M
    inv = {}
    for i in range(3):
        for j in range(3):
            singular = SingularBlock(f"stack ({i + 1},{j + 1}) is singular")
            if (i, j) in ((1, 0), (1, 1), (2, 2)):
                if M[i][j].rank() < N:
                    raise singular
                continue
            try:
                inv[(i, j)] = M[i][j].inverse()
            except ValueError:
                raise singular from None
    V1 = theta
    V2 = inv[(1, 2)] * (M[0][2] * (V1 * A))
    V3 = inv[(2, 1)] * (M[0][1] * (V1 * B))
    T1 = inv[(0, 1)] * M[2][1] * inv[(2, 0)] * M[1][0] * inv[(1, 2)] * M[0][2]
    g = T1 * (V1 * A) - V1 * (B * C)
    g_violations = [(r, c) for r in range(N) for c in range(g.ncols) if g.rows[r][c]]
    report = {"g_zero": not g_violations, "g_violations": g_violations}
    m12v1 = M[0][1] * V1
    report["sink2_span"] = FqMatrix.hstack([m12v1, M[2][1] * V3]).rank() == m12v1.rank()
    m13v1 = M[0][2] * V1
    report["sink3_span"] = FqMatrix.hstack([m13v1, M[1][2] * V2]).rank() == m13v1.rank()
    conds = []
    for name, big in (
        ("sink1", FqMatrix.hstack([V1, inv[(0, 0)] * (M[1][0] * V2)])),
        ("sink2", FqMatrix.hstack([inv[(0, 1)] * (M[1][1] * V2), V1])),
        ("sink3", FqMatrix.hstack([inv[(0, 2)] * (M[2][2] * V3), V1])),
    ):
        r = big.rank()
        conds.append({"name": name, "rank": r, "target": N, "ok": r == N})
    report["conditions"] = conds
    report["ok"] = bool(
        report["g_zero"]
        and report["sink2_span"]
        and report["sink3_span"]
        and all(c["ok"] for c in conds)
    )
    return report


# ----------------------------------------------------------------------
# instances: every category, passing and failing
# ----------------------------------------------------------------------


def _example2():
    doc = load_fixture("example2")
    return network_from_dict(doc["network"]), leks_from_dict(doc["kernels"])


# example2's side chains, one per source; cutting one at its source keeps
# every "full" block nonzero but costs one sink its rank
SIDE_CHAINS = (
    ((0, 0), ("S1", "G12a", 0)),
    ((1, 0), ("S2", "G23a", 0)),
    ((2, 0), ("S3", "G31a", 0)),
)


def _killed(leks, key):
    alpha = dict(leks.alpha)
    alpha[key] = leks.field.zero()
    return LekAssignment(leks.field, "invariant", alpha, leks.beta, leks.eps)


def _instances():
    net, leks = _example2()
    # N = 7 keeps the decode systems in the log domain, N = 9 puts them in
    # byte lanes (galois._LANE_MIN_WIDTH)
    out = {"full-example2": build_instance(net, leks, 3)}
    out["full-example2-N9"] = build_instance(net, leks, 4)
    for k, key in enumerate(SIDE_CHAINS):
        out[f"full-killed{k + 1}"] = build_instance(net, _killed(leks, key), 3)
    flat = cat_net({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3)})
    out["full-flat"] = build_instance(flat, random_leks(flat, GF64, "flat", nonzero=True), 3)
    for name, lengths in CATEGORY_LENGTHS.items():
        cnet = cat_net(lengths)
        for k in range(8):
            leks_k = random_leks(cnet, GF8, f"d{k}", nonzero=True)
            out[f"{name}-d{k}"] = build_instance(cnet, leks_k, 3, seed=f"d{k}")
        for k in range(2):
            leks_k = random_leks(cnet, GF64, f"w{k}", nonzero=True)
            out[f"{name}-N9-w{k}"] = build_instance(cnet, leks_k, 4, seed=f"w{k}")
    return out


INSTANCES = _instances()


def test_instances_cover_passing_and_failing_in_every_category():
    seen = {(inst.category, check_alignment(inst)["ok"]) for inst in INSTANCES.values()}
    categories = ("full", "cat1", "cat2", "cat3", "cat4")
    assert seen == {(c, ok) for c in categories for ok in (True, False)}
    assert len(set(INSTANCES["full-flat"].T)) == 1


@pytest.mark.parametrize("key", INSTANCES)
def test_conditions_match_ladder(key):
    inst = INSTANCES[key]
    assert check_alignment(inst)["conditions"] == ladder_conditions(inst)


@pytest.mark.parametrize("key", INSTANCES)
def test_recovered_symbols_match_ladder(key):
    inst = INSTANCES[key]
    rng = random.Random(f"syms:{key}")
    widths = (inst.n + 1, inst.n, inst.N if inst.category == "cat4" else inst.n)
    q = inst.field.q
    xs = [[FieldElement(inst.field, rng.randrange(q)) for _ in range(w)] for w in widths]
    try:
        want = ladder_decode(inst, *xs)
    except SingularDecodeSystem:
        with pytest.raises(SingularDecodeSystem):
            encode_decode(inst, *xs)
        assert not check_alignment(inst)["ok"]
        return
    got = encode_decode(inst, *xs)
    assert (got.recovered, got.throughputs) == want
    if check_alignment(inst)["ok"]:
        assert got.recovered == tuple(xs)


def _decode(inst, key):
    rng = random.Random(f"again:{key}")
    q = inst.field.q
    widths = [v.ncols for v in (inst.V1, inst.V2, inst.V3)]
    xs = [[FieldElement(inst.field, rng.randrange(q)) for _ in range(w)] for w in widths]
    try:
        return encode_decode(inst, *xs)
    except SingularDecodeSystem as exc:
        return str(exc)


@pytest.mark.parametrize("key", INSTANCES)
def test_decode_from_kept_factors_matches_unchecked_instance(key):
    checked = INSTANCES[key]
    check_alignment(checked)
    assert len(checked.decode_factors) == 3
    fresh = dataclasses.replace(checked)
    assert fresh.decode_factors is None and fresh == checked
    assert _decode(checked, key) == _decode(fresh, key)


@pytest.mark.parametrize("key", ["full-example2", "full-example2-N9", "cat3-N9-w0"])
def test_replaced_instance_drops_kept_factors(key):
    inst = INSTANCES[key]
    assert check_alignment(inst)["ok"]
    rank_one = FqMatrix(inst.field, [[row[0]] * inst.V1.ncols for row in inst.V1.rows])
    bad = dataclasses.replace(inst, V1=rank_one)
    assert bad.decode_factors is None
    # the kept factors would decode this instance without complaint
    assert _decode(bad, key).startswith("sink")
    assert not check_alignment(bad)["ok"]


# ----------------------------------------------------------------------
# check_tv
# ----------------------------------------------------------------------


def _tv_cases():
    net, leks = _example2()
    spec = leks.field
    tv = build_tv(net, leks, 3)
    theta, A, B, C = tv_assignment_from_alignment(tv, build_instance(net, leks, 3))
    cases = {"constant": (tv, theta)}
    # one kernel nudged at one mid-run step
    steps = [(leks.alpha, leks.beta, leks.eps) for _ in range(-2, 10)]
    for label, step, key in (
        ("beta-step3", 3, (("B", "C", 0), ("C", "E1", 0))),
        ("beta-step5", 5, (("B", "C", 0), ("C", "E2", 0))),
    ):
        tweaked = dict(leks.beta)
        tweaked[key] = tweaked[key] + spec.element([0, 1])
        mutated = list(steps)
        mutated[step] = (leks.alpha, tweaked, leks.eps)
        timed = LekAssignment(spec, "time", t0=-2, steps=tuple(mutated))
        cases[label] = (build_tv(net, timed, 3), theta)
    # a side chain cut: theta from the cut instance fails one sink
    for k, key in enumerate(SIDE_CHAINS):
        killed = _killed(leks, key)
        tv_k = build_tv(net, killed, 3)
        theta_k = tv_assignment_from_alignment(tv_k, build_instance(net, killed, 3))[0]
        cases[f"killed{k + 1}"] = (tv_k, theta_k)
    # a rank-one theta: every decoding condition fails
    cases["rank-one-theta"] = (tv, FqMatrix(spec, [[row[0]] * theta.ncols for row in theta.rows]))
    # zeroed stacks: (1,1) and (1,3), once inverted and now rank-checked,
    # then pairs where the first singular stack names the error
    zero = FqMatrix.zeros(spec, tv.N, tv.N)
    for stacks in (((0, 0),), ((0, 2),), ((1, 1), (1, 2)), ((2, 0), (2, 2))):
        M = [list(row) for row in tv.M]
        for i, j in stacks:
            M[i][j] = zero
        label = "zero-" + "-".join(f"{i + 1}{j + 1}" for i, j in stacks)
        cases[label] = (dataclasses.replace(tv, M=tuple(tuple(r) for r in M)), theta)
    return cases, (A, B, C)


TV_CASES, TV_ABC = _tv_cases()


@pytest.mark.parametrize("key", TV_CASES)
def test_check_tv_matches_ladder(key):
    tv, theta = TV_CASES[key]
    try:
        want = ladder_check_tv(tv, theta, *TV_ABC)
    except SingularBlock as exc:
        with pytest.raises(SingularBlock) as got:
            check_tv(tv, theta, *TV_ABC)
        assert str(got.value) == str(exc)
        return
    assert check_tv(tv, theta, *TV_ABC) == want


# ----------------------------------------------------------------------
# the decode systems as built for elimination
# ----------------------------------------------------------------------


def _built_instance(spec, category, n):
    """The first instance of category over spec at N = 2n + 1 that passes
    check_alignment, or else the first whose blocks are all nonsingular:
    on example2's network for "full", on cat_net otherwise. Over GF(2^6)
    at N = 63 every nonzero element is an eigenvalue point, so each of
    example2's two-term blocks has a zero eigenvalue there; "full" then
    takes one path per pair, whose single-term blocks cannot align."""
    if category != "full":
        net = cat_net(CATEGORY_LENGTHS[category])
    elif spec.q - 1 == 2 * n + 1:
        net = cat_net({(i, j): 1 + ((i, j) == (1, 3)) for i in (1, 2, 3) for j in (1, 2, 3)})
    else:
        net = _example2()[0]
    built = None
    for k in range(100):
        try:
            inst = build_instance(net, random_leks(net, spec, f"built{k}", nonzero=True), n, seed=k)
        except SingularBlock:
            continue
        assert inst.category == category
        if check_alignment(inst)["ok"]:
            return inst
        built = built or inst
    assert built is not None, "no nonsingular draw"
    return built


# byte lanes in GF(2^6) at N = 9 and 63 and in GF(2^8) at N = 15 and 85,
# the benchmark's largest; code lists in GF(2^10) at N = 31, below its
# packed lanes' crossover, and in GF(3^5) at N = 11
BUILT_FIELDS = [((2, 6), 4), ((2, 6), 31), ((2, 8), 7), ((2, 8), 42), ((2, 10), 15), ((3, 5), 5)]
# every instance passes but "full" over GF(2^6) at N = 63 (see _built_instance)
BUILT = [
    (pm, n, category)
    for pm, n in BUILT_FIELDS
    for category in ("full", "cat1", "cat2", "cat3", "cat4")
]


def _rand_rows(spec, rng, nrows, ncols):
    return [[rng.randrange(spec.q) for _ in range(ncols)] for _ in range(nrows)]


def _solved(factors, rhs):
    try:
        return factors.solve(rhs).rows
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "pm, n, category", BUILT, ids=[f"GF{p}^{m}-N{2 * n + 1}-{c}" for (p, m), n, c in BUILT]
)
def test_built_systems_match_stacked_blocks(pm, n, category):
    """Each sink's system, built as rows of the polynomial kernel, holds
    the codes of its Mhat_ij V_i blocks stacked side by side, as bytes in
    byte lanes; its factors solve every right-hand side as the stacked
    system's do, and encode_decode recovers the symbols exactly."""
    spec = build_field(*pm)
    inst = _built_instance(spec, category, n)
    V = (inst.V1, inst.V2, inst.V3)
    rng = random.Random(f"built:{pm}:{n}:{category}")
    lanes = type(spec._poly) is _LaneKernel
    systems = alignment._decode_systems(inst)
    assert len(systems) == 3
    for system, (_, j, sessions) in zip(systems, alignment._DECODE_SYSTEMS[category]):
        stacked = alignment._decode_system(partial(_dv, inst), j, sessions, V)
        assert [list(row) for row in system.rows] == stacked.rows
        assert {type(row) for row in system.rows} == {bytes if lanes else list}
        got, want = system.factor(), stacked.factor()
        assert (got.pivots, [list(u) for u in got.upper]) == (want.pivots, [list(u) for u in want.upper])
        x = FqMatrix(spec, _rand_rows(spec, rng, stacked.ncols, 2))
        for rhs in (stacked * x, FqMatrix(spec, _rand_rows(spec, rng, stacked.nrows, 1))):
            assert _solved(got, rhs) == _solved(want, rhs)
    xs = [[FieldElement(spec, rng.randrange(spec.q)) for _ in range(v.ncols)] for v in V]
    if check_alignment(inst)["ok"]:
        assert encode_decode(inst, *xs).recovered == tuple(xs)
    else:
        assert (pm, n, category) == ((2, 6), 31, "full")
        with pytest.raises(SingularDecodeSystem):
            encode_decode(inst, *xs)
