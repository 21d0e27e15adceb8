"""Demand solvability, the product polynomial f, and plan search."""

import dataclasses
import random

import pytest

from netcode.feasibility import (
    NonSquare,
    SearchExhausted,
    Unfixable,
    ZeroDeterminant,
    analyze,
    check_plan,
    compute_f,
    find_plan,
    generation_dets,
    invertibility,
    zero_interference,
)
from netcode.galois import (
    Poly,
    PolyMatrix,
    build_field,
    element_of_order,
    spec_to_dict,
)
from netcode.netmodel import Sink, TransferResult, random_leks, transfer_from_dict, transfer_matrix
from netcode.transform import eigen_blocks, make_plan
from tests.conftest import random_dag_net
from tests.oracles import generator, nontransform_equivalence

GF2 = build_field(2, 1)
GF8 = build_field(2, 3)


def mono(spec, d):
    return Poly(spec, [0] * d + [1])


# ----------------------------------------------------------------------
# the 13x3 reference instance
# ----------------------------------------------------------------------


def test_reference_instance_conditions(table1):
    tr, conns = table1
    assert zero_interference(tr, conns) == []
    inv = invertibility(tr, conns)
    assert [d for _, d in inv] == [
        mono(GF2, 5), mono(GF2, 5), mono(GF2, 6), mono(GF2, 5), mono(GF2, 4)
    ]
    f, divides = compute_f([d for _, d in inv])
    assert f == mono(GF2, 25)
    assert divides is False


def test_reference_instance_analyze_with_search(table1):
    tr, conns = table1
    rep = analyze(tr, conns, find=True, n_min=5)
    assert rep.feasible
    assert rep.zero_interference_violations == ()
    assert rep.f == mono(GF2, 25)
    assert rep.plan is not None
    assert rep.plan.n == 7
    assert rep.plan.field.p == 2 and rep.plan.field.m == 3
    assert check_plan(rep.f, rep.plan).ok


def test_reference_instance_equivalence(table1):
    tr, conns = table1
    rep = nontransform_equivalence(tr, conns)
    assert rep["nontransform_feasible"]
    assert rep["forward"]["ok"]
    assert rep["backward"]["zero_pattern_match"]
    assert all(rep["backward"]["det_at_one_nonzero"])
    assert rep["ok"]


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 4)])
def test_equivalence_on_random_delayed_networks(p, m):
    """The paper's first claim on seeded networks with delays 1-3: one sink
    reads as many outputs as the source has processes and demands them all.
    A delay-domain code with f(1) != 0 has a transform code, and the
    backward check's readings match Poly.eval at the plan's eigenvalues."""
    spec = build_field(p, m)
    rng = random.Random(f"equivalence:{p}:{m}")
    backward = f_one_zero = 0
    for seed in range(80):
        net = random_dag_net(rng, multi_terminal=False, delays=(1, 2, 3))
        mu = net.sources[0].processes
        net = dataclasses.replace(net, sinks=[Sink(net.sinks[0].node, mu)],
                                  connections=[(0, 0, l) for l in range(mu)])
        tr = transfer_matrix(net, random_leks(net, spec, seed, nonzero=True))
        dets = [d for _, d in invertibility(tr, net.connections)]
        plan = analyze(tr, net.connections, find=True).plan
        rep = nontransform_equivalence(tr, net.connections, plan)
        assert rep["nontransform_feasible"] == all(dets)
        if not all(dets):
            assert rep["forward"]["reason"] == "no feasible delay-domain code"
            continue
        if not all(d.eval(spec.one()) for d in dets):
            assert rep["forward"] == {"ok": False, "reason": "f(1) = 0"}
            f_one_zero += 1
            continue
        assert rep["ok"]
        # a cell is zero in every eigenblock exactly when its entry has all
        # n eigenvalues alpha^t as roots
        powers = [plan.alpha**t for t in range(plan.n)]
        assert rep["backward"]["zero_pattern_match"] == all(
            (not e) == (sum(not e.eval(x) for x in powers) == plan.n)
            for row in tr.M.rows for e in row
        )
        assert rep["backward"]["det_at_one_nonzero"] == [bool(d.eval(spec.one())) for d in dets]
        backward += 1
    assert backward >= 5 and f_one_zero >= 1


def test_missing_demand_breaks_both_conditions(table1):
    tr, conns = table1
    pruned = [c for c in conns if c != (0, 0, 0)]
    # the column source 0 feeds into sink 0 is nonzero yet undemanded
    assert (0, 0, 0) in zero_interference(tr, pruned)
    with pytest.raises(NonSquare):
        invertibility(tr, pruned)


# ----------------------------------------------------------------------
# hand-built violators
# ----------------------------------------------------------------------


def hand_transfer(entries, mu_list, nu_list, spec=GF2):
    """Entries are constant codes; wraps them as degree-0 polynomials."""
    pm = PolyMatrix(spec, [[Poly(spec, [e]) for e in row] for row in entries])
    dmax = max(pm.max_degree(), 0)
    return TransferResult(spec, pm, 0, dmax, tuple(mu_list), tuple(nu_list))


def test_zero_determinant_reported_then_raised():
    tr = hand_transfer([[0]], [1], [1])
    inv = invertibility(tr, [(0, 0, 0)])
    assert inv[0][1] == Poly.zero(GF2)
    with pytest.raises(ZeroDeterminant):
        compute_f([inv[0][1]])
    rep = analyze(tr, [(0, 0, 0)])
    assert not rep.feasible and rep.f is None


def test_interference_violation_blocks_analysis():
    # sink 0 demands only source 0 but also hears source 1
    tr = hand_transfer([[1, 1]], [1, 1], [1])
    assert zero_interference(tr, [(0, 0, 0)]) == [(1, 0, 0)]
    rep = analyze(tr, [(0, 0, 0)])
    assert not rep.feasible
    eq = nontransform_equivalence(tr, [(0, 0, 0)])
    assert not eq["nontransform_feasible"]
    assert eq["forward"]["reason"] == "no feasible delay-domain code"


# ----------------------------------------------------------------------
# check_plan against known roots
# ----------------------------------------------------------------------


def test_check_plan_flags_exactly_the_root_generations():
    alpha = element_of_order(GF8, 7)
    plan = make_plan(7, GF8, alpha, 2)
    for roots in [(0,), (2, 5), (1, 3, 6)]:
        f = Poly.one(GF8)
        for k in roots:
            f = f * (Poly(GF8, [0, 1]) - Poly(GF8, [(alpha**k).code]))
        chk = check_plan(f, plan)
        assert not chk.ok
        assert chk.failing == roots
    g = Poly(GF8, [0, 0, 0, generator(GF8).code])  # no roots of unity at all
    assert check_plan(g, plan).ok
    assert bool(check_plan(g, plan)) is True


# ----------------------------------------------------------------------
# plan search
# ----------------------------------------------------------------------


def test_find_plan_skips_lengths_hit_by_roots():
    alpha = element_of_order(GF8, 7)
    f = Poly(GF8, [0, 1]) - Poly(GF8, [alpha.code])
    plan = find_plan(f, n_min=2)
    # every n = 7 candidate in GF(8) hits the root; the search must move on
    assert (plan.n, plan.field) != (7, GF8)
    assert check_plan(f, plan).ok
    assert plan.n >= 2 and (plan.field.q - 1) % plan.n == 0


def test_find_plan_unfixable_when_one_is_a_root():
    f = Poly(GF2, [1, 1])  # 1 + D, f(1) = 0
    with pytest.raises(Unfixable):
        find_plan(f)


def test_find_plan_exhaustion_caps():
    f = Poly(GF2, [1, 1, 1])  # f(1) = 1
    with pytest.raises(SearchExhausted):
        find_plan(f, n_min=2, max_ext_degree=1)  # GF(2) has no n >= 2
    with pytest.raises(SearchExhausted):
        find_plan(f, n_min=2, max_n=1)


def test_find_plan_is_deterministic():
    f = Poly(GF2, [1, 0, 0, 1, 1])
    a = find_plan(f, n_min=3)
    b = find_plan(f, n_min=3)
    assert (a.n, a.field, a.alpha, a.d_max) == (b.n, b.field, b.alpha, b.d_max)


# ----------------------------------------------------------------------
# per-generation determinants against the eigenblocks
# ----------------------------------------------------------------------


def eigenblock_dets(tr, conns, plan):
    """Oracle for generation_dets: evaluate M at every eigenvalue first.

    Takes eigen_blocks(tr.M, plan) and, per generation and demanding
    sink, the field determinant of the demanded block (None when it is
    not square).
    """
    blocks = eigen_blocks(tr.M, plan)
    offsets = [sum(tr.mu_list[:i]) for i in range(len(tr.mu_list))]
    demanded = {}
    for j in sorted({j for (_, j, _) in conns}):
        r0 = sum(tr.nu_list[:j])
        cols = sorted(offsets[i] + l for (i, j2, l) in conns if j2 == j)
        demanded[j] = (range(r0, r0 + tr.nu_list[j]), cols)
    out = []
    for t in range(plan.n):
        for j, (rows, cols) in demanded.items():
            sub = blocks[t].submatrix(rows, cols)
            out.append((t, j, sub.det() if sub.nrows == sub.ncols else None))
    return out


def smallest_plan(spec, n, d_max):
    """The plan in the smallest extension of spec with an order-n element."""
    a = 1
    while (spec.p ** (spec.m * a) - 1) % n:
        a += 1
    ext = spec if a == 1 else build_field(spec.p, spec.m * a)
    return make_plan(n, ext, element_of_order(ext, n), d_max)


def random_transfer_doc(rng, spec, n):
    """A transfer document with entry degrees below n and mixed demands.

    Each sink demands a square set, nothing, a set one short or one over
    (not square), or a square set with a repeated demand.
    """
    mu_list = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
    nu_list = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
    d_max = rng.randrange(min(n, 4))
    entries = [
        [
            spec.codes_to_json(
                [rng.randrange(spec.q) for _ in range(rng.randint(1, d_max + 1))]
            )
            for _ in range(sum(mu_list))
        ]
        for _ in range(sum(nu_list))
    ]
    procs = [(i, l) for i, mu in enumerate(mu_list) for l in range(mu)]
    conns = []
    for j, nu in enumerate(nu_list):
        kind = rng.choice(("square", "square", "none", "short", "over", "repeat"))
        if kind == "none":
            continue
        if kind == "repeat":
            picks = [rng.choice(procs)] * nu
        else:
            k = nu + {"square": 0, "short": -1, "over": 1}[kind]
            picks = rng.sample(procs, min(max(k, 1), len(procs)))
        conns += [(i, j, l) for i, l in picks]
    if not conns:
        conns = [(0, 0, 0)]
    doc = {
        "field": spec_to_dict(spec),
        "d_prime_min": 0,
        "d_prime_max": d_max,
        "mu_list": mu_list,
        "nu_list": nu_list,
        "entries": entries,
    }
    return doc, conns


# (p, m, n): n | q - 1 evaluates in the base field, otherwise in the
# smallest extension holding an order-n element; GF(3^11), reached at
# n = 23, is above the log/exp table cap
GENERATION_CASES = [
    (2, 3, 7), (3, 1, 2), (5, 1, 4), (7, 1, 6), (2, 4, 5),
    (2, 1, 3), (2, 1, 7), (2, 3, 9), (3, 1, 4), (5, 1, 3), (3, 1, 23),
]


@pytest.mark.parametrize("p, m, n", GENERATION_CASES)
def test_generation_dets_match_eigenblock_dets(p, m, n):
    spec = build_field(p, m)
    rng = random.Random(f"gen-dets:{p}:{m}:{n}")
    for _ in range(3 if n == 23 else 8):
        doc, conns = random_transfer_doc(rng, spec, n)
        tr = transfer_from_dict(doc)
        plan = smallest_plan(spec, n, tr.d_max)
        got = generation_dets(tr, conns, plan)
        assert got == eigenblock_dets(tr, conns, plan)
        demanding = sorted({j for (_, j, _) in conns})
        assert [(t, j) for t, j, _ in got] == [
            (t, j) for t in range(n) for j in demanding
        ]


def test_generation_dets_read_the_reversed_power():
    # det M'_0(D) = D + alpha^2 vanishes only at alpha^2, which generation
    # t = n - 1 - 2 = 4 sees
    alpha = element_of_order(GF8, 7)
    pm = PolyMatrix(GF8, [[Poly(GF8, [(alpha**2).code, 1])]])
    tr = TransferResult(GF8, pm, 0, 1, (1,), (1,))
    plan = make_plan(7, GF8, alpha, 1)
    got = generation_dets(tr, [(0, 0, 0)], plan)
    assert [t for t, _, det in got if not det] == [4]
    assert got == eigenblock_dets(tr, [(0, 0, 0)], plan)


def test_generation_dets_edge_demands():
    gf4 = build_field(2, 2)
    plan = make_plan(3, gf4, element_of_order(gf4, 3), 1)
    # sink 0 reads two equal rows (zero det), sink 1 demands one process
    # twice, sink 2 reads two outputs but demands one, sink 3 demands nothing
    rows = [[1, 0], [1, 0], [1, 2], [1, 3], [0, 1], [1, 1], [2, 3]]
    pm = PolyMatrix(gf4, [[Poly(gf4, [c, c]) for c in row] for row in rows])
    tr = TransferResult(gf4, pm, 0, 1, (1, 1), (2, 2, 2, 1))
    conns = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (1, 2, 0)]
    got = generation_dets(tr, conns, plan)
    assert got == eigenblock_dets(tr, conns, plan)
    assert [j for t, j, _ in got if t == 0] == [0, 1, 2]
    by_sink = {j: [det for _, j2, det in got if j2 == j] for j in (0, 1, 2)}
    assert all(det == gf4.zero() for det in by_sink[0] + by_sink[1])
    assert by_sink[2] == [None] * 3
    assert generation_dets(tr, [], plan) == []
