"""transfer_matrix as a window's impulse response, against the edge pass it
replaced."""

import random

import pytest

from netcode import alignment
from netcode.galois import (
    _LANE_MIN_WIDTH,
    FieldElement,
    Poly,
    PolyMatrix,
    build_field,
    element_of_order,
)
from netcode.netmodel import (
    CycleDetected,
    Edge,
    LekAssignment,
    NetworkSpec,
    Sink,
    Source,
    TransferResult,
    _compiled_kernels,
    network_from_dict,
    network_to_dict,
    random_leks,
    simulate,
    transfer_matrix,
    validate,
)
from netcode.transform import make_plan, run_pipeline
from tests.conftest import random_dag_net
from tests.test_alignment import _count_validate
from tests.test_netmodel import DELAYS


def edge_pass_transfer(net, leks):
    """transfer_matrix before it ran as a window: one pass over the edges
    in topological order of their tails, per input c, edge e carrying the
    raw code list F_e[c] = D^delay(e) (alpha_ce + sum_e' beta_e'e F_e'[c]),
    and sink row r summing eps_er F_e[c]. The order is sorted here from
    validate's node order, not read from the network's memo."""
    if leks.mode != "invariant":
        raise ValueError("transfer_matrix needs time-invariant kernels")
    rank = {v: k for k, v in enumerate(validate(net))}
    spec = leks.field
    mu, nu = net.mu, net.nu
    a_terms, b_terms, e_terms = _compiled_kernels(net, (leks.alpha, leks.beta, leks.eps), spec)
    alpha_in = [[] for _ in net.edges]
    for epos, flat, code in a_terms:
        alpha_in[epos].append((flat, code))
    beta_in = [[] for _ in net.edges]
    for out_pos, in_pos, code in b_terms:
        beta_in[out_pos].append((in_pos, code))

    def add_into(dst, code, src, delay):
        # dst += code * D^delay * src, growing dst to the last entry of src
        if src:
            short = delay + src[-1][0] + 1 - len(dst)
            if short > 0:
                dst.extend([0] * short)
            spec._lists.axpy(dst, code, src, delay)

    # F[k][c] is F_e[c] / D^delay(e), prepared once for every sum it enters
    delay = [e.delay for e in net.edges]
    F = [[] for _ in net.edges]
    for k in sorted(range(len(net.edges)), key=lambda k: rank[net.edges[k].tail]):
        acc = [[] for _ in range(mu)]
        for flat, code in alpha_in[k]:
            acc[flat] = [code]  # alpha keys are unique per (input, edge)
        for in_pos, code in beta_in[k]:
            for a, src in zip(acc, F[in_pos]):
                add_into(a, code, src, delay[in_pos])
        F[k] = [spec._lists.prep(a) for a in acc]

    raw = [[[] for _ in range(mu)] for _ in range(nu)]
    for flat, epos, code in e_terms:
        for a, src in zip(raw[flat], F[epos]):
            add_into(a, code, src, delay[epos])
    lags = [d for row in raw for a in row for d, x in enumerate(a) if x]
    if not lags:
        return TransferResult(
            spec, PolyMatrix.zeros(spec, nu, mu), 0, 0, net.mu_list, net.nu_list
        )
    dmin, dmax = min(lags), max(lags)
    M = PolyMatrix(spec, [[Poly(spec, a[dmin:]) for a in row] for row in raw])
    return TransferResult(spec, M, dmin, dmax, net.mu_list, net.nu_list)


FIELDS = [(2, 1), (3, 1), (2, 8), (2, 10)]


def _with_unreached_sink(net):
    """net plus a sink at a node that only a non-source node feeds."""
    return NetworkSpec(
        net.nodes + ("w", "z"),
        net.edges + (Edge("w", "z", 0, 2),),
        net.sources,
        net.sinks + (Sink("z", 1),),
        net.connections,
    )


def _zero_leks(net, spec):
    """Zero kernels on every admissible position."""
    leks = random_leks(net, spec, "positions")
    zero = FieldElement(spec, 0)
    parts = [{k: zero for k in part} for part in (leks.alpha, leks.beta, leks.eps)]
    return LekAssignment(spec, "invariant", *parts)


def _same(net, leks):
    new, old = transfer_matrix(net, leks), edge_pass_transfer(net, leks)
    assert (new.M, new.d_prime_min, new.d_prime_max) == (old.M, old.d_prime_min, old.d_prime_max)
    assert (new.mu_list, new.nu_list) == (old.mu_list, old.nu_list)
    return new


@pytest.mark.parametrize("p, m", FIELDS)
def test_impulse_response_matches_edge_pass(p, m):
    spec = build_field(p, m)
    rng = random.Random(f"impulse:{p}:{m}")
    seen = set()
    for k in range(40):
        net = random_dag_net(rng, delays=DELAYS if k % 3 else (1,))
        if k % 5 == 4:
            net = _with_unreached_sink(net)
        leks = _zero_leks(net, spec) if k % 8 == 7 else random_leks(net, spec, f"imp{k}")
        tr = _same(net, leks)
        extremes = net._path_extremes
        window = net.mu * (1 if extremes is None else extremes[1] + 1)
        seen.add("short" if window < _LANE_MIN_WIDTH else "long")
        keys = [e.key[:2] for e in net.edges]
        if len(set(keys)) < len(keys):
            seen.add("parallel")
        if any(s.processes > 1 for s in net.sources):
            seen.add("multi-process")
        if k % 5 == 4:
            assert all(e.degree() < 0 for e in tr.M.rows[-1])
            seen.add("unreached sink")
        if k % 8 == 7:
            assert (tr.d_prime_min, tr.d_prime_max) == (0, 0)
            assert all(e.degree() < 0 for row in tr.M.rows for e in row)
            seen.add("zero kernels")
    assert seen == {"short", "long", "parallel", "multi-process", "unreached sink", "zero kernels"}


@pytest.mark.parametrize("p, m", FIELDS)
def test_no_source_to_sink_path_is_a_zero_matrix(p, m):
    spec = build_field(p, m)
    net = NetworkSpec(
        ["S", "A", "B", "T"],
        [Edge("S", "A", 0, 3), Edge("B", "T", 0, 1), Edge("B", "T", 1, 4)],
        [Source("S", 2)],
        [Sink("T", 2), Sink("B", 1)],
    )
    assert net._path_extremes is None
    tr = _same(net, random_leks(net, spec, "nopath", nonzero=True))
    assert (tr.d_prime_min, tr.d_prime_max) == (0, 0)
    assert tr.M.nrows == 3 and tr.M.ncols == 2
    assert all(e.degree() < 0 for row in tr.M.rows for e in row)


def _refusal(fn, *args):
    with pytest.raises(Exception) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def test_refusals_match_edge_pass():
    spec, other = build_field(2, 8), build_field(3, 1)
    net = NetworkSpec(
        ["S", "A", "T"],
        [Edge("S", "A", 0, 2), Edge("A", "T"), Edge("S", "T", 0, 3)],
        [Source("S", 1)],
        [Sink("T", 1)],
        [(0, 0, 0)],
    )
    leks = random_leks(net, spec, "refuse", nonzero=True)
    one = FieldElement(spec, 1)
    foreign = {**leks.alpha, ((0, 0), ("S", "A", 0)): FieldElement(other, 1)}
    apart = {**leks.beta, (("S", "T", 0), ("A", "T", 0)): one}
    off_sink = {(("S", "A", 0), (0, 0)): one}
    cyclic = NetworkSpec(
        net.nodes, net.edges + (Edge("T", "S"),), net.sources, net.sinks, net.connections
    )
    cases = [
        (net, random_leks(net, spec, "refuse", mode="time", window=(0, 3))),
        (net, LekAssignment(spec, "invariant", foreign, leks.beta, leks.eps)),
        (net, LekAssignment(spec, "invariant", leks.alpha, apart, leks.eps)),
        (net, LekAssignment(spec, "invariant", leks.alpha, leks.beta, off_sink)),
        (cyclic, leks),
    ]
    for case in cases:
        assert _refusal(transfer_matrix, *case) == _refusal(edge_pass_transfer, *case)


def test_a_network_validates_once_across_calls(monkeypatch, ex2, gf64):
    # the fixture's network is shared and already holds its edge order, so
    # the calls run on a fresh object equal to it
    net = network_from_dict(network_to_dict(ex2[0]))
    leks = ex2[1]
    calls = _count_validate(monkeypatch)
    tr = transfer_matrix(net, leks)
    spec = leks.field
    one = [FieldElement(spec, 1)]  # one source's symbol vector
    simulate(net, leks, [[one] * len(net.sources)] * 12)
    plan = make_plan(7, spec, element_of_order(spec, 7), tr.d_max)
    run_pipeline(net, leks, plan, [[one] * 7 for _ in net.sources])
    alignment.build_tv(net, leks, 3)
    alignment.align_search(net, 4, gf64)
    assert calls == [net] and calls[0] is net
    # the memo is not a field: equality, hash and repr ignore it
    assert net == ex2[0] and hash(net) == hash(ex2[0]) and repr(net) == repr(ex2[0])
    # a refusal is not kept: a cyclic network raises on every call
    back = Edge(net.sinks[0].node, net.sources[0].node)
    cyclic = NetworkSpec(net.nodes, net.edges + (back,), net.sources, net.sinks, net.connections)
    refusals = []
    for _ in range(2):
        with pytest.raises(CycleDetected) as exc:
            transfer_matrix(cyclic, leks)
        refusals.append(str(exc.value))
    assert calls[1:] == [cyclic, cyclic] and refusals[0] == refusals[1]
