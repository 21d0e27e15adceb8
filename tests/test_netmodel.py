"""Network model: validation, min-cut, transfer matrix, simulation."""

import random
from types import SimpleNamespace

import networkx as nx
import pytest

from netcode import netmodel
from netcode.galois import FieldElement, Poly, build_field
from netcode.netmodel import (
    CycleDetected,
    DanglingDemand,
    Edge,
    LekAssignment,
    NetworkSpec,
    Sink,
    Source,
    WindowUnderspecified,
    leks_from_dict,
    leks_to_dict,
    min_cut,
    network_from_dict,
    network_to_dict,
    normalize_delays,
    random_leks,
    simulate,
    transfer_from_dict,
    transfer_matrix,
    validate,
)
from tests.conftest import random_dag_net
from tests.oracles import input_offset, output_offset, transfer_to_dict

GF2 = build_field(2, 1)
GF8 = build_field(2, 3)
GF9 = build_field(3, 2)
GF256 = build_field(2, 8)
DELAYS = (1, 2, 3, 5)


def line_net(length, delays=None):
    """Single path S -> ... -> T with one process and one output."""
    delays = delays or [1] * length
    nodes = ["S"] + [f"m{k}" for k in range(1, length)] + ["T"]
    edges = [Edge(nodes[k], nodes[k + 1], 0, delays[k]) for k in range(length)]
    return NetworkSpec(nodes, edges, [Source("S", 1)], [Sink("T", 1)], [(0, 0, 0)])


def unit_leks(net):
    """All-ones kernels over GF(2) on every admissible position."""
    return random_leks(net, GF2, "ones", nonzero=True)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def test_topological_order_is_lexicographic_among_ready():
    net = NetworkSpec(
        ["S", "B", "A", "T"],
        [Edge("S", "A"), Edge("S", "B"), Edge("A", "T"), Edge("B", "T")],
        [Source("S", 1)],
        [Sink("T", 1)],
        [(0, 0, 0)],
    )
    assert validate(net) == ["S", "A", "B", "T"]


def test_validate_rejects_cycles():
    net = NetworkSpec(
        ["a", "b"],
        [Edge("a", "b"), Edge("b", "a")],
        [Source("a", 1)],
        [Sink("b", 1)],
        [],
    )
    with pytest.raises(CycleDetected):
        validate(net)


def test_validate_rejects_malformed_pieces():
    with pytest.raises(ValueError):
        validate(NetworkSpec(["a", "a"], [], [], [], []))
    with pytest.raises(ValueError):
        validate(NetworkSpec(["a", "b"], [Edge("a", "c")], [], [], []))
    with pytest.raises(ValueError):
        validate(NetworkSpec(["a", "b"], [Edge("a", "b", 0, 0)], [], [], []))
    with pytest.raises(ValueError):
        validate(
            NetworkSpec(["a", "b"], [Edge("a", "b"), Edge("a", "b")], [], [], [])
        )


def test_validate_rejects_dangling_demands():
    base = lambda conns: NetworkSpec(
        ["S", "T"], [Edge("S", "T")], [Source("S", 1)], [Sink("T", 1)], conns
    )
    with pytest.raises(DanglingDemand):
        validate(base([(1, 0, 0)]))  # no source 1
    with pytest.raises(DanglingDemand):
        validate(base([(0, 3, 0)]))  # no sink 3
    with pytest.raises(DanglingDemand):
        validate(base([(0, 0, 2)]))  # source 0 has one process
    shared = NetworkSpec(
        ["S"], [], [Source("S", 1)], [Sink("S", 1)], [(0, 0, 0)]
    )
    with pytest.raises(DanglingDemand):
        validate(shared)


def test_edges_are_canonically_sorted():
    net = NetworkSpec(
        ["a", "b", "c"],
        [Edge("b", "c"), Edge("a", "b", 1), Edge("a", "b", 0)],
        [Source("a", 1)],
        [Sink("c", 1)],
        [],
    )
    assert [e.key for e in net.edges] == [("a", "b", 0), ("a", "b", 1), ("b", "c", 0)]


# ----------------------------------------------------------------------
# min-cut
# ----------------------------------------------------------------------


def test_min_cut_butterfly():
    net = network_from_dict(network_to_dict(_butterfly()))
    assert min_cut(net, 0, 0) == 2
    assert min_cut(net, 0, 1) == 2


def _butterfly():
    nodes = ["s", "u", "v", "w", "x", "t1", "t2"]
    edges = [
        Edge("s", "u"), Edge("s", "v"),
        Edge("u", "t1"), Edge("v", "t2"),
        Edge("u", "w"), Edge("v", "w"),
        Edge("w", "x"), Edge("x", "t1"), Edge("x", "t2"),
    ]
    return NetworkSpec(
        nodes, edges, [Source("s", 2)], [Sink("t1", 2), Sink("t2", 2)],
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)],
    )


def test_min_cut_shared_node_rejected():
    net = NetworkSpec(["a"], [], [Source("a", 1)], [Sink("a", 1)], [])
    with pytest.raises(ValueError):
        min_cut(net, 0, 0)


def test_min_cut_matches_networkx():
    rng = random.Random("mincut-oracle")
    for _ in range(30):
        net = random_dag_net(rng)
        G = nx.DiGraph()
        G.add_nodes_from(net.nodes)
        for e in net.edges:
            if G.has_edge(e.tail, e.head):
                G[e.tail][e.head]["capacity"] += 1
            else:
                G.add_edge(e.tail, e.head, capacity=1)
        for i in range(len(net.sources)):
            for j in range(len(net.sinks)):
                s, t = net.sources[i].node, net.sinks[j].node
                if s == t:
                    continue
                want = nx.maximum_flow_value(G, s, t)
                assert min_cut(net, i, j) == want


# ----------------------------------------------------------------------
# delay normalization
# ----------------------------------------------------------------------


def test_normalize_unit_delay_is_identity():
    net = line_net(2)
    assert normalize_delays(net) is net


def test_normalize_expands_chains():
    net = line_net(2, delays=[3, 1])
    net2 = normalize_delays(net)
    assert net2.is_unit_delay()
    assert len(net2.nodes) == len(net.nodes) + 2
    assert len(net2.edges) == 4


def test_normalize_preserves_behavior():
    rng = random.Random("norm")
    net = line_net(3, delays=[2, 1, 3])
    leks = random_leks(net, GF8, "norm-k", nonzero=True)
    net2, leks2 = normalize_delays(net, leks)
    x = [[[FieldElement(GF8, rng.randrange(8))]] for _ in range(10)]
    assert simulate(net, leks, x) == simulate(net2, leks2, x)
    tr = transfer_matrix(net, leks)
    tr2 = transfer_matrix(net2, leks2)
    assert tr.M == tr2.M
    assert tr.d_prime_min == tr2.d_prime_min


# ----------------------------------------------------------------------
# transfer matrix and simulation
# ----------------------------------------------------------------------


def test_unit_path_delivers_after_path_length():
    # L unit-delay hops: the impulse injected at t=0 is read at t=L
    for L in (1, 2, 4):
        net = line_net(L)
        leks = unit_leks(net)
        x = [[[GF2.one()]]] + [[[GF2.zero()]]] * (L + 2)
        out = simulate(net, leks, x)
        got = [out[t][0][0] for t in range(L + 3)]
        assert got[L] == GF2.one()
        assert all(v == GF2.zero() for t, v in enumerate(got) if t != L)
        tr = transfer_matrix(net, leks)
        assert tr.d_prime_min == L
        assert tr.M.entry(0, 0) == Poly.one(GF2)


def test_transfer_on_three_session_example(ex2):
    net, leks = ex2
    tr = transfer_matrix(net, leks)
    assert tr.d_prime_min == 3
    assert tr.d_max == 2
    assert tr.mu == 3 and tr.nu == 3
    # every diagonal entry carries the direct path
    for k in range(3):
        assert tr.block(k, k).entry(0, 0)


def _flat_inputs(net, rng, spec, steps):
    return [
        [
            [FieldElement(spec, rng.randrange(spec.q)) for _ in range(s.processes)]
            for s in net.sources
        ]
        for _ in range(steps)
    ]


def test_simulation_matches_polynomial_product():
    """Sink readings are the coefficients of M(D) X(D) D^d'min."""
    rng = random.Random("conv")
    checked = 0
    while checked < 20:
        net = random_dag_net(rng, delays=DELAYS if checked % 2 else (1,))
        try:
            validate(net)
        except CycleDetected:  # pragma: no cover - forward edges only
            continue
        leks = random_leks(net, GF8, f"conv{checked}")
        tr = transfer_matrix(net, leks)
        active = 4
        total = active + tr.d_prime_max + 1
        x = _flat_inputs(net, rng, GF8, active)
        x += [[[GF8.zero()] * s.processes for s in net.sources] for _ in range(total - active)]
        out = simulate(net, leks, x)
        for j, snk in enumerate(net.sinks):
            for r in range(snk.outputs):
                row = output_offset(net, j) + r
                acc = Poly.zero(GF8)
                for i, src in enumerate(net.sources):
                    for l in range(src.processes):
                        col = input_offset(net, i) + l
                        xpoly = Poly(GF8, [x[t][i][l].code for t in range(active)])
                        acc = acc + tr.M.entry(row, col) * xpoly
                acc = acc.shift(tr.d_prime_min)
                for t in range(total):
                    assert out[t][j][r] == acc.coeff(t)
        checked += 1


def test_delay_native_paths_match_chain_expansion():
    """Delayed edges give the same M, d'min, d'max and simulated outputs as
    the chain-expanded unit-delay network, in both kernel modes."""
    rng = random.Random("native-delays")
    for k in range(36):
        spec = (GF8, GF9, GF256)[k % 3]
        net = random_dag_net(rng, delays=DELAYS)
        inv = random_leks(net, spec, f"nd{k}")
        tv = random_leks(net, spec, f"nd-tv{k}", mode="time", window=(-3, 20))
        x = _flat_inputs(net, rng, spec, 24)
        net2, inv2 = normalize_delays(net, inv)
        tr, tr2 = transfer_matrix(net, inv), transfer_matrix(net2, inv2)
        assert (tr.M, tr.d_prime_min, tr.d_prime_max) == (
            tr2.M, tr2.d_prime_min, tr2.d_prime_max
        )
        assert simulate(net, inv, x, t_start=5) == simulate(net2, inv2, x, t_start=5)
        assert simulate(net, tv, x, t_start=-3) == simulate(
            *normalize_delays(net, tv), x, t_start=-3
        )


def test_simulate_checks_input_shape():
    net = line_net(1)
    leks = unit_leks(net)
    with pytest.raises(ValueError):
        simulate(net, leks, [[[GF2.one(), GF2.one()]]])


# ----------------------------------------------------------------------
# time-indexed kernels
# ----------------------------------------------------------------------


def test_window_bounds_enforced():
    net = line_net(2)
    leks = random_leks(net, GF8, "tv", mode="time", window=(0, 3))
    assert leks.window() == (0, 3)
    leks.kernels_at(3)
    with pytest.raises(WindowUnderspecified):
        leks.kernels_at(4)
    with pytest.raises(WindowUnderspecified):
        simulate(net, leks, [[[GF8.one()]]], t_start=-1)


def test_invariant_window_is_open():
    net = line_net(2)
    leks = unit_leks(net)
    assert leks.window() is None
    assert leks.kernels_at(-100) == leks.kernels_at(100)


def test_time_mode_with_constant_steps_matches_invariant():
    net = line_net(3)
    inv = random_leks(net, GF8, "const", nonzero=True)
    steps = tuple((inv.alpha, inv.beta, inv.eps) for _ in range(8))
    tv = LekAssignment(GF8, "time", t0=0, steps=steps)
    rng = random.Random("tvcmp")
    x = _flat_inputs(net, rng, GF8, 8)
    assert simulate(net, inv, x) == simulate(net, tv, x)


def test_random_leks_reproducible():
    net = _butterfly()
    a = random_leks(net, GF8, 42)
    b = random_leks(net, GF8, 42)
    assert (a.alpha, a.beta, a.eps) == (b.alpha, b.beta, b.eps)
    c = random_leks(net, GF8, 43)
    assert (a.alpha, a.beta, a.eps) != (c.alpha, c.beta, c.eps)
    nz = random_leks(net, GF8, 7, nonzero=True)
    assert all(v for v in nz.alpha.values())
    assert all(v for v in nz.beta.values())
    assert all(v for v in nz.eps.values())
    with pytest.raises(ValueError):
        random_leks(net, GF8, 1, mode="time")  # window missing
    with pytest.raises(ValueError):
        random_leks(net, GF8, 1, mode="sliding")


def _randrange_leks(net, field, seed, steps, nonzero):
    """Each step's (alpha, beta, eps) codes as dicts, drawn position by
    position with rng.randrange(lo, q) in canonical order, and the rng."""
    rng = random.Random(f"leks:{seed}")
    lo = 1 if nonzero else 0
    keys = [e.key for e in net.edges]
    alpha = [((i, l), k) for i, s in enumerate(net.sources) for l in range(s.processes)
             for k in keys if k[0] == s.node]
    beta = [(k1, k2) for k1 in keys for k2 in keys if k2[0] == k1[1]]
    eps = [(k, (j, r)) for j, s in enumerate(net.sinks) for k in keys if k[1] == s.node
           for r in range(s.outputs)]
    triples = [
        tuple({key: rng.randrange(lo, field.q) for key in part} for part in (alpha, beta, eps))
        for _ in range(steps)
    ]
    return triples, rng


@pytest.mark.parametrize(
    "p, m", [(2, 1), (3, 1), (7, 1), (2, 4), (2, 6), (2, 8), (3, 5), (2, 16)]
)
@pytest.mark.parametrize("nonzero", [True, False])
def test_random_leks_is_the_randrange_stream(p, m, nonzero, monkeypatch):
    # kernels are drawn as randrange(lo, q) would draw them, leaving the
    # generator in the same state, so every seeded assignment keeps its codes
    field = build_field(p, m)
    made = []

    class Kept(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(netmodel, "random", SimpleNamespace(Random=Kept))
    nets = [_butterfly(), random_dag_net(random.Random("stream"), delays=DELAYS)]
    for net in nets:
        for mode, window, steps in [("invariant", None, 1), ("time", (-2, 3), 6)]:
            made.clear()
            leks = random_leks(net, field, f"{p}:{m}", mode=mode, window=window, nonzero=nonzero)
            want, ref = _randrange_leks(net, field, f"{p}:{m}", steps, nonzero)
            got = [leks.kernels_at(t) for t in range(-2, 4)] if mode == "time" else [
                leks.kernels_at(0)
            ]
            # in draw order: the dicts' orders are compared too
            assert [[[(k, v.code) for k, v in part.items()] for part in triple]
                    for triple in got] == [[list(part.items()) for part in t] for t in want]
            assert all(v.spec is field for triple in got for part in triple
                       for v in part.values())
            assert len(made) == 1 and made[0].getstate() == ref.getstate()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_network_roundtrip():
    net = line_net(3, delays=[1, 2, 1])
    assert network_from_dict(network_to_dict(net)) == net
    net2 = _butterfly()
    assert network_from_dict(network_to_dict(net2)) == net2


def test_leks_roundtrip_both_modes():
    net = _butterfly()
    inv = random_leks(net, GF8, "ser", nonzero=True)
    assert leks_from_dict(leks_to_dict(inv)) == inv
    tv = random_leks(net, GF8, "ser-tv", mode="time", window=(-2, 4))
    back = leks_from_dict(leks_to_dict(tv))
    assert back.t0 == -2 and back.steps == tv.steps


def test_transfer_roundtrip(table1):
    tr, _ = table1
    assert transfer_from_dict(transfer_to_dict(tr)) == tr
