"""simulate's edge-by-edge evaluation against the step recursion it replaced,
and run_pipeline against the cp_encode -> simulate -> cp_decode composition.

The reference clocks the network one step at a time: each step is one
row-kernel mat-vec [Z(t+1); Y(t)] = K [X(t); Z(t)] over the edge registers,
and a delay-d edge keeps d - 1 symbols in a delay line behind its register.
The window lengths sit on both sides of the byte-lane crossover, where the
edge pass switches from code lists to byte lanes in GF(2^m), m <= 8, and
to packed lanes in GF(2^m), 16 < m <= 24; test_edge_pass_across_the_
packed_crossover puts them on both sides of the crossover of packed lanes
over log tables, 8 < m <= 16.
"""

import random
from collections import deque
from functools import partial
from itertools import count, repeat

import pytest

from netcode.galois import (
    _LANE_MIN_WIDTH,
    _PACKED_MIN_WIDTH,
    _PACKED_MIN_WIDTH_NO_TABLES,
    FieldElement,
    build_field,
    element_of_order,
)
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    WindowUnderspecified,
    _check_delay,
    _compiled_kernels,
    random_leks,
    simulate,
    transfer_matrix,
)
from netcode.transform import WindowMismatch, cp_decode, cp_encode, make_plan, run_pipeline
from tests.conftest import random_dag_net
from tests.test_netmodel import DELAYS

# byte lanes in GF(2), GF(8) and GF(256), packed lanes in GF(2^20); GF(9)
# and GF(2^10) stay in code lists at these widths
FIELDS = [(2, 1), (2, 3), (3, 2), (2, 8), (2, 10), (2, 20)]
WINDOWS = [0, 1, 7, 8, 9, 40]
assert {_LANE_MIN_WIDTH, _PACKED_MIN_WIDTH_NO_TABLES} <= set(WINDOWS)


# ----------------------------------------------------------------------
# the step recursion
# ----------------------------------------------------------------------


def _step_rows(net, triple, spec):
    """One step as code-list rows for matvec: row c lists where entry
    c of [X(t); Z(t)] goes in [Z(t+1); Y(t)], with its kernel."""
    mu, ne = net.mu, len(net.edges)
    a_terms, b_terms, e_terms = _compiled_kernels(net, triple, spec)
    rows = [[0] * (ne + net.nu) for _ in range(mu + ne)]
    for epos, flat, code in a_terms:
        rows[flat][epos] = code
    for out_pos, in_pos, code in b_terms:
        rows[mu + in_pos][out_pos] = code
    for out_flat, epos, code in e_terms:
        rows[mu + epos][ne + out_flat] = code
    return [spec._lists.prep(row) for row in rows]


def step_simulate(net, leks, inputs, t_start=0, codes=True):
    """simulate clocking every step: outputs[t][j] as codes.

    With codes=False inputs[t][i] are FieldElements. A step's checks run
    in this order: symbol fields, source count, stored kernels, vector
    lengths.
    """
    spec = leks.field
    for e in net.edges:
        _check_delay(e)
    if leks.mode == "invariant":
        rows = repeat(_step_rows(net, leks.kernels_at(t_start), spec))
    else:
        rows = (_step_rows(net, leks.kernels_at(t), spec) for t in count(t_start))
    if not codes:

        def step_codes(x_t):
            if any(sym.spec != spec for vec in x_t for sym in vec):
                raise ValueError("input symbol from a different field")
            return [[sym.code for sym in vec] for vec in x_t]

        inputs = map(step_codes, inputs)
    ne = len(net.edges)
    procs = [s.processes for s in net.sources]
    bounds = [ne]
    for snk in net.sinks:
        bounds.append(bounds[-1] + snk.outputs)
    lines = [(k, deque([0] * (e.delay - 1))) for k, e in enumerate(net.edges) if e.delay > 1]
    state = [0] * ne
    outputs = []
    for step, x_t in enumerate(inputs):
        if len(x_t) != len(procs):
            raise ValueError(
                f"step {step} gives {len(x_t)} source vectors, the network has "
                f"{len(procs)} sources"
            )
        step_rows = next(rows)
        if [len(vec) for vec in x_t] != procs:
            i = next(i for i, vec in enumerate(x_t) if len(vec) != procs[i])
            raise ValueError(f"step {step}: source {i} expects {procs[i]} symbols")
        vec = [c for x in x_t for c in x] + state
        out = spec._lists.matvec(vec, step_rows, bounds[-1])
        outputs.append([out[a:b] for a, b in zip(bounds, bounds[1:])])
        for k, line in lines:
            line.append(out[k])
            out[k] = line.popleft()
        state = out[:ne]
    return outputs


def _codes(rng, net, spec, steps):
    # about a third of the symbols are zero, so silent series occur too
    def sym():
        return rng.randrange(spec.q) if rng.random() < 0.7 else 0

    return [[[sym() for _ in range(s.processes)] for s in net.sources] for _ in range(steps)]


def _check(net, leks, inputs, t_start):
    want = step_simulate(net, leks, inputs, t_start)
    assert simulate(net, leks, inputs, t_start, codes=True) == want
    spec = leks.field
    elements = [[[FieldElement(spec, c) for c in vec] for vec in step] for step in inputs]
    got = simulate(net, leks, elements, t_start)
    assert [[[y.code for y in sink] for sink in step] for step in got] == want


# ----------------------------------------------------------------------
# the edge pass against the step recursion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pm", FIELDS)
@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_edge_pass_matches_step_recursion(pm, mode):
    spec = build_field(*pm)
    rng = random.Random(f"edge-pass:{pm}:{mode}")
    for steps in WINDOWS:
        for trial in range(4):
            net = random_dag_net(rng, max_nodes=7, delays=DELAYS)
            t_start = rng.choice([0, 3, -4])
            window = (t_start, t_start + max(steps, 1) - 1) if mode == "time" else None
            leks = random_leks(net, spec, f"{pm}:{steps}:{trial}", mode=mode, window=window)
            _check(net, leks, _codes(rng, net, spec, steps), t_start)


@pytest.mark.parametrize("pm", [(2, 10), (2, 16)])
@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_edge_pass_across_the_packed_crossover(pm, mode):
    spec = build_field(*pm)
    rng = random.Random(f"packed-pass:{pm}:{mode}")
    for steps in (_PACKED_MIN_WIDTH - 1, _PACKED_MIN_WIDTH + 1):
        net = random_dag_net(rng, max_nodes=6, delays=DELAYS)
        window = (0, steps - 1) if mode == "time" else None
        leks = random_leks(net, spec, f"{pm}:{steps}", mode=mode, window=window)
        _check(net, leks, _codes(rng, net, spec, steps), 0)


def _long_edge_net(long: int) -> NetworkSpec:
    """S -> A -> T with a direct delay-long edge S -> T beside it."""
    return NetworkSpec(
        ["S", "A", "T"],
        [Edge("S", "A", 0, 2), Edge("A", "T", 0, 1), Edge("S", "T", 0, long)],
        [Source("S", 2)],
        [Sink("T", 2)],
    )


@pytest.mark.parametrize("pm", FIELDS)
@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_edges_at_least_as_long_as_the_window(pm, mode):
    # nothing written to the long edge reaches its head inside the window
    spec = build_field(*pm)
    rng = random.Random(f"long:{pm}:{mode}")
    for steps in WINDOWS[1:]:
        for long in (steps, steps + 3):
            net = _long_edge_net(long)
            window = (5, 5 + steps - 1) if mode == "time" else None
            leks = random_leks(net, spec, f"long:{steps}", mode=mode, window=window, nonzero=True)
            _check(net, leks, _codes(rng, net, spec, steps), 5)


def test_first_error_of_several_matches_step_recursion():
    # faults at random steps of one window: simulate checks the shapes in
    # bulk, then walks the steps, and raises what the step recursion raised
    spec, other = build_field(2, 8), build_field(2, 4)
    net = NetworkSpec(
        ["S1", "S2", "A", "T"],
        [Edge("S1", "A", 0, 2), Edge("S2", "A"), Edge("A", "T", 0, 3)],
        [Source("S1", 2), Source("S2", 1)],
        [Sink("T", 2)],
    )
    faults = [
        lambda x: x[:1],  # a source vector missing
        lambda x: [x[0][:1], x[1]],  # a symbol missing
        lambda x: [x[0], [other.one()]],  # a symbol of another field
    ]
    rng = random.Random("several")
    for trial in range(80):
        mode = rng.choice(["invariant", "time"])
        window = (0, rng.randrange(4, 12)) if mode == "time" else None
        leks = random_leks(net, spec, f"several:{trial}", mode=mode, window=window)
        inputs = [
            [[FieldElement(spec, c) for c in vec] for vec in step]
            for step in _codes(rng, net, spec, 12)
        ]
        for step in rng.sample(range(12), rng.randrange(1, 4)):
            inputs[step] = rng.choice(faults)(inputs[step])
        raised = []
        for run in (partial(step_simulate, codes=False), simulate):
            with pytest.raises((ValueError, WindowUnderspecified)) as exc:
                run(net, leks, inputs)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]


# ----------------------------------------------------------------------
# the pipeline against its composition
# ----------------------------------------------------------------------


def _composed_pipeline(net, leks, plan, inputs, tr):
    """cp_encode each source, simulate the transmission, cp_decode each sink."""
    n, d_max = plan.n, plan.d_max
    tx = [cp_encode(plan, gens) for gens in inputs]
    zero = [[leks.field.zero()] * src.processes for src in net.sources]
    series = [[tx[i][slot] for i in range(len(tx))] for slot in range(n + d_max)]
    series += [zero] * tr.d_prime_min
    outs = simulate(net, leks, series)
    return [
        cp_decode(plan, [outs[tr.d_prime_min + k][j] for k in range(n + d_max)])
        for j in range(len(net.sinks))
    ]


# (p, m, block lengths): lanes from n = 8 on in GF(2^8), code lists elsewhere
PIPELINE_FIELDS = [(2, 8, (5, 15, 17, 51)), (2, 3, (7,)), (3, 2, (8,)), (2, 10, (31, 33))]


@pytest.mark.parametrize("p, m, lengths", PIPELINE_FIELDS)
def test_run_pipeline_matches_cp_composition(p, m, lengths):
    spec = build_field(p, m)
    rng = random.Random(f"pipeline:{p}:{m}")
    checked = 0
    while checked < 6:
        net = random_dag_net(rng, max_nodes=6, delays=DELAYS)
        leks = random_leks(net, spec, f"pipe:{checked}")
        tr = transfer_matrix(net, leks)
        n = rng.choice([n for n in lengths if n > tr.d_max] or [0])
        if not n:
            continue
        plan = make_plan(n, spec, element_of_order(spec, n), tr.d_max + rng.randrange(2))
        inputs = [
            [[FieldElement(spec, rng.randrange(spec.q)) for _ in range(src.processes)]
             for _ in range(n)]
            for src in net.sources
        ]
        want = _composed_pipeline(net, leks, plan, inputs, tr)
        assert run_pipeline(net, leks, plan, inputs) == want
        checked += 1


GF8, GF16, GF64 = build_field(2, 3), build_field(2, 4), build_field(2, 6)


@pytest.mark.parametrize(
    "field, edit, error, message",
    [
        (GF64, lambda g: [g], ValueError, "input symbol from a different field"),
        (GF8, lambda g: [g, g], ValueError, "one generation list per source expected"),
        (GF8, lambda g: [g[1:]], WindowMismatch, "expected 7 generations, got 6"),
        (GF8, lambda g: [[x + x for x in g]], ValueError, "step 0: source 0 expects 1 symbols"),
        # GF(16) codes 5 and 12, read as GF(8) codes, were a wrong result
        # and an IndexError
        (GF8, lambda g: [g[:3] + [[FieldElement(GF16, 5)]] + g[4:]], ValueError,
         "input symbol from a different field"),
        (GF8, lambda g: [g[:3] + [[FieldElement(GF16, 12)]] + g[4:]], ValueError,
         "input symbol from a different field"),
        # a longer generation 6 was truncated, a shorter one an IndexError
        (GF8, lambda g: [g[:6] + [g[6] + g[6]]], ValueError, "step 6: source 0 expects 1 symbols"),
        (GF8, lambda g: [g[:6] + [[]]], ValueError, "step 6: source 0 expects 1 symbols"),
        # a code outside GF(8) was an IndexError
        (GF8, lambda g: [g[:2] + [[FieldElement(GF8, 99)]] + g[3:]], ValueError,
         "step 2: input code 99 is not a code of GF(2^3)"),
    ],
)
def test_run_pipeline_refusals(field, edit, error, message):
    # the composition's refusals, and run_pipeline's own count of sources
    net = NetworkSpec(["S", "T"], [Edge("S", "T")], [Source("S", 1)], [Sink("T", 1)])
    leks = random_leks(net, GF8, "refusals", nonzero=True)
    plan = make_plan(7, field, element_of_order(field, 7), 0)
    inputs = edit([[field.one()] for _ in range(7)])
    tr = transfer_matrix(net, leks)
    composed = [lambda *args: _composed_pipeline(*args, tr)] if len(inputs) == 1 else []
    for pipeline in [run_pipeline] + composed:
        with pytest.raises(error) as exc:
            pipeline(net, leks, plan, inputs)
        assert str(exc.value) == message


def test_cp_decode_refuses_bad_slots():
    plan = make_plan(7, GF8, element_of_order(GF8, 7), 2)
    slots = [[GF8.one()] for _ in range(9)]
    assert len(cp_decode(plan, slots)) == 7
    with pytest.raises(ValueError, match="^input symbol from a different field$"):
        cp_decode(plan, slots[:5] + [[FieldElement(GF16, 9)]] + slots[6:])
    # the slot is named, not the generation it would decode to
    with pytest.raises(ValueError, match="^slot 5: sink expects 1 symbols$"):
        cp_decode(plan, slots[:5] + [[]] + slots[6:])
    with pytest.raises(ValueError, match="^slot 3: sink expects 2 symbols$"):
        cp_decode(plan, slots[:2] + [slots[2] * 2] + slots[3:])
    with pytest.raises(ValueError, match=r"^slot 5: input code 8 is not a code of GF\(2\^3\)$"):
        cp_decode(plan, slots[:5] + [[FieldElement(GF8, 8)]] + slots[6:])


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2), (2, 8)])
@pytest.mark.parametrize("steps", [3, _LANE_MIN_WIDTH + 1])
def test_simulate_codes_are_range_checked(p, m, steps):
    # -1 wrapped through the log table and q an IndexError; the first bad
    # step is named, whatever its kernel
    spec = build_field(p, m)
    net = NetworkSpec(
        ["S", "U", "T"],
        [Edge("S", "U"), Edge("U", "T", delay=2)],
        [Source("S", 2)],
        [Sink("T", 1)],
    )
    leks = random_leks(net, spec, "range", nonzero=True)
    inputs = [[[1, spec.q - 1]] for _ in range(steps)]
    assert len(simulate(net, leks, inputs, codes=True)) == steps
    for bad in (-1, spec.q, 99 + spec.q, True, 1.0, "1"):
        edited = [[vec[:] for vec in x_t] for x_t in inputs]
        edited[1][0][1] = bad
        edited[steps - 1][0][0] = -2
        with pytest.raises(ValueError) as exc:
            simulate(net, leks, edited, codes=True)
        assert str(exc.value) == f"step 1: input code {bad!r} is not a code of {spec}"
        # a FieldElement holding such a code was an IndexError, or a wrong output
        symbols = [[[FieldElement(spec, c) for c in vec] for vec in x_t] for x_t in edited]
        with pytest.raises(ValueError) as exc:
            simulate(net, leks, symbols)
        assert str(exc.value) == f"step 1: input code {bad!r} is not a code of {spec}"
