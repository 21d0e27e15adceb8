"""The bulk JSON <-> code converters and the code-level simulate loop
against the per-item and per-step formulations they replaced.

The oracles are FieldSpec.element's old one-item validation,
_undigits/_digits for the codes, and simulate's old step loop, which
rebuilt offsets per step and made one _mul_codes and one _add_codes call
per term.
"""

import random
from collections import deque

import pytest

from netcode.galois import (
    FieldElement,
    ParseError,
    _digits,
    _undigits,
    build_field,
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
)
from tests.conftest import random_dag_net
from tests.oracles import input_offset, output_offset

# GF(2), GF(2^8) and GF(2^16) have tables, GF(2^20) is above the table
# cap, GF(3^10) and GF(7) are odd-characteristic
FIELDS = [(2, 1), (2, 8), (2, 16), (2, 20), (3, 10), (7, 1)]


# ----------------------------------------------------------------------
# JSON <-> codes
# ----------------------------------------------------------------------


def _old_element_problem(spec, coeffs):
    """The message FieldSpec.element gave for coeffs, or None if valid."""
    try:
        count = len(coeffs)
        ints = all(type(c) is int for c in coeffs)
    except TypeError:
        ints = False
    if not ints:
        return f"a field element is a list of integer coefficients, got {coeffs!r}"
    if count > spec.m:
        return f"at most {spec.m} coefficients expected, got {count}"
    bad = [c for c in coeffs if not 0 <= c < spec.p]
    if bad:
        return f"coefficient {bad[0]} out of range [0, {spec.p})"
    return None


def _random_coeffs(rng, spec, count):
    # every length up to m: shorter lists leave the top digits zero
    return [
        [rng.randrange(spec.p) for _ in range(rng.randrange(spec.m + 1))]
        for _ in range(count)
    ]


def _bad_values(spec):
    m, p = spec.m, spec.p
    return [
        [True],
        [0, False],
        [1.0],
        [0] * (m - 1) + [0.0],
        [p],
        [-1],
        [0] * (m - 1) + [p + 3],
        [0] * (m + 1),
        [1.5] * (m + 1),  # too long and not integers: the type is named
        [p] * (m + 1),  # too long and out of range: the length is named
        5,
        None,
        "01",
        {"a": 1},
        [[1]],
    ]


@pytest.mark.parametrize("pm", FIELDS)
def test_codes_from_json_matches_undigits_and_element(pm):
    spec = build_field(*pm)
    rng = random.Random(f"bulk:{pm}")
    items = _random_coeffs(rng, spec, 300) + [[], [0] * spec.m, [spec.p - 1] * spec.m]
    codes = spec.codes_from_json(items)
    assert codes == [_undigits(c, spec.p) for c in items]
    assert codes == [spec.element(c).code for c in items]
    assert all(0 <= c < spec.q for c in codes)
    assert spec.codes_from_json([]) == []


@pytest.mark.parametrize("pm", FIELDS)
def test_codes_to_json_matches_digits_and_coeffs(pm):
    spec = build_field(*pm)
    rng = random.Random(f"unbulk:{pm}")
    codes = [rng.randrange(spec.q) for _ in range(300)] + [0, 1, spec.q - 1]
    lists = spec.codes_to_json(codes)
    assert lists == [_digits(c, spec.p, spec.m) for c in codes]
    assert lists == [list(FieldElement(spec, c).coeffs) for c in codes]
    # the two converters are inverse to each other
    assert spec.codes_from_json(lists) == codes


@pytest.mark.parametrize("pm", FIELDS)
def test_rejections_match_element_messages(pm):
    spec = build_field(*pm)
    good = _random_coeffs(random.Random(f"rej:{pm}"), spec, 4)
    for bad in _bad_values(spec):
        message = _old_element_problem(spec, bad)
        assert message is not None
        # alone, through element, with and without a path
        with pytest.raises(ParseError) as exc:
            spec.element(bad)
        assert str(exc.value) == message
        with pytest.raises(ParseError) as exc:
            spec.element(bad, "x.y[3]")
        assert str(exc.value) == f"x.y[3]: {message}"
        # in bulk, after good items: the first bad item is named by index
        for at in range(len(good) + 1):
            items = good[:at] + [bad] + good[at:] + [bad]
            with pytest.raises(ParseError) as exc:
                spec.codes_from_json(items)
            assert str(exc.value) == message
            with pytest.raises(ParseError) as exc:
                spec.codes_from_json(items, lambda k: f"v[{k}]")
            assert str(exc.value) == f"v[{at}]: {message}"


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _old_simulate(net, leks, inputs, t_start=0):
    """simulate's step loop before it ran on flat code lists."""
    spec = leks.field
    ne = len(net.edges)
    add = spec._add_codes
    mul = spec._mul_codes
    lines = {}
    for k, e in enumerate(net.edges):
        _check_delay(e)
        if e.delay > 1:
            lines[k] = deque([0] * (e.delay - 1))
    invariant = leks.mode == "invariant"
    compiled = None
    if invariant:
        compiled = _compiled_kernels(net, (leks.alpha, leks.beta, leks.eps), spec)
    state = [0] * ne
    outputs = []
    for step, x_t in enumerate(inputs):
        t = t_start + step
        if len(x_t) != len(net.sources):
            raise ValueError(
                f"step {step} gives {len(x_t)} source vectors, the network has "
                f"{len(net.sources)} sources"
            )
        if invariant:
            a_terms, b_terms, e_terms = compiled
        else:
            a_terms, b_terms, e_terms = _compiled_kernels(net, leks.kernels_at(t), spec)
        flat_x = [0] * net.mu
        for i, src in enumerate(net.sources):
            vec = x_t[i]
            if len(vec) != src.processes:
                raise ValueError(f"step {step}: source {i} expects {src.processes} symbols")
            off = input_offset(net, i)
            for l, sym in enumerate(vec):
                if sym.spec != spec:
                    raise ValueError("input symbol from a different field")
                flat_x[off + l] = sym.code
        flat_y = [0] * net.nu
        for out_flat, epos, code in e_terms:
            if state[epos]:
                flat_y[out_flat] = add(flat_y[out_flat], mul(code, state[epos]))
        step_out = []
        for j, snk in enumerate(net.sinks):
            off = output_offset(net, j)
            step_out.append([FieldElement(spec, flat_y[off + r]) for r in range(snk.outputs)])
        outputs.append(step_out)
        new_state = [0] * ne
        for epos, flat, code in a_terms:
            if flat_x[flat]:
                new_state[epos] = add(new_state[epos], mul(code, flat_x[flat]))
        for out_pos, in_pos, code in b_terms:
            if state[in_pos]:
                new_state[out_pos] = add(new_state[out_pos], mul(code, state[in_pos]))
        for k, line in lines.items():
            line.append(new_state[k])
            new_state[k] = line.popleft()
        state = new_state
    return outputs


def _random_inputs(rng, net, spec, steps):
    # about a third of the symbols are zero, so zero registers are exercised
    def sym():
        return FieldElement(spec, rng.randrange(spec.q) if rng.random() < 0.7 else 0)

    return [[[sym() for _ in range(s.processes)] for s in net.sources] for _ in range(steps)]


# (p, m) fields: GF(2^8) with tables, GF(2^20) above the table cap, GF(3^10)
SIM_FIELDS = [(2, 8), (2, 20), (3, 10), (7, 1)]


@pytest.mark.parametrize("pm", SIM_FIELDS)
@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_simulate_matches_old_step_loop(pm, mode):
    spec = build_field(*pm)
    rng = random.Random(f"sim:{pm}:{mode}")
    runs = 0
    for trial in range(12):
        net = random_dag_net(rng, max_nodes=7, delays=(1, 2, 3))
        if not net.edges:
            continue
        steps = rng.randrange(1, 14)
        t_start = rng.choice([0, 4, -3])
        window = (t_start, t_start + steps - 1) if mode == "time" else None
        leks = random_leks(net, spec, f"{pm}:{trial}", mode=mode, window=window)
        inputs = _random_inputs(rng, net, spec, steps)
        want = _old_simulate(net, leks, inputs, t_start)
        assert simulate(net, leks, inputs, t_start) == want
        codes = [[[x.code for x in vec] for vec in step] for step in inputs]
        got = simulate(net, leks, codes, t_start, codes=True)
        assert got == [[[y.code for y in sink] for sink in step] for step in want]
        runs += 1
    assert runs >= 8


def test_simulate_long_delay_line():
    # one delay-5 edge in series with a delay-2 edge: the impulse arrives
    # 7 steps after injection, scaled by the two alpha/eps kernels only
    spec = build_field(2, 8)
    net = NetworkSpec(
        ["S", "A", "T"],
        [Edge("S", "A", 0, 5), Edge("A", "T", 0, 2)],
        [Source("S", 1)],
        [Sink("T", 1)],
    )
    leks = random_leks(net, spec, "line", nonzero=True)
    one, zero = spec.one(), spec.zero()
    inputs = [[[one if t == 0 else zero]] for t in range(10)]
    outs = simulate(net, leks, inputs, 2)
    assert outs == _old_simulate(net, leks, inputs, 2)
    assert [t for t, step in enumerate(outs) if step[0][0]] == [7]


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda x: x[:1], "step 1 gives 1 source vectors, the network has 2 sources"),
        (lambda x: [x[0], x[1] + x[1]], "step 1: source 1 expects 1 symbols"),
        (lambda x: [[build_field(2, 4).one()], x[1]], "input symbol from a different field"),
    ],
)
def test_simulate_input_errors_match_old_loop(edit, error):
    spec = build_field(3, 10)
    net = NetworkSpec(
        ["S1", "S2", "A", "T"],
        [Edge("S1", "A", 0, 2), Edge("S2", "A"), Edge("A", "T", 0, 3)],
        [Source("S1", 1), Source("S2", 1)],
        [Sink("T", 2)],
    )
    leks = random_leks(net, spec, "errors")
    inputs = _random_inputs(random.Random("errors"), net, spec, 3)
    inputs[1] = edit(inputs[1])
    for fn in (_old_simulate, simulate):
        with pytest.raises(ValueError) as exc:
            fn(net, leks, inputs)
        assert str(exc.value) == error


def test_simulate_window_error_matches_old_loop():
    spec = build_field(2, 8)
    net = NetworkSpec(["S", "T"], [Edge("S", "T", 0, 2)], [Source("S", 1)], [Sink("T", 1)])
    leks = random_leks(net, spec, "window", mode="time", window=(0, 2))
    inputs = _random_inputs(random.Random("window"), net, spec, 5)
    for fn in (_old_simulate, simulate):
        with pytest.raises(WindowUnderspecified) as exc:
            fn(net, leks, inputs, 1)
        assert str(exc.value) == "no kernels stored for time 3; window is [0, 2]"
