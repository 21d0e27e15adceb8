"""The simulate report writer against the tree json writes for it.

netcode simulate writes {"outputs": outputs[t][j][r]} straight from the
simulation rows (cli._outputs_text), in both layouts. The oracle is the
JSON encoder, with the report's settings, on the nested coefficient lists
that netmodel._by_step and FieldSpec.codes_to_json build from those rows.
"""

import json
import random

import pytest

from netcode import cli
from netcode.cli import _outputs_text
from netcode.galois import _CODEC_CAP, build_field
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    _by_step,
    _simulate_rows,
    leks_to_dict,
    network_to_dict,
    random_leks,
)
from tests.conftest import random_dag_net

# GF(2^6) runs in code lists below 8 steps and in byte lanes from 8 on;
# GF(2^16) is above the codec-table cap
FIELDS = [(2, 6), (3, 1), (3, 5), (2, 10), (2, 16)]


def _oracle(net, spec, rows, steps, pretty):
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    encoder = json.JSONEncoder(sort_keys=True, check_circular=False, **layout)
    tree = _by_step(net, [spec.codes_to_json(row) for row in rows], steps)
    return encoder.encode({"outputs": tree}) + "\n"


def _difference(got, want):
    """None for equal texts, else where they part and the text around it;
    pytest's own diff of two reports this long takes minutes."""
    if got == want:
        return None
    k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return k, got[k - 40 : k + 40], want[k - 40 : k + 40]


def _three_sinks():
    """One source feeding sinks of 1, 3 and 2 outputs, with delays."""
    return NetworkSpec(
        ["S", "A", "T1", "T2", "T3"],
        [
            Edge("S", "A", 0, 2), Edge("S", "T1", 0, 1), Edge("A", "T2", 0, 1),
            Edge("A", "T2", 1, 3), Edge("A", "T3", 0, 1), Edge("S", "T3", 0, 4),
        ],
        [Source("S", 2)],
        [Sink("T1", 1), Sink("T2", 3), Sink("T3", 2)],
    )


def _inputs(net, spec, steps, rng):
    """Random symbols of every length up to m, shorter ones meaning top digits zero."""
    return [
        [
            [[rng.randrange(spec.p) for _ in range(rng.randrange(spec.m + 1))]
             for _ in range(src.processes)]
            for src in net.sources
        ]
        for _ in range(steps)
    ]


def _simulation(net, leks, steps, rng, t_start=0):
    """A simulation document of random inputs, and its simulation rows."""
    spec = leks.field
    inputs = _inputs(net, spec, steps, rng)
    doc = {
        "kind": "simulation",
        "network": network_to_dict(net),
        "kernels": leks_to_dict(leks),
        "inputs": inputs,
        "t_start": t_start,
    }
    codes = spec.codes_from_json([c for step in inputs for vec in step for c in vec])
    return doc, _simulate_rows(net, leks, inputs, t_start, False, codes)


def _run(capsys, doc, tmp_path, *flags):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    code = cli.run(["simulate", str(path), *flags])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("pm", FIELDS)
@pytest.mark.parametrize("pretty", [False, True])
def test_writer_matches_the_encoder_on_every_code(pm, pretty):
    spec = build_field(*pm)
    net = _three_sinks()
    rng = random.Random(f"writer:{pm}")
    codes = list(range(spec.q)) if spec.q <= _CODEC_CAP else [0, 1, spec.q - 1]
    codes += [rng.randrange(spec.q) for _ in range(40)]
    steps = len(codes)
    # each row a shuffle of the same codes, so every code is written
    rows = [rng.sample(codes, steps) for _ in range(net.nu)]
    got = _outputs_text(net, spec, rows, steps, pretty)
    assert _difference(got, _oracle(net, spec, rows, steps, pretty)) is None


@pytest.mark.parametrize("pm", FIELDS)
@pytest.mark.parametrize("mode", ["invariant", "time"])
@pytest.mark.parametrize("steps", [5, 12])
def test_simulate_report_matches_the_encoder(tmp_path, capsys, pm, mode, steps):
    spec = build_field(*pm)
    rng = random.Random(f"report:{pm}:{mode}:{steps}")
    nets = [random_dag_net(rng, delays=(1, 2, 3)) for _ in range(3)] + [_three_sinks()]
    assert any(snk.outputs > 1 for net in nets for snk in net.sinks)
    for k, net in enumerate(nets):
        t_start = rng.randrange(-3, 4)
        window = (t_start, t_start + steps - 1)
        leks = random_leks(net, spec, f"report:{k}", mode=mode, window=window)
        doc, rows = _simulation(net, leks, steps, rng, t_start)
        lanes = spec._lanes is not None and steps >= 8
        assert {type(row) for row in rows} == {bytes if lanes else list}
        for pretty in (False, True):
            code, out = _run(capsys, doc, tmp_path, *["--pretty"] * pretty)
            assert code == 0
            assert _difference(out, _oracle(net, spec, rows, steps, pretty)) is None, net


def _sinkless():
    return NetworkSpec(["S", "A"], [Edge("S", "A", 0, 1)], [Source("S", 1)], [])


@pytest.mark.parametrize(
    "net, steps, compact, pretty",
    [
        (_three_sinks(), 0, '{"outputs":[]}\n', '{\n  "outputs": []\n}\n'),
        (_sinkless(), 0, '{"outputs":[]}\n', '{\n  "outputs": []\n}\n'),
        (
            _sinkless(),
            2,
            '{"outputs":[[],[]]}\n',
            '{\n  "outputs": [\n    [],\n    []\n  ]\n}\n',
        ),
    ],
)
def test_empty_reports(tmp_path, capsys, net, steps, compact, pretty):
    spec = build_field(2, 6)
    doc, rows = _simulation(net, random_leks(net, spec, "empty"), steps, random.Random("empty"))
    for flags, want in (((), compact), (("--pretty",), pretty)):
        assert _oracle(net, spec, rows, steps, bool(flags)) == want
        assert _run(capsys, doc, tmp_path, *flags) == (0, want)


@pytest.mark.parametrize("pm", [(2, 6), (2, 16)])
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, pm):
    net = _three_sinks()
    leks = random_leks(net, build_field(*pm), "file")
    doc, _ = _simulation(net, leks, 9, random.Random("file"))
    dest = tmp_path / "out.json"
    for flags in ((), ("--pretty",)):
        code, out = _run(capsys, doc, tmp_path, *flags)
        assert code == 0 and out.startswith("{")
        assert _run(capsys, doc, tmp_path, *flags, "-o", str(dest)) == (0, "")
        assert dest.read_bytes() == out.encode()
