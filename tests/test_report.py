"""The report writers against the trees json writes for them.

netcode simulate writes {"outputs": outputs[t][j][r]} straight from the
simulation rows (cli._outputs_text). The oracle is the JSON encoder,
with the report's settings, on the nested coefficient lists that
netmodel._by_step and FieldSpec.codes_to_json build from those rows.

netcode transform and netcode transfer write their reports from per-code
texts too (cli._transform_text, cli._transfer_text). Their oracles are the
encoder on the trees those subcommands used to build: one record per
generation and demanding sink, and oracles.transfer_to_dict with d_max and
entry_strs, every coefficient list and display string made digit by digit.

The writers make compact text only. With --pretty the CLI writes
cli._render(tree, True) of the tree that text holds, so the tests that
call a writer directly re-encode its text the same way before comparing
it with the indented oracle.
"""

import json
import random

import pytest

from netcode import cli
from netcode.cli import _outputs_text, _render, _transfer_text, load_fixture
from netcode.feasibility import generation_dets
from netcode.galois import (
    _CODEC_CAP,
    Poly,
    PolyMatrix,
    _digits,
    _LaneKernel,
    build_field,
    element_of_order,
)
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    TransferResult,
    _by_step,
    _simulate_rows,
    leks_to_dict,
    network_from_dict,
    network_to_dict,
    random_leks,
    transfer_matrix,
)
from netcode.transform import make_plan
from tests.conftest import format_str, random_dag_net
from tests.oracles import transfer_to_dict

# GF(2^6) runs in code lists below 8 steps and in byte lanes from 8 on;
# GF(2^16) is above the codec-table cap
FIELDS = [(2, 6), (3, 1), (3, 5), (2, 10), (2, 16)]


def _encode(tree, pretty):
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    return json.JSONEncoder(sort_keys=True, check_circular=False, **layout).encode(tree)


def _oracle(net, spec, rows, steps, pretty):
    tree = _by_step(net, [spec.codes_to_json(row) for row in rows], steps)
    return _encode({"outputs": tree}, pretty) + "\n"


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
    got = _outputs_text(net, spec, rows, steps)
    if pretty:
        got = _render(json.loads(got), True)
    assert _difference(got, _oracle(net, spec, rows, steps, pretty)) is None


def _one_sink():
    return NetworkSpec(["S", "T"], [Edge("S", "T", 0, 1)], [Source("S", 1)], [Sink("T", 1)])


@pytest.mark.parametrize("pm", [(2, 8), (2, 13)])
@pytest.mark.parametrize("steps", [0, 1, 450])
@pytest.mark.parametrize("net", [_one_sink(), _three_sinks()])
def test_writer_is_render_of_its_tree(pm, steps, net):
    """The one join of the codes' texts and the brackets between them is
    what _render writes for the report's tree, below the codec-table cap
    and above it, for sinks of 1 to 3 outputs."""
    spec = build_field(*pm)
    rng = random.Random(f"join:{pm}:{steps}")
    rows = [[rng.randrange(spec.q) for _ in range(steps)] for _ in range(net.nu)]
    tree = _by_step(net, [spec.codes_to_json(row) for row in rows], steps)
    got = _outputs_text(net, spec, rows, steps)
    assert _difference(got, _render({"outputs": tree}, False)) is None


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
        lanes = type(spec._kernel(steps)) is _LaneKernel
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


# ----------------------------------------------------------------------
# transform and transfer
# ----------------------------------------------------------------------


def _json_digits(spec, codes):
    return [_digits(c, spec.p, spec.m) for c in codes]


def _transform_oracle(dets, pretty):
    lines = [
        {"t": t, "sink": j, "solvable": bool(det),
         "det": None if det is None else _json_digits(det.spec, [det.code])[0]}
        for t, j, det in dets
    ]
    if pretty:
        return _encode(lines, True) + "\n"
    return "".join(_encode(line, False) + "\n" for line in lines)


def _transfer_oracle(tr, pretty):
    tree = transfer_to_dict(tr)
    tree["entries"] = [[_json_digits(tr.field, p.codes) for p in row] for row in tr.M.rows]
    tree["d_max"] = tr.d_max
    tree["entry_strs"] = [[format_str(p) for p in row] for row in tr.M.rows]
    return _encode(tree, pretty) + "\n"


def _transform_dets(path, n, max_ext):
    """transform's (t, j, det) triples for this input, in its field."""
    tr, conns = cli._load_transfer(path)
    a = next(a for a in range(1, max_ext + 1) if (tr.field.q**a - 1) % n == 0)
    spec = build_field(tr.field.p, tr.field.m * a)
    plan = make_plan(n, spec, element_of_order(spec, n), tr.d_max)
    return generation_dets(tr, conns, plan), spec


def _gf3_doc():
    """example2's network with kernels over GF(3)."""
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    doc["kernels"] = leks_to_dict(random_leks(net, build_field(3, 1), "gf3"))
    return doc


def _edge_demands_doc():
    """A GF(4) transfer document in which sink 0 reads two equal rows
    (zero det), sink 1 demands one process twice (zero det), sink 2 reads
    two outputs but demands one (no det) and sink 3 demands nothing."""
    gf4 = build_field(2, 2)
    rows = [[1, 0], [1, 0], [1, 2], [1, 3], [0, 1], [1, 1], [2, 3]]
    pm = PolyMatrix(gf4, [[Poly(gf4, [c, c]) for c in row] for row in rows])
    tr = TransferResult(gf4, pm, 0, 1, (1, 1), (2, 2, 2, 1))
    conns = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 2, 0]]
    return {"kind": "transfer", "transfer": transfer_to_dict(tr), "connections": conns}


def _cli_bytes(capsys, tmp_path, argv):
    """(exit code, stdout) of one run, after checking that -o writes those bytes."""
    code = cli.run(argv)
    out = capsys.readouterr().out
    dest = tmp_path / "out.json"
    assert cli.run([*argv, "-o", str(dest)]) == code
    assert capsys.readouterr().out == ""
    assert dest.read_bytes() == out.encode()
    return code, out


# (input, n, --max-ext-degree, field order of the report)
TRANSFORMS = [
    ("example1", 7, 12, 8),
    ("example1", 9, 12, 2**6),
    ("example1", 257, 16, 2**16),
    ("example1", 41, 20, 2**20),
    ("gf3", 61, 10, 3**10),
    ("edge-demands", 3, 12, 4),
]


@pytest.mark.parametrize("name, n, max_ext, q", TRANSFORMS)
def test_transform_report_matches_the_encoder(tmp_path, capsys, name, n, max_ext, q):
    docs = {"gf3": _gf3_doc, "edge-demands": _edge_demands_doc}
    path = name
    if name in docs:
        path = str(tmp_path / f"{name}.json")
        with open(path, "w") as fh:
            json.dump(docs[name](), fh)
    dets, spec = _transform_dets(path, n, max_ext)
    assert spec.q == q
    if name == "edge-demands":
        assert any(det is None for _, _, det in dets)
        assert any(det is not None and not det for _, _, det in dets)
    for pretty in (False, True):
        argv = ["transform", path, "--n", str(n), "--max-ext-degree", str(max_ext)]
        code, out = _cli_bytes(capsys, tmp_path, argv + ["--pretty"] * pretty)
        assert code == (0 if all(det for _, _, det in dets) else 1)
        assert _difference(out, _transform_oracle(dets, pretty)) is None


def _zeroed_doc(spec):
    """example2 over spec with sink 0's kernels and one alpha zero, so its
    transfer report holds zero entries and zero coefficients."""
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    kernels = leks_to_dict(random_leks(net, spec, f"zeroed:{spec}", nonzero=True))
    for entry in kernels["eps"]:
        if entry[1] == 0:
            entry[-1] = [0]
    kernels["alpha"][0][-1] = [0]
    doc["kernels"] = kernels
    return doc


@pytest.mark.parametrize("pm", [(2, 16), (3, 10), (65537, 1)])
def test_transfer_report_with_zero_entries(tmp_path, capsys, pm):
    spec = build_field(*pm)
    doc = _zeroed_doc(spec)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    tr = transfer_matrix(*cli._net_and_leks(doc))
    assert any(not p for row in tr.M.rows for p in row)
    assert any(0 in p.codes for row in tr.M.rows for p in row)
    for pretty in (False, True):
        code, out = _cli_bytes(capsys, tmp_path, ["transfer", str(path), *["--pretty"] * pretty])
        assert code == 0
        want = _transfer_oracle(tr, pretty)
        assert '"0"' in want and "[]" in want
        assert _difference(out, want) is None


@pytest.mark.parametrize("pm", FIELDS + [(3, 10), (2, 20), (65537, 1)])
@pytest.mark.parametrize("pretty", [False, True])
def test_transfer_writer_matches_the_encoder(pm, pretty):
    spec = build_field(*pm)
    rng = random.Random(f"transfer:{pm}")
    for k in range(6):
        net = random_dag_net(rng, delays=(1, 2, 5))
        tr = transfer_matrix(net, random_leks(net, spec, f"transfer:{k}"))
        got = _transfer_text(tr)
        if pretty:
            got = _render(json.loads(got), True)
        assert _difference(got, _transfer_oracle(tr, pretty)) is None


def test_bundled_transfer_report_matches_the_encoder(tmp_path, capsys):
    doc = load_fixture("example2")
    tr = transfer_matrix(*cli._net_and_leks(doc))
    for pretty in (False, True):
        code, out = _cli_bytes(capsys, tmp_path, ["transfer", "example2", *["--pretty"] * pretty])
        assert code == 0
        assert _difference(out, _transfer_oracle(tr, pretty)) is None
