"""Command-line interface: reports, exit codes, determinism."""

import argparse
import hashlib
import json
import random
import time

import pytest

from netcode import cli as cli_module, galois
from netcode.cli import UnknownFixture, _build_parser, load_fixture, run
from netcode.feasibility import analyze
from netcode.galois import FieldSpec, ParseError, _digits, build_field
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    leks_to_dict,
    network_from_dict,
    network_to_dict,
    random_leks,
)
from tests.conftest import cat_net

GF2 = build_field(2, 1)


def cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def jcli(capsys, *argv):
    code, out = cli(capsys, *argv)
    return code, json.loads(out)


# ----------------------------------------------------------------------
# fixtures and input resolution
# ----------------------------------------------------------------------


def test_load_fixture_names():
    assert load_fixture("example1")["kind"] == "transfer"
    assert load_fixture("example2")["kind"] == "network"
    with pytest.raises(UnknownFixture):
        load_fixture("example9")


def test_unknown_fixture_is_input_error(capsys):
    code, rep = jcli(capsys, "validate", "example9")
    assert code == 2
    assert rep["error"] == "UnknownFixture"


def test_real_file_beats_fixture_name(tmp_path, capsys):
    doc = load_fixture("example2")
    p = tmp_path / "example2"  # same stem as the bundled one
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "validate", str(p))
    assert code == 0 and rep["ok"]


@pytest.mark.parametrize("name", ["missing/example2.json", "example2.json"])
def test_missing_path_is_not_a_fixture(tmp_path, capsys, monkeypatch, name):
    # only a bare fixture name falls back on the bundled file
    monkeypatch.chdir(tmp_path)
    code, rep = jcli(capsys, "validate", name)
    assert code == 2 and rep == {"error": "ParseError", "message": f"{name}: no such file"}


def test_broken_json_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "network",\n  "network": }')
    code, rep = jcli(capsys, "validate", str(p))
    assert code == 2
    assert rep["error"] == "ParseError"
    assert "line 2" in rep["message"] and "column" in rep["message"]


def test_deeply_nested_json_is_parse_error(tmp_path, capsys):
    # json's decoder recurses once per level and gives up with a RecursionError
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, rep = jcli(capsys, "validate", str(p))
    assert code == 2
    assert rep == {"error": "ParseError", "message": f"{p}: invalid JSON: nested too deeply"}


def test_integer_too_long_to_convert_is_parse_error(tmp_path, capsys):
    # int() refuses more than 4,300 digits; the refusal names the path
    p = tmp_path / "long.json"
    p.write_text('{"kind": "network", "x": ' + "7" * 5000 + "}")
    code, rep = jcli(capsys, "validate", str(p))
    assert code == 2 and rep["error"] == "ParseError"
    assert rep["message"].startswith(f"{p}: invalid JSON: Exceeds the limit (4300 digits)")


def test_input_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"kind": "network", "network": {"nodes": ["\u00ff"]}}'.encode("latin-1"))
    code, rep = jcli(capsys, "validate", str(p))
    assert code == 2
    assert rep == {"error": "ParseError", "message": f"{p}: not UTF-8 text: invalid start byte"}


def test_schema_errors_are_exhaustive(tmp_path, capsys):
    p = tmp_path / "thin.json"
    p.write_text(json.dumps({"kind": "network", "network": {}}))
    code, rep = jcli(capsys, "validate", str(p))
    assert code == 2
    for key in ("nodes", "edges", "sources", "sinks"):
        assert f'"network.{key}" must be a list' in rep["message"]


def test_kind_mismatch_rejected(capsys):
    code, rep = jcli(capsys, "mincut", "example1")  # transfer doc, network command
    assert code == 2
    assert 'needs kind "network"' in rep["message"]


def test_bare_number_symbol_is_parse_error(tmp_path, capsys):
    # each symbol is a coefficient list; a bare number passes the schema check
    doc = load_fixture("example2")
    doc.update(kind="simulation", inputs=[[[1], [0], [1]]])
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "simulate", str(p))
    assert code == 2
    assert rep["error"] == "ParseError"
    assert "list of integer coefficients, got 1" in rep["message"]


# example2 as a simulation document, one step of inputs
SIM = {("kind",): "simulation", ("inputs",): [[[[1]], [[0]], [[1]]]]}

# (subcommand, fixture, {JSON path: new value}, message); each document
# passes the schema check and fails where its loader parses the value
MALFORMED = {
    "transfer.entries": (
        "feasibility", "example1", {("transfer", "entries"): 5},
        "transfer.entries must be a list, got 5",
    ),
    "edge.index": (
        "validate", "example2", {("network", "edges", 0, "index"): [1]},
        "network.edges[0].index must be an integer, got [1]",
    ),
    "transfer.field": (
        "feasibility", "example1", {("transfer", "field"): 5},
        "transfer.field must be an object with p and m, got 5",
    ),
    "kernels.field": (
        "transfer", "example2", {("kernels", "field"): 5},
        "kernels.field must be an object with p and m, got 5",
    ),
    "kernels.field.m": (
        "transfer", "example2", {("kernels", "field", "m"): "x"},
        "kernels.field.m must be an integer, got 'x'",
    ),
    "field.m": (
        "align", "example2", {("field",): {"p": 2, "m": "x"}},
        "field.m must be an integer, got 'x'",
    ),
    "kernels.alpha": (
        "transfer", "example2", {("kernels", "alpha", 0): 7},
        "kernels.alpha[0] must be a list of 4 values, got 7",
    ),
    "kernels.beta": (
        "transfer", "example2", {("kernels", "beta"): 5},
        "kernels.beta must be a list, got 5",
    ),
    "kernels.steps": (
        "transfer", "example2", {("kernels", "mode"): "time", ("kernels", "steps"): 3},
        "kernels.steps must be a list, got 3",
    ),
    "kernels.mode": (
        "transfer", "example2", {("kernels", "mode"): "time"},
        "kernels.steps must be a list, got None",
    ),
    "kernels.mode.case": (
        "transfer", "example2", {("kernels", "mode"): "Invariant"},
        'kernels.mode must be "invariant" or "time", got \'Invariant\'',
    ),
    "kernels.mode.type": (
        "transfer", "example2", {("kernels", "mode"): 5},
        'kernels.mode must be "invariant" or "time", got 5',
    ),
    "kernels.alpha.coefficient": (
        "transfer", "example2", {("kernels", "alpha", 0, 3): [5]},
        "kernels.alpha[0]: coefficient 5 out of range [0, 2)",
    ),
    "kernels.alpha.length": (
        "transfer", "example2", {("kernels", "alpha", 0, 3): [0] * 7},
        "kernels.alpha[0]: at most 6 coefficients expected, got 7",
    ),
    "align": (
        "align", "example2", {("align",): 5},
        "align must be an object with n, got 5",
    ),
    "align.n": (
        "align", "example2", {("align", "n"): [1]},
        "align.n must be an integer, got [1]",
    ),
    "t_start": (
        "simulate", "example2", {**SIM, ("t_start",): [1]},
        "t_start must be an integer, got [1]",
    ),
    "inputs[t]": (
        "simulate", "example2", {**SIM, ("inputs",): [5]},
        "inputs[0] must be a list, got 5",
    ),
    "inputs[t][i]": (
        "simulate", "example2", {**SIM, ("inputs",): [[5, 5, 5]]},
        "inputs[0][0] must be a list, got 5",
    ),
    "inputs[t][i][l]": (
        "simulate", "example2", {**SIM, ("inputs", 0, 2, 0): [5]},
        "inputs[0][2][0]: coefficient 5 out of range [0, 2)",
    ),
    "connections": (
        "feasibility", "example1", {("connections", 0): [0, "x", 0]},
        "connections[0] must be an integer, got 'x'",
    ),
    "transfer.d_prime_min": (
        "feasibility", "example1", {("transfer", "d_prime_min"): None},
        "transfer.d_prime_min must be an integer, got None",
    ),
    "transfer.d_prime_min.order": (
        "feasibility", "example1", {("transfer", "d_prime_min"): 9},
        "transfer.d_prime_min must be at most transfer.d_prime_max, got 9 > 5",
    ),
    "transfer.entries.degree": (
        "feasibility", "example1", {("transfer", "d_prime_max"): 4},
        "transfer.entries[9][2] has degree 5, above d_prime_max - d_prime_min = 4",
    ),
    "transfer.nu_list": (
        "feasibility", "example1", {("transfer", "nu_list", 0): -1},
        "transfer.nu_list must hold non-negative integers, got [-1, 3, 3, 2, 2]",
    ),
    "transfer.entries.shape": (
        "feasibility", "example1", {("transfer", "mu_list"): [1, 1]},
        "transfer.entries must be 13 rows (sum of nu_list) of 2 entries (sum of mu_list)",
    ),
    # fields past the order limit are refused before any field is built
    "kernels.field.order": (
        "transfer", "example2", {("kernels", "field"): {"p": 2, "m": 64}},
        "kernels.field: GF(2^64) is larger than the limit of 2^24 elements",
    ),
    "field.order": (
        "align", "example2", {("field",): {"p": 65521, "m": 2}},
        "field: GF(65521^2) is larger than the limit of 2^24 elements",
    ),
    "transfer.field.order": (
        "feasibility", "example1", {("transfer", "field"): {"p": 2, "m": 26}},
        "transfer.field: GF(2^26) is larger than the limit of 2^24 elements",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_value_is_parse_error(tmp_path, capsys, case):
    sub, fixture, edits, message = MALFORMED[case]
    doc = load_fixture(fixture)
    for path, value in edits.items():
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, rep = jcli(capsys, sub, str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert rep == {"error": "ParseError", "message": message}


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--n", "0"), "--n must be at least 1, got 0"),
        (("--n", "-3"), "--n must be at least 1, got -3"),
        # 2 has order 25 mod 2^25 - 1, so the search reaches GF(2^25)
        (
            ("--n", str(2**25 - 1), "--max-ext-degree", "1000000"),
            "--max-ext-degree: GF(2^25) is larger than the limit of 2^24 elements",
        ),
    ],
)
def test_transform_flag_out_of_range_is_parse_error(capsys, flags, message):
    start = time.perf_counter()
    code, rep = jcli(capsys, "transform", "example1", *flags)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert rep == {"error": "ParseError", "message": message}


@pytest.mark.parametrize(
    "argv, message",
    [
        ("feasibility example1 --find-plan --max-ext-degree -1",
         "--max-ext-degree must be at least 1, got -1"),
        ("feasibility example1 --find-plan --max-ext-degree 0",
         "--max-ext-degree must be at least 1, got 0"),
        ("transform example1 --n 7 --max-ext-degree 0",
         "--max-ext-degree must be at least 1, got 0"),
        ("align example2 --n 4 --budget -2", "--budget must be at least 1, got -2"),
        ("align example2 --n 4 --budget 0", "--budget must be at least 1, got 0"),
    ],
)
def test_search_flag_below_one_is_parse_error(capsys, argv, message):
    code, rep = jcli(capsys, *argv.split())
    assert code == 2
    assert rep == {"error": "ParseError", "message": message}


@pytest.mark.parametrize(
    "edit, message",
    [
        ((("kernels", "alpha", 0, 0), 3), "alpha kernel on unknown input (3, 0)"),
        ((("kernels", "alpha", 0, 1), -1), "alpha kernel on unknown input (0, -1)"),
        ((("kernels", "eps", 0, 1), 5), "eps kernel on unknown output (5, 0)"),
    ],
)
def test_kernel_on_unknown_terminal_is_input_error(tmp_path, capsys, edit, message):
    doc = load_fixture("example2")
    (*parents, key), value = edit
    node = doc
    for k in parents:
        node = node[k]
    node[key] = value
    p = tmp_path / "kernel.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "transfer", str(p))
    assert code == 2
    assert rep == {"error": "ValueError", "message": message}


@pytest.mark.parametrize(
    "sub, exit_code",
    [("validate", 0), ("mincut", 0), ("transfer", 2), ("simulate", 2), ("feasibility", 2),
     ("transform", 2)],
)
def test_kernel_on_unknown_edge_is_refused_where_compiled(tmp_path, capsys, sub, exit_code):
    # every subcommand reads the kernels; only those that run a window
    # compile them against the network, after validating it
    doc = load_fixture("example2")
    doc["kernels"]["alpha"][0][2] = ["S1", "nowhere", 0]
    if sub == "simulate":
        doc.update(kind="simulation", inputs=[[[[1]], [[0]], [[1]]]])
    p = tmp_path / "kernel.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, sub, str(p), *(["--n", "7"] if sub == "transform" else []))
    assert code == exit_code
    if exit_code:
        message = "alpha kernel on unknown edge ('S1', 'nowhere', 0)"
        assert rep == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("value", [{}, ""])
@pytest.mark.parametrize("sub", ["transfer", "simulate"])
def test_element_that_is_not_a_list_is_parse_error(tmp_path, capsys, sub, value):
    # an empty object or string has a len() and a reversed() of no
    # coefficients, so it once read as the zero element
    doc = load_fixture("example2")
    if sub == "transfer":
        doc["kernels"]["alpha"][0][-1] = value
        where = "kernels.alpha[0]"
    else:
        doc.update(kind="simulation", inputs=[[[[1]], [[0]], [[1]]], [[value], [[0]], [[1]]]])
        where = "inputs[1][0][0]"
    p = tmp_path / "element.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, sub, str(p))
    assert code == 2
    message = f"{where}: a field element is a list of integer coefficients, got {value!r}"
    assert rep == {"error": "ParseError", "message": message}
    with pytest.raises(ParseError):
        build_field(3, 2).codes_from_json([[1], value])


@pytest.mark.parametrize("coeff", [1.0, True])
def test_non_integer_coefficient_is_parse_error(tmp_path, capsys, coeff):
    doc = load_fixture("example1")
    doc["transfer"]["entries"][0][0] = [[coeff]]
    p = tmp_path / "coeff.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "feasibility", str(p))
    assert code == 2
    assert rep["error"] == "ParseError"
    assert rep["message"] == (
        "transfer.entries[0][0]: a field element is a list of integer "
        f"coefficients, got [{coeff!r}]"
    )
    with pytest.raises(ParseError):
        GF2.element([coeff])


@pytest.mark.parametrize("sub", ["validate", "transfer", "mincut"])
def test_edge_as_list_is_parse_error(tmp_path, capsys, sub):
    doc = load_fixture("example2")
    doc["network"]["edges"][0] = ["S1", "A", 1]
    p = tmp_path / "edge.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, sub, str(p))
    assert code == 2
    assert rep["error"] == "ParseError"
    assert rep["message"].startswith("network.edges[0] must be an object with head, tail")


# ----------------------------------------------------------------------
# network reports
# ----------------------------------------------------------------------


def test_validate_report(capsys):
    code, rep = jcli(capsys, "validate", "example2")
    assert code == 0
    assert rep["ok"] and rep["unit_delay"]
    assert rep["mu"] == [1, 1, 1] and rep["nu"] == [1, 1, 1]
    assert rep["order"][0].startswith("S")


def test_mincut_report(capsys):
    code, rep = jcli(capsys, "mincut", "example2")
    assert code == 0
    assert rep["cuts"] == [[1, 2, 1], [1, 1, 2], [2, 1, 1]]
    assert rep["sessions"] == [1, 1, 1]


def test_transfer_report_and_dump(tmp_path, capsys):
    code, rep = jcli(capsys, "transfer", "example2")
    assert code == 0
    assert rep["d_prime_min"] == 3 and rep["d_max"] == 2
    assert len(rep["entries"]) == 3 and len(rep["entry_strs"]) == 3
    # the chain-expansion dump is no CLI option: a usage error, no file
    dump = tmp_path / "norm.json"
    with pytest.raises(SystemExit) as exc:
        run(["transfer", "example2", "--dump-normalized", str(dump)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dump-normalized" in capsys.readouterr().err
    assert not dump.exists()


def test_transfer_of_an_unreached_sink_is_zero(tmp_path, capsys):
    # the only path into T starts at A, which no source feeds
    net = NetworkSpec(
        ["S", "A", "B", "T"],
        [Edge("S", "B", 0, 2), Edge("A", "T", 0, 3)],
        [Source("S", 2)],
        [Sink("T", 1)],
        [(0, 0, 1)],
    )
    doc = {
        "kind": "network",
        "network": network_to_dict(net),
        "kernels": leks_to_dict(random_leks(net, GF2, "ones", nonzero=True)),
    }
    p = tmp_path / "unreached.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "transfer", str(p))
    assert code == 0
    assert rep["entries"] == [[[], []]] and rep["entry_strs"] == [["0", "0"]]
    assert rep["d_prime_min"] == rep["d_prime_max"] == rep["d_max"] == 0


def test_simulate_report(tmp_path, capsys):
    net = NetworkSpec(
        ["S", "m1", "T"],
        [Edge("S", "m1"), Edge("m1", "T")],
        [Source("S", 1)],
        [Sink("T", 1)],
        [(0, 0, 0)],
    )
    leks = random_leks(net, GF2, "ones", nonzero=True)
    doc = {
        "kind": "simulation",
        "network": network_to_dict(net),
        "kernels": leks_to_dict(leks),
        "inputs": [[[[1]]], [[[0]]], [[[0]]]],
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "simulate", str(p))
    assert code == 0
    # impulse crosses two unit hops
    assert rep["outputs"] == [[[[0]]], [[[0]]], [[[1]]]]


@pytest.mark.parametrize(
    "argv", [["transfer"], ["feasibility"], ["transform", "--n", "7"], ["align", "--verify-only"]]
)
def test_window_too_long_to_allocate_is_input_error(tmp_path, capsys, argv):
    # a window of 3 * (10^15 + 5) steps fails to allocate on any host, and
    # one of 3 * (2^63 + 5) steps does not even fit an index
    for delay, want in [
        (10**15, "longest path delay 1000000000000004 needs a window of 3000000000000015 "),
        (2**63, "longest path delay 9223372036854775812 needs a window of "
                "27670116110564327439 "),
    ]:
        doc = load_fixture("example2")
        doc["network"]["edges"][0]["delay"] = delay
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        code, rep = jcli(capsys, argv[0], str(p), *argv[1:])
        assert code == 2 and rep["error"] == "ValueError"
        assert rep["message"] == want + "steps, too many to allocate"


@pytest.mark.parametrize("sub", ["transfer", "simulate"])
def test_delay_zero_edge_is_input_error(tmp_path, capsys, sub):
    net = NetworkSpec(
        ["S", "A", "T"],
        [Edge("S", "A", 0, 0), Edge("A", "T", 0, 2)],
        [Source("S", 1)],
        [Sink("T", 1)],
        [(0, 0, 0)],
    )
    leks = random_leks(net, GF2, "ones", nonzero=True)
    doc = {"kind": "network", "network": network_to_dict(net), "kernels": leks_to_dict(leks)}
    if sub == "simulate":
        doc.update(kind="simulation", inputs=[[[[1]]], [[[0]]]])
    p = tmp_path / "delay0.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, sub, str(p))
    assert code == 2
    assert rep["error"] == "ValueError" and "has delay 0" in rep["message"]


def test_simulate_step_with_missing_source_is_input_error(tmp_path, capsys):
    doc = load_fixture("example2")  # three single-process sources
    doc.update(kind="simulation", inputs=[[[[1]]], [[[0]]]])
    p = tmp_path / "short.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "simulate", str(p))
    assert code == 2
    assert rep["error"] == "ValueError"
    assert rep["message"] == "step 0 gives 1 source vectors, the network has 3 sources"


def _simulation_of(net: NetworkSpec, steps: int) -> dict:
    leks = random_leks(net, GF2, "ones", nonzero=True)
    return {
        "kind": "simulation",
        "network": network_to_dict(net),
        "kernels": leks_to_dict(leks),
        "inputs": [[[[1]]]] * steps,
    }


def test_cyclic_simulation_is_input_error(tmp_path, capsys):
    # the window is evaluated edge by edge in topological order, so a
    # network without one is refused like every other command refuses it
    net = NetworkSpec(
        ["S", "A", "B", "T"],
        [Edge("S", "A"), Edge("A", "B"), Edge("B", "A"), Edge("B", "T")],
        [Source("S", 1)],
        [Sink("T", 1)],
        [(0, 0, 0)],
    )
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(_simulation_of(net, 9)))
    code, rep = jcli(capsys, "simulate", str(p))
    assert code == 2
    assert rep == {"error": "CycleDetected", "message": "cycle through nodes ['A', 'B', 'T']"}


def test_simulation_with_dangling_demand_is_input_error(tmp_path, capsys):
    net = NetworkSpec(
        ["S", "A", "T"], [Edge("S", "A"), Edge("A", "T")], [Source("S", 1)], [Sink("T", 1)]
    )
    doc = _simulation_of(net, 9)
    doc["network"]["sinks"][0]["demands"] = [[0, 1]]  # source 0 has one process
    p = tmp_path / "dangling.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "simulate", str(p))
    assert code == 2
    assert rep == {
        "error": "DanglingDemand", "message": "demand (0, 0, 1): source 0 has no process 1"
    }


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------


def _run_with_connection(tmp_path, capsys, argv, conn):
    doc = load_fixture("example1")
    doc["connections"] = [conn]
    p = tmp_path / "dangling.json"
    p.write_text(json.dumps(doc))
    return jcli(capsys, argv[0], str(p), *argv[1:])


@pytest.mark.parametrize("argv", [("feasibility",), ("transform", "--n", "7")])
def test_connection_to_missing_source_is_input_error(tmp_path, capsys, argv):
    code, rep = _run_with_connection(tmp_path, capsys, argv, [9, 0, 0])
    assert code == 2
    assert rep == {"error": "DanglingDemand", "message": "demand (9, 0, 0): no source 9"}


@pytest.mark.parametrize("argv", [("feasibility",), ("transform", "--n", "7")])
@pytest.mark.parametrize(
    "conn, message",
    [([0, 9, 0], "demand (0, 9, 0): no sink 9"), ([0, 0], "malformed demand (0, 0)")],
)
def test_connection_to_missing_sink_or_malformed_is_input_error(
    tmp_path, capsys, argv, conn, message
):
    code, rep = _run_with_connection(tmp_path, capsys, argv, conn)
    assert code == 2
    assert rep == {"error": "DanglingDemand", "message": message}


def test_exhausted_plan_search_is_a_verdict(capsys):
    code, rep = jcli(
        capsys, "feasibility", "example1", "--find-plan", "--max-ext-degree", "1"
    )
    assert code == 1
    assert rep["error"] == "SearchExhausted"
    assert "extensions of degree up to 1" in rep["message"]


def test_feasibility_reference_report(capsys):
    code, rep = jcli(capsys, "feasibility", "example1")
    assert code == 0
    assert rep["feasible"]
    assert rep["f"] == "D^25"
    assert len(rep["f_coeffs"]) == 26
    assert rep["f_coeffs"][25] == [1] and all(c == [0] for c in rep["f_coeffs"][:25])
    assert rep["det_strs"] == ["D^5", "D^5", "D^6", "D^5", "D^4"]
    assert rep["d_minus_one_divides_f"] is False


def test_feasibility_find_plan(capsys):
    code, rep = jcli(
        capsys, "feasibility", "example1", "--find-plan", "--n-min", "5"
    )
    assert code == 0
    assert rep["plan"]["n"] == 7
    assert rep["plan"]["field"]["p"] == 2 and rep["plan"]["field"]["m"] == 3
    assert rep["plan"]["alpha"] == [0, 1, 0]


def test_feasibility_interference_exit_one(capsys):
    # the three-session demo leaks cross traffic without precoding
    code, rep = jcli(capsys, "feasibility", "example2")
    assert code == 1
    assert not rep["feasible"]
    assert rep["zero_interference_violations"]
    assert "f" not in rep


# ----------------------------------------------------------------------
# transform
# ----------------------------------------------------------------------


def test_transform_emits_json_lines(capsys):
    code, out = cli(capsys, "transform", "example1", "--n", "7")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().split("\n")]
    assert len(lines) == 7 * 5
    assert all(l["solvable"] for l in lines)
    assert {l["t"] for l in lines} == set(range(7))
    assert {l["sink"] for l in lines} == set(range(5))
    assert all(l["det"] is not None for l in lines)


def test_transform_requires_n(capsys):
    code, rep = jcli(capsys, "transform", "example1")
    assert code == 2
    assert "--n" in rep["message"]


def _without_demands(name: str) -> dict:
    doc = load_fixture(name)
    if doc["kind"] == "transfer":
        doc["connections"] = []
    for sink in doc.get("network", {}).get("sinks", []):
        sink["demands"] = []
    return doc


@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("pretty", [(), ("--pretty",)])
def test_transform_without_demands_is_input_error(tmp_path, capsys, name, pretty):
    p = tmp_path / "no-demands.json"
    p.write_text(json.dumps(_without_demands(name)))
    code, rep = jcli(capsys, "transform", str(p), "--n", "7", *pretty)
    assert code == 2
    assert rep == {
        "error": "ParseError",
        "message": "the demand set is empty: no sink demands a process",
    }


# ----------------------------------------------------------------------
# alignment
# ----------------------------------------------------------------------


def test_align_verify_only(capsys):
    code, rep = jcli(capsys, "align", "example2", "--verify-only")
    assert code == 0
    assert rep["ok"] and rep["decode_exact"]
    assert rep["category"] == "full"
    assert rep["ranks"] == [7, 7, 7] and rep["rank_targets"] == [7, 7, 7]
    assert rep["throughputs"] == [[4, 7], [3, 7], [3, 7]]
    assert rep["channel_uses"] == 9
    assert "attempts" not in rep


def test_align_search_from_embedded_field(capsys):
    code, rep = jcli(capsys, "align", "example2", "--seed", "7", "--budget", "20")
    assert code == 0
    assert rep["ok"]
    assert rep["attempts"] == 1 and rep["seed"] == "7:0"


def test_align_not_found_envelope(tmp_path, capsys):
    net = cat_net({(i, j): 1 for i in (1, 2, 3) for j in (1, 2, 3)})
    doc = {
        "kind": "network",
        "network": network_to_dict(net),
        "field": {"p": 2, "m": 6, "modulus": [1, 1, 0, 0, 0, 0, 1]},
        "align": {"n": 3},
    }
    p = tmp_path / "degenerate.json"
    p.write_text(json.dumps(doc))
    code, rep = jcli(capsys, "align", str(p), "--budget", "2")
    assert code == 1
    assert rep == {
        "ok": False,
        "error": "NotFound",
        "message": rep["message"],
    }
    assert "2 attempts" in rep["message"]


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------


def test_output_file_matches_stdout(tmp_path, capsys):
    code, out = cli(capsys, "mincut", "example2")
    dest = tmp_path / "rep.json"
    code2, out2 = cli(capsys, "mincut", "example2", "-o", str(dest))
    assert code == code2 == 0
    assert out2 == ""
    assert dest.read_text() == out


def test_directory_as_input_is_input_error(tmp_path, capsys):
    code, out = cli(capsys, "validate", str(tmp_path))
    rep = json.loads(out)
    assert code == 2 and rep["error"] == "ParseError"
    assert rep["message"].startswith(f"{tmp_path}: cannot read")


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_output_is_input_error(tmp_path, capsys, where):
    dest = tmp_path if where == "directory" else tmp_path / "none" / "rep.json"
    sim = tmp_path / "gf3.json"
    sim.write_text(json.dumps(_simulation_doc("gf3")))
    for argv in (["mincut", "example2"], ["simulate", str(sim)], ["simulate", str(sim), "--pretty"]):
        code, out = cli(capsys, *argv, "-o", str(dest))
        rep = json.loads(out)
        assert code == 2 and rep["error"] == "ParseError", argv
        assert rep["message"].startswith(f"{dest}: cannot write the report"), argv
    # an input error that cannot go to -o goes to stdout
    code, out = cli(capsys, "validate", str(tmp_path / "absent.json"), "-o", str(dest))
    assert code == 2 and json.loads(out)["message"].endswith("absent.json: no such file")
    assert not (tmp_path / "none").exists()


def test_pretty_is_equivalent_json(capsys):
    _, compact = cli(capsys, "validate", "example2")
    _, pretty = cli(capsys, "validate", "example2", "--pretty")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_reused_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    # one parser serves every run call of a process; each call of this
    # sequence must give what a freshly built parser gives
    dest = tmp_path / "rep.json"
    sequence = [
        ["validate", "example2", "--pretty"],
        ["validate", "example2"],
        ["mincut", "example2", "-o", str(dest)],
        ["mincut", "example2"],
        ["feasibility", "example1", "--find-plan", "--n-min", "5"],
        ["feasibility", "example1"],
        ["feasibility", "example1", "--n-min", "x"],  # argparse usage error
        ["transform", "example1", "--n", "7"],
    ]

    def outcome(argv):
        dest.unlink(missing_ok=True)
        try:
            code = run(list(argv))
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        return code, out, err, dest.read_text() if dest.exists() else None

    run(["validate", "example2"])
    capsys.readouterr()
    parser = cli_module._PARSER
    reused = [outcome(argv) for argv in sequence]
    assert cli_module._PARSER is parser
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli_module, "_PARSER", _build_parser())
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert reused[2][1] == "" and reused[2][3] == reused[3][1]
    assert "invalid int value: 'x'" in reused[6][2]


# argv a subcommand's own parser reads alone, and argv that falls back to
# the full parser: no or another first token, left-over or bad arguments,
# help, abbreviations and "--"
PARSE_CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["Validate", "x"], ["val", "x"], ["-o", "f", "validate", "x"],
    ["validate"], ["validate", "x"], ["validate", "x", "y"], ["validate", "-h"],
    ["validate", "x", "--pretty", "-o", "f"], ["validate", "x", "--pre"], ["validate", "x", "--n", "3"],
    ["validate", "x", "-h", "--bogus"], ["validate", "x", "--"], ["validate", "--", "-x"],
    ["mincut", "x", "-o"], ["transfer", "x", "--seed", "4"], ["simulate", "x", "--seed=4"],
    ["feasibility", "x", "--find-plan", "--n-min", "5", "--max-ext-degree", "3"],
    ["feasibility", "x", "--n-min", "x"], ["transform", "x", "--n", "7"], ["transform", "x", "--n"],
    ["transform", "x", "--n", "q"], ["transform", "x", "--n=-3"], ["transform", "x", "--max-ext", "3"],
    ["transform", "x", "--n", "5", "--n", "6"], ["transform", "--", "x"],
    ["align", "x", "--n", "7", "--budget", "3"], ["align", "x", "--verify-only", "--budget", "-1"],
    ["align", "x", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_subcommand_parser_agrees_with_the_full_parser(capsys, argv):
    parser = _build_parser()

    def outcome(parse):
        try:
            parsed, code = parse(parser, list(argv)), None
        except SystemExit as e:
            parsed, code = None, e.code
        return parsed, code, capsys.readouterr()

    assert outcome(type(parser).parse_args) == outcome(argparse.ArgumentParser.parse_args)


def test_byte_determinism(capsys):
    for argv in (
        ["feasibility", "example1", "--find-plan"],
        ["transform", "example1", "--n", "7"],
        ["align", "example2", "--verify-only"],
    ):
        _, a = cli(capsys, *argv)
        _, b = cli(capsys, *argv)
        assert a == b and a


# ----------------------------------------------------------------------
# recorded report bytes
# ----------------------------------------------------------------------

# sha256 of "<exit code>\n<stdout>" for each command; any change to the
# bytes of one of these reports fails here
GOLDEN = {
    "validate example2":
        "acd50fa414fb5259998db972159755caaf0f4be909f5ccb96d56a572b8ac6c52",
    "mincut example2":
        "87e522ab2232dca8e155abf705d5153e6261d58049d689624c69361deb95bd0c",
    "transfer example2":
        "338b6b9a5f74d08f0afe9b014e0d81bd1239d8df3e967ff51f33d5fee6a1262e",
    "feasibility example1":
        "befa6195bbaf05afd4bae9041b4e542c4f3d459abc836d999ac94262d3b145ae",
    "feasibility example1 --pretty":
        "eb28f872e35efd97c703afae001b21348ca32d238e048836cd1638022f6bdf62",
    "feasibility example1 --find-plan":
        "f679e19d03afd695393167ad310835f84a520592976fc77bcf8150602b8c10a2",
    "feasibility example1 --find-plan --n-min 5":
        "f679e19d03afd695393167ad310835f84a520592976fc77bcf8150602b8c10a2",
    "feasibility example2":
        "3fae89c880cbb5c26159f30284458dbc96fb54ecaa06a1a6ba501982822907fe",
    "transform example1 --n 7":
        "8d2b0845dc4b8b7e6cdf56f05c9a937439943f7e5006806e252b9ead68a97fc4",
    "transform example1 --n 9":
        "dedd4e011a834dc48a02820c9da48c908f66bf6038d8fd3a16668af3e3ff45bc",
    "transform example1 --n 15":
        "7bcfab95bf72b4dbad33f1b09ea07ec80c623599a677e6a791569faf4c7901a0",
    "transform example2 --n 7":
        "c15dc6eb87d4a27e57a471344446f13f3c8930e2570ed2cc71497aeafc66212f",
    "align example2 --verify-only":
        "8f6145199f96665b5be1fadf54100e1c8b26a4b6e9958f1b5efd0009ad00d8c9",
    "align example2":
        "8c0450a9e6694ea7f62afeb293385fd6ac592f2cb9dbc5e9e8543cef7d3a9e5a",
    "align example2 --seed 3":
        "1a8bbfb6b54e3b2ce0331e60d3c8bd96a55d90aa2ff19e08b40db3ac3e709578",
}


@pytest.mark.parametrize("argv", GOLDEN)
def test_report_bytes_match_recorded_digest(capsys, argv):
    code, out = cli(capsys, *argv.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == GOLDEN[argv]


# simulate reports on seeded inputs: example2's network and kernels over
# GF(2^6), a GF(3) network with delay lines and time-indexed kernels
# starting at t = 5, and a GF(2^20) network (above the table cap)
def _delay_net(mu: int, nu: int) -> NetworkSpec:
    return NetworkSpec(
        ["S", "A", "B", "T"],
        [
            Edge("S", "A", 0, 2), Edge("S", "B", 0, 1), Edge("S", "B", 1, 3),
            Edge("A", "B", 0, 1), Edge("A", "T", 0, 3), Edge("B", "T", 0, 1),
        ],
        [Source("S", mu)],
        [Sink("T", nu)],
    )


def _simulation_doc(name: str) -> dict:
    if name == "example2":
        doc = load_fixture("example2")
        del doc["align"]
        field, steps, t_start = build_field(2, 6), 12, 0
    else:
        net = _delay_net(2, 2)
        if name == "gf3":
            field, steps, t_start = build_field(3, 1), 10, 5
            leks = random_leks(net, field, name, mode="time", window=(5, 14))
        else:
            field, steps, t_start = build_field(2, 20), 8, 0
            leks = random_leks(net, field, name)
        doc = {"network": network_to_dict(net), "kernels": leks_to_dict(leks)}
    rng = random.Random(f"sim:{name}")
    mu = [s.get("processes", 1) for s in doc["network"]["sources"]]
    # symbols of every length up to m: shorter lists leave the top digits zero
    doc["inputs"] = [
        [
            [[rng.randrange(field.p) for _ in range(rng.randrange(field.m + 1))]
             for _ in range(k)]
            for k in mu
        ]
        for _ in range(steps)
    ]
    doc.update(kind="simulation", t_start=t_start)
    return doc


SIM_GOLDEN = {
    "simulate example2":
        "4bb320cef23a39be6d639dcd81868d8c2999f6800dfd40a6bddd42b30ecf90e1",
    "simulate example2 --pretty":
        "552ece2836355b4a51731ce6f740819b30f3069e9867b79cd6be40095fc34cd2",
    "simulate gf3":
        "6262b607993d0135374882268cda341e5cc1a096686dc733c5d46e7b8687cece",
    "simulate gf2_20":
        "8e23e79588b4ab918bdb9bea234a556b355e4be12ad62e23f84b92cde44e9813",
    "simulate gf2_20 -o":
        "8e23e79588b4ab918bdb9bea234a556b355e4be12ad62e23f84b92cde44e9813",
}


def test_field_specs_are_never_rebound_after_construction(monkeypatch, tmp_path, capsys):
    # empty caches, so every field these runs use is built, and seen, here
    monkeypatch.setattr(galois, "_FIELDS", {})
    monkeypatch.setattr(galois, "_EMBED_CACHE", {})
    built = []
    init = FieldSpec.__init__

    def recording(self, *args):
        init(self, *args)
        built.append((self, {name: getattr(self, name) for name in FieldSpec.__slots__}))

    monkeypatch.setattr(FieldSpec, "__init__", recording)
    assert run(["align", "example2", "--n", "4"]) == 0
    for name in ("example2", "gf3"):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(_simulation_doc(name)))
        assert run(["simulate", str(p)]) == 0
    capsys.readouterr()
    assert {(spec.p, spec.m) for spec, _ in built} == {(2, 6), (3, 1)}
    for spec, slots in built:
        for name, value in slots.items():
            assert getattr(spec, name) is value, (spec, name)


@pytest.mark.parametrize("argv", SIM_GOLDEN)
def test_simulate_report_bytes_match_recorded_digest(tmp_path, capsys, argv):
    sub, name, *flags = argv.split()
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(_simulation_doc(name)))
    dest = tmp_path / "out.json"
    if flags == ["-o"]:
        flags = ["-o", str(dest)]
    code, out = cli(capsys, sub, str(p), *flags)
    if dest.exists():
        assert out == ""
        out = dest.read_text()
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == SIM_GOLDEN[argv]


# ----------------------------------------------------------------------
# literal-free simulation documents against the checked reading
# ----------------------------------------------------------------------


def _literal_free_doc(spec) -> dict:
    """example2 as a simulation document over spec: no float, NaN, Infinity,
    true or false anywhere in its text."""
    doc = load_fixture("example2")
    del doc["align"]
    net = network_from_dict(doc["network"])
    rng = random.Random(f"literal-free:{spec}")
    doc["kernels"] = leks_to_dict(random_leks(net, spec, 1, nonzero=True))
    doc["inputs"] = [
        [
            [_digits(rng.randrange(spec.q), spec.p, spec.m) for _ in range(src.processes)]
            for src in net.sources
        ]
        for _ in range(4)
    ]
    doc.update(kind="simulation")
    return doc


def _simulate_both_ways(capsys, monkeypatch, path):
    """(exit code, report) of simulate on path, the same with every symbol
    read by the checked reading, and the ints_only of the symbol batch."""
    checked = FieldSpec.codes_from_json
    seen = []

    def spy(self, items, where=None, ints_only=False):
        if where is None:  # the whole batch; the walk naming a bad value passes where
            seen.append(ints_only)
        return checked(self, items, where, ints_only)

    with monkeypatch.context() as mp:
        mp.setattr(FieldSpec, "codes_from_json", spy)
        got = cli(capsys, "simulate", str(path))
    with monkeypatch.context() as mp:
        mp.setattr(FieldSpec, "codes_from_json", lambda self, items, where=None, **_:
                   checked(self, items, where))
        want = cli(capsys, "simulate", str(path))
    return got, want, seen[-1]


# a bad coefficient as JSON text, and whether the text stays literal-free
BAD_COEFFS = [
    ("true", False), ("false", False), ("1.0", False), ("1e0", False), ("NaN", False),
    ('"1"', True), ("null", True), ("[1]", True), ("-1", True), ("p", True),
]


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 4), (2, 8), (3, 5), (2, 10)])
def test_literal_free_reading_refuses_as_the_checked_reading(tmp_path, capsys, monkeypatch, p, m):
    """One bad coefficient in inputs: a literal-free text is read by table
    lookup alone, any other by the checked reading, and both refuse it
    with the checked reading's exit code and message."""
    spec = build_field(p, m)
    doc = _literal_free_doc(spec)
    doc["inputs"][2][1][0] = "@"
    text = json.dumps(doc)
    path = tmp_path / "sim.json"
    zeros = ",0" * (m - 1)
    cases = [(f"[{bad if bad != 'p' else p}{zeros}]", free) for bad, free in BAD_COEFFS]
    cases.append(("[" + ",".join(["1"] * (m + 1)) + "]", True))  # m + 1 digits
    for element, free in cases:
        path.write_text(text.replace('"@"', element))
        got, want, ints_only = _simulate_both_ways(capsys, monkeypatch, path)
        assert got == want, element
        assert ints_only is free, element
        code, out = got
        assert code == 2 and json.loads(out)["message"].startswith("inputs[2][1][0]: "), element


@pytest.mark.parametrize("p, m", [(2, 8), (3, 5)])
def test_literals_elsewhere_leave_the_report_as_it_is(tmp_path, capsys, monkeypatch, p, m):
    """A node named "true" or an extra float field sends the symbols to the
    checked reading, and the report is its literal-free twin's."""
    text = json.dumps(_literal_free_doc(build_field(p, m)))
    assert '"B"' in text
    path = tmp_path / "sim.json"
    reports = []
    for variant, free in [
        (text, True),
        (text.replace('"B"', '"true"'), False),
        (text.replace('"B"', '"t"'), True),
        (text[:-1] + ', "note": 1.5}', False),
    ]:
        path.write_text(variant)
        got, want, ints_only = _simulate_both_ways(capsys, monkeypatch, path)
        assert got == want and got[0] == 0
        assert ints_only is free
        reports.append(got)
    assert reports[1:] == reports[:1] * 3
