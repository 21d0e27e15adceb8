"""Command-line interface: reports, exit codes, determinism."""

import json

import pytest

from netcode.cli import UnknownFixture, load_fixture, run
from netcode.feasibility import analyze
from netcode.galois import build_field
from netcode.netmodel import (
    Edge,
    NetworkSpec,
    Sink,
    Source,
    leks_to_dict,
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


def test_broken_json_reports_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "network",\n  "network": }')
    code, rep = jcli(capsys, "validate", str(p))
    assert code == 2
    assert rep["error"] == "ParseError"
    assert "line 2" in rep["message"] and "column" in rep["message"]


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
    dump = tmp_path / "norm.json"
    code, rep = jcli(
        capsys, "transfer", "example2", "--dump-normalized", str(dump)
    )
    assert code == 0
    assert rep["d_prime_min"] == 3 and rep["d_max"] == 2
    dumped = json.loads(dump.read_text())
    assert dumped["kind"] == "network"
    # the dump is itself a valid input and keeps the same transfer
    code2, rep2 = jcli(capsys, "transfer", str(dump))
    assert code2 == 0
    assert rep2["entries"] == rep["entries"]
    assert rep2["d_prime_min"] == rep["d_prime_min"]


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


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------


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


def test_pretty_is_equivalent_json(capsys):
    _, compact = cli(capsys, "validate", "example2")
    _, pretty = cli(capsys, "validate", "example2", "--pretty")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_byte_determinism(capsys):
    for argv in (
        ["feasibility", "example1", "--find-plan"],
        ["transform", "example1", "--n", "7"],
        ["align", "example2", "--verify-only"],
    ):
        _, a = cli(capsys, *argv)
        _, b = cli(capsys, *argv)
        assert a == b and a
