"""Fuzzed CLI contract: any input gives a JSON report and exit 0, 1 or 2.

Each example mutates one bundled document's JSON tree a few times (a
value swapped for another type, a key or item dropped, a list cut
short) and runs every subcommand on the result. A traceback, a non-JSON
report or any other exit code fails the test. Each subcommand runs again
with --pretty, which must exit alike and write one JSON document holding
the compact report's tree.
"""

import contextlib
import copy
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netcode.cli import load_fixture, run

# LONG stands for an integer of 5,000 digits, more than int() converts; it
# is written into the file's text, as json.dumps refuses to write it
LONG = "<5000-digit integer>"
SWAPS = (0, -1, 1.5, float("nan"), "x", "", True, None, [], {}, [{}], {"k": {}}, LONG)


def _simulation_doc() -> dict:
    doc = load_fixture("example2")
    del doc["align"]
    doc.update(kind="simulation", t_start=0)
    doc["inputs"] = [[[[t % 2, 1, 0, 0, 0, t % 3 // 2]] for _ in range(3)] for t in range(4)]
    return doc


BASES = {
    "example1": load_fixture("example1"),
    "example2": load_fixture("example2"),
    "simulation": _simulation_doc(),
}

COMMANDS = (
    ("validate",),
    ("mincut",),
    ("transfer",),
    ("simulate",),
    ("feasibility",),
    ("transform", "--n", "7"),
    ("align", "--verify-only"),
)


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_docs(draw):
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = _get(doc, path)
        op = draw(st.sampled_from(("swap", "drop", "shorten")))
        if op == "shorten" and isinstance(node, list) and node:
            del node[draw(st.integers(0, len(node) - 1)):]
        elif op == "drop" and path:
            del _get(doc, path[:-1])[path[-1]]
        elif path:
            _get(doc, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        else:
            doc = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    return doc


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(mutated_docs())
def test_every_subcommand_answers_in_json(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc).replace(json.dumps(LONG), "9" * 5000))
    for cmd in COMMANDS:
        argv = (cmd[0], str(path)) + cmd[1:]
        start = time.perf_counter()
        code, out = _run(argv)
        assert code in (0, 1, 2), (cmd, out)
        lines = out.splitlines()
        assert lines, cmd
        records = [json.loads(line) for line in lines]
        assert time.perf_counter() - start < 5.0, cmd
        # the compact report's tree: a transform report's records, or the
        # one document of any other report, error reports included
        if cmd[0] == "transform" and code != 2:
            tree = records
        else:
            (tree,) = records
        pretty_code, pretty = _run(argv + ("--pretty",))
        assert pretty_code == code, (cmd, pretty)
        assert json.loads(pretty) == tree, cmd
