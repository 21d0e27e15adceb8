"""Command-line front end: fixtures, JSON ingestion, report emission.

One interchange format: JSON with a "kind" tag ("network", "transfer" or
"simulation"). Field elements are coefficient arrays lowest-degree
first; polynomials are arrays of such arrays. All randomness comes from
--seed, so equal invocations produce byte-identical output.

Exit codes: 0 for pass/feasible verdicts, 1 for fail/infeasible
verdicts, 2 for unreadable or structurally invalid input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from importlib import resources
from itertools import chain

from .galois import (
    FieldElement,
    FieldSpec,
    NetcodeError,
    ParseError,
    Poly,
    _check_field_order,
    _int,
    _list,
    build_field,
    element_of_order,
    spec_from_dict,
    spec_to_dict,
)
from .netmodel import (
    NetworkSpec,
    TransferResult,
    _cutter,
    _simulate_rows,
    leks_from_dict,
    leks_to_dict,
    network_from_dict,
    transfer_from_dict,
    transfer_matrix,
    validate,
)
from .transform import make_plan
from .feasibility import FeasibilityReport, SearchExhausted, _generation_codes, analyze
from .alignment import (
    NotFound,
    align_search,
    build_instance,
    check_alignment,
    encode_decode,
)

__all__ = ["ParseError", "UnknownFixture", "load_fixture", "run", "main"]

_FIXTURES = ("example1", "example2")


class UnknownFixture(NetcodeError):
    pass


# ----------------------------------------------------------------------
# input handling
# ----------------------------------------------------------------------


def load_fixture(name: str) -> dict:
    """Load a bundled fixture by bare name ("example1", "example2")."""
    if name not in _FIXTURES:
        raise UnknownFixture(f"no bundled fixture named {name!r}")
    text = resources.files("netcode").joinpath(f"fixtures/{name}.json").read_text()
    return json.loads(text)


# int() refuses the text of every float and constant that json hands
# these hooks, so this decoder raises ValueError at the first of them
_DECODE_INTS = json.JSONDecoder(parse_float=int, parse_constant=int).decode


def _read_input(path: str) -> tuple[object, str | None]:
    """(document, text): text is the file's text when it holds no float
    and no NaN or Infinity, else None. A real file wins; otherwise path
    must be a bundled fixture's bare name."""
    import os

    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from None
        except OSError as e:  # a directory, or no read permission
            raise ParseError(f"{path}: cannot read: {e.strerror}") from None
        try:
            try:
                return _DECODE_INTS(text), text
            except ValueError:  # a literal, or an error that json.loads words
                return json.loads(text), None
        except json.JSONDecodeError as e:
            raise ParseError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        except RecursionError:
            raise ParseError(f"{path}: invalid JSON: nested too deeply") from None
        except ValueError as e:  # an integer of more digits than int() converts
            raise ParseError(f"{path}: invalid JSON: {e}") from None
    if os.sep in path or path.endswith(".json"):
        raise ParseError(f"{path}: no such file")
    return load_fixture(path), None


def _check_schema(doc: dict, need: str) -> list[str]:
    """Collect every schema violation instead of stopping at the first."""
    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    kind = doc.get("kind")
    if kind not in ("network", "transfer", "simulation"):
        problems.append(f'"kind" must be "network", "transfer" or "simulation", got {kind!r}')
    elif kind != need:
        problems.append(f'this subcommand needs kind "{need}", got "{kind}"')
    if need in ("network", "simulation"):
        net = doc.get("network")
        if not isinstance(net, dict):
            problems.append('"network" object is required')
        else:
            for key in ("nodes", "edges", "sources", "sinks"):
                if not isinstance(net.get(key), list):
                    problems.append(f'"network.{key}" must be a list')
    if need == "transfer":
        tr = doc.get("transfer")
        if not isinstance(tr, dict):
            problems.append('"transfer" object is required')
        else:
            for key in ("field", "entries", "mu_list", "nu_list"):
                if key not in tr:
                    problems.append(f'"transfer.{key}" is required')
        if not isinstance(doc.get("connections"), list):
            problems.append('"connections" list is required')
    if need == "simulation":
        if not isinstance(doc.get("inputs"), list):
            problems.append('"inputs" list is required')
        if not isinstance(doc.get("kernels"), dict):
            problems.append('"kernels" object is required')
    return problems


def _require(doc: dict, need: str) -> None:
    problems = _check_schema(doc, need)
    if problems:
        raise ParseError("; ".join(problems))


def _load_doc(path: str, need: str) -> dict:
    doc, _ = _read_input(path)
    _require(doc, need)
    return doc


def _load_transfer(path: str):
    """(transfer result, demand triples) from a transfer or network document."""
    doc, _ = _read_input(path)
    if isinstance(doc, dict) and doc.get("kind") == "transfer":
        _require(doc, "transfer")
        tr = transfer_from_dict(doc["transfer"])
        conns = [
            tuple(_int(x, f"connections[{k}]") for x in _list(c, f"connections[{k}]"))
            for k, c in enumerate(doc["connections"])
        ]
        return tr, conns
    _require(doc, "network")
    net, leks = _net_and_leks(doc)
    return transfer_matrix(net, leks), list(net.connections)


def _net_and_leks(doc: dict, need_kernels: bool = True):
    net = network_from_dict(doc["network"])
    leks = None
    if "kernels" in doc:
        leks = leks_from_dict(doc["kernels"])
    elif need_kernels:
        raise ParseError('"kernels" object is required for this subcommand')
    return net, leks


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------


# reports are freshly built trees, so the cycle check finds nothing
_COMPACT = json.JSONEncoder(sort_keys=True, check_circular=False, separators=(",", ":")).encode
_INDENTED = json.JSONEncoder(sort_keys=True, check_circular=False, indent=2).encode


def _array(items: list[str]) -> str:
    """The compact text of an array of these item texts."""
    return "[" + ",".join(items) + "]"


def _obj(fields: dict[str, str]) -> str:
    """The compact text of an object of these value texts; no key needs escaping."""
    return "{" + ",".join(f'"{k}":{v}' for k, v in sorted(fields.items())) + "}"


def _render(obj, pretty: bool) -> str:
    """obj as one JSON document, the report text."""
    return (_INDENTED if pretty else _COMPACT)(obj) + "\n"


def _write(text: str, out: str | None) -> None:
    """Write a report to stdout, or to the file out."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:  # a directory, or a missing parent
        raise ParseError(f"{out}: cannot write the report: {e.strerror}") from None


def _emit(obj, args) -> None:
    _write(_render(obj, args.pretty), args.out)


def _emit_text(text: str, args, lines: bool = False) -> None:
    """Write a compact report text, or with --pretty the indented text of
    the tree it holds: the array of its records when it is JSON lines."""
    if args.pretty:
        text = _render(json.loads(_array(text.splitlines()) if lines else text), True)
    _write(text, args.out)


def _outputs_text(net: NetworkSpec, spec: FieldSpec, rows, steps: int) -> str:
    """simulate's report {"outputs": outputs[t][j][r]} as compact JSON text.

    The text is what _render writes for those nested coefficient lists.
    rows[r] holds flat output r's codes at each step. The report is one
    join of each symbol's code's text, step by step, with the brackets and
    commas between them.
    """
    step = _array([_array(["{}"] * snk.outputs) for snk in net.sinks])
    if not (rows and steps):
        return _obj({"outputs": _array([step] * steps)}) + "\n"
    # the text before, between and after one step's symbols; no text holds
    # a brace, and one step's last symbol is followed by the next's first
    head, *seps, tail = step.split("{}")
    seps.append(f"{tail},{head}")
    # each step's parts: every symbol's text, then the text after it
    parts = ['{"outputs":[' + head] + [x for sep in seps for x in ("", sep)] * steps
    text_of, every = spec._codec().text_of, 2 * len(rows)
    for r, row in enumerate(rows):
        parts[1 + 2 * r :: every] = map(text_of, row)
    parts[-1] = tail + "]}\n"
    return "".join(parts)


def _transfer_text(tr: TransferResult) -> str:
    """transfer's report as compact JSON text: the field, d_prime_min/max,
    mu_list, nu_list and d_max, the entries' coefficient lists (the
    transfer document transfer_from_dict reads) and entry_strs, each
    entry's display string.

    The text is what _render writes for that tree; each coefficient list
    is written as its code's text.
    """
    rows = tr.M.rows
    text_of = tr.field._codec().text_of
    entries = [[_array(list(map(text_of, p.codes))) for p in row] for row in rows]
    # a display string holds only digits, letters, ^, +, parentheses and
    # spaces, which json writes as they are
    strs = [[f'"{p.format_str()}"' for p in row] for row in rows]
    fields = {
        "field": spec_to_dict(tr.field),
        "d_prime_min": tr.d_prime_min,
        "d_prime_max": tr.d_prime_max,
        "mu_list": list(tr.mu_list),
        "nu_list": list(tr.nu_list),
        "d_max": tr.d_max,
    }
    texts = {k: _COMPACT(v) for k, v in fields.items()}
    for key, table in (("entries", entries), ("entry_strs", strs)):
        texts[key] = _array([_array(row) for row in table])
    return _obj(texts) + "\n"


def _transform_text(dets, spec: FieldSpec) -> str:
    """transform's report as JSON lines: a {"det", "sink", "solvable", "t"}
    record for each (t, j, det) of dets, det a code or None.

    Each line is what _render writes for its record, det being its code's
    coefficient list, or null for None.
    """
    text_of = spec._codec().text_of
    record = _obj(dict.fromkeys(("det", "sink", "solvable", "t"), "%s")) + "\n"
    return "".join([
        record % ("null", j, "false", t) if det is None
        else record % (text_of(det), j, "true" if det else "false", t)
        for t, j, det in dets
    ])


def _poly_json(p: Poly) -> list[list[int]]:
    return p.spec.codes_to_json(p.codes)


def _report_feasibility(rep: FeasibilityReport) -> dict:
    out = {
        "feasible": rep.feasible,
        "zero_interference_violations": [list(v) for v in rep.zero_interference_violations],
        "column_selection": [list(c) for c in rep.column_selection],
        "dets": [_poly_json(d) for d in rep.dets],
        "det_strs": [d.format_str() for d in rep.dets],
    }
    if rep.f is not None:
        out["f"] = rep.f.format_str()
        out["f_coeffs"] = _poly_json(rep.f)
        out["f_at_one"] = rep.f_at_one.coeffs
        out["d_minus_one_divides_f"] = rep.d_minus_one_divides
    if rep.plan is not None:
        out["plan"] = {
            "n": rep.plan.n,
            "field": spec_to_dict(rep.plan.field),
            "alpha": rep.plan.alpha.coeffs,
            "d_max": rep.plan.d_max,
        }
    return out


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_validate(args) -> int:
    doc = _load_doc(args.input, "network")
    net, _ = _net_and_leks(doc, need_kernels=False)
    order = validate(net)
    _emit(
        {
            "ok": True,
            "order": order,
            "unit_delay": net.is_unit_delay(),
            "mu": list(net.mu_list),
            "nu": list(net.nu_list),
        },
        args,
    )
    return 0


def _cmd_mincut(args) -> int:
    doc = _load_doc(args.input, "network")
    net, _ = _net_and_leks(doc, need_kernels=False)
    validate(net)
    cut = _cutter(net)  # one capacity map for every pair
    cuts = [[cut(i, j) for j in range(len(net.sinks))] for i in range(len(net.sources))]
    rep: dict = {"cuts": cuts}
    if len(net.sources) == len(net.sinks):
        rep["sessions"] = [cuts[i][i] for i in range(len(net.sources))]
    _emit(rep, args)
    return 0


def _cmd_transfer(args) -> int:
    doc = _load_doc(args.input, "network")
    net, leks = _net_and_leks(doc)
    _emit_text(_transfer_text(transfer_matrix(net, leks)), args)
    return 0


def _cmd_simulate(args) -> int:
    doc, text = _read_input(args.input)
    _require(doc, "simulation")
    net, leks = _net_and_leks(doc)
    spec = leks.field
    inputs = doc["inputs"]
    # a text with no float, NaN, Infinity, true or false holds no bool or float
    ints_only = text is not None and "true" not in text and "false" not in text
    try:
        symbols = list(chain.from_iterable(chain.from_iterable(inputs)))
        codes = spec.codes_from_json(symbols, ints_only=ints_only)
    except (ParseError, TypeError):
        # walk the steps again to name the bad value; building a path per
        # symbol up front costs ~5% of a simulate job
        for t, gen in enumerate(inputs):
            for i, proc in enumerate(_list(gen, f"inputs[{t}]")):
                where = f"inputs[{t}][{i}]"
                spec.codes_from_json(_list(proc, where), lambda l: f"{where}[{l}]")
        raise
    t_start = _int(doc.get("t_start", 0), "t_start")
    rows = _simulate_rows(net, leks, inputs, t_start, False, codes)
    _emit_text(_outputs_text(net, spec, rows, len(inputs)), args)
    return 0


def _cmd_feasibility(args) -> int:
    tr, conns = _load_transfer(args.input)
    rep = analyze(
        tr,
        conns,
        find=args.find_plan,
        n_min=args.n_min,
        max_ext_degree=args.max_ext_degree,
    )
    _emit(_report_feasibility(rep), args)
    return 0 if rep.feasible else 1


def _cmd_transform(args) -> int:
    tr, conns = _load_transfer(args.input)
    if args.n is None:
        raise ParseError("--n is required for the transform report")
    if args.n < 1:
        raise ParseError(f"--n must be at least 1, got {args.n}")
    if not conns:
        raise ParseError("the demand set is empty: no sink demands a process")
    # evaluation happens in the smallest extension holding an order-n root
    base = tr.field
    for a in range(1, args.max_ext_degree + 1):
        _check_field_order(base.p, base.m * a, "--max-ext-degree")
        if (base.p ** (base.m * a) - 1) % args.n == 0:
            break
    else:
        raise ParseError(
            f"no extension of degree <= {args.max_ext_degree} has an "
            f"order-{args.n} element"
        )
    spec = base if a == 1 else build_field(base.p, base.m * a)
    plan = make_plan(args.n, spec, element_of_order(spec, args.n), tr.d_max)
    dets = _generation_codes(tr, conns, plan)
    _emit_text(_transform_text(dets, plan.field), args, lines=True)
    return 0 if all(det for _, _, det in dets) else 1


def _cmd_align(args) -> int:
    doc = _load_doc(args.input, "network")
    net, leks = _net_and_leks(doc, need_kernels=False)
    n = args.n
    if n is None:
        align = doc.get("align", {})
        if not isinstance(align, dict):
            raise ParseError(f"align must be an object with n, got {align!r}")
        if align.get("n") is None:
            raise ParseError("--n is required (no align.n in the input)")
        n = _int(align["n"], "align.n")

    if args.verify_only:
        if leks is None:
            raise ParseError('--verify-only needs a "kernels" object in the input')
        inst = build_instance(net, leks, n, seed=str(args.seed))
        report = check_alignment(inst)
        result = None
    else:
        if "field" in doc:
            spec = spec_from_dict(doc["field"])
        elif leks is not None:
            spec = leks.field
        else:
            raise ParseError('a "field" object is required to search')
        try:
            result = align_search(net, n, spec, seed=str(args.seed), budget=args.budget)
        except NotFound as e:
            _emit({"ok": False, "error": "NotFound", "message": str(e)}, args)
            return 1
        inst = result.instance
        report = result.report

    rng = random.Random(f"cli:{args.seed}")
    xs = [
        [FieldElement(inst.field, rng.randrange(inst.field.q)) for _ in range(v.ncols)]
        for v in (inst.V1, inst.V2, inst.V3)
    ]
    decode_ok = None
    throughputs = None
    uses = None
    if report["ok"]:
        out = encode_decode(inst, *xs)
        decode_ok = out.recovered == tuple(xs)
        throughputs = [[t.numerator, t.denominator] for t in out.throughputs]
        uses = out.channel_uses
    rep = {
        "ok": bool(report["ok"]) and bool(decode_ok),
        "category": inst.category,
        "perm": list(inst.perm),
        "n": n,
        "N": inst.N,
        "field": spec_to_dict(inst.field),
        "alpha": inst.plan.alpha.coeffs,
        "d_max": inst.plan.d_max,
        "identities": report["identities"],
        "ranks": [c["rank"] for c in report["conditions"]],
        "rank_targets": [c["target"] for c in report["conditions"]],
        "decode_exact": decode_ok,
        "throughputs": throughputs,
        "channel_uses": uses,
        "kernels": leks_to_dict(inst.leks),
    }
    if result is not None:
        rep["attempts"] = result.attempts
        rep["seed"] = result.seed
    _emit(rep, args)
    return 0 if rep["ok"] else 1


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """The netcode parser, which hands argv that starts with a subcommand
    to that subcommand's parser alone, at about half the cost: the full
    parser scans argv once itself before the subcommand's parser does.
    When that parser leaves arguments over, and when argv starts with
    anything else, the full parser parses argv, so a usage error keeps its
    message and exit code. So does argv with a "--", whose handling
    between parsers differs across Python versions."""

    commands: dict[str, argparse.ArgumentParser]

    def parse_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        direct = argv and namespace is None and "--" not in argv
        sub = self.commands.get(argv[0]) if direct else None
        if sub is not None:
            parsed, rest = sub.parse_known_args(argv[1:])
            if not rest:
                parsed.subcommand = argv[0]
                return parsed
        return super().parse_args(argv, namespace)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="netcode",
        description="Exact linear network codes over fields with delays.",
    )
    sub = ap.add_subparsers(
        dest="subcommand", required=True, parser_class=argparse.ArgumentParser
    )
    ap.commands = sub.choices
    for name, fn in (
        ("validate", _cmd_validate),
        ("mincut", _cmd_mincut),
        ("transfer", _cmd_transfer),
        ("simulate", _cmd_simulate),
        ("feasibility", _cmd_feasibility),
        ("transform", _cmd_transform),
        ("align", _cmd_align),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("input", help="input file or bundled fixture name")
        p.add_argument("-o", "--out", default=None, help="write report here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pretty", action="store_true", help="indented JSON")
        if name == "feasibility":
            p.add_argument("--find-plan", action="store_true")
            p.add_argument("--n-min", type=int, default=2)
        if name in ("feasibility", "transform"):
            p.add_argument("--max-ext-degree", type=int, default=12)
        if name in ("transform", "align"):
            p.add_argument("--n", type=int, default=None)
        if name == "align":
            p.add_argument("--budget", type=int, default=100)
            p.add_argument("--verify-only", action="store_true")
    return ap


def _check_counts(args) -> None:
    """ParseError for a count flag below 1, before any input is read."""
    for flag in ("max_ext_degree", "budget"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ParseError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")


# built on the first run call rather than at import, so importing the
# package stays cheap; parse_args keeps no state between calls
_PARSER: argparse.ArgumentParser | None = None


def run(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        _check_counts(args)
        return args.fn(args)
    except SearchExhausted as e:
        # a verdict on well-formed input, like an infeasible report
        return _fail(args, type(e).__name__, e, 1)
    except NetcodeError as e:  # ParseError, UnknownFixture and the library's errors
        return _fail(args, type(e).__name__, e, 2)
    except ValueError as e:
        return _fail(args, "ValueError", e, 2)


def _fail(args, error: str, e: Exception, code: int) -> int:
    """Report the error where the report would have gone, or on stdout if
    the -o file cannot be written; return the exit code."""
    text = _render({"error": error, "message": str(e)}, args.pretty)
    try:
        _write(text, args.out)
    except ParseError:
        _write(text, None)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
