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

from .galois import (
    FieldElement,
    NetcodeError,
    Poly,
    build_field,
    element_of_order,
    spec_from_dict,
    spec_to_dict,
)
from .netmodel import (
    leks_from_dict,
    leks_to_dict,
    min_cut,
    network_from_dict,
    network_to_dict,
    normalize_delays,
    simulate,
    transfer_from_dict,
    transfer_matrix,
    transfer_to_dict,
    validate,
)
from .transform import eigen_blocks, make_plan
from .feasibility import FeasibilityReport, _demanded_columns, analyze
from .alignment import (
    NotFound,
    align_search,
    build_instance,
    check_alignment,
    encode_decode,
)

__all__ = ["ParseError", "UnknownFixture", "load_fixture", "run", "main"]

_FIXTURES = ("example1", "example2")


class ParseError(NetcodeError):
    pass


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


def _read_input(path: str) -> dict:
    """A real file wins; otherwise fall back to a bundled fixture stem."""
    import os

    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem in _FIXTURES:
        return load_fixture(stem)
    if os.sep in path or path.endswith(".json"):
        raise ParseError(f"{path}: no such file")
    raise UnknownFixture(f"no bundled fixture named {path!r}")


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
    doc = _read_input(path)
    _require(doc, need)
    return doc


def _load_transfer(path: str):
    """(transfer result, demand triples) from a transfer or network document."""
    doc = _read_input(path)
    if isinstance(doc, dict) and doc.get("kind") == "transfer":
        _require(doc, "transfer")
        tr = transfer_from_dict(doc["transfer"])
        return tr, [tuple(int(x) for x in c) for c in doc["connections"]]
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


def _emit(obj, args, lines: bool = False) -> None:
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        if lines and not args.pretty:
            for item in obj:
                out.write(json.dumps(item, sort_keys=True, separators=(",", ":")))
                out.write("\n")
        elif args.pretty:
            out.write(json.dumps(obj, indent=2, sort_keys=True))
            out.write("\n")
        else:
            out.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _poly_json(p: Poly) -> list[list[int]]:
    return [list(c.coeffs) for c in p.coeffs_elements()]


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
        out["f_at_one"] = list(rep.f_at_one.coeffs)
        out["d_minus_one_divides_f"] = rep.d_minus_one_divides
    if rep.plan is not None:
        out["plan"] = {
            "n": rep.plan.n,
            "field": spec_to_dict(rep.plan.field),
            "alpha": list(rep.plan.alpha.coeffs),
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
    cuts = [
        [min_cut(net, i, j) for j in range(len(net.sinks))]
        for i in range(len(net.sources))
    ]
    rep: dict = {"cuts": cuts}
    if len(net.sources) == len(net.sinks):
        rep["sessions"] = [cuts[i][i] for i in range(len(net.sources))]
    _emit(rep, args)
    return 0


def _cmd_transfer(args) -> int:
    doc = _load_doc(args.input, "network")
    net, leks = _net_and_leks(doc)
    tr = transfer_matrix(net, leks)
    if args.dump_normalized:
        nn, nl = normalize_delays(net, leks)
        with open(args.dump_normalized, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "kind": "network",
                    "network": network_to_dict(nn),
                    "kernels": leks_to_dict(nl),
                },
                fh,
                sort_keys=True,
                indent=2,
            )
            fh.write("\n")
    rep = transfer_to_dict(tr)
    rep["d_max"] = tr.d_max
    rep["entry_strs"] = [[p.format_str() for p in row] for row in tr.M.rows]
    _emit(rep, args)
    return 0


def _cmd_simulate(args) -> int:
    doc = _load_doc(args.input, "simulation")
    net, leks = _net_and_leks(doc)
    spec = leks.field
    inputs = [
        [[spec.element(c) for c in proc] for proc in gen] for gen in doc["inputs"]
    ]
    outs = simulate(net, leks, inputs, t_start=int(doc.get("t_start", 0)))
    _emit(
        {
            "outputs": [
                [[list(e.coeffs) for e in sink] for sink in step] for step in outs
            ]
        },
        args,
    )
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
    # evaluation happens in the smallest extension holding an order-n root
    spec = None
    base = tr.field
    for a in range(1, args.max_ext_degree + 1):
        if (base.p ** (base.m * a) - 1) % args.n == 0:
            spec = base if a == 1 else build_field(base.p, base.m * a)
            break
    if spec is None:
        raise ParseError(
            f"no extension of degree <= {args.max_ext_degree} has an "
            f"order-{args.n} element"
        )
    alpha = element_of_order(spec, args.n)
    plan = make_plan(args.n, spec, alpha, tr.d_max)
    blocks = eigen_blocks(tr.M, plan)

    # demanded square submatrix per demanding sink, as in the invertibility test
    demanded = {}
    for j in sorted({j for (_, j, _) in conns}):
        r0 = sum(tr.nu_list[:j])
        demanded[j] = (range(r0, r0 + tr.nu_list[j]), _demanded_columns(tr, conns, j))

    lines = []
    all_ok = True
    for t in range(plan.n):
        for j, (rows, cols) in demanded.items():
            sub = blocks[t].submatrix(rows, cols)
            det = sub.det() if sub.nrows == sub.ncols else None
            solvable = bool(det) if det is not None else False
            all_ok = all_ok and solvable
            lines.append(
                {
                    "t": t,
                    "sink": j,
                    "det": list(det.coeffs) if det is not None else None,
                    "solvable": solvable,
                }
            )
    _emit(lines, args, lines=True)
    return 0 if all_ok else 1


def _cmd_align(args) -> int:
    doc = _load_doc(args.input, "network")
    net, leks = _net_and_leks(doc, need_kernels=False)
    n = args.n if args.n is not None else doc.get("align", {}).get("n")
    if n is None:
        raise ParseError("--n is required (no align.n in the input)")
    n = int(n)

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
    widths = (n + 1, n, inst.N if inst.category == "cat4" else n)
    xs = [
        [FieldElement(inst.field, rng.randrange(inst.field.q)) for _ in range(w)]
        for w in widths
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
        "alpha": list(inst.plan.alpha.coeffs),
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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netcode",
        description="Exact linear network codes over fields with delays.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
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
        if name == "transfer":
            p.add_argument("--dump-normalized", default=None, metavar="PATH")
    return ap


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UnknownFixture) as e:
        _emit({"error": type(e).__name__, "message": str(e)}, args)
        return 2
    except NetcodeError as e:
        _emit({"error": type(e).__name__, "message": str(e)}, args)
        return 2
    except ValueError as e:
        _emit({"error": "ValueError", "message": str(e)}, args)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
