"""Solvability analysis for delayed networks and transform-plan search.

A demand set is served by a code when two things hold: every undemanded
(source process, sink) pair sees an identically zero column in the
transfer blocks, and each sink's demanded columns form a square submatrix
M'_j(D) whose determinant is a nonzero polynomial. The product
f(D) = prod_j det M'_j(D) then decides transform feasibility: a block
length n with an order-n element alpha works exactly when f(alpha^t) != 0
for every 0 <= t < n, and such a plan exists in some extension exactly
when D - 1 does not divide f.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .galois import (
    FieldElement,
    NetcodeError,
    Poly,
    build_field,
    element_of_order,
    _dft,
    _factorint,
    _lift,
)
from .netmodel import TransferResult, _check_demand
from .transform import TransformPlan, eigen_blocks, make_plan

__all__ = [
    "NonSquare",
    "ZeroDeterminant",
    "Unfixable",
    "SearchExhausted",
    "FeasibilityReport",
    "PlanCheck",
    "zero_interference",
    "invertibility",
    "compute_f",
    "check_plan",
    "find_plan",
    "nontransform_equivalence",
    "analyze",
]

Connections = frozenset | set | list | tuple


class NonSquare(NetcodeError):
    pass


class ZeroDeterminant(NetcodeError):
    pass


class Unfixable(NetcodeError):
    pass


class SearchExhausted(NetcodeError):
    pass


# ----------------------------------------------------------------------
# condition checks
# ----------------------------------------------------------------------


def zero_interference(tr: TransferResult, connections) -> list[tuple[int, int, int]]:
    """Undemanded (source, sink, process) triples whose column is nonzero.

    An empty list means no sink ever hears a process it did not ask for.
    """
    wanted = {(i, j, l) for (i, j, l) in connections}
    violations = []
    for j in range(len(tr.nu_list)):
        for i in range(len(tr.mu_list)):
            blk = tr.block(i, j)
            for l in range(tr.mu_list[i]):
                if (i, j, l) in wanted:
                    continue
                if any(blk.entry(r, l) for r in range(tr.nu_list[j])):
                    violations.append((i, j, l))
    return sorted(violations)


def _demanded_columns(tr: TransferResult, connections, j: int) -> list[int]:
    for c in connections:
        _check_demand(c, tr.mu_list, len(tr.nu_list))
    offsets = [sum(tr.mu_list[:i]) for i in range(len(tr.mu_list))]
    return sorted(offsets[i] + l for (i, j2, l) in connections if j2 == j)


def invertibility(tr: TransferResult, connections) -> list[tuple[list[int], Poly]]:
    """Per sink: demanded column selection and det M'_j(D) over F_q[D].

    The submatrix must be square (demand count equal to the sink's output
    count), else NonSquare. A zero determinant is returned as the zero
    polynomial, not raised.
    """
    out = []
    for j, nu_j in enumerate(tr.nu_list):
        cols = _demanded_columns(tr, connections, j)
        if len(cols) != nu_j:
            raise NonSquare(
                f"sink {j} reads {nu_j} outputs but demands {len(cols)} processes"
            )
        r0 = sum(tr.nu_list[:j])
        sub = tr.M.submatrix(range(r0, r0 + nu_j), cols)
        out.append((cols, sub.det()))
    return out


def compute_f(dets: list[Poly]) -> tuple[Poly, bool]:
    """Product of the per-sink determinants and the (D-1) | f flag.

    The flag is equivalent to f(1) = 0. Any zero determinant makes the
    product meaningless and raises ZeroDeterminant.
    """
    if not dets:
        raise ValueError("no determinants given")
    spec = dets[0].spec
    f = Poly.one(spec)
    for j, d in enumerate(dets):
        if not d:
            raise ZeroDeterminant(f"sink {j} has a zero determinant")
        f = f * d
    return f, not _at_one(f)


def _at_one(f: Poly) -> FieldElement:
    """f(1), the one-point transform of f."""
    return FieldElement(f.spec, _dft(f.spec, [f.codes], 1, 1)[0][0])


@dataclass(frozen=True)
class PlanCheck:
    ok: bool
    failing: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_plan(f: Poly, plan: TransformPlan) -> PlanCheck:
    """Evaluate f at every power of alpha; feasible iff all nonzero."""
    lane = _lift(f.spec, plan.field, f.codes)
    vals = _dft(plan.field, [lane], plan.alpha.code, plan.n)[0]
    failing = tuple(t for t, v in enumerate(vals) if not v)
    return PlanCheck(not failing, failing)


# ----------------------------------------------------------------------
# plan search
# ----------------------------------------------------------------------


def _divisors_ascending(n: int) -> list[int]:
    facs = _factorint(n)
    divs = [1]
    for prime, exp in facs.items():
        divs = [d * prime**e for d in divs for e in range(exp + 1)]
    return sorted(divs)


def find_plan(
    f: Poly,
    n_min: int = 2,
    d_max: int | None = None,
    max_ext_degree: int = 12,
    max_n: int = 4096,
    max_field: int = 1 << 20,
) -> TransformPlan:
    """Smallest verified transform plan for the product polynomial f.

    Tries extension degrees a = 1, 2, ... over f's field; within each,
    divisors n >= n_min of p^(m a) - 1 in ascending order; the candidate
    alpha is the deterministic element of order n. The first plan passing
    check_plan wins, which makes the output reproducible. f(1) = 0 means
    no block length can ever work (every n has alpha^0 = 1 as a root of
    unity) and raises Unfixable immediately.
    """
    spec = f.spec
    if not _at_one(f):
        raise Unfixable("f(1) = 0: every block length hits the root at 1")
    if d_max is None:
        d_max = max(n_min - 1, 0)
    for a in range(1, max_ext_degree + 1):
        q_a = spec.p ** (spec.m * a)
        if q_a > max_field:
            break
        ext = spec if a == 1 else build_field(spec.p, spec.m * a)
        for n in _divisors_ascending(q_a - 1):
            if n < n_min or n <= d_max or n > max_n:
                continue
            alpha = element_of_order(ext, n)
            plan = make_plan(n, ext, alpha, d_max)
            if check_plan(f, plan).ok:
                return plan
    raise SearchExhausted(
        f"no block length up to {max_n} in extensions of degree up to "
        f"{max_ext_degree} (field size capped at {max_field}) verified"
    )


# ----------------------------------------------------------------------
# report assembly and the equivalence check
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    zero_interference_violations: tuple[tuple[int, int, int], ...]
    column_selection: tuple[tuple[int, ...], ...]
    dets: tuple[Poly, ...]
    f: Poly | None
    f_at_one: FieldElement | None
    d_minus_one_divides: bool | None
    feasible: bool
    plan: TransformPlan | None = None


def analyze(
    tr: TransferResult,
    connections,
    find: bool = False,
    n_min: int = 2,
    max_ext_degree: int = 12,
) -> FeasibilityReport:
    """Full pass: interference, invertibility, f, optionally a plan."""
    viol = zero_interference(tr, connections)
    inv = invertibility(tr, connections)
    cols = tuple(tuple(c) for c, _ in inv)
    dets = tuple(d for _, d in inv)
    f = f1 = None
    divides = None
    feasible = not viol and all(bool(d) for d in dets)
    if feasible:
        f, divides = compute_f(list(dets))
        f1 = _at_one(f)
    plan = None
    if find and feasible and f is not None and f1:
        plan = find_plan(
            f,
            n_min=max(n_min, tr.d_max + 1),
            d_max=tr.d_max,
            max_ext_degree=max_ext_degree,
        )
    return FeasibilityReport(tuple(viol), cols, dets, f, f1, divides, feasible, plan)


def nontransform_equivalence(
    tr: TransferResult,
    connections,
    plan: TransformPlan | None = None,
    n_min: int = 2,
) -> dict:
    """Check both directions of the feasibility equivalence on an instance.

    Forward: a working delay-domain code with f(1) != 0 admits a verified
    transform plan (found by search when none is supplied). Backward: for
    the plan's eigenblocks, the generation evaluating at D = 1 is
    nonsingular per sink, and a column is zero in every eigenblock exactly
    when it is zero at every delay lag (the two codes silence the same
    interference).
    """
    report: dict = {}
    viol = zero_interference(tr, connections)
    inv = invertibility(tr, connections)
    dets = [d for _, d in inv]
    nontransform_ok = not viol and all(bool(d) for d in dets)
    report["nontransform_feasible"] = nontransform_ok
    if not nontransform_ok:
        report["forward"] = {"ok": False, "reason": "no feasible delay-domain code"}
        return report
    f, divides = compute_f(dets)
    report["f_divisible_by_D_minus_1"] = divides
    if divides:
        report["forward"] = {"ok": False, "reason": "f(1) = 0"}
        return report
    if plan is None:
        plan = find_plan(f, n_min=max(n_min, tr.d_max + 1), d_max=tr.d_max)
    report["forward"] = {
        "ok": check_plan(f, plan).ok,
        "n": plan.n,
        "ext_degree": plan.field.m // tr.field.m,
    }

    # backward: evaluate the eigenblocks and compare structural zeros
    evals = eigen_blocks(tr.M, plan)
    det_at_one_ok = []
    for j, nu_j in enumerate(tr.nu_list):
        cols = _demanded_columns(tr, connections, j)
        r0 = sum(tr.nu_list[:j])
        # alpha^(n-1-t) = 1 at t = n-1: that generation is M'_j(1)
        sub = evals[-1].submatrix(range(r0, r0 + nu_j), cols)
        det_at_one_ok.append(bool(sub.det()))
    cells = [(r, c) for r in range(tr.nu) for c in range(tr.mu)]
    zero_delay = {(r, c) for r, c in cells if not tr.M.rows[r][c]}
    zero_eigen = {(r, c) for r, c in cells if not any(ev.rows[r][c] for ev in evals)}
    match = zero_delay == zero_eigen
    report["backward"] = {
        "det_at_one_nonzero": det_at_one_ok,
        "zero_pattern_match": match,
        "ok": all(det_at_one_ok) and match,
    }
    report["ok"] = bool(report["forward"]["ok"] and report["backward"]["ok"])
    return report
