"""Solvability analysis for delayed networks and transform-plan search.

A demand set is served by a code when two things hold: every undemanded
(source process, sink) pair sees an identically zero column in the
transfer blocks, and each sink's demanded columns form a square submatrix
M'_j(D) whose determinant is a nonzero polynomial. The product
f(D) = prod_j det M'_j(D) then decides transform feasibility: a block
length n with an order-n element alpha works exactly when f(alpha^t) != 0
for every 0 <= t < n, and such a plan exists in some extension exactly
when D - 1 does not divide f. Under a plan, sink j decodes generation t
exactly when its own factor det M'_j(D) is nonzero at alpha^(n-1-t).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .transform import TransformPlan, make_plan

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
    "generation_dets",
    "find_plan",
    "analyze",
]

# largest extension field find_plan searches
_MAX_FIELD = 1 << 20


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
    sink_of_row = [j for j, nu in enumerate(tr.nu_list) for _ in range(nu)]
    procs = [(i, l) for i, mu in enumerate(tr.mu_list) for l in range(mu)]
    heard = {(i, j, l) for j, row in zip(sink_of_row, tr.M.rows)
             for (i, l), p in zip(procs, row) if p}
    return sorted(heard - wanted)


def _sink_systems(tr: TransferResult, connections) -> list[tuple[range, list[int]]]:
    """Per sink: its rows of M and its demanded columns, ascending.

    A repeated demand repeats its column.
    """
    for c in connections:
        _check_demand(c, tr.mu_list, len(tr.nu_list))
    offsets = [sum(tr.mu_list[:i]) for i in range(len(tr.mu_list))]
    out, r0 = [], 0
    for j, nu_j in enumerate(tr.nu_list):
        cols = sorted(offsets[i] + l for (i, j2, l) in connections if j2 == j)
        out.append((range(r0, r0 + nu_j), cols))
        r0 += nu_j
    return out


def invertibility(tr: TransferResult, connections) -> list[tuple[list[int], Poly]]:
    """Per sink: demanded column selection and det M'_j(D) over F_q[D].

    The submatrix must be square (demand count equal to the sink's output
    count), else NonSquare. A zero determinant is returned as the zero
    polynomial, not raised.
    """
    out = []
    for j, (rows, cols) in enumerate(_sink_systems(tr, connections)):
        if len(cols) != len(rows):
            raise NonSquare(
                f"sink {j} reads {len(rows)} outputs but demands {len(cols)} processes"
            )
        out.append((cols, tr.M.submatrix(rows, cols).det()))
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


def _at_powers(polys: list[Poly], plan: TransformPlan) -> list[list[int]]:
    """Codes of each polynomial at alpha^k, k < n, in the plan's field."""
    lanes = [_lift(p.spec, plan.field, p.codes) for p in polys]
    return _dft(plan.field, lanes, plan.alpha.code, plan.n)


def check_plan(f: Poly, plan: TransformPlan) -> PlanCheck:
    """Evaluate f at every power of alpha; feasible iff all nonzero."""
    failing = tuple(t for t, v in enumerate(_at_powers([f], plan)[0]) if not v)
    return PlanCheck(not failing, failing)


def generation_dets(
    tr: TransferResult, connections, plan: TransformPlan
) -> list[tuple[int, int, FieldElement | None]]:
    """(t, j, det M'_j(alpha^(n-1-t))) by generation t, then demanding sink j.

    That is the determinant of sink j's demanded block of generation t's
    eigenblock, so sink j decodes generation t exactly when it is nonzero.
    It is None where the block is not square.
    """
    spec = plan.field
    return [
        (t, j, None if det is None else FieldElement(spec, det))
        for t, j, det in _generation_codes(tr, connections, plan)
    ]


def _generation_codes(tr: TransferResult, connections, plan: TransformPlan) -> list[tuple]:
    """generation_dets with each det as its code of plan.field."""
    systems = _sink_systems(tr, connections)
    demanding = [j for j, (_, cols) in enumerate(systems) if cols]
    square = [j for j in demanding if len(systems[j][1]) == len(systems[j][0])]
    dets = [tr.M.submatrix(*systems[j]).det() for j in square]
    vals = dict(zip(square, _at_powers(dets, plan)))
    n = plan.n
    return [
        (t, j, vals[j][n - 1 - t] if j in vals else None)
        for t in range(n) for j in demanding
    ]


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
        if q_a > _MAX_FIELD:
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
        f"{max_ext_degree} (field size capped at {_MAX_FIELD}) verified"
    )


# ----------------------------------------------------------------------
# report assembly
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
    inv = invertibility(tr, connections)  # checks every demand first
    viol = zero_interference(tr, connections)
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

