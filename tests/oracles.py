"""Reference constructions the tests compare the package against.

The paper's transform DFT-diagonalises the block circulant of M(D); the
package computes each eigenblock Mhat(t) directly (transform.eigen_blocks,
transform.run_pipeline). This module keeps the derivation itself: the
circulant, its diagonalisation, the DFT matrices Q and the per-generation
decode solve, plus the plain transfer tree and the flat input and output
offsets of a network, and the trial-division irreducibility test that
chose the default moduli before Ben-Or's test did. It also holds a field's
fixed generator and an element's multiplicative order, found by powering,
and nontransform_equivalence, which checks the paper's first claim on an
instance: with f(1) != 0, a delay-domain code exists exactly when a
transform code does. The search over categories and relabelings that
detect_category ran before it read a table is here too. None of it runs
in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from netcode.alignment import _CATEGORY_PATTERNS, _PERMUTATIONS, UnsupportedPattern
from netcode.feasibility import _sink_systems, analyze, check_plan
from netcode.galois import (
    FieldElement,
    FieldSpec,
    FqMatrix,
    NetcodeError,
    Poly,
    PolyMatrix,
    _dft,
    _factorint,
    spec_to_dict,
)
from netcode.netmodel import NetworkSpec, TransferResult
from netcode.transform import BlockTooLong, TransformPlan, eigen_blocks

# ----------------------------------------------------------------------
# irreducible polynomials
# ----------------------------------------------------------------------


def trial_division_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Whether the monic polynomial coeffs over GF(p), lowest power first,
    is irreducible: no monic polynomial of degree 1 to deg / 2 divides it."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            div = [low // p**i % p for i in range(d)] + [1]
            rem = list(coeffs)
            for shift in range(deg - d, -1, -1):
                c = rem[shift + d]
                for i, b in enumerate(div):
                    rem[shift + i] = (rem[shift + i] - c * b) % p
            if not any(rem):
                return False
    return deg >= 1


# ----------------------------------------------------------------------
# generators and orders
# ----------------------------------------------------------------------


def generator(spec: FieldSpec) -> FieldElement:
    """The fixed generator: the primitive element with the smallest encoding."""
    return FieldElement(spec, spec._gen_code)


def multiplicative_order(elem: FieldElement) -> int:
    """elem's order: strip each prime r of q - 1 from q - 1 while elem^(order / r) = 1."""
    spec, a = elem.spec, elem.code
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    order = spec.q - 1
    for r in _factorint(spec.q - 1):
        while order % r == 0 and spec._pow_code(a, order // r) == 1:
            order //= r
    return order


# ----------------------------------------------------------------------
# DFT matrices
# ----------------------------------------------------------------------


class WrongOrder(NetcodeError):
    pass


class CharacteristicDividesN(NetcodeError):
    pass


def _check_dft_args(alpha: FieldElement, n: int) -> None:
    if n < 1:
        raise ValueError("transform length must be positive")
    if n % alpha.spec.p == 0:
        raise CharacteristicDividesN(f"characteristic {alpha.spec.p} divides {n}")
    if not alpha or multiplicative_order(alpha) != n:
        raise WrongOrder(f"alpha must have multiplicative order exactly {n}")


def dft_matrix(alpha: FieldElement, n: int) -> FqMatrix:
    """The n-point transform matrix [alpha^(ij)]: the transform of the identity."""
    _check_dft_args(alpha, n)
    eye = FqMatrix.identity(alpha.spec, n).rows
    return FqMatrix(alpha.spec, _dft(alpha.spec, eye, alpha.code, n))


def inverse_dft_matrix(alpha: FieldElement, n: int) -> FqMatrix:
    """Exact inverse of dft_matrix(alpha, n): (1/n) [alpha^(-ij)]."""
    _check_dft_args(alpha, n)
    spec = alpha.spec
    a_inv, n_inv = spec._inv_code(alpha.code), spec._inv_code(n % spec.p)
    return FqMatrix(spec, _dft(spec, FqMatrix.identity(spec, n).rows, a_inv, n, n_inv))


def poly_matrix(entries: Sequence[Sequence[Poly]]) -> PolyMatrix:
    """A PolyMatrix over the field of its entries, which must all share it."""
    if not entries or not entries[0]:
        raise ValueError("need at least one entry")
    spec = entries[0][0].spec
    if any(e.spec != spec for row in entries for e in row):
        raise ValueError("mixed fields")
    return PolyMatrix(spec, [list(row) for row in entries])


# ----------------------------------------------------------------------
# the block circulant and its diagonalisation
# ----------------------------------------------------------------------


class SingularAtGeneration(NetcodeError):
    def __init__(self, t: int, message: str | None = None):
        self.t = t
        super().__init__(message or f"decode system singular at generation {t}")


@dataclass(frozen=True)
class BlockCirculant:
    """n x n grid of nu x mu blocks, entry (r, c) = A_((c-r) mod n)."""

    n: int
    blocks: tuple[FqMatrix, ...]  # A_0 ... A_L, lags above L are zero
    realized: FqMatrix
    nu: int
    mu: int


def build_circulant(pm: PolyMatrix, n: int) -> BlockCirculant:
    """Lay the lag matrices of a polynomial block out as a circulant.

    First block row is [A_0, A_1, ..., A_L, 0, ..., 0]; every following
    row is the circular right shift of the one above.
    """
    L = max(pm.max_degree(), 0)
    if L >= n:
        raise BlockTooLong(f"entry degree {L} needs block length > {L}, got {n}")
    spec = pm.spec
    nu, mu = pm.nrows, pm.ncols
    blocks = tuple(pm.coeff_matrix(d) for d in range(L + 1))
    zero = FqMatrix.zeros(spec, nu, mu)
    rows: list[list[int]] = []
    for r in range(n):
        block_row = []
        for c in range(n):
            d = (c - r) % n
            block_row.append(blocks[d] if d <= L else zero)
        for local in range(nu):
            rows.append(sum((b.rows[local] for b in block_row), []))
    return BlockCirculant(n, blocks, FqMatrix(spec, rows), nu, mu)


def diagonalize(C: BlockCirculant, plan: TransformPlan) -> list[FqMatrix]:
    """Eigenblocks of a circulant: Mhat(t) = sum_d A_d alpha^((n-1-t) d).

    Returned in natural generation order. Satisfies the exact identity
    C.realized = Q_nu . blockdiag(Mhat(n-1), ..., Mhat(0)) . Q_mu^{-1}.
    """
    if C.n != plan.n:
        raise ValueError(f"circulant built for n = {C.n}, plan has n = {plan.n}")
    spec = C.realized.spec
    lags = [
        [Poly(spec, [A.rows[r][c] for A in C.blocks]) for c in range(C.mu)]
        for r in range(C.nu)
    ]
    return eigen_blocks(PolyMatrix(spec, lags), plan)


def instantaneous_solve(
    blocks: Sequence[FqMatrix],
    demands: Sequence[tuple[int, int]],
    y: Sequence[FieldElement],
    t: int = 0,
) -> list[FieldElement]:
    """Solve one generation's square decode system at a sink.

    blocks[i] is Mhat_ij(t) for source i (nu_j x mu_i); demands lists the
    (source, process) pairs this sink must recover, one per output. Under
    zero interference the demanded columns form a square system; its
    unique solution is returned in demand order.
    """
    if not blocks:
        raise ValueError("need at least one source block")
    spec = blocks[0].spec
    nu = blocks[0].nrows
    if len(demands) != nu:
        raise ValueError(
            f"square decode needs exactly {nu} demands, got {len(demands)}"
        )
    M = FqMatrix(spec, [[blocks[i].rows[r][l] for (i, l) in demands] for r in range(nu)])
    rhs = FqMatrix(spec, [[sym.code] for sym in y])
    try:
        sol = M.solve(rhs)
    except ValueError as exc:
        raise SingularAtGeneration(t, f"generation {t}: {exc}") from None
    return [sol.entry(r, 0) for r in range(nu)]


# ----------------------------------------------------------------------
# the feasibility equivalence
# ----------------------------------------------------------------------


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
    rep = analyze(tr, connections, find=plan is None, n_min=n_min)
    report: dict = {"nontransform_feasible": rep.feasible}
    if not rep.feasible:
        report["forward"] = {"ok": False, "reason": "no feasible delay-domain code"}
        return report
    report["f_divisible_by_D_minus_1"] = rep.d_minus_one_divides
    if rep.d_minus_one_divides:
        report["forward"] = {"ok": False, "reason": "f(1) = 0"}
        return report
    plan = plan or rep.plan
    report["forward"] = {
        "ok": check_plan(rep.f, plan).ok,
        "n": plan.n,
        "ext_degree": plan.field.m // tr.field.m,
    }

    # backward: evaluate the eigenblocks and compare structural zeros
    evals = eigen_blocks(tr.M, plan)
    # alpha^(n-1-t) = 1 at t = n-1: that generation is M'_j(1)
    det_at_one_ok = [
        bool(evals[-1].submatrix(rows, cols).det())
        for rows, cols in _sink_systems(tr, connections)
    ]
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


# ----------------------------------------------------------------------
# networks and transfer documents
# ----------------------------------------------------------------------


def input_offset(net: NetworkSpec, i: int) -> int:
    """Column of source i's first process in the flat input vector."""
    return sum(net.mu_list[:i])


def output_offset(net: NetworkSpec, j: int) -> int:
    """Row of sink j's first output in the flat output vector."""
    return sum(net.nu_list[:j])


def transfer_to_dict(tr: TransferResult) -> dict:
    """The transfer document tree that transfer_from_dict reads."""
    to_json = tr.field.codes_to_json
    entries = [[to_json(p.codes) for p in row] for row in tr.M.rows]
    return {
        "field": spec_to_dict(tr.field),
        "d_prime_min": tr.d_prime_min,
        "d_prime_max": tr.d_prime_max,
        "mu_list": list(tr.mu_list),
        "nu_list": list(tr.nu_list),
        "entries": entries,
    }


# ----------------------------------------------------------------------
# alignment categories
# ----------------------------------------------------------------------


def category_of_zeros(zero: set[tuple[int, int]]) -> tuple[str, tuple[int, int, int]]:
    """The first category and relabeling, in _CATEGORY_PATTERNS and
    _PERMUTATIONS order, under which the network's zero cross pairs zero
    (0-based (source, sink)) are the category's pattern; UnsupportedPattern
    when none is."""
    for cat, pattern in _CATEGORY_PATTERNS.items():
        for perm in _PERMUTATIONS:
            internal = {
                (a, b) for a in range(3) for b in range(3)
                if a != b and (perm[a], perm[b]) in zero
            }
            if internal == pattern:
                return cat, perm
    raise UnsupportedPattern(f"zero pattern {sorted(zero)} matches no known category")
