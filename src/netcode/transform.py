"""Block-circulant transforms: DFT diagonalization and the cyclic prefix.

Convention used throughout: stacked generation vectors are newest-first,
[X(n-1); ...; X(0)]. Under that stacking the kept channel outputs are the
realized block circulant times the stacked DFT-domain inputs, and the
circulant factors exactly as Q_nu . blockdiag(Mhat(n-1), ..., Mhat(0)) .
Q_mu^{-1} with Mhat(t) the polynomial evaluation M(alpha^(n-1-t)) and
Q_mu = F kron I_mu. Per-generation lists exposed by this module are in
natural order (index t is generation t); only the internal stacking is
reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .galois import (
    FieldElement,
    FieldSpec,
    FqMatrix,
    NetcodeError,
    PolyMatrix,
    dft_matrix,
    inverse_dft_matrix,
    multiplicative_order,
    poly_eval_matrix,
)
from .netmodel import LekAssignment, NetworkSpec, TransferResult, simulate, transfer_matrix

__all__ = [
    "BlockTooLong",
    "WindowMismatch",
    "SingularAtGeneration",
    "TransformPlan",
    "BlockCirculant",
    "make_plan",
    "build_circulant",
    "diagonalize",
    "eigen_blocks",
    "cp_encode",
    "cp_decode",
    "instantaneous_solve",
    "run_pipeline",
]


class BlockTooLong(NetcodeError):
    pass


class WindowMismatch(NetcodeError):
    pass


class SingularAtGeneration(NetcodeError):
    def __init__(self, t: int, message: str | None = None):
        self.t = t
        super().__init__(message or f"decode system singular at generation {t}")


# ----------------------------------------------------------------------
# plan and circulant containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TransformPlan:
    """Block length n, operating field, and the order-n element alpha.

    Valid plans have n dividing q-1 (hence gcd(n, p) = 1) and n > d_max,
    where d_max is the channel's normalized memory.
    """

    n: int
    field: FieldSpec
    alpha: FieldElement
    d_max: int


def make_plan(n: int, field: FieldSpec, alpha: FieldElement, d_max: int) -> TransformPlan:
    if n < 1:
        raise ValueError("block length must be positive")
    if (field.q - 1) % n != 0:
        raise ValueError(f"{n} does not divide q-1 = {field.q - 1}")
    if n <= d_max:
        raise BlockTooLong(f"block length {n} must exceed d_max = {d_max}")
    if alpha.spec != field:
        raise ValueError("alpha not in the operating field")
    if not alpha or multiplicative_order(alpha) != n:
        raise ValueError(f"alpha must have multiplicative order exactly {n}")
    return TransformPlan(n, field, alpha, d_max)


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
    nu, mu = pm.shape
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


def eigen_blocks(pm: PolyMatrix, plan: TransformPlan) -> list[FqMatrix]:
    """Mhat(t) = M(alpha^(n-1-t)) for t = 0 .. n-1, natural order."""
    out = []
    for t in range(plan.n):
        x = plan.alpha ** (plan.n - 1 - t)
        out.append(poly_eval_matrix(pm, x))
    return out


def diagonalize(C: BlockCirculant, plan: TransformPlan) -> list[FqMatrix]:
    """Eigenblocks of a circulant: Mhat(t) = sum_d A_d alpha^((n-1-t) d).

    Returned in natural generation order. Satisfies the exact identity
    C.realized = Q_nu . blockdiag(Mhat(n-1), ..., Mhat(0)) . Q_mu^{-1}.
    """
    if C.n != plan.n:
        raise ValueError(f"circulant built for n = {C.n}, plan has n = {plan.n}")
    spec = C.realized.spec
    out = []
    for t in range(plan.n):
        x = plan.alpha ** (plan.n - 1 - t)
        acc = FqMatrix.zeros(spec, C.nu, C.mu)
        xp = spec.one()
        for A in C.blocks:
            acc = acc + A.scale(xp)
            xp = xp * x
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# cyclic-prefix pipeline
# ----------------------------------------------------------------------


def _dft_apply(plan: TransformPlan, gens: Sequence[Sequence[FieldElement]], invert: bool) -> list[list[FieldElement]]:
    """Apply Q_m (or its inverse) to n generations of m-vectors.

    gens is in natural order; the kron structure means output generation t
    mixes input generations componentwise, never across vector positions.
    """
    n = plan.n
    if len(gens) != n:
        raise WindowMismatch(f"expected {n} generations, got {len(gens)}")
    width = len(gens[0])
    spec = plan.field
    F = inverse_dft_matrix(plan.alpha, n) if invert else dft_matrix(plan.alpha, n)
    mul, add = spec._mul_codes, spec._add_codes
    # stacked position of generation t is n-1-t; fold that into the index math
    out: list[list[int]] = [[0] * width for _ in range(n)]
    for t_out in range(n):
        r = n - 1 - t_out
        frow = F.rows[r]
        orow = out[t_out]
        for t_in in range(n):
            f = frow[n - 1 - t_in]
            if f:
                grow = gens[t_in]
                for w in range(width):
                    g = grow[w]
                    if g.code:
                        orow[w] = add(orow[w], mul(f, g.code))
    return [[FieldElement(spec, c) for c in row] for row in out]


def cp_encode(plan: TransformPlan, gens: Sequence[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """DFT across n generations, then prepend the cyclic prefix.

    gens holds n generations (natural order) of one source's symbol
    vectors. The transmission has n + d_max slots: the last d_max
    DFT-domain generations first, then all n in order.
    """
    primed = _dft_apply(plan, gens, invert=False)
    return primed[plan.n - plan.d_max :] + primed


def cp_decode(plan: TransformPlan, slots: Sequence[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """Discard the first d_max received slots, inverse-DFT the rest.

    slots is one sink's output over the n + d_max transmission slots,
    aligned so that slot k carries the channel response at raw time
    d_prime_min + k. The result is the per-generation stream Y(t)
    satisfying Y(t) = sum_i Mhat_ij(t) X_i(t).
    """
    if len(slots) != plan.n + plan.d_max:
        raise WindowMismatch(
            f"expected {plan.n + plan.d_max} slots, got {len(slots)}"
        )
    kept = list(slots[plan.d_max :])
    return _dft_apply(plan, kept, invert=True)


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
    cols = []
    for (i, l) in demands:
        cols.append([blocks[i].rows[r][l] for r in range(nu)])
    M = FqMatrix(spec, [[cols[c][r] for c in range(nu)] for r in range(nu)])
    rhs = FqMatrix(spec, [[sym.code] for sym in y])
    try:
        sol = M.solve(rhs)
    except ValueError as exc:
        raise SingularAtGeneration(t, f"generation {t}: {exc}") from None
    return [sol.entry(r, 0) for r in range(nu)]


def run_pipeline(
    net: NetworkSpec,
    leks: LekAssignment,
    plan: TransformPlan,
    inputs: Sequence[Sequence[Sequence[FieldElement]]],
    transfer: TransferResult | None = None,
) -> list[list[list[FieldElement]]]:
    """Full chain: cp_encode each source, simulate, slice, cp_decode.

    inputs[i] holds source i's n generations. Returns decoded[j], sink
    j's n generations of nu_j-vectors, each equal to
    sum_i Mhat_ij(t) X_i(t) when the plan matches the channel.
    """
    tr = transfer if transfer is not None else transfer_matrix(net, leks)
    if plan.d_max < tr.d_max:
        raise BlockTooLong(
            f"plan.d_max = {plan.d_max} below channel memory {tr.d_max}"
        )
    n, d_max = plan.n, plan.d_max
    spec = plan.field
    if len(inputs) != len(net.sources):
        raise ValueError("one generation list per source expected")
    tx = [cp_encode(plan, gens) for gens in inputs]
    horizon = tr.d_prime_min + n + d_max
    zero_vec = [
        [spec.zero()] * src.processes for src in net.sources
    ]
    series = []
    for slot in range(horizon):
        if slot < n + d_max:
            series.append([tx[i][slot] for i in range(len(net.sources))])
        else:
            series.append([vec[:] for vec in zero_vec])
    outs = simulate(net, leks, series)
    decoded = []
    for j in range(len(net.sinks)):
        sliced = [
            outs[tr.d_prime_min + k][j] for k in range(n + d_max)
        ]
        decoded.append(cp_decode(plan, sliced))
    return decoded
