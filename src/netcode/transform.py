"""The block-circulant transform: eigenblocks and the cyclic-prefix pipeline.

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
from itertools import islice
from typing import Sequence

from .galois import (
    FieldElement,
    FieldSpec,
    FqMatrix,
    NetcodeError,
    PolyMatrix,
    _dft,
    _factorint,
    _lift,
)
from .netmodel import LekAssignment, NetworkSpec, TransferResult, _window, transfer_matrix
from .netmodel import _check_codes

__all__ = [
    "BlockTooLong",
    "WindowMismatch",
    "TransformPlan",
    "make_plan",
    "eigen_blocks",
    "cp_encode",
    "cp_decode",
    "run_pipeline",
]


class BlockTooLong(NetcodeError):
    pass


class WindowMismatch(NetcodeError):
    pass


# ----------------------------------------------------------------------
# transform plans
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
    # alpha^n = 1 and alpha^(n/r) != 1 for each prime r | n, not the full order
    a, power = alpha._valid(), field._pow_code
    if not a or power(a, n) != 1 or any(power(a, n // r) == 1 for r in _factorint(n)):
        raise ValueError(f"alpha must have multiplicative order exactly {n}")
    return TransformPlan(n, field, alpha, d_max)


def eigen_blocks(pm: PolyMatrix, plan: TransformPlan) -> list[FqMatrix]:
    """Mhat(t) = M(alpha^(n-1-t)) for t = 0 .. n-1, natural order.

    pm may live in a subfield of the plan's field.
    """
    spec, w = plan.field, pm.ncols
    lanes = [_lift(pm.spec, spec, p.codes) for row in pm.rows for p in row]
    vals = _dft(spec, lanes, plan.alpha.code, plan.n)
    return [
        FqMatrix(spec, [[v[k] for v in vals[r * w : r * w + w]] for r in range(pm.nrows)])
        for k in reversed(range(plan.n))
    ]


# ----------------------------------------------------------------------
# cyclic-prefix pipeline
# ----------------------------------------------------------------------


def _dft_apply(
    plan: TransformPlan, lanes: Sequence[Sequence[int]], invert: bool
) -> list[list[int]]:
    """Apply Q_m (or its inverse) to n generations of m-vectors held as lanes.

    lanes[w][t] is the code of symbol w of generation t, in natural order,
    and so is the result: the kron structure means output generation t
    mixes input generations componentwise, never across vector positions.
    """
    n, spec = plan.n, plan.field
    a, scale = plan.alpha.code, 1
    if invert:
        a, scale = spec._inv_code(a), spec._inv_code(n % spec.p)
    # the stacked position of generation t is n-1-t, so a lane's
    # coefficient c is generation n-1-c, and output generation t is its
    # transform at power n-1-t
    vals = _dft(spec, [lane[::-1] for lane in lanes], a, n, scale)
    return [v[::-1] for v in vals]


def _lanes(
    plan: TransformPlan, gens: Sequence, owner: str = "source 0", width=None, step="step {}".format
) -> list[list[int]]:
    """n generations of symbol vectors as lanes: lane w holds symbol w of each.

    Every symbol must be a code of the plan's field, and every generation
    hold width symbols (by default as many as the first); the refusals are
    simulate's, generation t read as step(t) and its vector as owner's.
    """
    if len(gens) != plan.n:
        raise WindowMismatch(f"expected {plan.n} generations, got {len(gens)}")
    spec = plan.field
    if any(sym.spec is not spec and sym.spec != spec for g in gens for sym in g):
        raise ValueError("input symbol from a different field")
    width = len(gens[0]) if width is None else width
    for t, g in enumerate(gens):
        if len(g) != width:
            raise ValueError(f"{step(t)}: {owner} expects {width} symbols")
    codes = [sym.code for g in gens for sym in g]
    _check_codes(codes, spec, width, step)
    return [codes[w::width] for w in range(width)]


def _gens(spec: FieldSpec, lanes: Sequence[Sequence[int]], count: int) -> list[list[FieldElement]]:
    """The first count generations of lanes as symbol vectors."""
    return [[FieldElement(spec, lane[t]) for lane in lanes] for t in range(count)]


def cp_encode(plan: TransformPlan, gens: Sequence[Sequence[FieldElement]]) -> list[list[FieldElement]]:
    """DFT across n generations, then prepend the cyclic prefix.

    gens holds n generations (natural order) of one source's symbol
    vectors, as long as the first and of the plan's field (else
    ValueError). The transmission has n + d_max slots: the last d_max
    DFT-domain generations first, then all n in order.
    """
    n, d_max = plan.n, plan.d_max
    primed = _dft_apply(plan, _lanes(plan, gens), invert=False)
    return _gens(plan.field, [lane[n - d_max :] + lane for lane in primed], n + d_max)


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
    kept = _lanes(plan, slots[plan.d_max :], "sink", step=lambda t: f"slot {t + plan.d_max}")
    return _gens(plan.field, _dft_apply(plan, kept, invert=True), plan.n)


def _pipeline(
    net: NetworkSpec, leks: LekAssignment, plan: TransformPlan, lanes: Sequence, tr: TransferResult
) -> list[list[int]]:
    """run_pipeline's chain on checked codes: each flat sink output's n codes.

    lanes holds one lane per flat source process, its n generations of
    codes in natural order, and tr is transfer_matrix(net, leks). One DFT
    over every source lane, one simulation of the transmission window and
    one inverse DFT over every sink lane.
    """
    n, d_max = plan.n, plan.d_max
    primed = _dft_apply(plan, lanes, invert=False)
    # transmission slot k goes out at step k, and its response reaches the
    # sinks d_prime_min steps later; the window ends with the last one
    horizon = tr.d_prime_min + n + d_max
    pad = [0] * tr.d_prime_min
    series = [lane[n - d_max :] + lane + pad for lane in primed]
    outs = _window(net, leks, 0, horizon)(series)
    # the responses to the cyclic prefix are dropped with the steps before them
    return _dft_apply(plan, [row[horizon - n :] for row in outs], invert=True)


def run_pipeline(
    net: NetworkSpec,
    leks: LekAssignment,
    plan: TransformPlan,
    inputs: Sequence[Sequence[Sequence[FieldElement]]],
) -> list[list[list[FieldElement]]]:
    """Full chain: cp_encode each source, simulate, slice, cp_decode.

    inputs[i] holds source i's n generations. Returns decoded[j], sink
    j's n generations of nu_j-vectors, each equal to
    sum_i Mhat_ij(t) X_i(t) when the plan matches the channel. The chain
    runs on codes (_pipeline) through transfer_matrix(net, leks).
    """
    net._edge_order  # validates the network before any other check
    tr = transfer_matrix(net, leks)
    if plan.d_max < tr.d_max:
        raise BlockTooLong(
            f"plan.d_max = {plan.d_max} below channel memory {tr.d_max}"
        )
    if len(inputs) != len(net.sources):
        raise ValueError("one generation list per source expected")
    lanes = []
    for i, (gens, src) in enumerate(zip(inputs, net.sources)):
        lanes += _lanes(plan, gens, f"source {i}", src.processes)
    if plan.field != leks.field:
        raise ValueError("input symbol from a different field")
    rows = iter(_pipeline(net, leks, plan, lanes, tr))
    return [_gens(plan.field, list(islice(rows, snk.outputs)), plan.n) for snk in net.sinks]
