"""Three-session unicast alignment over networks with delay.

Everything here works in the eigenvalue domain: after the cyclic-prefix
transform with block length N = 2n+1, each scalar channel block becomes a
diagonal N x N matrix, stored as the N-vector of its polynomial values
M_ij(alpha^r), r = 0..N-1. Vectors are stacked newest-first, so position
r carries generation N-1-r and multiplies eigenvalue M_ij(alpha^r).

Session k of an instance is the network's session perm[k]: the zero-cut
categories are defined up to a simultaneous relabeling of (source, sink)
pairs and the detector picks the first relabeling that matches.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Sequence

from .galois import (
    FieldElement,
    FieldSpec,
    FqFactors,
    FqMatrix,
    NetcodeError,
    _dft,
    element_of_order,
)
from .netmodel import (
    LekAssignment,
    NetworkSpec,
    TransferResult,
    WindowUnderspecified,
    _check_codes,
    _cutter,
    _window,
    random_leks,
    transfer_matrix,
)
from .transform import TransformPlan, _pipeline, make_plan

__all__ = [
    "MinCutViolation",
    "CharacteristicDividesBlock",
    "NotFound",
    "SingularDecodeSystem",
    "SingularBlock",
    "UnsupportedPattern",
    "AlignmentInstance",
    "TvInstance",
    "DecodeResult",
    "SearchResult",
    "detect_category",
    "build_instance",
    "check_alignment",
    "align_search",
    "encode_decode",
    "build_tv",
    "check_tv",
    "tv_assignment_from_alignment",
]


class MinCutViolation(NetcodeError):
    pass


class CharacteristicDividesBlock(NetcodeError):
    pass


class NotFound(NetcodeError):
    pass


class SingularDecodeSystem(NetcodeError):
    pass


class SingularBlock(NetcodeError):
    pass


class UnsupportedPattern(NetcodeError):
    pass


# Zero cross-pair patterns per category, (source, sink) 0-based, in the
# instance's internal session order.
_CATEGORY_PATTERNS: dict[str, frozenset[tuple[int, int]]] = {
    "full": frozenset(),
    "cat1": frozenset({(1, 0)}),
    "cat2": frozenset({(1, 0), (2, 0), (0, 1)}),
    "cat3": frozenset({(2, 0), (0, 1), (1, 2)}),
    "cat4": frozenset({(2, 0), (2, 1), (0, 2), (1, 2)}),
}

# Each sink's decode system per category, in report order: (condition
# name, sink, sessions whose blocks it stacks, wanted session first). The
# paper's decodability condition is that each system has full column
# rank; cat4's sink 3 receives session 3's uncoded blocks alone.
_DECODE_SYSTEMS: dict[str, tuple[tuple[str, int, tuple[int, ...]], ...]] = {
    "full": (("sink1", 0, (0, 1)), ("sink2", 1, (1, 0)), ("sink3", 2, (2, 0))),
    "cat1": (("sink1", 0, (0, 2)), ("sink2", 1, (1, 0)), ("sink3", 2, (2, 0))),
    "cat2": (("sink1", 0, (0,)), ("sink2", 1, (1, 2)), ("sink3", 2, (2, 0))),
    "cat3": (("sink1", 0, (0, 1)), ("sink2", 1, (1, 2)), ("sink3", 2, (2, 0))),
    "cat4": (("sink3_direct", 2, (2,)), ("sink1", 0, (0, 1)), ("sink2", 1, (1, 0))),
}

_PERMUTATIONS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)

# Each network zero pattern some category matches, mapped to the first
# (category, perm) above whose relabeling gives it: internal pair (a, b) is
# the network's (perm[a], perm[b]), and a later entry overwrites an earlier
_ZERO_PATTERNS: dict[frozenset[tuple[int, int]], tuple[str, tuple[int, int, int]]] = {
    frozenset((perm[a], perm[b]) for a, b in pattern): (cat, perm)
    for cat, pattern in reversed(_CATEGORY_PATTERNS.items())
    for perm in reversed(_PERMUTATIONS)
}

# ----------------------------------------------------------------------
# category detection
# ----------------------------------------------------------------------


def _check_three_unicast(net: NetworkSpec) -> None:
    """Validate net, then require three unicast sessions."""
    net._edge_order  # validates the network first
    if len(net.sources) != 3 or len(net.sinks) != 3:
        raise ValueError("alignment needs exactly 3 sources and 3 sinks")
    if any(s.processes != 1 for s in net.sources) or any(
        s.outputs != 1 for s in net.sinks
    ):
        raise ValueError("alignment needs single-process sources and sinks")


def detect_category(net: NetworkSpec) -> tuple[str, tuple[int, int, int]]:
    """Classify the cross min-cut zero pattern.

    Returns (category, perm) where internal session k is the network's
    session perm[k]. Diagonal min-cuts must be exactly 1; cross patterns
    matching no category under any relabeling are rejected.
    """
    _check_three_unicast(net)
    sources, sinks = [s.node for s in net.sources], [t.node for t in net.sinks]
    if set(sources) & set(sinks):
        raise ValueError("source and sink share a node; min-cut undefined")
    # a cross pair only needs to know whether any path joins it: one walk
    # per source over the edges, tails in topological order; the gate on a
    # diagonal pair only whether its cut is 1
    edges = [net.edges[k] for k in net._edge_order]
    reached = []
    for s in sources:
        seen = {s}
        for e in edges:
            if e.tail in seen:
                seen.add(e.head)
        reached.append(seen)
    cut = _cutter(net)
    for i in range(3):
        if cut(i, i, 2) != 1:
            raise MinCutViolation(
                f"session {i + 1} needs min-cut exactly 1, found {cut(i, i)}"
            )
    zero = frozenset(
        (i, j) for i in range(3) for j in range(3) if i != j and sinks[j] not in reached[i]
    )
    if zero not in _ZERO_PATTERNS:
        raise UnsupportedPattern(f"zero pattern {sorted(zero)} matches no known category")
    return _ZERO_PATTERNS[zero]


# ----------------------------------------------------------------------
# instance container
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentInstance:
    """Eigen-domain data for one kernel assignment.

    mhat[i][j] holds the N codes M_ij(alpha^r) for internal sessions
    i, j. V1 is N x (n+1); V2 and V3 are N x n except V3 in category
    cat4, which is the N x N identity. The precoders come from the
    entrywise ratios R = Mhat_13 / Mhat_23 and S = Mhat_12 / Mhat_32:
    V2 = diag(R) V1 A in cat1 and cat2, V3 = diag(S) V1 B in cat1, and
    in full, where T = R (Mhat_21 / Mhat_31) / S and V1 = [W, TW, ...,
    T^n W], V2 = diag(R) V1 without its last column and V3 = diag(S) V1
    without its first. T, R and S are kept in full only, and A and B,
    the mixing matrices, where the category has them.
    decode_factors holds each sink's factored decode system once
    check_alignment has run; a copy made by dataclasses.replace has none.
    """

    n: int
    N: int
    plan: TransformPlan
    category: str
    perm: tuple[int, int, int]
    mhat: tuple[tuple[tuple[int, ...], ...], ...]
    T: tuple[int, ...] | None
    R: tuple[int, ...] | None
    S: tuple[int, ...] | None
    V1: FqMatrix
    V2: FqMatrix
    V3: FqMatrix
    A: FqMatrix | None
    B: FqMatrix | None
    transfer: TransferResult
    net: NetworkSpec
    leks: LekAssignment
    decode_factors: tuple[FqFactors, ...] | None = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def field(self) -> FieldSpec:
        return self.plan.field


def _diag_mul(spec: FieldSpec, diag: Sequence[int], M: FqMatrix) -> FqMatrix:
    scaled = spec._kernel(M.ncols).scaled
    return FqMatrix(spec, [scaled(d, row) for d, row in zip(diag, M.rows)])


def _rand_matrix(spec: FieldSpec, rng: random.Random, rows: int, cols: int) -> FqMatrix:
    """rows x cols codes, each rng.randrange(spec.q).

    randrange(q) draws getrandbits(q.bit_length()) until the value is below
    q; running that loop here skips its Python layers and leaves the same
    draws and the same generator state.
    """
    q, draw = spec.q, rng.getrandbits
    k = q.bit_length()
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = draw(k)
            while x >= q:
                x = draw(k)
            row.append(x)
        out.append(row)
    return FqMatrix(spec, out)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------


def build_instance(
    net: NetworkSpec,
    leks: LekAssignment,
    n: int,
    seed=0,
) -> AlignmentInstance:
    """Diagonalize the nine blocks and construct the category's precoders.

    The full category uses the structured T/R/S powers seeded by the
    all-ones vector; the other categories draw their free matrices from
    the seed, so the same seed rebuilds the same instance. Every block
    outside the category's zero pattern must have all-nonzero
    eigenvalues; a zero raises SingularBlock so searches can retry.
    """
    return _build_instance(net, leks, n, seed, *detect_category(net))


def _build_instance(
    net: NetworkSpec,
    leks: LekAssignment,
    n: int,
    seed,
    category: str,
    perm: tuple[int, int, int],
) -> AlignmentInstance:
    """build_instance for a network whose detect_category result is known."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if leks.mode != "invariant":
        raise ValueError("time-invariant kernels required here")
    N = 2 * n + 1
    spec = leks.field
    if N % spec.p == 0:
        raise CharacteristicDividesBlock(f"characteristic {spec.p} divides {N}")
    tr = transfer_matrix(net, leks)
    alpha = element_of_order(spec, N)
    plan = make_plan(N, spec, alpha, tr.d_max)

    pattern = _CATEGORY_PATTERNS[category]
    # block (a, b) is the 1 x 1 M_ij(D) of source perm[a] to sink perm[b]
    M = tr.M.rows
    blocks = [M[perm[b]][perm[a]].codes for a in range(3) for b in range(3)]
    evals = _dft(spec, blocks, alpha.code, N)
    mhat: list[tuple[tuple[int, ...], ...]] = []
    for a in range(3):
        row = []
        for b in range(3):
            vals = tuple(evals[3 * a + b])
            if (a, b) not in pattern and not all(vals):
                raise SingularBlock(f"block ({a + 1},{b + 1}) has a zero eigenvalue")
            if (a, b) in pattern and any(vals):
                raise MinCutViolation(
                    f"block ({a + 1},{b + 1}) should be structurally zero"
                )
            row.append(vals)
        mhat.append(tuple(row))

    rng = random.Random(f"align:{seed}")
    mul, inv = spec._mul_codes, spec._inv_code

    def ratio(num, den):  # entrywise num / den; the blocks read are nonzero
        return tuple(mul(x, inv(y)) for x, y in zip(num, den))

    # R = Mhat_13 / Mhat_23 and S = Mhat_12 / Mhat_32, where a precoder uses them
    R = ratio(mhat[0][2], mhat[1][2]) if category in ("full", "cat1", "cat2") else None
    S = ratio(mhat[0][1], mhat[2][1]) if category in ("full", "cat1") else None
    T = A = B = None
    if category == "full":
        T = ratio(list(map(mul, R, ratio(mhat[1][0], mhat[2][0]))), S)
        # column c of V1 is T^c W, entrywise powers of T on the all-ones W
        rows = [list(accumulate([1] + [t] * n, mul)) for t in T]
        V1 = FqMatrix(spec, rows)
        V2 = _diag_mul(spec, R, FqMatrix(spec, [row[:n] for row in rows]))
        V3 = _diag_mul(spec, S, FqMatrix(spec, [row[1:] for row in rows]))
    elif category == "cat1":
        V1 = _rand_matrix(spec, rng, N, n + 1)
        A = _rand_matrix(spec, rng, n + 1, n)
        B = _rand_matrix(spec, rng, n + 1, n)
        V2 = _diag_mul(spec, R, V1 * A)
        V3 = _diag_mul(spec, S, V1 * B)
    elif category == "cat2":
        V1 = _rand_matrix(spec, rng, N, n + 1)
        A = _rand_matrix(spec, rng, n + 1, n)
        V2 = _diag_mul(spec, R, V1 * A)
        V3 = _rand_matrix(spec, rng, N, n)
    elif category == "cat3":
        V1 = _rand_matrix(spec, rng, N, n + 1)
        V2 = _rand_matrix(spec, rng, N, n)
        V3 = _rand_matrix(spec, rng, N, n)
    else:  # cat4: session 3 sends uncoded full blocks
        V1 = _rand_matrix(spec, rng, N, n + 1)
        V2 = _rand_matrix(spec, rng, N, n)
        V3 = FqMatrix.identity(spec, N)

    return AlignmentInstance(
        n=n,
        N=N,
        plan=plan,
        category=category,
        perm=perm,
        mhat=tuple(mhat),
        T=T,
        R=R if category == "full" else None,
        S=S if category == "full" else None,
        V1=V1,
        V2=V2,
        V3=V3,
        A=A,
        B=B,
        transfer=tr,
        net=net,
        leks=leks,
    )


# ----------------------------------------------------------------------
# condition checks
# ----------------------------------------------------------------------


def _dv(inst: AlignmentInstance, i: int, j: int, V: FqMatrix) -> FqMatrix:
    """Mhat_ij V, the diagonal block applied to a precoder."""
    return _diag_mul(inst.field, inst.mhat[i][j], V)


def _decode_system(apply, j: int, sessions: Sequence[int], V) -> FqMatrix:
    """Sink j's received blocks side by side: apply(i, j, V[i]) per session i."""
    return FqMatrix.hstack([apply(i, j, V[i]) for i in sessions])


def _decode_systems(inst: AlignmentInstance) -> list[FqMatrix]:
    """Each sink's _decode_system of Mhat_ij V_i blocks, in _DECODE_SYSTEMS
    order, its rows as the eliminate of its width takes them: V's rows are
    prepared once in the field's polynomial kernel, and a block is one
    scaled_rows call there, a translate per row in byte lanes."""
    kern = inst.field._poly
    V = [(list(map(kern.prep, M.rows)), M.ncols) for M in (inst.V1, inst.V2, inst.V3)]
    systems = []
    for _, j, sessions in _DECODE_SYSTEMS[inst.category]:
        blocks = [kern.scaled_rows(inst.mhat[i][j], *V[i]) for i in sessions]
        systems.append(FqMatrix(inst.field, [reduce(add, parts) for parts in zip(*blocks)]))
    return systems


def check_alignment(inst: AlignmentInstance) -> dict:
    """Verify the construction identities and the category's rank conditions.

    The interference identities are exact matrix equalities; the decoding
    conditions are full-rank checks on the per-sink systems. Returns a
    report dict with one entry per condition and an overall "ok" flag.
    """
    N, n = inst.N, inst.n
    V1, V2, V3 = inst.V1, inst.V2, inst.V3
    report: dict = {"category": inst.category, "identities": {}, "conditions": []}

    ids = report["identities"]
    if inst.category == "full":
        ids["sink1_interference"] = _dv(inst, 1, 0, V2) == _dv(inst, 2, 0, V3)
        ids["sink2_absorption"] = _dv(inst, 2, 1, V3) == _dv(inst, 0, 1, V1).submatrix(
            range(N), range(1, n + 1)
        )
        ids["sink3_absorption"] = _dv(inst, 1, 2, V2) == _dv(inst, 0, 2, V1).submatrix(
            range(N), range(n)
        )
    elif inst.category == "cat1":
        ids["sink2_absorption"] = _dv(inst, 2, 1, V3) == _dv(inst, 0, 1, V1) * inst.B
    if inst.category in ("cat1", "cat2"):
        ids["sink3_absorption"] = _dv(inst, 1, 2, V2) == _dv(inst, 0, 2, V1) * inst.A

    # kept for encode_decode, which then only substitutes
    factors = tuple(map(FqMatrix.factor, _decode_systems(inst)))
    object.__setattr__(inst, "decode_factors", factors)
    for (name, _, _), f in zip(_DECODE_SYSTEMS[inst.category], factors):
        report["conditions"].append(
            {"name": name, "rank": f.rank, "target": f.ncols, "ok": f.rank == f.ncols}
        )

    report["identities_ok"] = all(ids.values())
    report["ok"] = report["identities_ok"] and all(c["ok"] for c in report["conditions"])
    return report


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    leks: LekAssignment
    instance: AlignmentInstance
    report: dict
    attempts: int
    seed: str


def align_search(
    net: NetworkSpec,
    n: int,
    field: FieldSpec,
    seed="0",
    budget: int = 100,
) -> SearchResult:
    """Seeded retry loop over kernel draws until check_alignment passes.

    Attempt k draws kernels and precoder randomness from "{seed}:{k}", so
    a hit is replayable from the reported seed alone. NotFound after the
    budget is spent says nothing about infeasibility.
    """
    # once per search, and before spending budget on a structural error
    category, perm = detect_category(net)
    attempts = 0
    for k in range(budget):
        attempts += 1
        attempt_seed = f"{seed}:{k}"
        leks = random_leks(net, field, attempt_seed, nonzero=True)
        try:
            inst = _build_instance(net, leks, n, attempt_seed, category, perm)
        except SingularBlock:
            continue
        report = check_alignment(inst)
        if report["ok"]:
            return SearchResult(leks, inst, report, attempts, attempt_seed)
    raise NotFound(f"no passing assignment in {attempts} attempts (seed {seed})")


# ----------------------------------------------------------------------
# end-to-end coding
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeResult:
    recovered: tuple[list[FieldElement], list[FieldElement], list[FieldElement]]
    throughputs: tuple[Fraction, Fraction, Fraction]
    channel_uses: int


def encode_decode(
    inst: AlignmentInstance,
    x1: Sequence[FieldElement],
    x2: Sequence[FieldElement],
    x3: Sequence[FieldElement],
) -> DecodeResult:
    """Push precoded symbols through the network and decode every sink.

    Inputs are per internal session, one symbol per precoder column:
    lengths (n+1, n, n), or (n+1, n, N) in category cat4. Returns the
    recovered symbol lists in the same order plus the throughput
    accounting; recovery is exact whenever the instance passed
    check_alignment. The sinks decode from the factors check_alignment
    kept, or from freshly factored systems if it never ran. A symbol of
    another field, or whose code is outside [0, q), raises ValueError.
    Everything between runs on codes, through the pipeline's code core.
    """
    spec = inst.field
    N = inst.N
    V = (inst.V1, inst.V2, inst.V3)
    kern = spec._kernel(N)
    lanes: list = [None, None, None]
    for k, vec in enumerate(map(list, (x1, x2, x3))):
        if any(sym.spec is not spec and sym.spec != spec for sym in vec):
            raise ValueError("input symbol from a different field")
        if len(vec) != V[k].ncols:
            raise ValueError(f"session {k + 1} expects {V[k].ncols} symbols, got {len(vec)}")
        codes = [sym.code for sym in vec]
        _check_codes(codes, spec, len(codes), lambda _: f"session {k + 1}")
        # V x as a sum of V's columns; stacked position r is generation
        # N-1-r, and the session goes out on the network's source perm[k]
        cols = [kern.prep(col) for col in zip(*V[k].rows)]
        lanes[inst.perm[k]] = kern.matvec(codes, cols, N)[::-1]
    decoded = _pipeline(inst.net, inst.leks, inst.plan, lanes, inst.transfer)

    recovered: list = [None, None, None]
    factors = inst.decode_factors or tuple(map(FqMatrix.factor, _decode_systems(inst)))
    for (name, j, _), system in zip(_DECODE_SYSTEMS[inst.category], factors):
        try:
            (sol,) = system._solve([decoded[inst.perm[j]][::-1]])
        except ValueError as exc:
            raise SingularDecodeSystem(f"{name}: {exc}") from None
        recovered[j] = [FieldElement(spec, c) for c in sol[: V[j].ncols]]

    return DecodeResult(
        recovered=tuple(recovered),
        throughputs=tuple(Fraction(v.ncols, N) for v in V),
        channel_uses=N + inst.plan.d_max,
    )


# ----------------------------------------------------------------------
# time-varying construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TvInstance:
    """Nine N x N transfer stacks under per-time kernels.

    M[i][j] maps the stacked input generations of source i+1 to the
    stacked kept outputs of sink j+1, both newest-first. Entry (r, c) is
    nonzero only when (c - r) mod N is at most d_max: generation N-1-c
    reaches output generation N-1-r only with a normalized lag in
    0..d_max, counted cyclically through the prefix.
    """

    n: int
    N: int
    field: FieldSpec
    M: tuple[tuple[FqMatrix, ...], ...]
    d_max: int
    d_prime_min: int
    net: NetworkSpec
    leks: LekAssignment


def build_tv(net: NetworkSpec, leks: LekAssignment, n: int) -> TvInstance:
    """Assemble the nine stacks by simulating per-generation impulses.

    The transmission runs over labels -d_max .. 2n (prefix copies below
    zero) and each sink stream is read at labels d_prime_min + t for
    t = 0..2n, so time-indexed kernels must cover the label window
    [-d_max, 2n + d_prime_min]. One simulation per (source, generation)
    pair fills one stacked column of three stacks at once, all on one
    compilation of the window's kernels. Path lengths sum link delays.
    Constant kernels reproduce the realized block circulant of the
    transfer matrix exactly.
    """
    _check_three_unicast(net)
    if n < 1:
        raise ValueError("n must be at least 1")
    N = 2 * n + 1
    spec = leks.field
    if N % spec.p == 0:
        raise CharacteristicDividesBlock(f"characteristic {spec.p} divides {N}")
    extremes = net._path_extremes
    if extremes is None:
        raise ValueError("no source-to-sink path")
    d_prime_min, d_prime_max = extremes
    d_max = d_prime_max - d_prime_min
    if d_max >= N:
        raise ValueError(f"channel memory {d_max} too long for block length {N}")
    if leks.mode == "time":
        lo, hi = leks.window()
        if lo > -d_max or hi < 2 * n + d_prime_min:
            raise WindowUnderspecified(
                f"kernel window [{lo}, {hi}] must cover "
                f"[{-d_max}, {2 * n + d_prime_min}]"
            )

    horizon = d_max + 2 * n + d_prime_min + 1  # labels -d_max .. 2n + d_prime_min
    try:
        window = _window(net, leks, -d_max, horizon)
        silent = [0] * horizon
    except (MemoryError, OverflowError):
        raise ValueError(
            f"longest path delay {d_prime_max} needs a window of {horizon} steps, "
            "too many to allocate"
        ) from None
    M = [[FqMatrix.zeros(spec, N, N) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for c in range(N):
            g = N - 1 - c  # input generation carried by stacked column c
            impulse = silent[:]
            impulse[g + d_max] = 1
            if g >= N - d_max:
                impulse[g - N + d_max] = 1  # cyclic prefix copy
            series = [silent] * 3
            series[i] = impulse
            outs = window(series)
            for j in range(3):
                # stacked row r reads label d_prime_min + N - 1 - r: the
                # last N steps of the window, newest first
                for r, y in enumerate(reversed(outs[j][horizon - N :])):
                    M[i][j].rows[r][c] = y
    return TvInstance(
        n=n,
        N=N,
        field=spec,
        M=tuple(tuple(row) for row in M),
        d_max=d_max,
        d_prime_min=d_prime_min,
        net=net,
        leks=leks,
    )


def check_tv(
    inst: TvInstance,
    theta: FqMatrix,
    A: FqMatrix,
    B: FqMatrix,
    C: FqMatrix,
) -> dict:
    """Verify the general-kernel alignment equations for one assignment.

    Builds V2 = M23^-1 M13 V1 A and V3 = M32^-1 M12 V1 B from V1 = theta,
    then checks the alignment equation T1 V1 A = V1 B C entrywise, the
    span inclusions at sinks 2 and 3, and the three full-rank decoding
    conditions. All nine stacks must be invertible (SingularBlock).
    """
    N = inst.N
    M = inst.M
    # V2, V3 and T1 use four inverses; the other five stacks are rank-checked
    inv = {}
    for i in range(3):
        for j in range(3):
            try:
                if (i, j) in ((0, 1), (1, 2), (2, 0), (2, 1)):
                    inv[(i, j)] = M[i][j].inverse()
                elif M[i][j].rank() < N:
                    raise ValueError
            except ValueError:
                raise SingularBlock(f"stack ({i + 1},{j + 1}) is singular") from None

    V1 = theta
    V2 = inv[(1, 2)] * (M[0][2] * (V1 * A))
    V3 = inv[(2, 1)] * (M[0][1] * (V1 * B))
    T1 = inv[(0, 1)] * M[2][1] * inv[(2, 0)] * M[1][0] * inv[(1, 2)] * M[0][2]

    g = T1 * (V1 * A) - V1 * (B * C)
    g_violations = [(r, c) for r in range(N) for c in range(g.ncols) if g.rows[r][c]]
    report: dict = {"g_zero": not g_violations, "g_violations": g_violations}

    m12v1 = M[0][1] * V1
    report["sink2_span"] = FqMatrix.hstack([m12v1, M[2][1] * V3]).rank() == m12v1.rank()
    m13v1 = M[0][2] * V1
    report["sink3_span"] = FqMatrix.hstack([m13v1, M[1][2] * V2]).rank() == m13v1.rank()

    conds = []
    for name, j, sessions in _DECODE_SYSTEMS["full"]:
        r = _decode_system(lambda i, k, X: M[i][k] * X, j, sessions, (V1, V2, V3)).rank()
        conds.append({"name": name, "rank": r, "target": N, "ok": r == N})
    report["conditions"] = conds
    report["ok"] = bool(
        report["g_zero"]
        and report["sink2_span"]
        and report["sink3_span"]
        and all(c["ok"] for c in conds)
    )
    return report


def tv_assignment_from_alignment(
    tv: TvInstance, inst: AlignmentInstance
) -> tuple[FqMatrix, FqMatrix, FqMatrix, FqMatrix]:
    """The constant-kernel assignment that reduces check_tv to check_alignment.

    With constant kernels each stack is Q1 diag(Mhat_ij) Q1^-1, so theta
    = Q1 V1 (the transform of V1's columns), A = the first-n column
    selector, B = the last-n column selector and C = the identity satisfy
    T1 V1 A = V1 B C exactly: multiplying V1 by T shifts its power-of-T
    columns one step.
    """
    spec = inst.field
    n = inst.n
    cols = _dft(spec, list(zip(*inst.V1.rows)), inst.plan.alpha.code, inst.N)
    theta = FqMatrix(spec, [list(row) for row in zip(*cols)])
    A = FqMatrix(spec, [[1 if r == c else 0 for c in range(n)] for r in range(n + 1)])
    B = FqMatrix(
        spec, [[1 if r == c + 1 else 0 for c in range(n)] for r in range(n + 1)]
    )
    C = FqMatrix.identity(spec, n)
    return theta, A, B, C
