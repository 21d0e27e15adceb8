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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .galois import (
    FieldElement,
    FieldSpec,
    FqMatrix,
    NetcodeError,
    dft_matrix,
    element_of_order,
)
from .netmodel import (
    LekAssignment,
    NetworkSpec,
    TransferResult,
    WindowUnderspecified,
    min_cut,
    random_leks,
    simulate,
    transfer_matrix,
    validate,
)
from .transform import TransformPlan, make_plan, run_pipeline

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

_PERMUTATIONS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


# ----------------------------------------------------------------------
# category detection
# ----------------------------------------------------------------------


def _check_three_unicast(net: NetworkSpec) -> None:
    validate(net)
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
    cuts = [[min_cut(net, i, j) for j in range(3)] for i in range(3)]
    for i in range(3):
        if cuts[i][i] != 1:
            raise MinCutViolation(
                f"session {i + 1} needs min-cut exactly 1, found {cuts[i][i]}"
            )
    zero = {(i, j) for i in range(3) for j in range(3) if i != j and cuts[i][j] == 0}
    for cat, pattern in _CATEGORY_PATTERNS.items():
        for perm in _PERMUTATIONS:
            internal = {
                (a, b)
                for a in range(3)
                for b in range(3)
                if a != b and (perm[a], perm[b]) in zero
            }
            if internal == pattern:
                return cat, perm
    raise UnsupportedPattern(f"zero pattern {sorted(zero)} matches no known category")


# ----------------------------------------------------------------------
# instance container
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentInstance:
    """Eigen-domain data for one kernel assignment.

    mhat[i][j] holds the N codes M_ij(alpha^r) for internal sessions
    i, j. T, R, S and the a/b products are entrywise vectors in the same
    position indexing. V1 is N x (n+1); V2 and V3 are N x n except V3 in
    category cat4, which is the N x N identity. A and B are the mixing
    matrices behind structured precoders, where the category has them.
    """

    n: int
    N: int
    plan: TransformPlan
    category: str
    perm: tuple[int, int, int]
    mhat: tuple[tuple[tuple[int, ...], ...], ...]
    a_vec: tuple[int, ...] | None
    b_vec: tuple[int, ...] | None
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

    @property
    def field(self) -> FieldSpec:
        return self.plan.field

    def distinct_ratios(self) -> int:
        """Distinct T entries; n+1 or more makes V1 full column rank."""
        if self.T is None:
            raise ValueError("no T vector in this category")
        return len(set(self.T))


def _diag_mul(spec: FieldSpec, diag: Sequence[int], M: FqMatrix) -> FqMatrix:
    mul = spec._mul_codes
    return FqMatrix(spec, [[mul(d, c) for c in row] for d, row in zip(diag, M.rows)])


def _diag_inv(spec: FieldSpec, diag: Sequence[int], where: str) -> list[int]:
    out = []
    for r, d in enumerate(diag):
        if d == 0:
            raise SingularBlock(f"{where} has a zero eigenvalue at position {r}")
        out.append(spec._inv_code(d))
    return out


def _rand_matrix(spec: FieldSpec, rng: random.Random, rows: int, cols: int) -> FqMatrix:
    return FqMatrix(
        spec, [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(rows)]
    )


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
    if n < 1:
        raise ValueError("n must be at least 1")
    if leks.mode != "invariant":
        raise ValueError("time-invariant kernels required here")
    N = 2 * n + 1
    spec = leks.field
    if N % spec.p == 0:
        raise CharacteristicDividesBlock(f"characteristic {spec.p} divides {N}")
    category, perm = detect_category(net)
    tr = transfer_matrix(net, leks)
    alpha = element_of_order(spec, N)
    plan = make_plan(N, spec, alpha, tr.d_max)

    pattern = _CATEGORY_PATTERNS[category]
    powers = [alpha**r for r in range(N)]
    mhat: list[tuple[tuple[int, ...], ...]] = []
    for a in range(3):
        row = []
        for b in range(3):
            poly = tr.block(perm[a], perm[b]).entry(0, 0)
            vals = tuple(poly.eval(x).code for x in powers)
            if (a, b) not in pattern and not all(vals):
                raise SingularBlock(f"block ({a + 1},{b + 1}) has a zero eigenvalue")
            if (a, b) in pattern and any(vals):
                raise MinCutViolation(
                    f"block ({a + 1},{b + 1}) should be structurally zero"
                )
            row.append(vals)
        mhat.append(tuple(row))

    mul = spec._mul_codes
    rng = random.Random(f"align:{seed}")
    a_vec = b_vec = t_vec = r_vec = s_vec = None
    A = B = None
    if category == "full":
        a_vec = tuple(
            mul(mul(mhat[1][0][r], mhat[2][1][r]), mhat[0][2][r]) for r in range(N)
        )
        b_vec = tuple(
            mul(mul(mhat[2][0][r], mhat[1][2][r]), mhat[0][1][r]) for r in range(N)
        )
        b_inv = _diag_inv(spec, b_vec, "product b")
        t_vec = tuple(mul(a_vec[r], b_inv[r]) for r in range(N))
        r_vec = tuple(
            mul(mhat[0][2][r], spec._inv_code(mhat[1][2][r])) for r in range(N)
        )
        s_vec = tuple(
            mul(mhat[0][1][r], spec._inv_code(mhat[2][1][r])) for r in range(N)
        )
        # V1 = [W, TW, ..., T^n W], V2 = [RW, ..., RT^(n-1) W],
        # V3 = [STW, ..., ST^n W]; columns are entrywise powers of T
        tpow = [[1] * N]
        for _ in range(n):
            tpow.append([mul(x, t) for x, t in zip(tpow[-1], t_vec)])
        V1 = FqMatrix(spec, [[tpow[c][r] for c in range(n + 1)] for r in range(N)])
        V2 = FqMatrix(
            spec, [[mul(r_vec[r], tpow[c][r]) for c in range(n)] for r in range(N)]
        )
        V3 = FqMatrix(
            spec, [[mul(s_vec[r], tpow[c + 1][r]) for c in range(n)] for r in range(N)]
        )
    elif category == "cat1":
        V1 = _rand_matrix(spec, rng, N, n + 1)
        A = _rand_matrix(spec, rng, n + 1, n)
        B = _rand_matrix(spec, rng, n + 1, n)
        inv23 = _diag_inv(spec, mhat[1][2], "block (2,3)")
        inv32 = _diag_inv(spec, mhat[2][1], "block (3,2)")
        V2 = _diag_mul(spec, inv23, _diag_mul(spec, mhat[0][2], V1 * A))
        V3 = _diag_mul(spec, inv32, _diag_mul(spec, mhat[0][1], V1 * B))
    elif category == "cat2":
        V1 = _rand_matrix(spec, rng, N, n + 1)
        A = _rand_matrix(spec, rng, n + 1, n)
        inv23 = _diag_inv(spec, mhat[1][2], "block (2,3)")
        V2 = _diag_mul(spec, inv23, _diag_mul(spec, mhat[0][2], V1 * A))
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
        a_vec=a_vec,
        b_vec=b_vec,
        T=t_vec,
        R=r_vec,
        S=s_vec,
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


def _dinv_v(inst: AlignmentInstance, i: int, j: int, M: FqMatrix) -> FqMatrix:
    inv = _diag_inv(inst.field, inst.mhat[i][j], f"block ({i + 1},{j + 1})")
    return _diag_mul(inst.field, inv, M)


def _diag_matrix(inst: AlignmentInstance, i: int, j: int) -> FqMatrix:
    out = FqMatrix.zeros(inst.field, inst.N, inst.N)
    for r, c in enumerate(inst.mhat[i][j]):
        out.rows[r][r] = c
    return out


def check_alignment(inst: AlignmentInstance) -> dict:
    """Verify the construction identities and the category's rank conditions.

    The interference identities are exact matrix equalities; the decoding
    conditions are full-rank checks on the per-sink systems. Returns a
    report dict with one entry per condition and an overall "ok" flag.
    """
    N, n = inst.N, inst.n
    V1, V2, V3 = inst.V1, inst.V2, inst.V3
    report: dict = {"category": inst.category, "identities": {}, "conditions": []}

    def cond(name: str, M: FqMatrix, target: int) -> None:
        r = M.rank()
        report["conditions"].append(
            {"name": name, "rank": r, "target": target, "ok": r == target}
        )

    ids = report["identities"]
    if inst.category == "full":
        ids["sink1_interference"] = _dv(inst, 1, 0, V2) == _dv(inst, 2, 0, V3)
        ids["sink2_absorption"] = _dv(inst, 2, 1, V3) == _dv(inst, 0, 1, V1).submatrix(
            range(N), range(1, n + 1)
        )
        ids["sink3_absorption"] = _dv(inst, 1, 2, V2) == _dv(inst, 0, 2, V1).submatrix(
            range(N), range(n)
        )
        cond("sink1", FqMatrix.hstack([V1, _dinv_v(inst, 0, 0, _dv(inst, 1, 0, V2))]), N)
        cond("sink2", FqMatrix.hstack([_dinv_v(inst, 0, 1, _dv(inst, 1, 1, V2)), V1]), N)
        cond("sink3", FqMatrix.hstack([_dinv_v(inst, 0, 2, _dv(inst, 2, 2, V3)), V1]), N)
    elif inst.category == "cat1":
        ids["sink2_absorption"] = _dv(inst, 2, 1, V3) == _dv(inst, 0, 1, V1) * inst.B
        ids["sink3_absorption"] = _dv(inst, 1, 2, V2) == _dv(inst, 0, 2, V1) * inst.A
        cond("sink1", FqMatrix.hstack([V1, _dinv_v(inst, 0, 0, _dv(inst, 2, 0, V3))]), N)
        cond("sink2", FqMatrix.hstack([_dinv_v(inst, 0, 1, _dv(inst, 1, 1, V2)), V1]), N)
        cond("sink3", FqMatrix.hstack([_dinv_v(inst, 0, 2, _dv(inst, 2, 2, V3)), V1]), N)
    elif inst.category == "cat2":
        ids["sink3_absorption"] = _dv(inst, 1, 2, V2) == _dv(inst, 0, 2, V1) * inst.A
        cond("sink1", _dv(inst, 0, 0, V1), n + 1)
        cond(
            "sink2",
            FqMatrix.hstack([_dinv_v(inst, 2, 1, _dv(inst, 1, 1, V2)), V3]),
            2 * n,
        )
        cond("sink3", FqMatrix.hstack([_dinv_v(inst, 2, 2, _dv(inst, 0, 2, V1)), V3]), N)
    elif inst.category == "cat3":
        cond("sink1", FqMatrix.hstack([V1, _dinv_v(inst, 0, 0, _dv(inst, 1, 0, V2))]), N)
        cond(
            "sink2",
            FqMatrix.hstack([_dinv_v(inst, 2, 1, _dv(inst, 1, 1, V2)), V3]),
            2 * n,
        )
        cond("sink3", FqMatrix.hstack([_dinv_v(inst, 2, 2, _dv(inst, 0, 2, V1)), V3]), N)
    else:  # cat4
        cond("sink3_direct", _diag_matrix(inst, 2, 2), N)
        cond("sink1", FqMatrix.hstack([V1, _dinv_v(inst, 0, 0, _dv(inst, 1, 0, V2))]), N)
        cond("sink2", FqMatrix.hstack([_dinv_v(inst, 0, 1, _dv(inst, 1, 1, V2)), V1]), N)

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
    detect_category(net)  # surface structural errors before spending budget
    attempts = 0
    for k in range(budget):
        attempts += 1
        attempt_seed = f"{seed}:{k}"
        leks = random_leks(net, field, attempt_seed, nonzero=True)
        try:
            inst = build_instance(net, leks, n, seed=attempt_seed)
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

    Inputs are per internal session: lengths (n+1, n, n), or (n+1, n, N)
    in category cat4. Returns the recovered symbol lists in the same
    order plus the throughput accounting; recovery is exact whenever the
    instance passed check_alignment.
    """
    spec = inst.field
    n, N = inst.n, inst.N
    widths = (n + 1, n, N if inst.category == "cat4" else n)
    xs = (list(x1), list(x2), list(x3))
    for k, (vec, w) in enumerate(zip(xs, widths)):
        if len(vec) != w:
            raise ValueError(f"session {k + 1} expects {w} symbols, got {len(vec)}")

    V = (inst.V1, inst.V2, inst.V3)
    stacked = []
    for k in range(3):
        col = FqMatrix(spec, [[sym.code] for sym in xs[k]])
        stacked.append(V[k] * col)

    # stacked position r is generation N-1-r; route by the session perm
    inputs_by_net_source: list = [None, None, None]
    for k in range(3):
        gens = [[FieldElement(spec, stacked[k].rows[N - 1 - t][0])] for t in range(N)]
        inputs_by_net_source[inst.perm[k]] = gens
    decoded = run_pipeline(
        inst.net, inst.leks, inst.plan, inputs_by_net_source, transfer=inst.transfer
    )
    y = []
    for k in range(3):
        sink_gens = decoded[inst.perm[k]]
        y.append(FqMatrix(spec, [[sink_gens[N - 1 - r][0].code] for r in range(N)]))

    def solve(name: str, M: FqMatrix, rhs: FqMatrix, keep: int) -> list[FieldElement]:
        try:
            sol = M.solve(rhs)
        except ValueError as exc:
            raise SingularDecodeSystem(f"{name}: {exc}") from None
        return [sol.entry(r, 0) for r in range(keep)]

    c = inst.category
    if c == "cat1":
        sys1 = FqMatrix.hstack([_dv(inst, 0, 0, inst.V1), _dv(inst, 2, 0, inst.V3)])
    elif c == "cat2":
        sys1 = _dv(inst, 0, 0, inst.V1)
    else:
        sys1 = FqMatrix.hstack([_dv(inst, 0, 0, inst.V1), _dv(inst, 1, 0, inst.V2)])
    rec1 = solve("sink 1", sys1, y[0], n + 1)

    if c in ("cat2", "cat3"):
        sys2 = FqMatrix.hstack([_dv(inst, 1, 1, inst.V2), _dv(inst, 2, 1, inst.V3)])
    else:
        sys2 = FqMatrix.hstack([_dv(inst, 1, 1, inst.V2), _dv(inst, 0, 1, inst.V1)])
    rec2 = solve("sink 2", sys2, y[1], n)

    if c == "cat4":
        inv33 = _diag_inv(spec, inst.mhat[2][2], "block (3,3)")
        rec3 = [
            FieldElement(spec, spec._mul_codes(inv33[r], y[2].rows[r][0]))
            for r in range(N)
        ]
    else:
        sys3 = FqMatrix.hstack([_dv(inst, 2, 2, inst.V3), _dv(inst, 0, 2, inst.V1)])
        rec3 = solve("sink 3", sys3, y[2], n)

    thr3 = Fraction(1) if c == "cat4" else Fraction(n, N)
    return DecodeResult(
        recovered=(rec1, rec2, rec3),
        throughputs=(Fraction(n + 1, N), Fraction(n, N), thr3),
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


def _path_extremes(net: NetworkSpec) -> tuple[int, int]:
    """Topological shortest and longest source-to-sink path lengths."""
    order = validate(net)
    src_nodes = {s.node for s in net.sources}
    sink_nodes = {s.node for s in net.sinks}
    INF = float("inf")
    shortest = {v: (0 if v in src_nodes else INF) for v in net.nodes}
    longest = {v: (0 if v in src_nodes else -INF) for v in net.nodes}
    for v in order:
        for e in net.out_edges(v):
            w = e.head
            shortest[w] = min(shortest[w], shortest[v] + 1)
            longest[w] = max(longest[w], longest[v] + 1)
    mins = [shortest[v] for v in sink_nodes if shortest[v] != INF]
    maxs = [longest[v] for v in sink_nodes if longest[v] != -INF]
    if not mins:
        raise ValueError("no source-to-sink path")
    return int(min(mins)), int(max(maxs))


def build_tv(net: NetworkSpec, leks: LekAssignment, n: int) -> TvInstance:
    """Assemble the nine stacks by simulating per-generation impulses.

    The transmission runs over labels -d_max .. 2n (prefix copies below
    zero) and each sink stream is read at labels d_prime_min + t for
    t = 0..2n, so time-indexed kernels must cover the label window
    [-d_max, 2n + d_prime_min]. One simulation per (source, generation)
    pair fills one stacked column of three stacks at once. Constant
    kernels reproduce the realized block circulant of the transfer
    matrix exactly.
    """
    _check_three_unicast(net)
    if not net.is_unit_delay():
        raise ValueError("normalize delays before the time-varying build")
    if n < 1:
        raise ValueError("n must be at least 1")
    N = 2 * n + 1
    spec = leks.field
    if N % spec.p == 0:
        raise CharacteristicDividesBlock(f"characteristic {spec.p} divides {N}")
    d_prime_min, d_prime_max = _path_extremes(net)
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
    zero = spec.zero()
    one = spec.one()
    M = [[FqMatrix.zeros(spec, N, N) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for c in range(N):
            g = N - 1 - c  # input generation carried by stacked column c
            labels = {g}
            if g >= N - d_max:
                labels.add(g - N)  # cyclic prefix copy
            series = []
            for step in range(horizon):
                vecs = [[zero], [zero], [zero]]
                if step - d_max in labels:
                    vecs[i] = [one]
                series.append(vecs)
            outs = simulate(net, leks, series, t_start=-d_max)
            for j in range(3):
                for r in range(N):
                    t = N - 1 - r
                    M[i][j].rows[r][c] = outs[d_prime_min + t + d_max][j][0].code
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
    # six stacks are inverted below; the other three only need full rank
    inv = {}
    for i in range(3):
        for j in range(3):
            singular = SingularBlock(f"stack ({i + 1},{j + 1}) is singular")
            if (i, j) in ((1, 0), (1, 1), (2, 2)):
                if M[i][j].rank() < N:
                    raise singular
                continue
            try:
                inv[(i, j)] = M[i][j].inverse()
            except ValueError:
                raise singular from None

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
    for name, big in (
        ("sink1", FqMatrix.hstack([V1, inv[(0, 0)] * (M[1][0] * V2)])),
        ("sink2", FqMatrix.hstack([inv[(0, 1)] * (M[1][1] * V2), V1])),
        ("sink3", FqMatrix.hstack([inv[(0, 2)] * (M[2][2] * V3), V1])),
    ):
        r = big.rank()
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
    = Q1 V1, A = the first-n column selector, B = the last-n column
    selector and C = the identity satisfy T1 V1 A = V1 B C exactly:
    multiplying V1 by T shifts its power-of-T columns one step.
    """
    spec = inst.field
    n = inst.n
    Q1 = dft_matrix(inst.plan.alpha, inst.N)
    theta = Q1 * inst.V1
    A = FqMatrix(spec, [[1 if r == c else 0 for c in range(n)] for r in range(n + 1)])
    B = FqMatrix(
        spec, [[1 if r == c + 1 else 0 for c in range(n)] for r in range(n + 1)]
    )
    C = FqMatrix.identity(spec, n)
    return theta, A, B, C
