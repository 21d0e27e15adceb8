"""Regime micro rows and scaling sweeps for the traced run.

Every function here times public calls of the program on inputs built
from a seed, with no tracer installed, and returns per-layer metrics.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from netcode.galois import FieldElement, Poly, PolyMatrix, build_field, element_of_order
from netcode.netmodel import Edge, NetworkSpec, Sink, Source, random_leks, transfer_matrix
from netcode.transform import make_plan, run_pipeline

# arithmetic regimes: tables at 2^8 and at the cap 2^16, odd p under the
# cap, and schoolbook arithmetic above it
REGIMES = {"gf2_8": (2, 8), "gf2_16": (2, 16), "gf3_10": (3, 10),
           "gf2_20": (2, 20), "gf3_11": (3, 11)}
# field lifts the workloads make: transform --n 257, 61, 41, 23 and the
# GF(16) -> GF(256) step of the plan search
LIFTS = [(2, 4, 16), (3, 1, 10), (2, 10, 20), (3, 1, 11), (2, 4, 8)]


def _per_op_ns(op, pairs, batches: int = 5) -> float:
    """Median over batches of the mean time of one ``op(a, b)``."""
    per = []
    for _ in range(batches):
        t = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        per.append((time.perf_counter() - t) / len(pairs) * 1e9)
    return statistics.median(per)


def regime_rows(seed: int) -> dict:
    out = {}
    for name, (p, m) in REGIMES.items():
        spec = build_field(p, m)
        rng = random.Random(f"regime:{seed}:{name}")
        fast = spec.q <= 1 << 16
        count = 2000 if fast else 200
        elems = [FieldElement(spec, rng.randrange(1, spec.q)) for _ in range(count + 1)]
        pairs = list(zip(elems, elems[1:]))
        pairs[0][0] * pairs[0][1]  # tables, when the field has them
        out[f"galois.mul_ns.{name}"] = _per_op_ns(lambda a, b: a * b, pairs)
        out[f"galois.add_ns.{name}"] = _per_op_ns(lambda a, b: a + b, pairs)
        inv_pairs = pairs if fast else pairs[:20]
        out[f"galois.inv_ns.{name}"] = _per_op_ns(lambda a, b: a.inverse(), inv_pairs)
    return out


def _slope(xs, ts) -> float:
    lx = [math.log(x) for x in xs]
    lt = [math.log(t) for t in ts]
    mx, mt = statistics.fmean(lx), statistics.fmean(lt)
    num = sum((a - mx) * (b - mt) for a, b in zip(lx, lt))
    return num / sum((a - mx) ** 2 for a in lx)


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def sweep_transfer(seed: int, totals=(50, 100, 200, 400)) -> float:
    """transfer_matrix on two paths, one of them a single long edge."""
    spec = build_field(2, 4)
    ts = []
    for total in totals:
        net = NetworkSpec(["S", "A", "T"],
                          [Edge("S", "A", 0, total - 2), Edge("A", "T", 0, 1),
                           Edge("S", "T", 0, 1)],
                          [Source("S", 1)], [Sink("T", 1)], [(0, 0, 0)])
        leks = random_leks(net, spec, f"sweep:{seed}:{total}", nonzero=True)
        ts.append(_timed(lambda: transfer_matrix(net, leks)))
    return _slope(totals, ts)


def sweep_det(seed: int, sizes=(5, 6, 7, 8)) -> float:
    """Cofactor PolyMatrix.det of a dense k x k, degree-3 matrix over GF(16)."""
    spec = build_field(2, 4)
    rng = random.Random(f"det:{seed}")
    ts = []
    for k in sizes:
        pm = PolyMatrix(spec, [[Poly(spec, [rng.randrange(16) for _ in range(3)] + [1 + rng.randrange(15)])
                                for _ in range(k)] for _ in range(k)])
        ts.append(_timed(pm.det))
    return _slope(sizes, ts)


def sweep_pipeline(seed: int, lengths=(17, 51, 85, 255)) -> float:
    """run_pipeline over a 27-edge unit-delay DAG in GF(256)."""
    spec = build_field(2, 8)
    rng = random.Random(f"pipeline:{seed}")
    layers = [["S"], ["A0", "A1", "A2"], ["B0", "B1", "B2"], ["C0", "C1", "C2"], ["T0", "T1"]]
    edges = []
    for up, down in zip(layers, layers[1:]):
        for v in down:
            for u in up:
                edges.append(Edge(u, v, 0, 1))
    net = NetworkSpec([v for layer in layers for v in layer], edges, [Source("S", 2)],
                      [Sink("T0", 1), Sink("T1", 1)], [(0, 0, 0), (0, 1, 1)])
    leks = random_leks(net, spec, f"pipeline:{seed}", nonzero=True)
    tr = transfer_matrix(net, leks)
    ts = []
    for n in lengths:
        plan = make_plan(n, spec, element_of_order(spec, n), tr.d_max)
        inputs = [[[FieldElement(spec, rng.randrange(256)) for _ in range(2)] for _ in range(n)]]
        ts.append(_timed(lambda: run_pipeline(net, leks, plan, inputs)))
    return _slope(lengths, ts)


def sweeps(seed: int, tiny: bool = False) -> dict:
    if tiny:
        return {
            "netmodel.transfer_matrix.slope_delay": sweep_transfer(seed, (10, 20, 40)),
            "galois.PolyMatrix.det.slope_k": sweep_det(seed, (3, 4, 5)),
            "transform.run_pipeline.slope_n": sweep_pipeline(seed, (5, 15, 17)),
        }
    return {
        "netmodel.transfer_matrix.slope_delay": sweep_transfer(seed),
        "galois.PolyMatrix.det.slope_k": sweep_det(seed),
        "transform.run_pipeline.slope_n": sweep_pipeline(seed),
    }
