"""Job execution, output digests and the independent oracles.

A job is one in-process ``netcode.cli.run([...])`` call on a generated
file, or one library coding call on objects loaded from such a file. Its
output is reduced to bytes (exit code plus report, or a canonical dump of
the library result) and digested. The first, untimed pass checks each
output with an oracle and against the recorded digest; every timed pass
then compares digests with that first pass.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random

from netcode import alignment, cli, transform
from netcode.alignment import build_instance, encode_decode
from netcode.galois import (
    FieldElement,
    FqMatrix,
    Poly,
    build_field,
    embed,
    element_of_order,
    poly_eval_matrix,
    spec_from_dict,
)
from netcode.netmodel import (
    leks_from_dict,
    network_from_dict,
    transfer_from_dict,
    transfer_matrix,
)
from netcode.transform import make_plan


class OracleMismatch(Exception):
    pass


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _load(path: str) -> dict:
    if path in ("example1", "example2"):
        return cli.load_fixture(path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _transfer_of(path: str):
    """(TransferResult, connections) of a network or transfer document.

    Cached: several oracles check jobs on the same network.
    """
    doc = _load(path)
    if doc.get("kind") == "transfer":
        return transfer_from_dict(doc["transfer"]), [tuple(c) for c in doc["connections"]]
    net = network_from_dict(doc["network"])
    return transfer_matrix(net, leks_from_dict(doc["kernels"])), sorted(net.connections)


def _poly(spec, coeffs) -> Poly:
    return Poly(spec, [spec.element(c).code for c in coeffs])


def _ext_with_points(spec, count: int):
    """Smallest extension of spec with at least ``count`` nonzero elements."""
    a = 1
    while spec.p ** (spec.m * a) - 1 < count:
        a += 1
    return spec if a == 1 else build_field(spec.p, spec.m * a)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleMismatch(what)


# ----------------------------------------------------------------------
# oracles: each takes the job, its parsed report and its exit code
# ----------------------------------------------------------------------


def _oracle_dets(job: dict, rep: dict, code: int) -> None:
    """Per-sink dets agree with FqMatrix.det of M evaluated pointwise.

    Two polynomials of degree <= d that agree on d + 1 points are equal,
    so the points come from an extension with enough elements.
    """
    tr, conns = _transfer_of(job["net"])
    spec = tr.field
    offsets = [sum(tr.mu_list[:i]) for i in range(len(tr.mu_list))]
    dets = [_poly(spec, d) for d in rep["dets"]]
    for j, nu_j in enumerate(tr.nu_list):
        cols = sorted(offsets[i] + l for (i, jj, l) in conns if jj == j)
        _expect(cols == rep["column_selection"][j], f"column selection of sink {j}")
        r0 = sum(tr.nu_list[:j])
        sub = tr.M.submatrix(range(r0, r0 + nu_j), cols)
        bound = nu_j * max(sub.max_degree(), 0)
        ext = _ext_with_points(spec, bound + 1)
        for point in range(1, bound + 2):
            x = FieldElement(ext, point)
            want = poly_eval_matrix(sub, x).det()
            _expect(dets[j].eval(x) == want, f"det of sink {j} at point {point}")
    feasible = not rep["zero_interference_violations"] and all(dets)
    _expect(rep["feasible"] == feasible and code == (0 if feasible else 1), "verdict")
    if "plan" in rep:
        plan = rep["plan"]
        field = spec_from_dict(plan["field"])
        alpha = field.element(plan["alpha"])
        f = _poly(spec, rep["f_coeffs"])
        emb = embed(spec, field)
        for t in range(plan["n"]):
            x = alpha ** t
            acc = field.zero()
            for c in reversed(f.codes):
                acc = acc * x + emb(FieldElement(spec, c))
            _expect(bool(acc), f"plan root at t = {t}")
        _expect(alpha ** plan["n"] == field.one(), "alpha order")


def _oracle_simulate(job: dict, rep: dict, code: int) -> None:
    """Outputs equal the convolution of M(D)'s lag matrices with the inputs."""
    _expect(code == 0, "exit code")
    tr, _ = _transfer_of(job["net"])
    spec = tr.field
    sim = _load(job["argv"][1])
    xs = [[spec.element(c) for proc in step for c in proc] for step in sim["inputs"]]
    lags = [tr.coeff(d) for d in range(tr.d_max + 1)]
    outs = rep["outputs"]
    _expect(len(outs) == len(xs), "output length")
    for t, step in enumerate(outs):
        got = [spec.element(c) for sink in step for c in sink]
        want = [spec.zero()] * tr.nu
        for d, lag in enumerate(lags):
            s = t - tr.d_prime_min - d
            if s < 0:
                continue
            for r in range(tr.nu):
                for c in range(tr.mu):
                    if lag.rows[r][c]:
                        want[r] = want[r] + FieldElement(spec, lag.rows[r][c]) * xs[s][c]
        _expect(got == want, f"output at step {t}")


def _oracle_transform(job: dict, rep: list, code: int) -> None:
    """Each line's det equals det M'_j(D) evaluated at alpha^(n-1-t)."""
    tr, conns = _transfer_of(job["net"])
    spec = tr.field
    n = int(job["argv"][job["argv"].index("--n") + 1])
    a = 1
    while (spec.p ** (spec.m * a) - 1) % n:
        a += 1
    ext = spec if a == 1 else build_field(spec.p, spec.m * a)
    alpha = element_of_order(ext, n)
    offsets = [sum(tr.mu_list[:i]) for i in range(len(tr.mu_list))]
    dets = []
    for j, nu_j in enumerate(tr.nu_list):
        cols = sorted(offsets[i] + l for (i, jj, l) in conns if jj == j)
        r0 = sum(tr.nu_list[:j])
        dets.append(tr.M.submatrix(range(r0, r0 + nu_j), cols).det())
    _expect(len(rep) == n * len(dets), "line count")
    ok = True
    for line in rep:
        want = dets[line["sink"]].eval(alpha ** (n - 1 - line["t"]))
        _expect(line["det"] == list(want.coeffs), f"det at t = {line['t']}")
        _expect(line["solvable"] == bool(want), "solvable flag")
        ok = ok and bool(want)
    _expect(code == (0 if ok else 1), "exit code")


def _oracle_align(job: dict, rep: dict, code: int) -> None:
    """The reported kernels rebuild an instance that decodes fresh symbols."""
    _expect(code == 0 and rep["ok"] and rep["decode_exact"], "alignment verdict")
    _expect(all(rep["identities"].values()), "alignment identities")
    _expect(rep["ranks"] == rep["rank_targets"], "rank conditions")
    net = network_from_dict(_load(job["argv"][1])["network"])
    leks = leks_from_dict(rep["kernels"])
    inst = build_instance(net, leks, rep["n"], seed=rep.get("seed", "0"))
    rng = random.Random(f"oracle:{job['id']}")
    spec = inst.field
    n, N = inst.n, inst.N
    xs = [[FieldElement(spec, rng.randrange(spec.q)) for _ in range(w)]
          for w in (n + 1, n, N if inst.category == "cat4" else n)]
    _expect(list(encode_decode(inst, *xs).recovered) == xs, "recovered symbols")


def _oracle_notfound(job: dict, rep: dict, code: int) -> None:
    _expect(code == 1 and rep.get("error") == "NotFound" and rep.get("ok") is False,
            "budget exhaustion verdict")


_ORACLES = {
    "dets": _oracle_dets,
    "simulate": _oracle_simulate,
    "transform": _oracle_transform,
    "align": _oracle_align,
    "notfound": _oracle_notfound,
}


# ----------------------------------------------------------------------
# library jobs: prepared once, then called
# ----------------------------------------------------------------------


def _codes(rows) -> list:
    return [[[e.code for e in vec] for vec in gen] for gen in rows]


class _Pipeline:
    """run_pipeline on one network at block length n, checked against
    Mhat(t) X(t) computed by evaluating M(D) at the eigenvalues."""

    def __init__(self, job: dict):
        self.path = job["net"]
        doc = _load(self.path)
        self.net = network_from_dict(doc["network"])
        self.leks = leks_from_dict(doc["kernels"])
        spec = self.leks.field
        self.n = job["n"]
        rng = random.Random(f"pipeline:{job['id']}")
        self.inputs = [
            [[FieldElement(spec, rng.randrange(spec.q)) for _ in range(src.processes)]
             for _ in range(self.n)]
            for src in self.net.sources
        ]
        self.plan = None

    def __call__(self):
        if self.plan is None:  # the plan needs d_max; made on the warm-up call
            tr, _ = _transfer_of(self.path)
            spec = self.leks.field
            self.plan = make_plan(self.n, spec, element_of_order(spec, self.n), tr.d_max)
        # through the module, so that a tracer's wrapper sees the call
        return transform.run_pipeline(self.net, self.leks, self.plan, self.inputs)

    def dump(self, out) -> bytes:
        return json.dumps(_codes(out), separators=(",", ":")).encode()

    def check(self, out) -> None:
        tr, _ = _transfer_of(self.path)
        n, spec = self.n, self.leks.field
        for t in range(n):
            mhat = poly_eval_matrix(tr.M, self.plan.alpha ** (n - 1 - t))
            x = FqMatrix(spec, [[sym.code] for gens in self.inputs for sym in gens[t]])
            y = mhat * x
            got = [sym.code for j in range(len(out)) for sym in out[j][t]]
            _expect(got == [row[0] for row in y.rows], f"generation {t}")


class _Tv:
    """build_tv + check_tv on the constant-kernel reduction of example2."""

    def __init__(self, job: dict):
        doc = _load("example2")
        self.net = network_from_dict(doc["network"])
        self.leks = leks_from_dict(doc["kernels"])
        self.n = job["n"]

    def __call__(self):
        inst = alignment.build_instance(self.net, self.leks, self.n, seed="0")
        tv = alignment.build_tv(self.net, self.leks, self.n)
        return tv, alignment.check_tv(tv, *alignment.tv_assignment_from_alignment(tv, inst))

    def dump(self, out) -> bytes:
        tv, rep = out
        stacks = [[m.rows for m in row] for row in tv.M]
        return json.dumps([stacks, rep], sort_keys=True, separators=(",", ":")).encode()

    def check(self, out) -> None:
        tv, rep = out
        _expect(rep["ok"] and rep["g_zero"], "time-varying alignment verdict")
        _expect(all(c["rank"] == tv.N for c in rep["conditions"]), "decoding ranks")


_LIBRARY = {"run_pipeline": _Pipeline, "tv": _Tv}


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


class Job:
    """One prepared job: ``run()`` is the timed call, ``finish()`` turns
    its result into bytes, ``check()`` applies the oracle to the result."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.id = spec["id"]
        self.symbols = spec.get("symbols", 0)
        self._lib = _LIBRARY[spec["call"]](spec) if spec["kind"] == "lib" else None

    def run(self):
        if self._lib is not None:
            return self._lib()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(self.spec["argv"])
        return code, buf.getvalue()

    def finish(self, result) -> bytes:
        if self._lib is not None:
            return self._lib.dump(result)
        code, text = result
        return f"{code}\n{text}".encode()

    def check(self, result) -> None:
        if self._lib is not None:
            self._lib.check(result)
            return
        code, text = result
        if self.spec["expect"] is not None and code != self.spec["expect"]:
            raise OracleMismatch(f"exit code {code}, expected {self.spec['expect']}")
        oracle = self.spec.get("oracle")
        if oracle is None:
            return
        lines = text.splitlines()
        rep = [json.loads(x) for x in lines] if oracle == "transform" else json.loads(text)
        _ORACLES[oracle](self.spec, rep, code)
