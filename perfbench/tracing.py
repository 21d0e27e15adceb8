"""Spans around the program's public callables, recorded from outside.

``Tracer.install()`` replaces each listed callable with a timing wrapper:
at its module attribute, in every ``netcode`` module that imported the
name, and on the class for methods. ``uninstall()`` puts the originals
back. A span is (name, start, end, parent span, job id), kept in flat
arrays in memory and written out by ``dump()``. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path, metric name)
CALLABLES = [
    ("galois", "PolyMatrix.det", "galois.PolyMatrix.det"),
    ("galois", "Poly.eval", "galois.Poly.eval"),
    ("galois", "Poly.__mul__", "galois.Poly.mul"),
    ("galois", "build_field", "galois.build_field"),
    ("galois", "embed", "galois.embed"),
    ("galois", "FqMatrix.rank", "galois.FqMatrix.rank"),
    ("galois", "FqMatrix.solve", "galois.FqMatrix.solve"),
    ("galois", "FqMatrix.inverse", "galois.FqMatrix.inverse"),
    ("galois", "FqMatrix.det", "galois.FqMatrix.det"),
    ("galois", "FqMatrix.__mul__", "galois.FqMatrix.mul"),
    ("feasibility", "invertibility", "feasibility.invertibility"),
    ("feasibility", "find_plan", "feasibility.find_plan"),
    ("feasibility", "check_plan", "feasibility.check_plan"),
    ("netmodel", "transfer_matrix", "netmodel.transfer_matrix"),
    ("netmodel", "normalize_delays", "netmodel.normalize_delays"),
    ("netmodel", "simulate", "netmodel.simulate"),
    ("netmodel", "validate", "netmodel.validate"),
    ("netmodel", "min_cut", "netmodel.min_cut"),
    ("transform", "run_pipeline", "transform.run_pipeline"),
    ("transform", "cp_encode", "transform.cp_encode"),
    ("transform", "cp_decode", "transform.cp_decode"),
    ("transform", "eigen_blocks", "transform.eigen_blocks"),
    ("transform", "make_plan", "transform.make_plan"),
    ("alignment", "build_instance", "alignment.build_instance"),
    ("alignment", "check_alignment", "alignment.check_alignment"),
    ("alignment", "align_search", "alignment.align_search"),
    ("alignment", "encode_decode", "alignment.encode_decode"),
    ("alignment", "build_tv", "alignment.build_tv"),
    ("alignment", "check_tv", "alignment.check_tv"),
    ("cli", "run", "cli.run"),
]

# callables reported by call count only
COUNT_ONLY = {"feasibility.check_plan"}


def _chain_edges(args, kwargs, result):
    net = result[0] if isinstance(result, tuple) else result
    return len(net.edges)


def _sim_steps(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["inputs"])


def _dft_mults(args, kwargs, result):
    # dense n x n transform over ``width`` lanes; computed, not counted
    plan, gens = args[0], args[1]
    return plan.n * plan.n * len(gens[0])


# counters fed from a callable's arguments and result on normal return
COUNTERS = {
    "netmodel.normalize_delays": ("netmodel.chain_edges", _chain_edges),
    "netmodel.simulate": ("netmodel.simulate.steps", _sim_steps),
    "transform.cp_encode": ("transform.dft_mults", _dft_mults),
    "transform.cp_decode": ("transform.dft_mults", _dft_mults),
    "feasibility.find_plan": ("feasibility.plan_hits", lambda a, k, r: 1),
    "alignment.align_search": ("alignment.search_hits", lambda a, k, r: 1),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.counts: dict[str, int] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, label: str) -> int:
        if label not in self.names:
            self.names.append(label)
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(self.names.index(label))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, fn):
        self.names.append(label)
        nid = len(self.names) - 1
        counter = COUNTERS.get(label)
        start, end, name, parent, job = self.start, self.end, self.name, self.parent, self.job
        stack, clock, counts = self._stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(clock())
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                key, f = counter
                counts[key] = counts.get(key, 0) + f(args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "netcode" or n.startswith("netcode."))]
        for mod_name, attr, label in CALLABLES:
            mod = sys.modules[f"netcode.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self._wrap(label, orig)
                for key, val in list(cls.__dict__.items()):
                    if val is orig:  # aliases such as __matmul__ = __mul__
                        self._undo.append((cls, key, val))
                        setattr(cls, key, wrapper)
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(label, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, val))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls, total and self time over spans inside jobs,
        plus the job spans' own uncovered time as ``untraced``."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        stats: dict[str, list] = {}
        job_total = job_self = 0.0
        for i in range(n):
            if self.job[i] < 0:
                continue
            label = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            if self.parent[i] < 0:  # the job's own span
                job_total += dur
                job_self += dur - covered[i]
                continue
            row = stats.setdefault(label, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[i]
        return {"callables": stats, "job_total_s": job_total, "untraced_s": job_self}

    def count_under(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` that run inside a span named ``ancestor``."""
        if child not in self.names or ancestor not in self.names:
            return 0
        cid, aid = self.names.index(child), self.names.index(ancestor)
        total = 0
        for i in range(len(self.start)):
            if self.name[i] != cid or self.job[i] < 0:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\n")
