"""netcode benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from ``src/``
of that checkout and nowhere else. One process, one closed-loop client:
each job starts when the previous one has finished.

A run generates the workload's inputs from the seed, measures set-up in
fresh interpreters, runs every job once untimed (checking each output
with an oracle and against the recorded digest), then runs whole passes
over the jobs until ``--seconds`` have passed and at least three passes
ran, comparing every output's digest with the checked one. Every workload
has more than 100 jobs, so a pass alone puts ten samples beyond p90.
Job and set-up times are scaled to a reference host by the calibration
block of calibrate.py, timed between the jobs and around each set-up.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` times half
the budget untraced and half with spans around the program's public
callables, then runs the regime micro rows and scaling sweeps, and
reports the per-layer metrics. Every metric is printed as a line
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A wrong output makes the run
exit 1; a missing program exits 2.

``--record`` runs the untimed pass only and stores the output digests of
this (workload, seed) in ``perfbench/digests.json``. ``--tiny`` shrinks
every instance, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
MIN_PASSES = 3
SETUP_REPEATS = 3


def _import_program():
    """Import netcode from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import netcode
    except ImportError as exc:
        print(f"perfbench: cannot import netcode from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(netcode.__file__).startswith(SRC + os.sep):
        print(f"perfbench: netcode imported from {netcode.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _probe(fields, lifts) -> dict:
    """Run setup_probe.py in a fresh interpreter and return its report."""
    spec = json.dumps({"fields": fields, "lifts": lifts})
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, spec],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


class Runner:
    """Prepared jobs of one workload and the digests they must reproduce."""

    def __init__(self, manifest, recorded: dict | None):
        from jobs import Job

        self.jobs = [Job(spec) for spec in manifest.jobs]
        self.recorded = recorded
        self.reference: dict[str, str] = {}
        self.bad: dict[str, str] = {}  # job id -> why its checked output is wrong
        self.failures: dict[str, str] = {}  # job id -> first failure in a timed pass
        self.samples: list[tuple[float, bool]] = []  # every timed run: (raw seconds, ok)

    def warm_up(self) -> None:
        """Untimed first pass: oracles, recorded digests, table builds."""
        from jobs import OracleMismatch, digest

        for job in self.jobs:
            try:
                result = job.run()
                data = job.finish(result)
                job.check(result)
            except OracleMismatch as exc:
                self.bad[job.id] = f"oracle: {exc}"
                continue
            except Exception as exc:  # a crash is a failed job, not a crashed benchmark
                self.bad[job.id] = f"raised {type(exc).__name__}: {exc}"
                continue
            d = digest(data)
            self.reference[job.id] = d
            if self.recorded is not None and self.recorded.get(job.id) != d:
                self.bad[job.id] = f"digest {d} != recorded {self.recorded.get(job.id)}"

    def timed(self, seconds: float, min_passes: int, tracer=None) -> list[list[float]]:
        """Whole passes until ``seconds`` have passed and ``min_passes`` ran.

        Returns each job's times, one per pass, in job order, scaled to
        the reference host (see calibrate.py).
        """
        from calibrate import Clock
        from jobs import digest

        clock = Clock()
        runs = []  # (job index, start, end)
        begin = time.perf_counter()
        passes = 0
        while passes < min_passes or time.perf_counter() - begin < seconds:
            passes += 1
            for i, job in enumerate(self.jobs):
                clock.tick()
                if tracer is not None:
                    tracer.job_id += 1
                    span = tracer.open("job")
                t = time.perf_counter()
                try:
                    result = job.run()
                    why = None
                except Exception as exc:  # counted as a failed job
                    why = f"raised {type(exc).__name__}: {exc}"
                end = time.perf_counter()
                if tracer is not None:
                    tracer.close(span)
                if why is None and job.id not in self.bad:
                    d = digest(job.finish(result))
                    if d != self.reference[job.id]:
                        why = f"digest {d} != checked {self.reference[job.id]}"
                if why is not None:
                    self.failures.setdefault(job.id, why)
                runs.append((i, t, end))
                self.samples.append((end - t, why is None and job.id not in self.bad))
        clock.tick()
        if tracer is not None:
            tracer.job_id = -1
        times: list[list[float]] = [[] for _ in self.jobs]
        for i, t, end in runs:
            times[i].append((end - t) * clock.scale(t, end))
        return times

    def verified(self, job) -> bool:
        return job.id not in self.bad and job.id not in self.failures


def _end_to_end(runner: Runner, times: list[list[float]]) -> dict:
    """Quantiles over every timed run of every job; rates over their sum."""
    flat = [t for own in times for t in own]
    ok = [runner.verified(job) for job in runner.jobs]
    sym = [(sum(own), job.symbols * len(own) * good)
           for own, job, good in zip(times, runner.jobs, ok) if job.symbols]
    return {
        "job_p50_s": (statistics.median(flat), "s"),
        "job_p90_s": (statistics.quantiles(flat, n=10)[8], "s"),
        "jobs_per_s": (sum(len(own) * good for own, good in zip(times, ok)) / sum(flat), "1/s"),
        "symbols_per_s": (sum(n for _, n in sym) / sum(t for t, _ in sym), "1/s"),
        "samples": (len(flat), "count"),
    }


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _per_layer(tracer, base_p50: float, traced_p50: float, regimes: dict, sweeps: dict) -> dict:
    from probes import REGIMES
    from tracing import CALLABLES, COUNT_ONLY

    agg = tracer.aggregate()
    out = {}
    for _, _, label in CALLABLES:
        calls, total, own = agg["callables"].get(label, (0, 0.0, 0.0))
        out[f"{label}.calls"] = (calls, "count")
        if label not in COUNT_ONLY:
            out[f"{label}.total_s"] = (total, "s")
            out[f"{label}.self_s"] = (own, "s")
    counts = tracer.counts
    checks = tracer.count_under("feasibility.check_plan", "feasibility.find_plan")
    attempts = tracer.count_under("alignment.build_instance", "alignment.align_search")
    out["feasibility.plan_hit_ratio"] = (counts.get("feasibility.plan_hits", 0) / checks if checks else 0.0, "ratio")
    out["netmodel.chain_edges"] = (counts.get("netmodel.chain_edges", 0), "count")
    out["netmodel.simulate.steps"] = (counts.get("netmodel.simulate.steps", 0), "count")
    out["transform.dft_mults"] = (counts.get("transform.dft_mults", 0), "count")
    out["alignment.attempts"] = (attempts, "count")
    out["alignment.hit_ratio"] = (counts.get("alignment.search_hits", 0) / attempts if attempts else 0.0, "ratio")
    for name in REGIMES:
        for op in ("mul", "add", "inv"):
            out[f"galois.{op}_ns.{name}"] = (regimes[f"galois.{op}_ns.{name}"], "ns")
        out[f"galois.table_build_s.{name}"] = (regimes["fresh"]["fields"][name]["first_mul_s"], "s")
    for lift, secs in regimes["fresh"]["lifts"].items():
        out[f"galois.embed.scan_s.{lift}"] = (secs, "s")
    for name, val in sweeps.items():
        out[name] = (val, "log-log")
    out["trace.overhead_ratio"] = (traced_p50 / base_p50, "ratio")
    out["trace.untraced_ratio"] = (agg["untraced_s"] / agg["job_total_s"], "ratio")
    return out


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def _metadata() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = 0
    pkg = os.path.join(SRC, "netcode")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "src_lines": lines}


def _load_recorded(workload: str, seed: int) -> dict | None:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _record(workload: str, seed: int, runner: Runner) -> None:
    book = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            book = json.load(fh)
    book.setdefault(workload, {})[str(seed)] = runner.reference
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(book, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("design", "stream", "align"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    sys.path.insert(0, HERE)
    import workloads

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}")
    manifest = workloads.build(args.workload, args.seed, work, tiny=args.tiny)
    recorded = None if args.tiny or args.record else _load_recorded(args.workload, args.seed)
    metrics: dict = {}
    if not args.trace and not args.record:
        from calibrate import REF_S

        repeats = 1 if args.tiny else SETUP_REPEATS
        probed = [_probe(manifest.fields, manifest.lifts) for _ in range(repeats)]
        setups = [p["total_s"] * REF_S / p["ref_s"] for p in probed]
        metrics["setup_s"] = (statistics.median(setups), "s")
    runner = Runner(manifest, recorded)
    runner.warm_up()
    if args.record:
        if runner.bad:
            for job_id, why in runner.bad.items():
                print(f"not recorded: {job_id}: {why}", file=sys.stderr)
            return 1
        _record(args.workload, args.seed, runner)
        print(f"recorded {len(runner.reference)} digests for {args.workload} seed {args.seed}")
        return 0

    if not args.trace:
        metrics.update(_end_to_end(runner, runner.timed(args.seconds, MIN_PASSES)))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        import probes
        from tracing import Tracer

        base = runner.timed(args.seconds / 2, 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.timed(args.seconds / 2, 2, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(work, "spans.tsv"))
        regimes = probes.regime_rows(args.seed)
        regimes["fresh"] = _probe([list(v) for v in probes.REGIMES.values()],
                                  [list(x) for x in probes.LIFTS])
        metrics.update(_per_layer(
            tracer,
            statistics.median(t for own in base for t in own),
            statistics.median(t for own in traced for t in own),
            regimes,
            probes.sweeps(args.seed, args.tiny),
        ))

    attempted = len(runner.samples)
    failed = sum(1 for s in runner.samples if not s[1])
    for job_id, why in sorted({**runner.failures, **runner.bad}.items()):
        print(f"FAILED {job_id}: {why}")
    meta = _metadata()
    print(f"# {args.workload} seed {args.seed}: python {meta['python']}, nproc {meta['nproc']}, "
          f"cpu {meta['cpu']}, src/netcode {meta['src_lines']} lines")
    print(f"fail_ratio {failed / attempted:.6f} ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.9g} {unit}")
    result = {
        "correct": failed == 0 and not runner.bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name != "samples"},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
