"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit and that the
outputs were correct. Then flips one coefficient in one job's output,
once in the checked first pass and once in a timed pass, and checks that
the gate catches it and counts it as failed. Exits 0 when all of this
holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(want)}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def _flip(job) -> None:
    """Make ``job`` report its first determinant with one coefficient flipped."""
    run = job.run

    def flipped():
        code, text = run()
        rep = json.loads(text)
        rep["dets"][0][0][0] ^= 1
        return code, json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"

    job.run = flipped


def check_gate() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    from run import Runner

    manifest = workloads.build("design", 1, os.path.join(HERE, ".work", "smoke"), tiny=True)
    index = next(i for i, job in enumerate(manifest.jobs) if job["argv"][0] == "feasibility")

    # caught by the oracle in the checked pass, then failed in every timed pass
    runner = Runner(manifest, None)
    _flip(runner.jobs[index])
    runner.warm_up()
    assert runner.bad.get(runner.jobs[index].id, "").startswith("oracle"), runner.bad
    runner.timed(0.0, 1)
    failed = [s for s in runner.samples if not s[1]]
    assert len(failed) == 1 and len(runner.samples) == len(manifest.jobs), (len(failed), len(runner.samples))
    print(f"ok  flipped coefficient in the checked pass: caught, "
          f"fail_ratio {len(failed) / len(runner.samples):.3f}")

    # digest mismatch in a timed pass
    runner = Runner(manifest, None)
    runner.warm_up()
    assert not runner.bad, runner.bad
    _flip(runner.jobs[index])
    runner.timed(0.0, 1)
    failed = [s for s in runner.samples if not s[1]]
    assert len(failed) == 1 and not runner.verified(runner.jobs[index]), len(failed)
    print(f"ok  flipped coefficient in a timed pass: caught, "
          f"fail_ratio {len(failed) / len(runner.samples):.3f}")


if __name__ == "__main__":
    check_gate()
    check_metrics()
    print("smoke test passed")
