#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about five minutes on a 2-core box:

* a planted wrong reference result drives ``fail_ratio`` above 0, and
  the committed reference gives 0;
* every per-layer metric listed in BENCHMARK.json is reported by the
  traced run of every workload;
* two traced runs of one seed report identical ``.calls`` counts;
* the layer bypasses the workloads were chosen for hold:
  rational-norms constructs no ``RatFunc`` and solves no LP, and
  toric-segments constructs no ``RatFunc`` and inverts no matrix;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

BYPASS = {
    "rational-norms": ("field.RatFunc.calls", "linprog.minimize_max_affine.calls"),
    "toric-segments": ("field.RatFunc.calls", "linalg.invert.calls"),
}

failures = []


def report(ok, message):
    print(("PASS " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def _bench_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_planted_reference(workloads, workdir):
    workload = "rational-norms"
    true_reference = run.load_reference(workload)
    planted = list(true_reference)
    planted[3] = json.dumps("1/7")  # op 3 is a volume; no volume prints as this
    original = run.load_reference
    try:
        run.load_reference = lambda name: planted
        outcome, _ = run.measure(workloads, workload, run.DEFAULT_SEED, 2, workdir)
    finally:
        run.load_reference = original
    report(outcome.attempted > 3 and outcome.failed / outcome.attempted > 0,
           f"planted wrong reference: fail_ratio {outcome.failed}/{outcome.attempted} > 0")
    outcome, _ = run.measure(workloads, workload, run.DEFAULT_SEED, 2, workdir)
    report(outcome.failed == 0,
           f"committed reference: fail_ratio {outcome.failed}/{outcome.attempted} = 0")


def traced(workload):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "20", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=600)
    if done.returncode != 0:
        report(False, f"{workload}: traced run exited {done.returncode}: "
                      f"{done.stderr.strip()[-300:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_traced_runs():
    wanted = [m["name"] for m in _bench_json()["per_layer"]]
    for workload in sorted(run.POOL_OPS):
        first, second = traced(workload), traced(workload)
        if first is None or second is None:
            continue
        report(first["correct"] and second["correct"],
               f"{workload}: traced runs check every result "
               f"({first['failed']} + {second['failed']} failed)")
        missing = [m for m in wanted if m not in first["metrics"]]
        report(not missing, f"{workload}: all {len(wanted)} per-layer metrics "
                            f"reported{'' if not missing else f', missing {missing}'}")
        calls = [k for k in first["metrics"] if k.endswith("calls")]
        differ = [k for k in calls
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        report(not differ, f"{workload}: {len(calls)} call counts repeat exactly"
                           f"{'' if not differ else f', except {differ}'}")
        for name in BYPASS.get(workload, ()):
            value = first["metrics"][name]["value"]
            report(value == 0, f"{workload}: {name} = {value}, expected 0")


def check_bare_directory():
    bare = run.OUT_DIR / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = [sys.executable, "perfbench/run.py", "--workload", "tadic-norms",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=bare,
                              timeout=180)
        printed = any(line.startswith("{") for line in done.stdout.splitlines())
        report(done.returncode != 0 and not printed,
               f"bare directory: exit {done.returncode}, result printed: {printed}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    workloads = run.import_geonorm()
    workdir = run.OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_planted_reference(workloads, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_bare_directory()
    check_traced_runs()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
