#!/usr/bin/env python3
"""geonorm benchmark: seeded op streams through the library's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a geonorm checkout; the library is imported from its
``src`` directory.  One process, one thread, a closed loop with one
client: each op is issued when the previous one returns.

With ``--trace 0`` the run builds a fixed pool of seeded inputs (timed as
``setup_s``), issues ops for ``--seconds`` seconds or until the pool is
used up, checks every exact result, and prints the end-to-end metrics.
Their times are scaled to a reference host speed by a calibration kernel
run between blocks of ops (see calib.py); the raw times are printed too.
With ``--trace 1`` it runs a fixed number of ops twice, untraced and then
traced, and prints the per-layer metrics from the trace (see tracer.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything before it is for
people: the metrics with units, run metadata and per-op result digests.
The exit status is 0 whenever that line is printed, 2 on a usage error or
when the checkout holds no geonorm sources.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 0

# Inputs built per run.  A run stops early if it uses its pool up, so each
# pool holds about twice the ops the seed commit completes in 20 s on a
# 2-vCPU x86-64 VM at reference speed.  Pool sizes are whole kind cycles.
POOL_OPS = {
    "tadic-norms": 1008,
    "rational-norms": 3200,
    "toric-segments": 1400,
    "cli-run": 408,
}
# Ops per traced run, the same for every seed so that `.calls` repeat
# exactly; whole kind cycles, 5 to 11 s untraced on the same box.
TRACE_OPS = {
    "tadic-norms": 84,
    "rational-norms": 640,
    "toric-segments": 210,
    "cli-run": 60,
}
# One warm-up op per entry of the workload's kind cycle, from a stream
# disjoint from the measured one.
WARMUP_OPS = {
    "tadic-norms": 7,
    "rational-norms": 16,
    "toric-segments": 7,
    "cli-run": 1,
}
SETUP_SLICES = 12
# Least wall time of a block of ops between two calibration samples.  The
# host's speed holds for seconds at a time, and a sample costs about 4 ms.
BLOCK_S = 0.1
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_geonorm():
    if not (SRC / "geonorm" / "__init__.py").is_file():
        _fail(f"no geonorm sources under {SRC}; run from a geonorm checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    package = workloads.bind()
    if Path(package.__file__).resolve().parent != (SRC / "geonorm").resolve():
        _fail(f"imported geonorm from {package.__file__}, not from {SRC}")
    return workloads


def _import_seconds():
    """Median time of `import geonorm` in fresh interpreters, at reference speed."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import geonorm; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        k_before = calib.sample_ms()
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        scale = calib.scale(k_before, calib.sample_ms())
        samples.append(float(done.stdout.strip()) * scale)
    return statistics.median(samples)


def canon_text(op, result):
    return json.dumps(op.canon(result), sort_keys=True, separators=(",", ":"))


def load_reference(workload):
    path = REFERENCE_DIR / f"{workload}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["results"]


class Outcome:
    """Exact results of the ops one pass ran, checked after the pass."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.unreferenced = 0
        self.digests = []
        self.artifact_bytes = 0
        self.first_failures = []

    def record(self, op, ok, result):
        self.attempted += 1
        text = None
        good = ok
        if ok:
            try:
                text = canon_text(op, result)
                good = bool(op.check(result))
            except Exception as exc:  # noqa: BLE001 - a broken result is a failure
                good, result = False, exc
        if good and self.reference is not None:
            if op.index < len(self.reference):
                good = self.reference[op.index] == text
            else:
                self.unreferenced += 1
        if good and self.workload == "cli-run":
            self.artifact_bytes += sum(len(v.encode("utf-8"))
                                       for v in json.loads(text)[1].values())
        self.digests.append(
            hashlib.sha256(text.encode()).hexdigest()[:12] if text else "error")
        if not good:
            self.failed += 1
            if len(self.first_failures) < 3:
                self.first_failures.append(
                    f"op {op.index} ({op.kind}): "
                    + (repr(result)[:200] if not ok or text is None
                       else "result differs from the reference or fails its check"))


class Pass:
    """What one pass over ops measured: raw times and times at reference speed."""

    def __init__(self):
        self.lat = []       # raw wall latency per op, s
        self.lat_ref = []   # the same at reference speed (calib.py), s
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0
        self.scales = []    # one per block
        self.results = []   # (op, ok, result)


def run_pass(ops, seconds=None, tracer=None):
    """Issue ops back to back, for at most ``seconds`` if given.

    Ops run in blocks of at least BLOCK_S of wall time (or one op, if it is
    longer); a calibration sample before and after each block gives the
    block's scale to reference speed.  Wall and CPU time exclude the
    calibration samples.
    """
    p = Pass()
    gc.collect()
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    i = 0
    k_before = calib.sample_ms()
    while i < len(ops) and (deadline is None or time.perf_counter() < deadline):
        lat = []
        cpu0 = time.process_time()
        block_start = time.perf_counter()
        while i < len(ops):
            op = ops[i]
            i += 1
            if tracer is not None:
                tracer.begin_op(op.index)
            t0 = time.perf_counter()
            try:
                result, ok = op.run(), True
            except Exception as exc:  # noqa: BLE001 - counted in fail_ratio
                result, ok = exc, False
            now = time.perf_counter()
            lat.append(now - t0)
            p.results.append((op, ok, result))
            if now - block_start >= BLOCK_S or (deadline is not None and now >= deadline):
                break
        wall = time.perf_counter() - block_start
        cpu = time.process_time() - cpu0
        k_after = calib.sample_ms()
        scale = calib.scale(k_before, k_after)
        k_before = k_after
        p.lat.extend(lat)
        p.lat_ref.extend(x * scale for x in lat)
        p.wall += wall
        p.cpu += cpu
        p.wall_ref += wall * scale
        p.cpu_ref += cpu * scale
        p.scales.append(scale)
    return p


def _timed_ref(fn):
    """(result of fn(), its wall time in s at reference speed)."""
    k_before = calib.sample_ms()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall * calib.scale(k_before, calib.sample_ms())


def _check(outcome, results):
    for op, ok, result in results:
        outcome.record(op, ok, result)
        if op.cleanup is not None:
            op.cleanup()


def _build_pool(workloads, workload, seed, count, workdir):
    """The op pool, built in equal slices.

    Returns (ops, per-slice seconds at reference speed).
    """
    ops, slice_s = [], []
    per = math.ceil(count / SETUP_SLICES)
    for lo in range(0, count, per):
        part, seconds = _timed_ref(lambda: [workloads.make_op(workload, seed, i, workdir)
                                            for i in range(lo, min(lo + per, count))])
        ops.extend(part)
        slice_s.append(seconds)
    return ops, slice_s


def _nearest_rank(sorted_values, q):
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[max(rank, 1) - 1], len(sorted_values) - rank


def _metadata(workload, seed, seconds, trace, ops):
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "geonorm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": ops, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def _print_outcome(outcome):
    if outcome.reference is None:
        print(f"reference: none for seed {outcome.seed}; compare per-op digests")
    else:
        print(f"reference: {outcome.attempted - outcome.unreferenced} ops compared "
              f"with perfbench/reference/{outcome.workload}.json.gz")
    combined = hashlib.sha256(" ".join(outcome.digests).encode()).hexdigest()[:16]
    print(f"digest {combined} over {len(outcome.digests)} ops; per op: "
          + " ".join(outcome.digests))
    for line in outcome.first_failures:
        print(f"FAILED {line}")


def measure(workloads, workload, seed, seconds, workdir):
    """The untraced run: end-to-end metrics, times at reference speed."""
    t0 = time.perf_counter()
    import_s = _import_seconds()
    ops, slice_s = _build_pool(workloads, workload, seed, POOL_OPS[workload], workdir)
    gen_s = len(slice_s) * statistics.median(slice_s)
    warm = run_pass(workloads.warmup_stream(workload, seed, WARMUP_OPS[workload],
                                            workdir))
    _check(Outcome(workload, seed, None), warm.results)
    warm_s = warm.wall_ref
    setup_wall = time.perf_counter() - t0

    p = run_pass(ops, seconds)
    n = len(p.lat)
    # before the reference is loaded, so that seed 0 reads like any other
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    outcome = Outcome(workload, seed, reference)
    _check(outcome, p.results)

    lat_ms = sorted(x * 1e3 for x in p.lat_ref)
    p90, above = _nearest_rank(lat_ms, 0.9)
    metrics = {
        "setup_s": import_s + gen_s + warm_s,
        "ops_per_s": n / p.wall_ref,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "cpu_ms_per_op": p.cpu_ref * 1e3 / n,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_ms = sorted(x * 1e3 for x in p.lat)
    scales = sorted(p.scales)
    print(f"workload {workload}, seed {seed}: {n} ops in {p.wall:.3f} s "
          f"(pool {len(ops)}{', used up' if n == len(ops) else ''}), "
          f"{len(scales)} blocks")
    print(f"  host scale to reference speed per block: min {scales[0]:.3f}, "
          f"median {statistics.median(scales):.3f}, max {scales[-1]:.3f}")
    print(f"  raw: {n / p.wall:.6g} ops/s, p50 {statistics.median(raw_ms):.6g} ms, "
          f"p90 {_nearest_rank(raw_ms, 0.9)[0]:.6g} ms, "
          f"cpu {p.cpu * 1e3 / n:.6g} ms/op")
    print(f"  setup at reference speed: import {import_s:.4f} s + inputs "
          f"{gen_s:.4f} s ({len(slice_s)} slices x median) + warm-up "
          f"{warm_s:.4f} s; raw wall {setup_wall:.3f} s")
    for name, value in metrics.items():
        note = {"op_p50_ms": f"  (n={n})",
                "op_p90_ms": f"  (n={n}, {above} above)"}.get(name, "")
        print(f"  {name:14s} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"  {'fail_ratio':14s} {outcome.failed / n:.6g} ratio "
          f"({outcome.failed}/{n})")
    print("meta " + json.dumps(_metadata(workload, seed, seconds, 0, n)))
    _print_outcome(outcome)
    return outcome, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                     for k, v in metrics.items()}


def trace(workloads, workload, seed, seconds, workdir):
    """The traced run: per-layer metrics over a fixed number of ops."""
    import tracer as tracer_mod
    count = TRACE_OPS[workload]
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    outcome = Outcome(workload, seed, reference)

    warm = workloads.warmup_stream(workload, seed, WARMUP_OPS[workload], workdir)
    _check(Outcome(workload, seed, None), run_pass(warm).results)
    plain = run_pass([workloads.make_op(workload, seed, i, workdir)
                      for i in range(count)])
    _check(outcome, plain.results)
    plain.results.clear()

    traced_ops = [workloads.make_op(workload, seed, i, workdir) for i in range(count)]
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        traced = run_pass(traced_ops, tracer=tr)
    finally:
        tr.uninstall()
    _check(outcome, traced.results)
    wall_traced = traced.wall

    metrics = tr.metrics()
    metrics["cli.artifact_bytes"] = (outcome.artifact_bytes / outcome.attempted, "bytes")
    metrics["trace_overhead_ratio"] = (traced.wall_ref / plain.wall_ref - 1, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"trace-{workload}-seed{seed}.csv.gz"
    tr.write_spans(span_path)

    print(f"workload {workload}, seed {seed}: traced {count} ops in "
          f"{wall_traced:.3f} s, untraced {plain.wall:.3f} s; "
          f"{len(tr.names)} spans -> {span_path.relative_to(ROOT)}")
    top = sorted(range(len(tr.self_ns)), key=lambda i: -tr.self_ns[i])[:8]
    print("  top self time, share of traced wall: " + ", ".join(
        f"{tracer_mod.NAMES[i]} {tr.self_ns[i] / 1e7 / wall_traced:.1f}%"
        for i in top if tr.self_ns[i]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print("meta " + json.dumps(_metadata(workload, seed, seconds, 1, count)))
    _print_outcome(outcome)
    return outcome, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_all(args):
    """Every workload in its own process, then one table."""
    rows = []
    for workload in sorted(POOL_OPS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            _fail(f"{workload} exited with status {done.returncode}")
        rows.append((workload, json.loads(done.stdout.strip().splitlines()[-1])))
    if not args.trace:
        names = list(rows[0][1]["metrics"])
        print()
        print("workload".ljust(16) + "".join(n.rjust(16) for n in names)
              + "fail_ratio".rjust(12))
        for workload, res in rows:
            cells = "".join(f"{res['metrics'][n]['value']:16.5g}" for n in names)
            print(workload.ljust(16) + cells
                  + f"{res['failed'] / res['attempted']:12.4g}")
        print("units".ljust(16) + "".join(rows[0][1]["metrics"][n]["unit"].rjust(16)
                                          for n in names) + "ratio".rjust(12))
    summary = {
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{w}.{n}": v for w, r in rows for n, v in r["metrics"].items()},
    }
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(POOL_OPS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        run_all(args)
        return 0

    workloads = import_geonorm()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = trace if args.trace else measure
        outcome, metrics = run(workloads, args.workload, args.seed, args.seconds,
                               str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
