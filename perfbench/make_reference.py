#!/usr/bin/env python3
"""Write the reference results the benchmark compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload (default: all) this runs every op of the default-seed
pool once and writes ``perfbench/reference/<workload>.json.gz``: the
exact result of each op as canonical text, with rationals as ``num/den``
strings and, for cli-run, the bytes of every artifact and of
``report.json``.  An op that raises or fails its own exact check stops
the script, so a reference never records a wrong result.

Regenerate only when the benchmark's inputs or ops change, never to make
a library change pass.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

import run


def write_reference(workloads, workload, workdir):
    count = run.POOL_OPS[workload]
    ops = [workloads.make_op(workload, run.DEFAULT_SEED, i, workdir)
           for i in range(count)]
    done = run.run_pass(ops)
    texts = []
    for op, ok, result in done.results:
        if not ok:
            raise SystemExit(f"{workload} op {op.index} ({op.kind}) raised {result!r}")
        if not op.check(result):
            raise SystemExit(f"{workload} op {op.index} ({op.kind}) failed its check")
        texts.append(run.canon_text(op, result))
        if op.cleanup is not None:
            op.cleanup()
    doc = {"workload": workload, "seed": run.DEFAULT_SEED, "ops": count,
           "results": texts}
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{workload}.json.gz"
    with open(path, "wb") as raw:
        # mtime 0 keeps the file byte-identical across regenerations
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
            fh.write((json.dumps(doc, indent=0) + "\n").encode("utf-8"))
    print(f"{workload}: {count} ops in {done.wall:.1f} s -> {path.relative_to(run.ROOT)}")


def main(argv):
    names = argv or sorted(run.POOL_OPS)
    unknown = [n for n in names if n not in run.POOL_OPS]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; expected {sorted(run.POOL_OPS)}")
    workloads = run.import_geonorm()
    workdir = run.OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            write_reference(workloads, name, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
