"""Command line driver.

Subcommands:

* ``run``              - execute the task list of an experiment config
* ``suite``            - run a named verification suite
* ``toric energy``     - convergence table for the energy of a metric pair
* ``segments maximal`` - evaluate the quantized maximal segment at one t
* ``segments verify``  - run a config's verify tasks and write a report

``run`` and ``segments verify`` keep one record per ordered pair of norm or
metric names for the whole command (``norms.NormPair``,
``segments.SegmentPair``), so the tasks on one pair share its work: one
kernel run per pair of norms, one conjugation of each metric, one overlay
of their profiles, one Legendre slice per t, one level segment per k and
one diagnostics report per chain of levels.  Each artifact is the one a
config holding only its task writes.

Outputs are deterministic: rationals render as "num/den" strings, decimal
columns appear only in convergence tables, files are written atomically,
and re-running a command reproduces its artifacts byte for byte.  The
exit status is 0 on success, 1 when a verification check fails (the
counterexample is serialized in the report and echoed to stderr), and 2
on usage or config errors, on input the library rejects and on an output
path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from .config import ConfigError, load_config, metric_pair
from .field import format_fraction, read_count, read_time
from .graded import asymptotic_stats, check_submultiplicative, serialize_counterexample
from .norms import NormPair
from .geodesics import pair_geodesic
from .segments import SegmentPair, detect_non_psh, maximal_segment
from .suites import SUITE_NAMES, run_suite
from .toric import ConvergenceResult, energy


def _write_text(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(text.encode("utf-8"))
    os.replace(tmp, path)


def _render(data, fmt):
    """Render rows as CSV when possible, everything else as JSON."""
    is_table = (
        isinstance(data, list)
        and data
        and all(isinstance(r, dict) for r in data)
    )
    if fmt == "csv" and is_table:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(data[0].keys()))
        writer.writeheader()
        for row in data:
            writer.writerow({k: _scalar(v) for k, v in row.items()})
        return buf.getvalue(), "csv"
    # the handlers build artifacts of strings, ints, bools, None, lists and
    # dicts keyed by strings, every rational already rendered
    return json.dumps(data, indent=2, sort_keys=True) + "\n", "json"


def _scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def _resolve_out(out, default_name, ext):
    """Interpret --out as a file when it has a data extension, else a dir."""
    if out is None:
        return None
    root, suffix = os.path.splitext(out)
    if suffix in (".json", ".csv"):
        parent = os.path.dirname(out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return out
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"{default_name}.{ext}")


def _emit_to(path, data, fmt):
    """Write (or print) data rendered as fmt to a path ``_resolve_out``
    gave; returns the path written, if any."""
    text, ext = _render(data, fmt)
    if path is None:
        sys.stdout.write(text)
        return None
    if path.endswith(".csv") and ext == "json":
        path = path[:-4] + ".json"
    _write_text(path, text)
    return path


# ---------------------------------------------------------------------------
# run: config task list


def _task_kmax(task, args, fallback=8):
    if "kmax" in task:
        return task["kmax"]
    if args.kmax is not None:
        return args.kmax
    return fallback


def _pair(task, cfg, pairs, kind):
    """The record of a task's ordered pair of norms or metrics.

    ``pairs`` maps (kind, name0, name1) to a ``norms.NormPair`` or a
    ``segments.SegmentPair``; it lives for one command, so every task on a
    pair reads one record: one kernel run per pair of norms, and per pair of
    metrics one conjugation of each metric, one overlay (for d1, d_infinity,
    the critical shifts, the Legendre slices and the P^1 tables), one
    Legendre slice per t, one weight table per level read (the P^1 tables
    read none, a maximal segment its top level) and one diagnostics report
    per chain of levels, which the ``diagnostics`` task and ``verify
    theoremB`` share.
    """
    names = tuple(task[kind])
    key = (kind,) + names
    if key not in pairs:
        table, record = ((cfg.norms, NormPair) if kind == "norms"
                         else (cfg.metrics, SegmentPair))
        pairs[key] = record(*(table[name] for name in names))
    return pairs[key]


def _diagnostics(task, cfg, args, pairs):
    """``segments.diagnostics`` of a task's metric pair, from its record."""
    return _pair(task, cfg, pairs, "metrics").diagnostics(
        _task_kmax(task, args, 4))


def _run_verify(task, cfg, args, pairs):
    """Returns (report dict, ok, counterexample or None)."""
    target = task["target"]
    if target == "submultiplicative":
        gn = cfg.graded[task["graded"]]
        violation = check_submultiplicative(gn)
        ok = violation is None
        ce = None if ok else serialize_counterexample(violation)
        return {"target": target, "status": "pass" if ok else "fail",
                "counterexample": ce}, ok, ce
    if target == "segment_psh":
        path = cfg.paths[task["path"]]
        witness = detect_non_psh(path.ring, path.k, path.samples)
        ok = witness is None
        return {"target": target, "status": "pass" if ok else "fail",
                "counterexample": witness}, ok, witness
    # theoremB: exactness flags of the maximal-segment diagnostics
    report = _diagnostics(task, cfg, args, pairs)
    problems = []
    if not report["energy_affine_exact"]:
        problems.append({"check": "energy-affine",
                         "energies": report["energy_along_segment"]})
    for level in report["d1_geodesic_per_level"]:
        if not level["geodesic_exact"]:
            problems.append({"check": "d1-geodesic", "k": level["k"]})
    for label, gap in report["endpoint_recovery"].items():
        if not gap["recovered"]:
            problems.append({"check": "endpoint", "end": label,
                             "relation": gap["relation"]})
    ok = not problems
    ce = None if ok else problems
    return {"target": target, "status": "pass" if ok else "fail",
            "counterexample": ce, "diagnostics": report}, ok, ce


def _run_task(idx, task, cfg, args, pairs):
    """Returns (artifact data, ok flag, counterexample)."""
    op = task["op"]
    if op == "spectrum":
        rows = [{"i": i, "lambda": format_fraction(v)} for i, v
                in enumerate(_pair(task, cfg, pairs, "norms").spectrum())]
        return rows, True, None
    if op == "distance":
        p = task.get("p", 1)
        value = _pair(task, cfg, pairs, "norms").distance(p)
        return [{"p": "inf" if p == math.inf else str(p),
                 "value": format_fraction(value)}], True, None
    if op == "volume":
        value = _pair(task, cfg, pairs, "norms").volume()
        return [{"value": format_fraction(value)}], True, None
    if op == "join":
        return _pair(task, cfg, pairs, "norms").join().to_json(), True, None
    if op == "geodesic":
        geo = pair_geodesic(_pair(task, cfg, pairs, "norms"))
        return geo.at(task["t"]).to_json(), True, None
    if op == "asymptotic":
        g0, g1 = (cfg.graded[x] for x in task["graded"])
        values, limit = asymptotic_stats(
            g0, g1, task.get("p", 1), oracle_limit=task.get("oracle_limit"))
        return ConvergenceResult(tuple(values), limit).rows(), True, None
    if op in ("energy", "d1"):
        pair = _pair(task, cfg, pairs, "metrics")
        fn = pair.energy if op == "energy" else pair.d1
        return fn(_task_kmax(task, args)).rows(), True, None
    if op == "maximal":
        metric = _pair(task, cfg, pairs, "metrics").maximal(
            task["t"], _task_kmax(task, args))
        return metric.to_json(), True, None
    if op == "legendre":
        pair = _pair(task, cfg, pairs, "metrics")
        return pair.legendre(task["t"]).to_json(), True, None
    if op == "diagnostics":
        return _diagnostics(task, cfg, args, pairs), True, None
    if op == "suite":
        rows = run_suite(task.get("name", "all"),
                         seed=task.get("seed", args.seed))
        ok = all(r["status"] == "pass" for r in rows)
        failing = [r for r in rows if r["status"] != "pass"]
        return rows, ok, failing or None
    if op == "verify":
        return _run_verify(task, cfg, args, pairs)
    raise ConfigError(f"task {idx}: unhandled op {op!r}")  # pragma: no cover


def cmd_run(args):
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_path or "."
    fmt = args.format or cfg.output_format
    os.makedirs(out_dir, exist_ok=True)
    summary = []
    failed = False
    pairs = {}
    for idx, task in enumerate(cfg.tasks):
        data, ok, counterexample = _run_task(idx, task, cfg, args, pairs)
        name = f"{idx:03d}_{task['op']}"
        text, ext = _render(data, fmt)
        path = os.path.join(out_dir, f"{name}.{ext}")
        _write_text(path, text)
        entry = {"task": idx, "op": task["op"],
                 "status": "pass" if ok else "fail",
                 "artifact": os.path.basename(path)}
        if counterexample is not None:
            entry["counterexample"] = counterexample
            print(f"task {idx} ({task['op']}): FAIL "
                  f"counterexample = {json.dumps(counterexample)}",
                  file=sys.stderr)
            failed = True
        summary.append(entry)
        print(f"task {idx} ({task['op']}): {'ok' if ok else 'FAIL'} -> {path}")
    report_path = os.path.join(out_dir, "report.json")
    _write_text(report_path,
                json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# suite / toric / segments


def cmd_suite(args):
    fmt = args.format or "json"
    # suite rows are a table, rendered as fmt; --out fails before the work
    path = _resolve_out(args.out, f"suite_{args.name}", fmt)
    rows = run_suite(args.name, seed=args.seed)
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        tag = "exact " if r["exact"] else "approx"
        print(f"[{r['status'].upper():4s}] {tag} {r['check']:{width}s}  {r['detail']}")
    n_fail = sum(1 for r in rows if r["status"] != "pass")
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    if path is not None:
        print(f"wrote {_emit_to(path, rows, fmt)}")
    return 1 if n_fail else 0


def cmd_toric_energy(args):
    cfg = load_config(args.config)
    names = args.pair.split(",") if args.pair else None
    phi0, phi1 = metric_pair(cfg, names)
    fmt = args.format or cfg.output_format
    # the energy rows are a table, rendered as fmt; --out fails before the work
    path = _resolve_out(args.out, "energy", fmt)
    res = energy(phi0, phi1, kmax=_task_kmax({}, args))
    path = _emit_to(path, res.rows(), fmt)
    print(f"energy limit = {format_fraction(res.limit)}"
          + (f" -> {path}" if path else ""))
    return 0


def cmd_segments_maximal(args):
    cfg = load_config(args.config)
    names = args.pair.split(",") if args.pair else None
    phi0, phi1 = metric_pair(cfg, names)
    t = read_time(args.t, "--t", ConfigError)
    # --out fails before the work
    path = _resolve_out(args.out, f"maximal_t_{t.numerator}_{t.denominator}",
                        "json")
    metric = maximal_segment(phi0, phi1, t, kmax=_task_kmax({}, args))
    path = _emit_to(path, metric.to_json(), "json")
    pieces = len(metric.potential.pieces)
    print(f"maximal segment at t = {args.t}: potential with {pieces} pieces"
          + (f" -> {path}" if path else ""))
    return 0


def cmd_segments_verify(args):
    cfg = load_config(args.config)
    verify_tasks = [t for t in cfg.tasks if t.get("op") == "verify"]
    if not verify_tasks:
        raise ConfigError(f"{args.config} defines no verify tasks")
    # --out fails before the work
    path = _resolve_out(args.out, "verify_report", "json")
    failed = False
    checks = []
    pairs = {}
    for idx, task in enumerate(verify_tasks):
        report, ok, counterexample = _run_verify(task, cfg, args, pairs)
        checks.append(report)
        status = "pass" if ok else "FAIL"
        print(f"verify {task['target']}: {status}")
        if not ok:
            print(f"counterexample = {json.dumps(counterexample)}",
                  file=sys.stderr)
            failed = True
    if path is not None:
        print(f"wrote {_emit_to(path, {'checks': checks}, 'json')}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


# the shared flags; each subcommand registers the ones it reads
_FLAGS = {
    "config": dict(required=True, help="experiment config JSON"),
    "kmax": dict(type=int, default=None, help="quantization depth override"),
    "seed": dict(type=int, default=0,
                 help="seed for the random-instance suites"),
    "out": dict(default=None, help="output directory (or .json/.csv file)"),
    "format": dict(choices=("csv", "json"), default=None,
                   help="table format (default from config, else json)"),
}


def _add_flags(parser, *names):
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="geonorm",
        description="exact geometry of non-archimedean norms, graded norms, "
                    "and toric psh segments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config's task list")
    _add_flags(p_run, "config", "kmax", "seed", "out", "format")
    p_run.set_defaults(fn=cmd_run)

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument("name", choices=("all",) + SUITE_NAMES)
    _add_flags(p_suite, "seed", "out", "format")
    p_suite.set_defaults(fn=cmd_suite, kmax=None)

    p_toric = sub.add_parser("toric", help="toric metric computations")
    toric_sub = p_toric.add_subparsers(dest="toric_command", required=True)
    p_energy = toric_sub.add_parser("energy",
                                    help="energy convergence table for a pair")
    _add_flags(p_energy, "config", "kmax", "out", "format")
    p_energy.add_argument("--pair", default=None,
                          help="comma-separated metric names (default: the "
                               "config's only two metrics)")
    p_energy.set_defaults(fn=cmd_toric_energy)

    p_seg = sub.add_parser("segments", help="maximal segments and verification")
    seg_sub = p_seg.add_subparsers(dest="segments_command", required=True)
    p_max = seg_sub.add_parser("maximal", help="evaluate the maximal segment")
    _add_flags(p_max, "config", "kmax", "out")
    p_max.add_argument("--t", required=True, help="parameter in [0, 1], e.g. 1/2")
    p_max.add_argument("--pair", default=None,
                       help="comma-separated metric names")
    p_max.set_defaults(fn=cmd_segments_maximal)
    p_verify = seg_sub.add_parser("verify",
                                  help="run a config's verify tasks, write a report")
    _add_flags(p_verify, "config", "kmax", "out")
    p_verify.set_defaults(fn=cmd_segments_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.kmax is not None:
            read_count(args.kmax, "--kmax", ConfigError)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # bad input, not a failed check: library errors (ToricError, ...)
        # derive from ValueError, and an OSError is an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
