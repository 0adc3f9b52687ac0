"""Experiment configuration files for the batch driver.

A config is a single JSON document:

.. code-block:: json

    {
      "arena": {"n": 1, "m": 1, "backend": "trivial"},
      "objects": {
        "norms":    {"a": {... DiagNorm ...}},
        "graded":   {"g": {... GradedNorm ...}},
        "metrics":  {"phi0": {... ToricMetric ...}},
        "segments": {"s": {... FSSegment ...}},
        "paths":    {"p": {"ring": {"n": 1, "m": 1}, "k": 1,
                           "samples": [{"t": "0", "weights": ["0", "0"]}]}}
      },
      "tasks": [{"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 8}],
      "output": {"format": "csv", "path": "out"}
    }

A rational is a ``"num/den"`` or decimal string, an integer, or a JSON
number read by its decimal text (``0.1`` is 1/10); a bool is refused.
``field.parse_fraction`` reads every one of them.  A ``paths`` object
is a metric path sampled at three or more distinct parameter values, the
input form for the psh (convexity-in-t) verification; its per-sample
weights follow the same basis order as FSSegment weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .field import json_list, parse_fraction
from .graded import (GradedNorm, SectionRing, _is_positive_int, _level_k,
                     _ring_dims)
from .norms import DiagNorm
from .segments import FSSegment
from .toric import ToricMetric


class ConfigError(ValueError):
    pass


KNOWN_OPS = {
    "spectrum": ("norms",),
    "distance": ("norms",),
    "volume": ("norms",),
    "join": ("norms",),
    "geodesic": ("norms",),
    "asymptotic": ("graded",),
    "energy": ("metrics",),
    "d1": ("metrics",),
    "maximal": ("metrics",),
    "legendre": ("metrics",),
    "diagnostics": ("metrics",),
    "suite": (),
    "verify": (),
}

VERIFY_TARGETS = ("submultiplicative", "segment_psh", "theoremB")


@dataclass
class MetricPath:
    """A metric path sampled at finitely many t values."""

    ring: SectionRing
    k: int
    samples: tuple  # ((t, weights dict), ...)

    @classmethod
    def from_json(cls, obj):
        ring = SectionRing(*_ring_dims(obj["ring"], "ring"))
        k = _level_k(obj)
        basis = ring.basis(k)
        samples, seen = [], set()
        for sample in obj["samples"]:
            t = parse_fraction(sample["t"])
            if t in seen:
                raise ConfigError(f"path samples repeat t = {t}")
            seen.add(t)
            raw = json_list(sample["weights"], "path sample weights")
            if len(raw) != len(basis):
                raise ConfigError(
                    f"path sample at t = {sample['t']} has {len(raw)} weights, "
                    f"expected {len(basis)}")
            weights = {a: parse_fraction(w) for a, w in zip(basis, raw)}
            samples.append((t, weights))
        if len(samples) < 3:
            raise ConfigError("a path needs at least three samples")
        return cls(ring, k, tuple(samples))


@dataclass
class ExperimentConfig:
    arena: dict | None
    norms: dict = field(default_factory=dict)
    graded: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    segments: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    tasks: tuple = ()
    output_format: str = "json"
    output_path: str | None = None


def _parse_objects(objects):
    parsed = {
        "norms": {},
        "graded": {},
        "metrics": {},
        "segments": {},
        "paths": {},
    }
    loaders = {
        "norms": DiagNorm.from_json,
        "graded": GradedNorm.from_json,
        "metrics": ToricMetric.from_json,
        "segments": FSSegment.from_json,
        "paths": MetricPath.from_json,
    }
    if not isinstance(objects, dict):
        raise ConfigError("objects must be a JSON object")
    for kind, table in objects.items():
        if kind not in loaders:
            raise ConfigError(
                f"unknown object kind {kind!r}; expected one of {sorted(loaders)}")
        if not isinstance(table, dict):
            raise ConfigError(f"objects.{kind} must be a JSON object")
        for name, obj in table.items():
            try:
                parsed[kind][name] = loaders[kind](obj)
            except Exception as exc:
                raise ConfigError(f"bad {kind} object {name!r}: {exc}") from exc
    return parsed


# The object reference each verify target reads: (task key, object kind,
# whether it is a pair).  Every other op with object kinds in KNOWN_OPS
# reads a pair of objects under the key of that kind.
_VERIFY_REFS = {
    "submultiplicative": ("graded", "graded", False),
    "segment_psh": ("path", "paths", False),
    "theoremB": ("metrics", "metrics", True),
}


# ops evaluated at one segment time t
_NEEDS_T = ("geodesic", "maximal", "legendre")


def _task_refs(idx, task):
    """The (kind, name) references a task reads, checked for shape."""
    op = task["op"]
    if op == "verify":
        target = task.get("target")
        if target not in VERIFY_TARGETS:
            raise ConfigError(
                f"task {idx}: verify target must be one of {VERIFY_TARGETS}, "
                f"got {target!r}")
        key, kind, pair = _VERIFY_REFS[target]
    elif KNOWN_OPS[op]:
        key = kind = KNOWN_OPS[op][0]
        pair = True
    else:
        return []
    names = task.get(key)
    if pair:
        if not (isinstance(names, list) and len(names) == 2
                and all(isinstance(n, str) for n in names)):
            raise ConfigError(
                f"task {idx} ({op}): {key!r} must be a list of two "
                f"{kind} names, got {names!r}")
        return [(kind, name) for name in names]
    if not isinstance(names, str):
        raise ConfigError(
            f"task {idx} ({op}): {key!r} must name one {kind} object, "
            f"got {names!r}")
    return [(kind, names)]


def parse_rational(value, what):
    """``field.parse_fraction`` of ``value``; a ConfigError naming ``what``
    if it is no rational."""
    try:
        return parse_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"{what} must be a rational, got {value!r}") from None


def _parsed_task(idx, task, parsed):
    """A copy of ``task``, checked, with ``t`` and ``oracle_limit`` read as
    Fractions and ``p`` as an int or ``math.inf``."""
    task = dict(task)
    op = task["op"]
    for kind, name in _task_refs(idx, task):
        if name not in parsed[kind]:
            raise ConfigError(
                f"task {idx} ({op}) references undefined {kind} object {name!r}")
    if op in _NEEDS_T and "t" not in task:
        raise ConfigError(f"task {idx} ({op}): needs a 't' in [0, 1]")
    if "t" in task:
        task["t"] = t = parse_rational(task["t"], f"task {idx}: t")
        if not 0 <= t <= 1:
            raise ConfigError(f"task {idx}: t must lie in [0, 1], got {t}")
    if task.get("oracle_limit") is not None:
        task["oracle_limit"] = parse_rational(task["oracle_limit"],
                                              f"task {idx}: oracle_limit")
    if "kmax" in task and not _is_positive_int(task["kmax"]):
        raise ConfigError(f"task {idx}: kmax must be a positive integer")
    if task.get("p") == "inf":
        task["p"] = math.inf
    elif "p" in task and not _is_positive_int(task["p"]):
        raise ConfigError(f"task {idx}: p must be a positive integer or 'inf'")
    if "seed" in task and type(task["seed"]) is not int:
        raise ConfigError(f"task {idx}: seed must be an integer")
    if "name" in task and not isinstance(task["name"], str):
        raise ConfigError(f"task {idx}: name must be a string")
    return task


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    arena = doc.get("arena")
    if arena is not None:
        if not isinstance(arena, dict):
            raise ConfigError("arena must be a JSON object")
        for key in ("n", "m"):
            value = arena.get(key)
            if not _is_positive_int(value):
                raise ConfigError(
                    f"arena.{key} must be a positive integer, got {value!r}")
        backend = arena.get("backend", "trivial")
        if backend not in ("trivial", "tadic"):
            raise ConfigError(
                f"arena.backend must be 'trivial' or 'tadic', got {backend!r}")

    parsed = _parse_objects(doc.get("objects", {}))

    if arena is not None:
        n, m = arena["n"], arena["m"]
        for name, metric in parsed["metrics"].items():
            if (metric.n, metric.m) != (n, m):
                raise ConfigError(
                    f"metric {name!r} lives on P^{metric.n} with m = {metric.m}, "
                    f"but the arena declares P^{n} with m = {m}")
        for kind in ("segments", "paths"):
            for name, obj in parsed[kind].items():
                if (obj.ring.n, obj.ring.m) != (n, m):
                    raise ConfigError(
                        f"{kind[:-1]} {name!r} does not match the declared arena")

    tasks = doc.get("tasks", [])
    if not (isinstance(tasks, list) and all(isinstance(t, dict) for t in tasks)):
        raise ConfigError("tasks must be a list of JSON objects")
    unknown = sorted({str(t["op"]) for t in tasks if t.get("op") is not None
                      and not (isinstance(t["op"], str) and t["op"] in KNOWN_OPS)})
    missing = [i for i, t in enumerate(tasks) if t.get("op") is None]
    if missing:
        raise ConfigError(f"tasks {missing} have no 'op' field")
    if unknown:
        raise ConfigError(
            f"unknown task ops {unknown}; known ops: {sorted(KNOWN_OPS)}")
    tasks = tuple(_parsed_task(idx, task, parsed)
                  for idx, task in enumerate(tasks))

    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be a JSON object")
    fmt = output.get("format", "json")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path must be a string, got {out_path!r}")

    return ExperimentConfig(
        arena=arena,
        norms=parsed["norms"],
        graded=parsed["graded"],
        metrics=parsed["metrics"],
        segments=parsed["segments"],
        paths=parsed["paths"],
        tasks=tasks,
        output_format=fmt,
        output_path=out_path,
    )


def metric_pair(config: ExperimentConfig, names=None):
    """Resolve a metric pair: explicit names, or the only two defined."""
    if names:
        missing = [n for n in names if n not in config.metrics]
        if missing:
            raise ConfigError(f"metrics not defined in config: {missing}")
        if len(names) != 2:
            raise ConfigError("exactly two metric names are required")
        return config.metrics[names[0]], config.metrics[names[1]]
    if len(config.metrics) != 2:
        raise ConfigError(
            "config must define exactly two metrics, or the pair must be "
            "named explicitly")
    first, second = list(config.metrics.values())[:2]
    return first, second


__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "KNOWN_OPS",
    "MetricPath",
    "VERIFY_TARGETS",
    "load_config",
    "metric_pair",
    "parse_rational",
]
