"""Experiment config parsing and validation."""

import json
from fractions import Fraction

import pytest

from geonorm.config import (
    KNOWN_OPS,
    VERIFY_TARGETS,
    ConfigError,
    MetricPath,
    load_config,
    metric_pair,
)
from geonorm.toric import fs_from_norm, reference, section_ring

F = Fraction


def _metric_json(weights):
    ring = section_ring(1, 1)
    phi = fs_from_norm(ring, 1, dict(zip(ring.basis(1), map(F, weights))))
    return phi.to_json()


def _demo_doc():
    return {
        "arena": {"n": 1, "m": 1, "backend": "trivial"},
        "objects": {
            "metrics": {
                "phi0": _metric_json((0, 0)),
                "phi1": _metric_json((0, -2)),
            },
            "paths": {
                "p": {
                    "ring": {"n": 1, "m": 1},
                    "k": 1,
                    "samples": [
                        {"t": "0", "weights": ["0", "0"]},
                        {"t": "1/2", "weights": ["0", "-1"]},
                        {"t": "1", "weights": ["0", "-2"]},
                    ],
                },
            },
        },
        "tasks": [
            {"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 4},
            {"op": "verify", "target": "segment_psh", "path": "p"},
        ],
        "output": {"format": "json", "path": "out"},
    }


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def test_load_demo_config(tmp_path) -> None:
    cfg = load_config(_write(tmp_path, _demo_doc()))
    assert cfg.arena == {"n": 1, "m": 1, "backend": "trivial"}
    assert set(cfg.metrics) == {"phi0", "phi1"}
    assert cfg.metrics["phi0"] == reference(1, 1)
    assert isinstance(cfg.paths["p"], MetricPath)
    assert len(cfg.tasks) == 2
    assert cfg.output_format == "json"
    assert cfg.output_path == "out"


def test_invalid_json_reports_line_and_column(tmp_path) -> None:
    path = _write(tmp_path, '{\n  "arena": {,}\n}')
    with pytest.raises(ConfigError, match=r"line 2, column 13"):
        load_config(path)


def test_missing_file(tmp_path) -> None:
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_unknown_op_lists_known_ones(tmp_path) -> None:
    doc = _demo_doc()
    doc["tasks"].append({"op": "frobnicate"})
    with pytest.raises(ConfigError, match="unknown task ops"):
        load_config(_write(tmp_path, doc))


def test_task_without_op(tmp_path) -> None:
    doc = _demo_doc()
    doc["tasks"].append({"metrics": ["phi0"]})
    with pytest.raises(ConfigError, match="no 'op'"):
        load_config(_write(tmp_path, doc))


def test_undefined_object_reference(tmp_path) -> None:
    doc = _demo_doc()
    doc["tasks"][0]["metrics"] = ["phi0", "ghost"]
    with pytest.raises(ConfigError, match="undefined metrics object 'ghost'"):
        load_config(_write(tmp_path, doc))


def test_verify_targets(tmp_path) -> None:
    assert VERIFY_TARGETS == ("submultiplicative", "segment_psh", "theoremB")
    doc = _demo_doc()
    doc["tasks"][1]["target"] = "psh"
    with pytest.raises(ConfigError, match="verify target"):
        load_config(_write(tmp_path, doc))


def test_arena_mismatch(tmp_path) -> None:
    doc = _demo_doc()
    doc["arena"]["m"] = 2
    with pytest.raises(ConfigError, match="arena"):
        load_config(_write(tmp_path, doc))


def test_arena_backend_validated(tmp_path) -> None:
    doc = _demo_doc()
    doc["arena"]["backend"] = "padic"
    with pytest.raises(ConfigError, match="backend"):
        load_config(_write(tmp_path, doc))


def test_path_needs_three_samples(tmp_path) -> None:
    doc = _demo_doc()
    doc["objects"]["paths"]["p"]["samples"] = doc["objects"]["paths"]["p"][
        "samples"][:2]
    with pytest.raises(ConfigError, match="three samples"):
        load_config(_write(tmp_path, doc))


def test_path_weight_count_checked(tmp_path) -> None:
    doc = _demo_doc()
    doc["objects"]["paths"]["p"]["samples"][1]["weights"] = ["0"]
    with pytest.raises(ConfigError, match="expected 2"):
        load_config(_write(tmp_path, doc))


def test_task_t_range(tmp_path) -> None:
    doc = _demo_doc()
    doc["tasks"][0]["t"] = "3/2"
    with pytest.raises(ConfigError, match=r"t must lie in \[0, 1\]"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("task", [
    {"op": "geodesic", "norms": ["a", "a"]},
    {"op": "maximal", "metrics": ["phi0", "phi1"]},
    {"op": "legendre", "metrics": ["phi0", "phi1"]},
])
def test_task_needs_t(tmp_path, task) -> None:
    doc = _demo_doc()
    doc["objects"]["norms"] = {
        "a": {"field": "trivial", "basis": [[{"q": "1"}]], "weights": ["0"]}}
    doc["tasks"].append(task)
    with pytest.raises(ConfigError,
                       match=rf"^task 2 \({task['op']}\): needs a 't'"):
        load_config(_write(tmp_path, doc))
    task["t"] = "1/2"
    load_config(_write(tmp_path, doc))


def test_unknown_object_kind(tmp_path) -> None:
    doc = _demo_doc()
    doc["objects"]["bundles"] = {}
    with pytest.raises(ConfigError, match="unknown object kind"):
        load_config(_write(tmp_path, doc))


def test_bad_object_payload_names_the_object(tmp_path) -> None:
    doc = _demo_doc()
    doc["objects"]["metrics"]["phi0"] = {"n": 1}
    with pytest.raises(ConfigError, match="bad metrics object 'phi0'"):
        load_config(_write(tmp_path, doc))


def test_known_ops_cover_cli_surface() -> None:
    for op in ("spectrum", "distance", "geodesic", "energy", "d1", "maximal",
               "legendre", "suite", "verify"):
        assert op in KNOWN_OPS


def test_metric_pair_explicit_and_implicit(tmp_path) -> None:
    cfg = load_config(_write(tmp_path, _demo_doc()))
    a, b = metric_pair(cfg, ["phi1", "phi0"])
    assert (a, b) == (cfg.metrics["phi1"], cfg.metrics["phi0"])
    a, b = metric_pair(cfg)
    assert (a, b) == (cfg.metrics["phi0"], cfg.metrics["phi1"])
    with pytest.raises(ConfigError, match="not defined"):
        metric_pair(cfg, ["phi0", "ghost"])
    doc = _demo_doc()
    doc["objects"]["metrics"]["phi2"] = _metric_json((0, -1))
    cfg3 = load_config(_write(tmp_path, doc, "three.json"))
    with pytest.raises(ConfigError, match="exactly two"):
        metric_pair(cfg3)



def _add_task(task):
    return lambda doc: doc["tasks"].append(task)


def _set_arena(arena):
    return lambda doc: doc.update(arena=arena)


@pytest.mark.parametrize("edit, match", [
    (_add_task({"op": "energy", "metrics": ["phi0"]}),
     "list of two metrics names"),
    (_add_task({"op": "d1", "metrics": ["phi0", "phi1", "phi0"]}),
     "list of two"),
    (_add_task({"op": "energy", "metrics": ["phi0", 1]}), "list of two"),
    (_add_task({"op": "verify", "target": "segment_psh", "path": ["p"]}),
     "'path' must name one paths object"),
    (_add_task({"op": "verify", "target": "theoremB"}),
     "'metrics' must be a list"),
    (_add_task({"op": "suite", "seed": "1"}), "seed must be an integer"),
    (_add_task({"op": "suite", "name": ["norms"]}), "name must be a string"),
    (_add_task({"op": ["energy"]}), "unknown task ops"),
    (_add_task(["energy"]), "list of JSON objects"),
    (lambda d: d["tasks"][0].update(kmax=None), "kmax must be a positive"),
    (lambda d: d["tasks"][0].update(kmax="4"), "kmax must be a positive"),
    (lambda d: d["tasks"][0].update(p=None), "p must be a positive"),
    (lambda d: d.update(objects=[]), "objects must be a JSON object"),
    (lambda d: d["objects"].update(metrics=[1]), "objects.metrics must be"),
    (_set_arena({"n": True, "m": 1}), "arena.n must be a positive"),
    (_set_arena({"n": 1, "m": 1.0}), "arena.m must be a positive"),
    (_set_arena({"n": 0, "m": 1}), "arena.n must be a positive"),
    (_set_arena([1, 1]), "arena must be a JSON object"),
    (lambda d: d.update(output=[]), "output must be a JSON object"),
    (lambda d: d.update(output={"path": 5}), "output.path must be a string"),
])
def test_malformed_values_are_config_errors(tmp_path, edit, match) -> None:
    doc = _demo_doc()
    edit(doc)
    with pytest.raises(ConfigError, match=match):
        load_config(_write(tmp_path, doc))
