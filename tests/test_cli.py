"""End-to-end command line driver tests.

Every test calls ``main(argv)`` in process; exit codes come back as return
values, output is captured with capsys.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geonorm import cli, linalg, segments
from geonorm.cli import main
from geonorm.graded import generate_degree_one
from geonorm.segments import legendre_segment
from geonorm.suites import planted_submultiplicativity_violation
from geonorm.toric import d1_metric, energy, fs_from_norm, section_ring

F = Fraction


def _metric_json(weights):
    ring = section_ring(1, 1)
    phi = fs_from_norm(ring, 1, dict(zip(ring.basis(1), map(F, weights))))
    return phi.to_json()


def _pair_config(tmp_path, tasks, fmt="csv", extra_objects=None,
                 name="config.json", arena=True):
    doc = {
        "arena": {"n": 1, "m": 1, "backend": "trivial"},
        "objects": {
            "metrics": {
                "phi0": _metric_json((0, 0)),
                "phi1": _metric_json((0, -2)),
            },
        },
        "tasks": tasks,
        "output": {"format": fmt},
    }
    if extra_objects:
        doc["objects"].update(extra_objects)
    if not arena:
        del doc["arena"]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _healthy_path():
    return {
        "ring": {"n": 1, "m": 1},
        "k": 1,
        "samples": [
            {"t": "0", "weights": ["0", "0"]},
            {"t": "1/2", "weights": ["0", "-1"]},
            {"t": "1", "weights": ["0", "-2"]},
        ],
    }


def _stderr_counterexample(err):
    line = next(l for l in err.splitlines() if "counterexample = " in l)
    return json.loads(line.split("counterexample = ", 1)[1])


# -- run --------------------------------------------------------------------------


def test_run_writes_artifacts_and_report(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 4},
        {"op": "verify", "target": "segment_psh", "path": "p"},
        {"op": "maximal", "metrics": ["phi0", "phi1"], "t": "1/2", "kmax": 2},
    ], extra_objects={"paths": {"p": _healthy_path()}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "task 0 (energy): ok" in captured.out
    assert captured.err == ""

    assert sorted(p.name for p in out.iterdir()) == [
        "000_energy.csv",
        "001_verify.json",
        "002_maximal.json",
        "report.json",
    ]
    report = json.loads((out / "report.json").read_text())
    assert [r["status"] for r in report] == ["pass"] * 3
    assert report[0]["artifact"] == "000_energy.csv"

    lines = (out / "000_energy.csv").read_text().splitlines()
    assert lines[0] == "k,exact_value,decimal_value,oracle_limit"
    assert lines[1] == "1,1,1,1"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3", "4"]

    maximal = json.loads((out / "002_maximal.json").read_text())
    assert maximal["potential"]["pieces"] == [
        {"g": ["0"], "c": "0"},
        {"g": ["1"], "c": "-1"},
    ]


def test_run_is_byte_identical_on_rerun(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 2},
        {"op": "d1", "metrics": ["phi0", "phi1"], "kmax": 2},
    ])
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    capsys.readouterr()


def test_run_norm_tasks(tmp_path, capsys) -> None:
    norm_json = {
        "field": "trivial",
        "dim": 2,
        "basis": [[{"q": "1"}, {"q": "0"}], [{"q": "0"}, {"q": "1"}]],
        "weights": ["0", "0"],
    }
    shifted = dict(norm_json, weights=["1", "-2"])
    doc = {
        "objects": {"norms": {"a": norm_json, "b": shifted}},
        "tasks": [
            {"op": "spectrum", "norms": ["a", "b"]},
            {"op": "distance", "norms": ["a", "b"], "p": 1},
            {"op": "geodesic", "norms": ["a", "b"], "t": "1/2"},
        ],
    }
    cfg = tmp_path / "norms.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    spec = json.loads((out / "000_spectrum.json").read_text())
    assert spec == [{"i": 0, "lambda": "-1"}, {"i": 1, "lambda": "2"}]
    dist = json.loads((out / "001_distance.json").read_text())
    assert dist == [{"p": "1", "value": "3/2"}]
    geo = json.loads((out / "002_geodesic.json").read_text())
    assert geo["weights"] == ["1/2", "-1"]


def test_run_flags_planted_submultiplicativity_violation(tmp_path,
                                                         capsys) -> None:
    gn = planted_submultiplicativity_violation()
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "submultiplicative", "graded": "g"},
    ], extra_objects={"graded": {"g": gn.to_json()}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert _stderr_counterexample(captured.err) == {
        "k": 1, "l": 1, "a": [0], "b": [0]}
    report = json.loads((out / "report.json").read_text())
    assert report[0]["status"] == "fail"
    assert report[0]["counterexample"] == {"k": 1, "l": 1, "a": [0], "b": [0]}


def test_run_flags_planted_non_psh_path(tmp_path, capsys) -> None:
    bulged = _healthy_path()
    bulged["samples"][1]["weights"] = ["1/2", "-1"]
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "segment_psh", "path": "p"},
    ], extra_objects={"paths": {"p": bulged}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert _stderr_counterexample(captured.err) == {
        "t0": "0", "t1": "1/2", "t2": "1",
        "point": ["0"], "lhs": "1/2", "rhs": "0"}


def test_malformed_config_exits_2(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text('{"arena": {,}}')
    assert main(["run", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "line 1" in captured.err


def _p2_metric_json(weights):
    ring = section_ring(2, 1)
    phi = fs_from_norm(ring, 1, dict(zip(ring.basis(1), map(F, weights))))
    return phi.to_json()


def _string_for_a_list(kind):
    """A config object of ``kind`` with one documented list given as a
    string, which reads as one entry per character."""
    if kind == "metrics":
        phi = _p2_metric_json((0, 0, 0))
        phi["potential"]["pieces"][0]["g"] = "10"
        return {"phi0": phi}
    if kind == "norms":
        return {"n0": {
            "field": "trivial",
            "basis": [[{"q": "1"}, {"q": "0"}], [{"q": "0"}, {"q": "1"}]],
            "weights": "01",
        }}
    if kind == "segments":
        return {"s0": dict(_SEGMENT, weights0="01")}
    path = _healthy_path()
    path["samples"][0]["weights"] = "12"
    return {"p0": path}


@pytest.mark.parametrize("kind, what", [
    ("metrics", "g"), ("norms", "weights"), ("paths", "path sample weights"),
    ("segments", "weights0"),
])
def test_string_for_a_list_exits_2(tmp_path, capsys, kind, what) -> None:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"objects": {kind: _string_for_a_list(kind)},
                               "tasks": []}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad {kind} object ")
    assert err.count("\n") == 1 and f"{what} must be a list" in err


@pytest.mark.parametrize("c, decimal", [
    ("1e400", "-1e+400"), ("1e-400", "-1e-400"),
])
def test_energy_rows_past_float_range(tmp_path, capsys, c, decimal) -> None:
    # phi1 is phi0 raised by c: every level's energy is -c, printed to 12
    # digits past float range, where float() overflowed or gave "-0"
    phi1 = _metric_json((0, 0))
    for piece in phi1["potential"]["pieces"]:
        piece["c"] = c
    cfg = _pair_config(tmp_path, [{"op": "energy",
                                   "metrics": ["phi0", "phi1"], "kmax": 2}],
                       extra_objects={"metrics": {"phi0": _metric_json((0, 0)),
                                                  "phi1": phi1}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "000_energy.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == [decimal, decimal]


def test_undefined_reference_exits_2(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "ghost"]},
    ])
    assert main(["run", "--config", cfg]) == 2
    assert "undefined metrics object 'ghost'" in capsys.readouterr().err


# -- suite ---------------------------------------------------------------------------


def test_suite_subcommand(tmp_path, capsys) -> None:
    out = tmp_path / "suite.json"
    assert main(["suite", "kiselman", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "3/3 checks passed" in captured.out
    rows = json.loads(out.read_text())
    assert [r["check"] for r in rows] == [
        "marginal-gradient-constraint",
        "legendre-duality-roundtrip",
        "kiselman-worked-case",
    ]
    assert all(r["status"] == "pass" for r in rows)


# -- toric energy ----------------------------------------------------------------------


def test_toric_energy_pair_csv(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [])
    out = tmp_path / "tables"
    code = main(["toric", "energy", "--config", cfg, "--pair", "phi1,phi0",
                 "--kmax", "4", "--out", str(out), "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr()
    assert "energy limit = -1" in captured.out
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[0] == "k,exact_value,decimal_value,oracle_limit"
    assert lines[1:] == ["1,-1,-1,-1", "2,-1,-1,-1", "3,-1,-1,-1",
                         "4,-1,-1,-1"]


def test_toric_energy_requires_resolvable_pair(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [])
    assert main(["toric", "energy", "--config", cfg,
                 "--pair", "phi0,ghost"]) == 2
    assert "config error:" in capsys.readouterr().err


# -- segments -------------------------------------------------------------------------


def test_segments_maximal_artifact_name(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [])
    out = tmp_path / "seg"
    assert main(["segments", "maximal", "--config", cfg, "--t", "1/2",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "maximal segment at t = 1/2" in captured.out
    data = json.loads((out / "maximal_t_1_2.json").read_text())
    assert data["potential"]["pieces"] == [
        {"g": ["0"], "c": "0"},
        {"g": ["1"], "c": "-1"},
    ]


def test_segments_maximal_t_validation(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [])
    assert main(["segments", "maximal", "--config", cfg, "--t", "2"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_segments_verify_config(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "theoremB", "metrics": ["phi0", "phi1"],
         "kmax": 2},
    ])
    out = tmp_path / "verify.json"
    assert main(["segments", "verify", "--config", cfg,
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "verify theoremB: pass" in captured.out
    report = json.loads(out.read_text())
    assert report["checks"][0]["status"] == "pass"
    assert report["checks"][0]["diagnostics"]["energy_affine_exact"] is True


def _count_diagnostics(monkeypatch):
    """(metric pair JSON, top level of the chain) of every diagnostics
    report built: its kmax, for kmax 1 and 2."""
    calls = []
    real = segments.SegmentPair._report

    def counted(self, levels, ts):
        calls.append((json.dumps([self.phi0.to_json(), self.phi1.to_json()]),
                      max(levels)))
        return real(self, levels, ts)

    monkeypatch.setattr(segments.SegmentPair, "_report", counted)
    return calls


def test_run_computes_diagnostics_once_per_pair_and_kmax(tmp_path, monkeypatch,
                                                         capsys) -> None:
    pair = ["phi0", "phi1"]
    tasks = [
        {"op": "diagnostics", "metrics": pair, "kmax": 2},
        {"op": "verify", "target": "theoremB", "metrics": pair, "kmax": 2},
        {"op": "verify", "target": "theoremB", "metrics": pair, "kmax": 1},
        {"op": "diagnostics", "metrics": pair, "kmax": 1},
        {"op": "diagnostics", "metrics": pair[::-1], "kmax": 2},
        {"op": "diagnostics", "metrics": pair, "kmax": 2},
    ]
    calls = _count_diagnostics(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--config", _pair_config(tmp_path, tasks),
                 "--out", str(out)]) == 0
    assert len(calls) == 3 and len(set(calls)) == 3
    assert sorted(kmax for _, kmax in calls) == [1, 2, 2]
    # every artifact equals the one a config holding only its task writes
    for idx, task in enumerate(tasks):
        alone = tmp_path / f"alone{idx}"
        cfg = _pair_config(tmp_path, [task], name=f"alone{idx}.json")
        assert main(["run", "--config", cfg, "--out", str(alone)]) == 0
        name = f"{task['op']}.json"
        assert ((out / f"{idx:03d}_{name}").read_bytes()
                == (alone / f"000_{name}").read_bytes())
    assert len(calls) == 3 + len(tasks)
    capsys.readouterr()


def test_segments_verify_computes_diagnostics_once_per_pair_and_kmax(
        tmp_path, monkeypatch, capsys) -> None:
    task = {"op": "verify", "target": "theoremB",
            "metrics": ["phi0", "phi1"], "kmax": 2}
    cfg = _pair_config(tmp_path, [task, task])
    calls = _count_diagnostics(monkeypatch)
    out = tmp_path / "verify.json"
    assert main(["segments", "verify", "--config", cfg,
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    first, second = json.loads(out.read_text())["checks"]
    assert first == second
    capsys.readouterr()


def _q(text):
    return {"q": text}


def _t(*num):
    return {"t": {"num": list(num), "den": [1]}}


def _pairs_config(tmp_path, tasks, n=1, name="config.json"):
    """A config of Q and Q(t) norms (two of them on one basis), a graded
    pair, a sampled path and a metric pair on P^n (level 2 on P^1, level 1
    on P^2), with the given tasks."""
    ring = section_ring(n, 1)
    level = 3 - n
    basis = ring.basis(level)
    w0 = (0, 1, -1, F(1, 2), 0, 2)[:len(basis)]
    w1 = (F(1, 2), -1, 0, 1, F(-3, 2), 0)[:len(basis)]
    metrics = {key: fs_from_norm(ring, level, dict(zip(basis, map(F, w)))).to_json()
               for key, w in (("phi0", w0), ("phi1", w1))}
    p1 = section_ring(1, 1)
    graded = {key: generate_degree_one(p1, dict(zip(p1.basis(1), w)), 4).to_json()
              for key, w in (("g0", (0, F(1, 2))), ("g1", (F(1, 3), -1)))}
    a = {"field": "trivial", "dim": 3,
         "basis": [[_q("1"), _q("0"), _q("0")], [_q("1"), _q("1"), _q("0")],
                   [_q("0"), _q("1"), _q("2")]],
         "weights": ["0", "1/2", "-1"]}
    b = {"field": "trivial", "dim": 3,
         "basis": [[_q("1"), _q("2"), _q("0")], [_q("0"), _q("1"), _q("0")],
                   [_q("1"), _q("0"), _q("1")]],
         "weights": ["1", "-1/3", "2"]}
    c = {"field": "tadic", "dim": 2, "basis": [[_t(0, 1), _t(1)], [_t(), _t(1)]],
         "weights": ["0", "1"]}
    d = {"field": "tadic", "dim": 2, "basis": [[_t(1), _t(0, 1)], [_t(1), _t()]],
         "weights": ["2", "-1"]}
    doc = {
        "arena": {"n": n, "m": 1, "backend": "trivial"},
        "objects": {
            "norms": {"a": a, "b": b, "a2": dict(a, weights=["2", "0", "1/3"]),
                      "c": c, "d": d},
            "graded": graded,
            "metrics": metrics,
            "paths": {"p": _healthy_path()} if n == 1 else {},
        },
        "tasks": tasks,
        "output": {"format": "json"},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _every_pair_task():
    """Every op on a pair of norms or metrics, on each pair in both orders,
    some twice with other parameters."""
    tasks = []
    for pair in (["a", "b"], ["b", "a"], ["a", "a2"], ["c", "d"], ["d", "c"]):
        tasks += [
            {"op": "spectrum", "norms": pair},
            {"op": "distance", "norms": pair, "p": 1},
            {"op": "distance", "norms": pair, "p": "inf"},
            {"op": "volume", "norms": pair},
            {"op": "join", "norms": pair},
            {"op": "geodesic", "norms": pair, "t": "1/3"},
            {"op": "geodesic", "norms": pair, "t": "1/2"},
        ]
    for pair in (["phi0", "phi1"], ["phi1", "phi0"]):
        tasks += [
            {"op": "energy", "metrics": pair, "kmax": 2},
            {"op": "d1", "metrics": pair, "kmax": 2},
            {"op": "energy", "metrics": pair, "kmax": 3},
            {"op": "maximal", "metrics": pair, "t": "1/3", "kmax": 2},
            {"op": "maximal", "metrics": pair, "t": "1/2", "kmax": 4},
            {"op": "legendre", "metrics": pair, "t": "1/3"},
            {"op": "legendre", "metrics": pair, "t": "1/2"},
            {"op": "diagnostics", "metrics": pair, "kmax": 2},
            {"op": "diagnostics", "metrics": pair, "kmax": 1},
            {"op": "verify", "target": "theoremB", "metrics": pair, "kmax": 2},
        ]
    return tasks


@pytest.mark.parametrize("n", [1, 2])
def test_every_pair_artifact_equals_its_single_task_run(tmp_path, capsys,
                                                         n) -> None:
    # the tasks of a run share one record per ordered pair of names: in any
    # task order, each artifact equals the one a config holding only its
    # task writes, over Q and Q(t) norms and P^1 and P^2 metrics
    tasks = _every_pair_task()
    alone = []
    for idx, task in enumerate(tasks):
        out = tmp_path / f"alone{idx}"
        cfg = _pairs_config(tmp_path, [task], n, f"alone{idx}.json")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        alone.append((out / f"000_{task['op']}.json").read_bytes())
    for order in (1, -1):
        idxs = list(range(len(tasks)))[::order]
        cfg = _pairs_config(tmp_path, [tasks[i] for i in idxs], n,
                            f"order{order}.json")
        out = tmp_path / f"order{order}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for pos, i in enumerate(idxs):
            name = f"{pos:03d}_{tasks[i]['op']}.json"
            assert (out / name).read_bytes() == alone[i], (order, tasks[i])
    capsys.readouterr()


def test_run_counts_kernel_runs_and_conjugations(tmp_path, monkeypatch,
                                                 conjugated, capsys) -> None:
    # one geonorm run of the 15 tasks of a benchmark config: one kernel run
    # per pair of norms, (a, b) over Q and (c, d) over Q(t); and 15
    # conjugations: phi0 and phi1, the six Legendre slices
    # (t in {0, 1/4, 1/3, 1/2, 3/4, 1}), the maximal segment at 1/3, the
    # two endpoint recoveries, the reference metric of the energies, the
    # path's two chord ends and their mix; d1's rooftop comes with its
    # cells from the envelope and is not conjugated
    smith = []
    real = linalg.smith
    monkeypatch.setattr(linalg, "smith",
                        lambda *args: smith.append(args) or real(*args))
    pair = ["phi0", "phi1"]
    cfg = _pairs_config(tmp_path, [
        {"op": "spectrum", "norms": ["a", "b"]},
        {"op": "distance", "norms": ["a", "b"], "p": 1},
        {"op": "distance", "norms": ["c", "d"], "p": "inf"},
        {"op": "volume", "norms": ["c", "d"]},
        {"op": "join", "norms": ["a", "b"]},
        {"op": "geodesic", "norms": ["a", "b"], "t": "1/3"},
        {"op": "asymptotic", "graded": ["g0", "g1"], "p": 2},
        {"op": "energy", "metrics": pair, "kmax": 3},
        {"op": "d1", "metrics": pair, "kmax": 3},
        {"op": "maximal", "metrics": pair, "t": "1/3", "kmax": 3},
        {"op": "legendre", "metrics": pair, "t": "1/3"},
        {"op": "diagnostics", "metrics": pair, "kmax": 2},
        {"op": "verify", "target": "submultiplicative", "graded": "g0"},
        {"op": "verify", "target": "segment_psh", "path": "p"},
        {"op": "verify", "target": "theoremB", "metrics": pair, "kmax": 2},
    ])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(smith) == 2
    assert len(conjugated) == 15
    capsys.readouterr()


def test_parser_is_built_once_and_help_is_unchanged(capsys) -> None:
    assert cli.build_parser() is cli.build_parser()
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["toric", "energy", "--help"],
                     ["segments", "frobnicate"]):
            with pytest.raises(SystemExit):
                main(argv)
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err))
    assert outputs[:3] == outputs[3:]
    assert outputs[0][0].startswith("usage: geonorm ")
    assert "invalid choice: 'frobnicate'" in outputs[2][1]


def test_segments_verify_needs_input(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["segments", "verify"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--config", "/nonexistent.json"],
                                  ["--kmax", "3"]])
def test_suite_refuses_config_and_kmax(capsys, flag) -> None:
    # suite reads neither a config nor a quantization depth
    with pytest.raises(SystemExit) as exc:
        main(["suite", "kiselman"] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["toric", "energy", "--seed", "1"],
    ["segments", "maximal", "--t", "1/2", "--seed", "1"],
    ["segments", "verify", "--seed", "1"],
    ["segments", "maximal", "--t", "1/2", "--format", "csv"],
    ["segments", "verify", "--format", "json"],
], ids=["energy-seed", "maximal-seed", "verify-seed", "maximal-format",
        "verify-format"])
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys,
                                                   argv) -> None:
    # toric energy and the segments commands draw nothing at random, and
    # the segments commands always write JSON
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "segment_psh", "path": "p"},
    ], extra_objects={"paths": {"p": _healthy_path()}})
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in (
        capsys.readouterr().err)


def _level2_path(mid_weights):
    return {
        "ring": {"n": 1, "m": 1},
        "k": 2,
        "samples": [
            {"t": "0", "weights": ["0", "0", "0"]},
            {"t": "1/2", "weights": mid_weights},
            {"t": "1", "weights": ["0", "-2", "-4"]},
        ],
    }


def test_segments_verify_level2_path(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "segment_psh", "path": "p"},
    ], extra_objects={"paths": {"p": _level2_path(["0", "-1", "-2"])}})
    assert main(["segments", "verify", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "verify segment_psh: pass" in captured.out
    assert captured.err == ""


def test_run_flags_planted_level2_bulge(tmp_path, capsys) -> None:
    # the constant monomial pushed up by 1 lifts the level-2 potential
    # by 1/2 at v = 0, above the chord value 0
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "segment_psh", "path": "p"},
    ], extra_objects={"paths": {"p": _level2_path(["1", "-1", "-2"])}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert _stderr_counterexample(capsys.readouterr().err) == {
        "t0": "0", "t1": "1/2", "t2": "1",
        "point": ["0"], "lhs": "1/2", "rhs": "0"}


# -- errors -----------------------------------------------------------------------


def _assert_one_line_error(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_non_integer_arena_exits_2(tmp_path, capsys) -> None:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"arena": {"n": "x", "m": 1}, "tasks": []}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    _assert_one_line_error(capsys, "config error: arena.n must be a positive")


def test_null_arena_value_exits_2(tmp_path, capsys) -> None:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"arena": {"n": None, "m": 1}, "tasks": []}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    _assert_one_line_error(capsys, "config error: arena.n must be a positive")


_ENERGY_AND_THEOREM_B = [
    {"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 2},
    {"op": "verify", "target": "theoremB", "metrics": ["phi0", "phi1"]},
]


@pytest.mark.parametrize("argv", [
    ["run", "--config", "CFG"],
    ["suite", "kiselman"],
    ["toric", "energy", "--config", "CFG", "--kmax", "2"],
    ["segments", "maximal", "--config", "CFG", "--t", "1/2", "--kmax", "2"],
    ["segments", "verify", "--config", "CFG", "--kmax", "2"],
], ids=["run", "suite", "toric-energy", "segments-maximal", "segments-verify"])
def test_out_naming_a_regular_file_exits_2(tmp_path, capsys, argv) -> None:
    # --out names an existing file where a directory would be made
    cfg = _pair_config(tmp_path, _ENERGY_AND_THEOREM_B)
    blocker = tmp_path / "F"
    blocker.write_text("")
    argv = [cfg if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", str(blocker)]) == 2
    _assert_one_line_error(capsys, "error: [Errno 17] File exists")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["suite", "norms"],
    ["suite", "kiselman", "--format", "csv"],
    ["toric", "energy", "--config", "CFG", "--kmax", "2"],
    ["segments", "maximal", "--config", "CFG", "--t", "1/2", "--kmax", "2"],
    ["segments", "verify", "--config", "CFG", "--kmax", "2"],
], ids=["suite", "suite-csv", "toric-energy", "segments-maximal",
        "segments-verify"])
@pytest.mark.parametrize("out", ["F", "F/out.json"], ids=["dir", "file"])
def test_unwritable_out_exits_2_before_the_work(tmp_path, capsys, monkeypatch,
                                                argv, out) -> None:
    # --out is resolved before the suite runs, the energy or the maximal
    # segment is computed or the verify tasks run
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --out was resolved")

    for name in ("run_suite", "energy", "maximal_segment", "_run_verify"):
        monkeypatch.setattr(cli, name, refuse)
    cfg = _pair_config(tmp_path, _ENERGY_AND_THEOREM_B)
    (tmp_path / "F").write_text("")
    argv = [cfg if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    _assert_one_line_error(capsys, "error: [Errno ")
    assert (tmp_path / "F").read_text() == ""


def test_task_without_reference_list_exits_2(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [{"op": "energy"}])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys, "config error: task 0 (energy): 'metrics'")
    assert not (tmp_path / "out").exists()


def test_reference_string_instead_of_pair_exits_2(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [{"op": "energy", "metrics": "phi0"}])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys, "config error: task 0 (energy): 'metrics'")


def test_library_error_exits_2(tmp_path, capsys) -> None:
    # energy needs the full moment simplex among the gradients: ToricError
    partial = {"n": 1, "m": 1,
               "potential": {"n": 1, "pieces": [{"g": ["0"], "c": "0"}]}}
    cfg = _pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "partial"]},
    ], extra_objects={"metrics": {"phi0": _metric_json((0, 0)),
                                  "partial": partial}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("n", [True, 1.5, ["a", "b", "c"], "1"],
                         ids=["bool", "float", "list", "str"])
def test_potential_n_that_is_no_positive_int_exits_2(tmp_path, capsys,
                                                     n) -> None:
    bad = _metric_json((0, -2))
    bad["potential"]["n"] = n
    cfg = _pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "bad"]},
    ], extra_objects={"metrics": {"phi0": _metric_json((0, 0)), "bad": bad}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(
        capsys, "config error: bad metrics object 'bad': max-affine n must "
        f"be a positive integer, got {n!r}\n")


def test_legendre_without_critical_tau_exits_2(tmp_path, capsys) -> None:
    # single pieces of gradient 0 and 1: the gradient hulls share no interval
    def single(g):
        return {"n": 1, "m": 1,
                "potential": {"n": 1, "pieces": [{"g": [g], "c": "0"}]}}

    cfg = _pair_config(tmp_path, [
        {"op": "legendre", "metrics": ["phi0", "phi1"], "t": "1/2"},
    ], extra_objects={"metrics": {"phi0": single("0"), "phi1": single("1")}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys, "error: no critical shift tau")


def _p3_pair_config(tmp_path, tasks):
    """A config of two seeded level-2 FS metrics on O(1) over P^3."""
    ring = section_ring(3, 1)
    rng = random.Random("cli-p3")
    phi0, phi1 = (fs_from_norm(ring, 2, {
        a: F(rng.randint(-4, 4), rng.choice((1, 2))) for a in ring.basis(2)})
        for _ in range(2))
    cfg = tmp_path / "p3.json"
    cfg.write_text(json.dumps({
        "arena": {"n": 3, "m": 1},
        "objects": {"metrics": {"phi0": phi0.to_json(),
                                "phi1": phi1.to_json()}},
        "tasks": tasks,
        "output": {"format": "json"},
    }))
    return str(cfg), phi0, phi1


@pytest.mark.parametrize("n", [2, 3])
def test_legendre_on_touching_hulls_exits_2(tmp_path, capsys, n) -> None:
    # gradient hulls that touch in an edge (P^2) or a face (P^3) share no
    # full-dimensional cell, so no shift tau is critical
    def metric(grads):
        pieces = [{"g": [str(x) for x in g], "c": str(c)}
                  for c, g in enumerate(grads)]
        return {"n": n, "m": n, "potential": {"n": n, "pieces": pieces}}

    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    cfg = tmp_path / "touching.json"
    cfg.write_text(json.dumps({
        "arena": {"n": n, "m": n},
        "objects": {"metrics": {
            "phi0": metric([(0,) * n] + units),
            "phi1": metric(units + [(1,) * n])}},
        "tasks": [{"op": "legendre", "metrics": ["phi0", "phi1"],
                   "t": "1/2"}],
    }))
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys, "error: no critical shift tau")


def test_energy_on_p3_writes_artifact(tmp_path, capsys) -> None:
    cfg, phi0, phi1 = _p3_pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 2}])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    got = json.loads((tmp_path / "out" / "000_energy.json").read_text())
    assert got == energy(phi0, phi1, kmax=2).rows()


@pytest.mark.parametrize("task, name", [
    ({"op": "d1", "metrics": ["phi0", "phi1"], "kmax": 1}, "000_d1.json"),
    ({"op": "legendre", "metrics": ["phi0", "phi1"], "t": "1/2"},
     "000_legendre.json"),
], ids=["d1", "legendre"])
def test_overlays_on_p3_write_artifacts(tmp_path, capsys, task, name) -> None:
    # the overlay of two P^3 profiles is one vertex enumeration; d1 checks
    # its integral against the rooftop's energies as it runs
    cfg, phi0, phi1 = _p3_pair_config(tmp_path, [task])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    got = json.loads((tmp_path / "out" / name).read_text())
    if task["op"] == "d1":
        assert got == d1_metric(phi0, phi1, kmax=1).rows()
    else:
        assert got == legendre_segment(phi0, phi1, F(1, 2)).to_json()


@pytest.mark.parametrize("mid, code", [("0", 0), ("1", 1)],
                         ids=["honest", "bulged"])
def test_segment_psh_on_p3(tmp_path, capsys, mid, code) -> None:
    # the midpoint weights are the chord's, with the constant monomial
    # raised by 1 in the bulged path
    samples = [{"t": t, "weights": w} for t, w in (
        ("0", ["0", "0", "0", "0"]),
        ("1/2", [mid, "-1", "1/2", "-3/2"]),
        ("1", ["0", "-2", "1", "-3"]))]
    cfg = tmp_path / "p3.json"
    cfg.write_text(json.dumps({
        "arena": {"n": 3, "m": 1},
        "objects": {"paths": {"p": {"ring": {"n": 3, "m": 1}, "k": 1,
                                    "samples": samples}}},
        "tasks": [{"op": "verify", "target": "segment_psh", "path": "p"}],
    }))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == code
    got = json.loads((tmp_path / "000_verify.json").read_text())
    assert got["status"] == ("pass" if code == 0 else "fail")
    if code:
        ce = got["counterexample"]
        assert F(ce["lhs"]) > F(ce["rhs"])
        assert _stderr_counterexample(capsys.readouterr().err) == ce
    else:
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("times, weights", [
    (("1/2", "1/2", "1/2"), (["0", "0"], ["0", "-1"], ["0", "-2"])),
    (("0", "1/2", "2/4", "1"),
     (["0", "0"], ["0", "-1"], ["1", "-1"], ["0", "-2"])),
], ids=["one-t", "two-weights-at-one-t"])
def test_path_repeating_a_t_exits_2(tmp_path, capsys, times, weights) -> None:
    path = {"ring": {"n": 1, "m": 1}, "k": 1,
            "samples": [{"t": t, "weights": w}
                        for t, w in zip(times, weights)]}
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "segment_psh", "path": "p"},
    ], extra_objects={"paths": {"p": path}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(
        capsys, "config error: bad paths object 'p': path samples repeat t = 1/2")


def test_zero_dimensional_norm_exits_2(tmp_path, capsys) -> None:
    empty = {"field": "trivial", "dim": 0, "basis": [], "weights": []}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "objects": {"norms": {"a": empty, "b": empty}},
        "tasks": [{"op": "distance", "norms": ["a", "b"], "p": 1}],
    }))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    _assert_one_line_error(
        capsys, "config error: bad norms object 'a': a norm needs dimension")


def test_task_without_t_exits_2(tmp_path, capsys) -> None:
    cfg = _pair_config(tmp_path, [{"op": "maximal", "metrics": ["phi0", "phi1"]}])
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys,
                           "config error: task 0 (maximal): needs a 't'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task, message", [
    ({"op": "maximal", "metrics": ["phi0", "phi1"], "t": "1/0"},
     "task 1: t must be a rational, got '1/0'"),
    ({"op": "legendre", "metrics": ["phi0", "phi1"], "t": "x"},
     "task 1: t must be a rational, got 'x'"),
    ({"op": "asymptotic", "graded": ["g", "g"], "oracle_limit": "1/0"},
     "task 1: oracle_limit must be a rational, got '1/0'"),
    ({"op": "asymptotic", "graded": ["g", "g"], "oracle_limit": "x"},
     "task 1: oracle_limit must be a rational, got 'x'"),
], ids=["t 1/0", "t x", "oracle_limit 1/0", "oracle_limit x"])
def test_task_rational_that_is_none_exits_2(tmp_path, capsys, task,
                                            message) -> None:
    # found when the config is loaded, before the first task writes
    graded = {"g": planted_submultiplicativity_violation().to_json()}
    cfg = _pair_config(
        tmp_path, [{"op": "energy", "metrics": ["phi0", "phi1"]}, task],
        extra_objects={"graded": graded})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    _assert_one_line_error(capsys, f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t", ["1/0", "x"])
def test_segments_maximal_t_that_is_no_rational_exits_2(tmp_path, capsys,
                                                        t) -> None:
    cfg = _pair_config(tmp_path, [])
    assert main(["segments", "maximal", "--config", cfg, "--t", t]) == 2
    _assert_one_line_error(
        capsys, f"config error: --t must be a rational, got {t!r}\n")


def _gradeddict(**changes):
    obj = planted_submultiplicativity_violation().to_json()
    obj.update(changes)
    return {k: v for k, v in obj.items() if v is not None}


@pytest.mark.parametrize("obj, message", [
    (_gradeddict(degrees={"1": {}, "3": {}}),
     "'degrees' has no degree 2: keys must run \"1\", \"2\", ... without gaps"),
    (_gradeddict(ring=None), "missing key 'ring'"),
    (_gradeddict(degrees=[]),
     "'degrees' must be a JSON object keyed \"1\", \"2\", ..., got list"),
    (_gradeddict(ring={"n": "1", "m": 1}),
     "ring.n must be a positive integer, got '1'"),
    (_gradeddict(ring={"n": 1}), "ring.m must be a positive integer, got None"),
    (_gradeddict(degrees={"1": {"weights": ["0", "0"]}}),
     "degree 1: malformed norm JSON: 'basis'"),
])
def test_bad_graded_object_names_what_is_wrong(tmp_path, capsys, obj,
                                               message) -> None:
    cfg = _pair_config(tmp_path, [], extra_objects={"graded": {"g": obj}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: bad graded object 'g': {message}\n"


_SEGMENT = {"ring": {"n": 1, "m": 1}, "k": 1,
            "weights0": ["0", "0"], "weights1": ["0", "-2"]}


@pytest.mark.parametrize("kind, obj, key, got", [
    ("metrics", dict(_metric_json((0, 0)), m=2.0), "metric.m", "2.0"),
    ("metrics", dict(_metric_json((0, 0)), m="1/2"), "metric.m", "'1/2'"),
    ("metrics", dict(_metric_json((0, 0)), n=1.0), "metric.n", "1.0"),
    ("metrics", dict(_metric_json((0, 0)), m=True), "metric.m", "True"),
    ("paths", dict(_healthy_path(), ring={"n": 1.0, "m": 1}), "ring.n",
     "1.0"),
    ("paths", dict(_healthy_path(), ring={"n": 1, "m": True}), "ring.m",
     "True"),
    ("segments", dict(_SEGMENT, ring={"n": 1, "m": 2.0}), "ring.m", "2.0"),
    ("segments", dict(_SEGMENT, ring={"n": "1", "m": 1}), "ring.n", "'1'"),
])
@pytest.mark.parametrize("arena", [True, False])
def test_non_integer_ring_exits_2(tmp_path, capsys, kind, obj, key, got,
                                  arena) -> None:
    # a float, bool or string n or m is refused when the object is read,
    # with the object named, before any task runs on it
    name = {"metrics": "phi0", "paths": "p", "segments": "s"}[kind]
    extra = {"paths": {"p": _healthy_path()}}
    extra[kind] = dict(extra.get(kind, {}), **{name: obj})
    if kind == "metrics":
        extra[kind]["phi1"] = _metric_json((0, -2))
    cfg = _pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 2},
        {"op": "maximal", "metrics": ["phi0", "phi1"], "t": "1/2", "kmax": 2},
        {"op": "verify", "target": "segment_psh", "path": "p"},
    ], extra_objects=extra, arena=arena)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad {kind} object {name!r}: {key} must be a "
        f"positive integer, got {got}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["segments", "paths"])
@pytest.mark.parametrize("k", [1.0, 1.5, True, "1", 0])
def test_non_integer_level_exits_2(tmp_path, capsys, kind, k) -> None:
    # a segment or path level must be an int >= 1: int() would truncate 1.5
    # to level 1 and verify another path than the one written
    name = {"paths": "p", "segments": "s"}[kind]
    obj = dict(_healthy_path() if kind == "paths" else _SEGMENT, k=k)
    extra = {"paths": {"p": _healthy_path()}}
    extra[kind] = {name: obj}
    cfg = _pair_config(tmp_path, [
        {"op": "verify", "target": "segment_psh", "path": "p"},
    ], extra_objects=extra)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad {kind} object {name!r}: k must be a positive "
        f"integer, got {k!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["toric", "energy", "--kmax", "0"],
    ["toric", "energy", "--kmax", "-1"],
    ["segments", "maximal", "--t", "1/2", "--kmax", "0"],
    ["segments", "verify", "--kmax", "0"],
    ["run", "--kmax", "0"],
    ["run", "--kmax", "-2"],
])
def test_kmax_below_1_exits_2(tmp_path, capsys, argv) -> None:
    cfg = _pair_config(tmp_path, [
        {"op": "energy", "metrics": ["phi0", "phi1"]},
        {"op": "verify", "target": "theoremB", "metrics": ["phi0", "phi1"]},
    ])
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    _assert_one_line_error(capsys,
                           "config error: --kmax must be a positive integer")
    assert not out.exists()


# -- fuzzing: a valid config and argv, mutated ------------------------------------


def _fuzz_base_config():
    def q_t(*num):
        return {"t": {"num": list(num), "den": [1]}}

    norm = {"field": "trivial", "dim": 2,
            "basis": [[{"q": "1"}, {"q": "0"}], [{"q": "1"}, {"q": "1"}]],
            "weights": ["0", "1/2"]}
    tnorm = {"field": "tadic", "dim": 2,
             "basis": [[q_t(0, 1), q_t(1)], [q_t(0), q_t(1)]],
             "weights": ["0", "1"]}
    return {
        "arena": {"n": 1, "m": 1, "backend": "trivial"},
        "objects": {
            "norms": {"a": norm, "b": dict(norm, weights=["1", "-2"]),
                      "ta": tnorm, "tb": dict(tnorm, weights=["2", "-1"])},
            "metrics": {"phi0": _metric_json((0, 0)),
                        "phi1": _metric_json((0, -2))},
            "graded": {"g": planted_submultiplicativity_violation().to_json()},
            "paths": {"p": _healthy_path()},
        },
        "tasks": [
            {"op": "spectrum", "norms": ["a", "b"]},
            {"op": "distance", "norms": ["a", "b"], "p": 1},
            {"op": "distance", "norms": ["ta", "tb"], "p": "inf"},
            {"op": "volume", "norms": ["ta", "tb"]},
            {"op": "join", "norms": ["a", "b"]},
            {"op": "geodesic", "norms": ["a", "b"], "t": "1/2"},
            {"op": "asymptotic", "graded": ["g", "g"], "p": 1},
            {"op": "energy", "metrics": ["phi0", "phi1"], "kmax": 2},
            {"op": "d1", "metrics": ["phi0", "phi1"], "kmax": 2},
            {"op": "maximal", "metrics": ["phi0", "phi1"], "t": "1/2", "kmax": 2},
            {"op": "legendre", "metrics": ["phi0", "phi1"], "t": "1/3"},
            {"op": "verify", "target": "segment_psh", "path": "p"},
            {"op": "verify", "target": "submultiplicative", "graded": "g"},
        ],
        "output": {"format": "json"},
    }


def _json_slots(node, out=None):
    """Every (container, key) slot in a JSON tree, in document order."""
    out = [] if out is None else out
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _json_slots(value, out)
    return out


_SWAPS = (None, True, 0, -1, 1.5, "x", "", "1/0", [], {}, ["a"],
          ["a", "b", "c"], {"q": "1"})


@st.composite
def _mutated_runs(draw):
    doc = _fuzz_base_config()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "swap", "shorten", "lengthen", "dim")))
        if kind == "dim":
            # resize a norm pair consistently: dim, basis and weights
            pair = draw(st.sampled_from((("a", "b"), ("ta", "tb"))))
            k = draw(st.integers(-1, 1))
            size = max(k, 0)
            objects = doc.get("objects")
            norms = objects.get("norms") if isinstance(objects, dict) else None
            for name in pair:
                norm = norms.get(name) if isinstance(norms, dict) else None
                if not isinstance(norm, dict):
                    continue
                if isinstance(norm.get("weights"), list):
                    norm["weights"] = norm["weights"][:size]
                if isinstance(norm.get("basis"), list):
                    norm["basis"] = [row[:size] if isinstance(row, list) else row
                                     for row in norm["basis"][:size]]
                norm["dim"] = k
            continue
        slots = _json_slots(doc)
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        value = parent[key]
        if kind == "drop":
            del parent[key]
        elif kind == "swap":
            parent[key] = draw(st.sampled_from(_SWAPS))
        elif isinstance(value, list):
            parent[key] = value[:1] if kind == "shorten" else value + value[-1:]
    command, extra = draw(st.sampled_from((
        (["run"], []), (["run"], ["--format", "csv"]), (["run"], ["--kmax", "0"]),
        (["segments", "verify"], []),
        (["segments", "maximal"], ["--t", "1/2"]),
        (["segments", "maximal"], ["--t", "x", "--pair", "phi0"]),
        (["toric", "energy"], ["--pair", "phi1,phi0"]),
        (["toric", "energy"], ["--kmax", "-1"]),
    )))
    return doc, command, extra


@settings(max_examples=300)
@given(_mutated_runs())
def test_mutated_configs_never_crash(run) -> None:
    # exit 0, 1 (a check failed) or 2 (bad input), never an uncaught error;
    # later options override the defaults (kmax 2 keeps every run cheap).
    # Bad input prints exactly one line, and exit 1 comes only with a
    # failed entry in the report of the run (or of ``segments verify``)
    doc, command, extra = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        argv = command + ["--config", cfg, "--kmax", "2", "--out", out] + extra
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        entries = None
        if code == 1:
            name = {"run": "report.json", "segments": "verify_report.json"}
            with open(os.path.join(out, name[command[0]]),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            entries = report if command == ["run"] else report["checks"]
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    if code == 1:
        assert any(e["status"] == "fail" for e in entries), entries
