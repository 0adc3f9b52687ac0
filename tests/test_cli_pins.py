"""Pinned artifacts of ``geonorm run`` on configs the benchmark does not run.

The benchmark's cli-run configs are all on P^1.  Each config here is run
once, and the sha256 of every file it writes (the artifacts and
``report.json``) is pinned, together with the exit status:

* a pair of level-2 metrics on P^2 through every metric op and ``verify
  theoremB``;
* a pair of norms over Q and a pair over Q(t) through every norm op, with
  distances at p = 1, 2 and "inf";
* graded ``asymptotic`` tables at p = "inf" as CSV, with and without an
  oracle limit, and a failing ``verify submultiplicative`` whose
  counterexample lands in ``report.json``.

Every rational of the configs is written as a "num/den" string.
"""

import hashlib
import json

import pytest

from geonorm.cli import main


def _metric(pieces):
    return {"n": 2, "m": 1, "provenance": "fs(2)", "potential": {"n": 2, "pieces": [
        {"g": g, "c": c} for g, c in pieces]}}


_GRADIENTS = (["0", "0"], ["0", "1/2"], ["0", "1"], ["1/2", "0"],
              ["1/2", "1/2"], ["1", "0"])

_P2_METRICS = {
    "phi0": _metric(zip(_GRADIENTS, ("0", "1/2", "-1/2", "1/4", "0", "1"))),
    "phi1": _metric(zip(_GRADIENTS, ("1/4", "-1/2", "0", "1/2", "-3/4", "0"))),
}


def _q(text):
    return {"q": text}


def _t(*num):
    return {"t": {"num": list(num), "den": [1]}}


def _identity(dim):
    return [[_q("1" if i == j else "0") for j in range(dim)]
            for i in range(dim)]


def _graded(degrees):
    """A graded norm on P^1 with O(1), one weight list per degree, each
    on the monomial basis."""
    return {"ring": {"n": 1, "m": 1}, "degrees": {
        str(k): {"field": "trivial", "dim": len(w), "basis": _identity(len(w)),
                 "weights": list(w)}
        for k, w in enumerate(degrees, 1)}}


_NORMS = {
    "a": {"field": "trivial", "dim": 3,
          "basis": [[_q("1"), _q("0"), _q("0")], [_q("1"), _q("1"), _q("0")],
                    [_q("0"), _q("1"), _q("2")]],
          "weights": ["0", "1/2", "-1"]},
    "b": {"field": "trivial", "dim": 3,
          "basis": [[_q("1"), _q("2"), _q("0")], [_q("0"), _q("1"), _q("0")],
                    [_q("1"), _q("0"), _q("1")]],
          "weights": ["1", "-1/3", "2"]},
    "c": {"field": "tadic", "dim": 2,
          "basis": [[_t(0, 1), _t(1)], [_t(), _t(1)]], "weights": ["0", "1"]},
    "d": {"field": "tadic", "dim": 2,
          "basis": [[_t(1), _t(0, 1)], [_t(1), _t()]], "weights": ["2", "-1"]},
}

_GRADED = {
    "g0": _graded((("0", "1/2"), ("0", "1/2", "1"), ("0", "1/2", "1", "3/2"),
                   ("0", "1/2", "1", "3/2", "2"))),
    "g1": _graded((("1/3", "-1"), ("1", "-2/3", "-2"),
                   ("1", "0", "-5/3", "-3"), ("2", "0", "-4/3", "-8/3", "-5"))),
    # degree 2 falls below the product of degree 1 with itself
    "bad": _graded((("0", "0"), ("-1", "0", "0"))),
}


def _metric_tasks():
    pair = ["phi0", "phi1"]
    return [
        {"op": "energy", "metrics": pair, "kmax": 4},
        {"op": "d1", "metrics": pair, "kmax": 4},
        {"op": "maximal", "metrics": pair, "t": "1/3", "kmax": 4},
        {"op": "legendre", "metrics": pair, "t": "1/2"},
        {"op": "diagnostics", "metrics": pair, "kmax": 2},
        {"op": "verify", "target": "theoremB", "metrics": pair, "kmax": 2},
        {"op": "energy", "metrics": pair[::-1], "kmax": 2},
    ]


def _norm_tasks():
    tasks = []
    for pair in (["a", "b"], ["c", "d"]):
        tasks += [
            {"op": "spectrum", "norms": pair},
            {"op": "distance", "norms": pair, "p": 1},
            {"op": "distance", "norms": pair, "p": 2},
            {"op": "distance", "norms": pair, "p": "inf"},
            {"op": "volume", "norms": pair},
            {"op": "join", "norms": pair},
            {"op": "geodesic", "norms": pair, "t": "1/3"},
        ]
    return tasks


def _graded_tasks():
    return [
        {"op": "asymptotic", "graded": ["g0", "g1"], "p": "inf"},
        {"op": "asymptotic", "graded": ["g0", "g1"], "p": "inf",
         "oracle_limit": "4/3"},
        {"op": "verify", "target": "submultiplicative", "graded": "bad"},
    ]


CONFIGS = {
    "p2-metrics": ({"arena": {"n": 2, "m": 1},
                    "objects": {"metrics": _P2_METRICS},
                    "tasks": _metric_tasks()}, 0),
    "q-and-qt-norms": ({"objects": {"norms": _NORMS},
                        "tasks": _norm_tasks()}, 0),
    "graded-csv": ({"objects": {"graded": _GRADED}, "tasks": _graded_tasks(),
                    "output": {"format": "csv"}}, 1),
}

# file name -> sha256 of its bytes, per config
PINS = {
    "p2-metrics": {
        "000_energy.json":
            "43841cc1430b7ee9c94d706eba9c840575ad9529f58a694e40503ac438508bb9",
        "001_d1.json":
            "2dbe9c44561e38f1b8da89569ec2a4451de6664595f6009c4805ddb97b72f21e",
        "002_maximal.json":
            "09ae3ef02fcd3e5203c1d7a7c03752a1f5ea203ed1c6ad5f02864f1ef054196a",
        "003_legendre.json":
            "dd6abee1a590bfae02d4d9b38bcf22b932f533b120338424514198c9911f951e",
        "004_diagnostics.json":
            "53028f88057c0ae253c4cd3b7b4ab6c7fceedc37b9dbb55094e4eef86b68e96a",
        "005_verify.json":
            "eb48585c7bc7c165cbded7eceec6433b88f52b91b7dab24edaa97bf229ea3df5",
        "006_energy.json":
            "adcb9a35c5bc79034139a57c0a8b7849028ca0a9b614495a0d0c76fe20152999",
        "report.json":
            "79abb0ffa2b5595cac1b85d86ce7be9fdc3c478230017fdfcaa88df8ddcfe557",
    },
    "q-and-qt-norms": {
        "000_spectrum.json":
            "ad9fc939a17de0d1fe8f7f8070b59b6b0f21d64e0f5d32d6b7dd08f91c87ee4d",
        "001_distance.json":
            "7f1682ba10ceeb72132fdf7aa60f53cd58c80bf769135478c7cf5a6ef2c36532",
        "002_distance.json":
            "bd660314e05f558a7124eab57f072b50561979c6b3da3c461375a73bd152b432",
        "003_distance.json":
            "0f4a61fa490e77d03eb5833bf0e1ada4680b8ccfaa38d69ff1481efb6244ac9f",
        "004_volume.json":
            "c0c2ad16b9c41c4beb0ecfac9d75814b2b49f14e0a7ed8d06c49cc21d83eb8ab",
        "005_join.json":
            "35438770bfd6b39f77368c959bb2a22666ee61b13a75e8dea04f3100ab6e6648",
        "006_geodesic.json":
            "1cfd8c1abfe7356dce0f19faae8c9d3b49fe113caeaab8060262c07531bf7cf9",
        "007_spectrum.json":
            "2d06c994dd7e11c15a0a7d840a15b33aeeefbb9cb081c666640d0e06cb7715de",
        "008_distance.json":
            "ef6df9a5e0eea4d4c25cbaa150ac96232ba810e3fbb14037dddd1a31afc93da1",
        "009_distance.json":
            "918f414a1c992f32e8dfef32cafa9075018333073e6c6ff1d08527b0e6d5e6f8",
        "010_distance.json":
            "0f4a61fa490e77d03eb5833bf0e1ada4680b8ccfaa38d69ff1481efb6244ac9f",
        "011_volume.json":
            "6fa1b71abe0f38a63fc7bf95fb681e019ee5b836f798297ea6768623c0091e20",
        "012_join.json":
            "250f948447f06a90a9b75a16256d5631f124d2cff39f25e7715531ea0017c190",
        "013_geodesic.json":
            "0d83420fe602d316f4ed8afd1e95f9a3dc1ae149f5b681b60cb99815e3fda5d4",
        "report.json":
            "68a09ce39fe320e092063b82d2a9e4f8fec2758b19d9e6f8f12314e5614cf554",
    },
    "graded-csv": {
        "000_asymptotic.csv":
            "a7a00a0e14afc5d6a2f37343de4750f2d7c898401fc1f13082489e2523943ea0",
        "001_asymptotic.csv":
            "02beb6f8065dc22aa3d7b0dc8dd016b6be5d2dc905312c5ca1cf62e4843271e9",
        "002_verify.json":
            "fe18136dc10a9d040a5d43f67c98e298452382fee1e834edb94d77da5191a2fa",
        "report.json":
            "1799e42ad94de625869443f0f55ac423763cdf3c5d68a6d4dead787f06f76a69",
    },
}


def _digests(tmp_path, name):
    doc, _ = CONFIGS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_artifacts_match_their_pins(tmp_path, capsys, name) -> None:
    code, digests = _digests(tmp_path, name)
    capsys.readouterr()
    assert code == CONFIGS[name][1]
    assert digests == PINS[name]
