"""Every count, time and exponent argument is read by ``geonorm.field``.

One table holds every entry point of the package that takes a count (a
level k, a bound kmax, a ring's n or m, a power: an int >= 1, no bool), a
time t in [0, 1] (an int or ``Fraction``, or a string or float read as a
config reads it) or a d_p exponent (``math.inf`` or a count).  Each bad
value raises the entry point's own exception class with its kind's one
message, before any conjugate, level or kernel runs: the work each entry
point would start next is replaced by ``refuse``.  A time that is no
rational has one message of its own.  Each good value gives the result
pinned below, a digest of the result's JSON form that the code before the
readers computed.
"""

import hashlib
import itertools
import json
import os
import re
from fractions import Fraction
from math import inf

import pytest

from geonorm import cli, config, graded, norms, plconvex, segments, toric
from geonorm.cli import main
from geonorm.config import ConfigError, MetricPath
from geonorm.field import TRIVIAL
from geonorm.geodesics import NormGeodesic, geodesic
from geonorm.graded import (GradedError, GradedNorm, SectionRing,
                            asymptotic_stats, check_submultiplicative,
                            generate_degree_one, graded_geodesic)
from geonorm.norms import DiagNorm, NormError, NormPair, distance, sym_power_norm
from geonorm.plconvex import (MaxAffine, PLError, _mix_witness, conjugate,
                              integrate_abs_difference)
from geonorm.segments import (FSSegment, SegmentPair, detect_non_psh,
                              diagnostics, fs_segment, legendre_segment,
                              maximal_segment, quantized_level,
                              segment_from_dual)
from geonorm.suites import planted_submultiplicativity_violation
from geonorm.toric import (ToricError, ToricMetric, d1_metric, energy,
                           fs_from_norm, section_ring, sup_graded, supnorm)

F = Fraction

BAD = {
    "count": (True, False, 2.0, F(5, 2), "2", 0, -1),
    # and a hair outside each end of [0, 1]; then values that are no
    # rational (True read as 1, None and "abc" raised a bare TypeError and
    # ValueError)
    "time": (F(-1, 2), F(3, 2), F(-1, 2 ** 64), 1 + F(1, 2 ** 64),
             True, None, "abc"),
    "exponent": (True, 2.0, "2", F(2), 0, -inf),
}

MESSAGE = {
    "count": "{what} must be a positive integer, got {value!r}",
    "time": "{what} {value} outside [0, 1]",
    "exponent": "{what} must be a positive integer or inf, got {value!r}",
    "rational": "{what} must be a rational, got {value!r}",
}

RING = section_ring(1, 1)
PHI0 = fs_from_norm(RING, 1, {(0,): 0, (1,): 0})
PHI1 = fs_from_norm(RING, 1, {(0,): 0, (1,): -2})
Q0, Q1 = conjugate(PHI0.potential), conjugate(PHI1.potential)
NORM = supnorm(1, PHI1)
N0 = DiagNorm(TRIVIAL, ((1, 0), (1, 1)), (0, F(1, 2)))
N1 = DiagNorm(TRIVIAL, ((1, 0), (0, 1)), (F(-1, 3), 2))
SEG = fs_segment(RING, 1, (0, 0), (0, -2))
GN0 = generate_degree_one(RING, {(0,): 0, (1,): 1}, 3)
GN1 = generate_degree_one(RING, {(0,): F(1, 2), (1,): -1}, 3)
PLANTED = planted_submultiplicativity_violation()
PATH = ((0, {(0,): 0, (1,): 0}), (F(1, 2), {(0,): F(1, 2), (1,): -1}),
        (1, {(0,): 0, (1,): -2}))
PARSED = {"norms": {"a": N0, "b": N1}, "metrics": {"a": PHI0, "b": PHI1}}
MAX_AFFINE = {"pieces": [{"g": ["0"], "c": "0"}, {"g": ["1"], "c": "-1"}]}

CONJUGATE = ((toric, "conjugate"), (plconvex, "conjugate"))


def _section_ring(n, m):
    """section_ring(n, m) on an empty cache, so that a ring is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toric, "_rings", {})
        return section_ring(n, m)


def _arena(key):
    """load_config of a document with ``arena[key]`` set to the value."""
    def load(value):
        doc = {"arena": {"n": 1, "m": 1, key: value}}
        stub = type("Json", (), {"load": staticmethod(lambda fh: doc),
                                 "JSONDecodeError": json.JSONDecodeError})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(config, "json", stub)
            return config.load_config(os.devnull)
    return load


def _task(**task):
    """config._parsed_task of ``task`` with its ``value`` key set."""
    key = next(k for k, v in task.items() if v is None)
    return lambda value: config._parsed_task(
        0, dict(task, **{key: value}), PARSED)


# (id, kind, error class, what, call, the work refused, good values)
ROWS = [
    # -- counts --
    ("fs_from_norm k", "count", ToricError, "level k",
     lambda k: fs_from_norm(RING, k, NORM),
     ((toric, "_basis_weights"), (toric, "_fs_metric")), (1,)),
    ("supnorm k", "count", ToricError, "level k",
     lambda k: supnorm(k, PHI1), CONJUGATE, (1, 2)),
    ("sup_graded kmax", "count", GradedError, "kmax",
     lambda k: sup_graded(PHI1, k), CONJUGATE, (1, 2)),
    ("energy kmax", "count", ToricError, "kmax",
     lambda k: energy(PHI0, PHI1, k), CONJUGATE, (1, 2)),
    ("d1_metric kmax", "count", ToricError, "kmax",
     lambda k: d1_metric(PHI0, PHI1, k), CONJUGATE, (1, 2)),
    ("quantized_level k", "count", ToricError, "level k",
     lambda k: quantized_level(PHI0, PHI1, k), CONJUGATE, (1, 2)),
    ("maximal_segment kmax", "count", ToricError, "kmax",
     lambda k: maximal_segment(PHI0, PHI1, F(1, 2), k), CONJUGATE, (1, 2)),
    ("diagnostics kmax", "count", ToricError, "kmax",
     lambda k: diagnostics(PHI0, PHI1, k), CONJUGATE, (1, 2)),
    ("FSSegment.build k", "count", ToricError, "level k",
     lambda k: FSSegment.build(RING, k, (0, 0), (0, -2)),
     ((SectionRing, "h0"),), (1,)),
    ("FSSegment.from_json k", "count", GradedError, "k",
     lambda k: FSSegment.from_json(dict(SEG.to_json(), k=k)),
     ((FSSegment, "build"),), (1,)),
    ("MetricPath.from_json k", "count", GradedError, "k",
     lambda k: MetricPath.from_json({"ring": {"n": 1, "m": 1}, "k": k,
                                     "samples": []}),
     ((SectionRing, "basis"),), ()),
    ("detect_non_psh k", "count", ToricError, "level k",
     lambda k: detect_non_psh(RING, k, PATH),
     ((segments, "fs_from_norm"),), (1,)),
    ("section_ring n", "count", ToricError, "section ring n",
     lambda n: _section_ring(n, 1), ((toric, "SectionRing"),), (1, 2)),
    ("section_ring m", "count", ToricError, "section ring m",
     lambda m: _section_ring(1, m), ((toric, "SectionRing"),), (1, 2)),
    # a ring builds no basis until one is read: no work to refuse
    ("SectionRing n", "count", GradedError, "section ring n",
     lambda n: SectionRing(n, 1), (), (1, 2)),
    ("SectionRing m", "count", GradedError, "section ring m",
     lambda m: SectionRing(1, m), (), (1, 2)),
    ("GradedNorm.from_json ring.n", "count", GradedError, "ring.n",
     lambda n: GradedNorm.from_json(
         dict(GN0.to_json(), ring={"n": n, "m": 1})),
     ((graded, "_degree_weights"),), (1,)),
    ("ToricMetric.from_json metric.m", "count", GradedError, "metric.m",
     lambda m: ToricMetric.from_json(dict(PHI1.to_json(), m=m)),
     ((MaxAffine, "from_json"),), (1, 2)),
    ("generate_degree_one kmax", "count", GradedError, "kmax",
     lambda k: generate_degree_one(RING, {(0,): 0, (1,): 1}, k),
     ((graded, "_basis_weights"),), (1, 2)),
    ("check_submultiplicative kmax", "count", GradedError, "kmax",
     lambda k: check_submultiplicative(PLANTED, k),
     ((graded, "_keys"),), (1, 2)),
    ("asymptotic_stats kmax", "count", GradedError, "kmax",
     lambda k: asymptotic_stats(GN0, GN1, 1, k), ((graded, "lcm"),),
     (1, 2)),
    ("sym_power_norm m", "count", NormError, "symmetric power m",
     lambda m: sym_power_norm(N0, m),
     ((norms, "combinations_with_replacement"),), (1, 2)),
    ("MaxAffine.from_json n", "count", PLError, "max-affine n",
     lambda n: MaxAffine.from_json(dict(MAX_AFFINE, n=n)),
     ((MaxAffine, "__init__"),), (1,)),
    ("integrate_abs_difference p", "count", PLError, "the power p",
     lambda p: integrate_abs_difference(Q0, Q1, p),
     ((plconvex, "_overlay"),), (1, 2)),
    ("config task kmax", "count", ConfigError, "task 0: kmax",
     _task(op="energy", metrics=["a", "b"], kmax=None), (), (1, 2)),
    ("config arena.n", "count", ConfigError, "arena.n", _arena("n"),
     ((config, "_parse_objects"),), (1,)),
    ("config arena.m", "count", ConfigError, "arena.m", _arena("m"),
     ((config, "_parse_objects"),), (1,)),
    # -- times --
    ("FSSegment.eval t", "time", ToricError, "segment time",
     lambda t: SEG.eval(t), ((segments, "_fs_metric"),), (0, F(1, 2), 1)),
    ("segment_from_dual t", "time", ToricError, "segment time",
     lambda t: segment_from_dual(SEG, t), ((segments, "_marginal_rows"),),
     (0, F(1, 2), 1)),
    ("legendre_segment t", "time", ToricError, "segment time",
     lambda t: legendre_segment(PHI0, PHI1, t),
     CONJUGATE + ((segments, "_interpolated"),), (0, F(1, 2), 1)),
    # the profiles are read before t, as they always were; no level is
    ("maximal_segment t", "time", ToricError, "segment time",
     lambda t: maximal_segment(PHI0, PHI1, t, 4),
     ((SegmentPair, "_weights"),), (0, F(1, 2), 1)),
    ("diagnostics ts", "time", ToricError, "segment time",
     lambda t: diagnostics(PHI0, PHI1, 2, ts=(0, t)), CONJUGATE,
     (0, F(1, 2), 1)),
    ("NormGeodesic.at t", "time", NormError, "geodesic time",
     lambda t: geodesic(N0, N1).at(t), ((NormGeodesic, "_numerators"),),
     (0, F(1, 2), 1)),
    ("graded_geodesic t", "time", NormError, "geodesic time",
     lambda t: graded_geodesic(GN0, GN1, t), ((graded, "lcm"),),
     (0, F(1, 2), 1)),
    ("_mix_witness lam", "time", PLError, "mix weight",
     lambda lam: _mix_witness(PHI0.potential, lam, Q0, Q1),
     ((plconvex, "_le_witness"),), (0, F(1, 2), 1)),
    # a Fraction as the config text that writes it
    ("config task t", "time", ConfigError, "task 0: t",
     lambda t: config._parsed_task(
         0, {"op": "maximal", "metrics": ["a", "b"],
             "t": str(t) if type(t) is Fraction else t}, PARSED),
     (), (0, F(1, 2), 1)),
    # -- exponents --
    ("distance p", "exponent", NormError, "p",
     lambda p: distance(N0, N1, p), ((NormPair, "_differences"),),
     (1, 2, inf)),
    ("asymptotic_stats p", "exponent", GradedError, "p",
     lambda p: asymptotic_stats(GN0, GN1, p), ((graded, "lcm"),),
     (1, 2, inf)),
    ("config task p", "exponent", ConfigError, "task 0: p",
     _task(op="distance", norms=["a", "b"], p=None), (), (1, 2, "inf")),
]

# sha256 (first 16 hex digits) of _canon of each good value's result, as
# the code before the readers computed it
GOOD = {
    ('fs_from_norm k', 1): '9ce63e832f7037e9',
    ('supnorm k', 1): 'dca9bca43bff88c5',
    ('supnorm k', 2): '17f581d0d34ba52e',
    ('sup_graded kmax', 1): 'a981ef875dd57dcd',
    ('sup_graded kmax', 2): '7c406181a3b3af96',
    ('energy kmax', 1): '3a2eef2f0d9e09d1',
    ('energy kmax', 2): 'd15e04078ebc102c',
    ('d1_metric kmax', 1): '3a2eef2f0d9e09d1',
    ('d1_metric kmax', 2): 'd15e04078ebc102c',
    ('quantized_level k', 1): '4eb3430ce61d4161',
    ('quantized_level k', 2): 'e4e52bcbf66024ac',
    ('maximal_segment kmax', 1): '5fcceea5d219c9c8',
    ('maximal_segment kmax', 2): '5fcceea5d219c9c8',
    ('diagnostics kmax', 1): 'b76b60c571acecff',
    ('diagnostics kmax', 2): '67385facebb66a07',
    ('FSSegment.build k', 1): '4eb3430ce61d4161',
    ('FSSegment.from_json k', 1): '4eb3430ce61d4161',
    ('detect_non_psh k', 1): 'cfdf4b83c274e02f',
    ('section_ring n', 1): 'a40f0e9f16958482',
    ('section_ring n', 2): '1f8b8ea63f558ba6',
    ('section_ring m', 1): 'a40f0e9f16958482',
    ('section_ring m', 2): '39d9a42320d2377e',
    ('SectionRing n', 1): 'a40f0e9f16958482',
    ('SectionRing n', 2): '1f8b8ea63f558ba6',
    ('SectionRing m', 1): 'a40f0e9f16958482',
    ('SectionRing m', 2): '39d9a42320d2377e',
    ('GradedNorm.from_json ring.n', 1): 'a7f3b459fbd95d07',
    ('ToricMetric.from_json metric.m', 1): '9ce63e832f7037e9',
    ('ToricMetric.from_json metric.m', 2): 'c716a057cda1a2d4',
    ('generate_degree_one kmax', 1): '09b6ea6d9e37e838',
    ('generate_degree_one kmax', 2): 'c6f9e3be0a40932e',
    ('check_submultiplicative kmax', 1): '74234e98afe7498f',
    ('check_submultiplicative kmax', 2): '59c5a8fc3db306ef',
    ('asymptotic_stats kmax', 1): 'e66ff3d763f9cb8f',
    ('asymptotic_stats kmax', 2): 'd82d5ca0670b81e3',
    ('sym_power_norm m', 1): 'e67e7ad6560fbbbf',
    ('sym_power_norm m', 2): '0abce21c20d910e9',
    ('MaxAffine.from_json n', 1): '30722b77b4e77524',
    ('integrate_abs_difference p', 1): '391552c099c101b1',
    ('integrate_abs_difference p', 2): 'aa46b6fc3afc4e05',
    ('config task kmax', 1): 'd293de3f30f62d6b',
    ('config task kmax', 2): '758eb7a7d165d5e8',
    ('config arena.n', 1): '8acb5cf59d718b35',
    ('config arena.m', 1): '8acb5cf59d718b35',
    ('FSSegment.eval t', 0): '71f267e3e46390b7',
    ('FSSegment.eval t', Fraction(1, 2)): '42b7bc73031c55c1',
    ('FSSegment.eval t', 1): '9ce63e832f7037e9',
    ('segment_from_dual t', 0): '70268c70b0d1a2bf',
    ('segment_from_dual t', Fraction(1, 2)): '5fcceea5d219c9c8',
    ('segment_from_dual t', 1): 'da18c4dc8678c6aa',
    ('legendre_segment t', 0): '70268c70b0d1a2bf',
    ('legendre_segment t', Fraction(1, 2)): '5fcceea5d219c9c8',
    ('legendre_segment t', 1): 'da18c4dc8678c6aa',
    ('maximal_segment t', 0): '70268c70b0d1a2bf',
    ('maximal_segment t', Fraction(1, 2)): '5fcceea5d219c9c8',
    ('maximal_segment t', 1): 'da18c4dc8678c6aa',
    ('diagnostics ts', 0): '2104246ee3bdf829',
    ('diagnostics ts', Fraction(1, 2)): '705d56a5ead643fd',
    ('diagnostics ts', 1): '9ea407f245daaf2c',
    ('NormGeodesic.at t', 0): 'f57d76b3d284a0e5',
    ('NormGeodesic.at t', Fraction(1, 2)): '9a4d2f49965ca0fa',
    ('NormGeodesic.at t', 1): '292093867f0656d4',
    ('graded_geodesic t', 0): 'a7f3b459fbd95d07',
    ('graded_geodesic t', Fraction(1, 2)): '57725824e3302813',
    ('graded_geodesic t', 1): '07ae9641f0956ba0',
    ('_mix_witness lam', 0): '68a90152c04505f5',
    ('_mix_witness lam', Fraction(1, 2)): '68a90152c04505f5',
    ('_mix_witness lam', 1): '74234e98afe7498f',
    ('config task t', 0): 'de43311b694756a9',
    ('config task t', Fraction(1, 2)): '8d58ba36a59c76be',
    ('config task t', 1): '30fc7094d7c7abb8',
    ('distance p', 1): '10435ee8f9401d74',
    ('distance p', 2): '3546b8b3dd18d45b',
    ('distance p', inf): 'cc11310c456c3690',
    ('asymptotic_stats p', 1): '4049357ebffe5e80',
    ('asymptotic_stats p', 2): '54095df2fc6686c1',
    ('asymptotic_stats p', inf): 'b96caaa6452e383e',
    ('config task p', 1): '63602e7ac2df67de',
    ('config task p', 2): 'fb3414c6159fb52c',
    ('config task p', 'inf'): '51c2dd292ca6cc9f',
}


def _canon(x):
    """A JSON form of a result, for the digests of ``GOOD``."""
    if hasattr(x, "to_json"):
        return _canon(x.to_json())
    if hasattr(x, "rows"):
        return _canon(x.rows())
    if isinstance(x, (list, tuple)):
        return [_canon(y) for y in x]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, str)) or x is None:
        return x
    return repr(x)


def _digest(x) -> str:
    text = json.dumps(_canon(x), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _refuse(*args, **kwargs):
    raise AssertionError("the work started before the argument was checked")


def _message(kind, what, value):
    """The one message of a bad value of a kind."""
    if kind != "time":
        return MESSAGE[kind].format(what=what, value=value)
    if type(value) in (int, Fraction):
        return MESSAGE["time"].format(what=what, value=Fraction(value))
    return MESSAGE["rational"].format(what=what, value=value)


_BAD_CASES = [pytest.param(row, value, id=f"{row[0]}={value!r}")
              for row in ROWS for value in BAD[row[1]]]
_GOOD_CASES = [pytest.param(row, value, id=f"{row[0]}={value!r}")
               for row in ROWS for value in row[6]]


@pytest.mark.parametrize("row, value", _BAD_CASES)
def test_a_bad_value_is_refused_before_any_work(row, value,
                                                monkeypatch) -> None:
    _, kind, error, what, call, work, _ = row
    for owner, name in work:
        monkeypatch.setattr(owner, name, _refuse)
    message = _message(kind, what, value)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("row, value", _GOOD_CASES)
def test_a_good_value_gives_the_pinned_result(row, value) -> None:
    assert _digest(row[4](value)) == GOOD[(row[0], value)]


@pytest.mark.parametrize("row", [pytest.param(row, id=row[0]) for row in ROWS
                                 if row[5] and row[6]])
def test_a_good_value_reaches_the_refused_work(row, monkeypatch) -> None:
    # so that no probe watches work its entry point has stopped doing
    for owner, name in row[5]:
        monkeypatch.setattr(owner, name, _refuse)
    with pytest.raises(AssertionError, match="^the work started"):
        row[4](row[6][-1])


@pytest.mark.parametrize("row", [pytest.param(row, id=row[0]) for row in ROWS
                                 if row[1] == "time"])
def test_a_float_time_is_read_by_its_decimal_text(row) -> None:
    # 0.1 read as 3602879701896397/36028797018963968 before
    assert _digest(row[4](0.1)) == _digest(row[4](F(1, 10)))


@pytest.mark.parametrize("text", ["True", "False", "2.0", "5/2", "0", "-1"])
def test_cli_kmax_is_a_count(text, tmp_path, capsys) -> None:
    # argparse reads --kmax as an int, so only 0 and -1 reach the reader;
    # it refuses the other texts itself, with exit 2 as well
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objects": {}, "tasks": []}))
    argv = ["run", "--config", str(path), "--kmax", text]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
        assert text not in ("0", "-1")
    else:
        assert capsys.readouterr().err == (
            f"config error: --kmax must be a positive integer, got {text}\n")
    assert code == 2


@pytest.mark.parametrize("t", BAD["time"])
def test_cli_t_is_a_time(t, tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setattr(cli, "maximal_segment", _refuse)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"objects": {"metrics": {
        "a": PHI0.to_json(), "b": PHI1.to_json()}}, "tasks": []}))
    argv = ["segments", "maximal", "--config", str(path), f"--t={t}"]
    assert main(argv) == 2
    shown = t if type(t) is Fraction else str(t)
    assert capsys.readouterr().err == (
        f"config error: {_message('time', '--t', shown)}\n")


# -- the graded kmax and the section ring, as the readers found them ---------


@pytest.mark.parametrize("kmax", [0, -4, True, 2.5, "2"])
def test_check_submultiplicative_reads_kmax_as_a_count(kmax) -> None:
    # 0, -4 and True returned None ("no violation") after checking nothing
    assert check_submultiplicative(PLANTED) == (1, 1, (0,), (0,))
    assert check_submultiplicative(PLANTED, 2) == (1, 1, (0,), (0,))
    with pytest.raises(GradedError,
                       match=f"^kmax must be a positive integer, got "):
        check_submultiplicative(PLANTED, kmax)


@pytest.mark.parametrize("kmax", [True, 2.5, -4, 0])
def test_asymptotic_stats_reads_kmax_as_a_count(kmax) -> None:
    # True read degree 1 only, 2.5 raised a bare TypeError from range and
    # -4 returned ([], None)
    with pytest.raises(GradedError,
                       match=f"^kmax must be a positive integer, got "):
        asymptotic_stats(GN0, GN0, 1, kmax)
    assert [k for k, _ in asymptotic_stats(GN0, GN0, 1, 2)[0]] == [1, 2]


@pytest.mark.parametrize("n, m", [(True, 1), (1.5, 1), ("1", 1), (1, True),
                                  (1, 2.0), (0, 1)])
def test_section_ring_dims_are_counts(n, m) -> None:
    # True built a ring that printed n=True, 1.5 failed in h0 with a bare
    # TypeError and "1" raised a bare TypeError from <
    with pytest.raises(GradedError, match="^section ring [nm] must be a "
                                          "positive integer, got "):
        SectionRing(n, m)


# -- the one reader of weight tables ------------------------------------------


def test_every_weight_table_is_read_with_one_message() -> None:
    # a point missing, and points keyed as ints (a bare TypeError from
    # tuple() in fs_from_norm and generate_degree_one)
    tables = ({(0,): 0}, {0: 0, 1: 0})
    calls = (
        (ToricError, lambda w: fs_from_norm(RING, 1, w)),
        (GradedError, lambda w: generate_degree_one(RING, w, 2)),
        (ToricError, lambda w: FSSegment.build(RING, 1, w, (0, 0))),
        (GradedError, lambda w: GradedNorm(RING, [w])),
    )
    for (error, call), table in itertools.product(calls, tables):
        with pytest.raises(error, match="^degree 1 weights must cover "
                                        "exactly the 2 monomials of "
                                        "km\\*Delta$"):
            call(table)
    wrong = supnorm(2, PHI1)  # standard, but of dimension 3
    for error, call in calls[:2]:
        with pytest.raises(error, match="^degree 1 norm must be monomial-"
                                        "diagonal of dimension 2$"):
            call(wrong)


def test_each_entry_point_keeps_the_forms_it_took() -> None:
    pairs = [((0,), 0), ((1,), -2)]
    # a norm and a list of pairs: fs_from_norm and generate_degree_one
    # take both, as they always did
    assert fs_from_norm(RING, 1, NORM) == PHI1
    assert fs_from_norm(RING, 1, pairs) == PHI1
    assert (generate_degree_one(RING, pairs, 2)
            == generate_degree_one(RING, NORM, 2))
    # a segment takes a mapping or a sequence, and no norm
    assert FSSegment.build(RING, 1, dict(pairs), (0, 0)) == FSSegment.build(
        RING, 1, (0, -2), (0, 0))
    with pytest.raises(TypeError):
        FSSegment.build(RING, 1, NORM, (0, 0))
    # a graded norm takes mappings only
    for table in (NORM, pairs):
        with pytest.raises(TypeError):
            GradedNorm(RING, [table])
