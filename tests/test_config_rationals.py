"""Every rational of a config is read by one reader, ``parse_fraction``.

A JSON scalar is put in turn at each place where a config holds a
rational.  Where ``parse_fraction`` reads it, every place reads the same
Fraction, unless the place's own range refuses that value, as it refuses
the value written as a "num/den" string.  Where ``parse_fraction``
refuses it, every place refuses it (but a task reads a null oracle limit
as none), and ``geonorm run`` exits 2 with one ``config error:`` line.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geonorm.cli import main
from geonorm.config import ConfigError, load_config
from geonorm.field import format_fraction, parse_fraction

F = Fraction
P1 = {"n": 1, "m": 1}


def _q(x):
    return {"q": x}


def _base():
    """A config holding one object of each kind and two tasks, every
    rational written as a string."""
    identity = [[_q("1"), _q("0")], [_q("0"), _q("1")]]
    return {
        "objects": {
            "metrics": {"phi": {"n": 1, "m": 1, "potential": {
                "n": 1, "pieces": [{"g": ["0"], "c": "0"}]}}},
            "norms": {"a": {"field": "trivial", "weights": ["0", "0"],
                            "basis": [[_q("1"), _q("0")], [_q("0"), _q("1")]]}},
            "graded": {"g": {"ring": P1, "degrees": {"1": {
                "field": "trivial", "basis": identity, "weights": ["0", "0"]}}}},
            "paths": {"p": {"ring": P1, "k": 1, "samples": [
                {"t": t, "weights": ["0", "0"]} for t in ("-1", "-2", "-3")]}},
            "segments": {"s": {"ring": P1, "k": 1, "weights0": ["0", "0"],
                               "weights1": ["0", "0"]}},
        },
        "tasks": [
            {"op": "legendre", "metrics": ["phi", "phi"], "t": "0"},
            {"op": "asymptotic", "graded": ["g", "g"], "oracle_limit": "0"},
        ],
    }


def _objects(doc):
    return doc["objects"]


# place -> (the list or object holding it, its key, the value read back)
PLACES = {
    "piece g": (lambda d: _objects(d)["metrics"]["phi"]["potential"]["pieces"][0]["g"],
                0, lambda c: c.metrics["phi"].potential.pieces[0][0][0]),
    "piece c": (lambda d: _objects(d)["metrics"]["phi"]["potential"]["pieces"][0],
                "c", lambda c: c.metrics["phi"].potential.pieces[0][1]),
    "norm weights": (lambda d: _objects(d)["norms"]["a"]["weights"], 0,
                     lambda c: c.norms["a"].weights[0]),
    "basis entry": (lambda d: _objects(d)["norms"]["a"]["basis"][0][1], "q",
                    lambda c: c.norms["a"].basis[0][1]),
    "graded degree weights": (
        lambda d: _objects(d)["graded"]["g"]["degrees"]["1"]["weights"], 0,
        lambda c: c.graded["g"].degree_weights(1)[(0,)]),
    "path t": (lambda d: _objects(d)["paths"]["p"]["samples"][0], "t",
               lambda c: c.paths["p"].samples[0][0]),
    "path weights": (lambda d: _objects(d)["paths"]["p"]["samples"][0]["weights"],
                     0, lambda c: c.paths["p"].samples[0][1][(0,)]),
    "segment weights0": (lambda d: _objects(d)["segments"]["s"]["weights0"], 0,
                         lambda c: c.segments["s"].weights0[0]),
    "segment weights1": (lambda d: _objects(d)["segments"]["s"]["weights1"], 0,
                         lambda c: c.segments["s"].weights1[0]),
    "task t": (lambda d: d["tasks"][0], "t", lambda c: c.tasks[0]["t"]),
    "task oracle_limit": (lambda d: d["tasks"][1], "oracle_limit",
                          lambda c: c.tasks[1]["oracle_limit"]),
}

# places whose own range refuses some rationals: gradients lie in [0, 1] on
# P^1 with O(1), a task's t lies in [0, 1] and a path's t repeats none
RANGED = {"piece g", "task t", "path t"}


def _doc(place, value):
    doc = _base()
    holder, key, _ = PLACES[place]
    holder(doc)[key] = copy.deepcopy(value)
    return doc


def _load(tmp, place, value):
    """The value the place reads, or the ConfigError's message."""
    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_doc(place, value), fh)
    try:
        return PLACES[place][2](load_config(path))
    except ConfigError as exc:
        return str(exc)


def _run(tmp, place, value):
    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_doc(place, value), fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["run", "--config", path, "--out",
                     os.path.join(tmp, "out")])
    return code, err.getvalue()


def _check(value):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            q = parse_fraction(value)
        except (TypeError, ValueError, ZeroDivisionError):
            q = None
        for place in PLACES:
            got = _load(tmp, place, value)
            if value is None and place == "task oracle_limit":
                assert got is None  # a null oracle limit is no oracle limit
                continue
            if q is None:
                assert isinstance(got, str), (place, value, got)
                code, err = _run(tmp, place, value)
                assert code == 2, (place, value)
                assert err.startswith("config error: ") and err.count("\n") == 1
                continue
            if type(got) is Fraction:
                assert got == q, (place, value, got)
            else:
                # the place's range refuses q, as it refuses q's string
                assert place in RANGED, (place, value, got)
                assert got == _load(tmp, place, format_fraction(q)), place


_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.integers(-10 ** 30, 10 ** 30),
    st.decimals(min_value=0, max_value=1, places=4).map(str),
    st.decimals(min_value=-10 ** 6, max_value=10 ** 6, places=3).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(0, 9)),
    st.floats(min_value=0, max_value=1),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(0, 1), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(_SCALARS)
def test_every_place_reads_a_scalar_as_parse_fraction_does(value) -> None:
    _check(value)


@pytest.mark.parametrize("value, expected", [
    (0.1, F(1, 10)), ("0.1", F(1, 10)), (1, F(1)), ("2/3", F(2, 3)),
    (1e-7, F(1, 10 ** 7)), (-0.0, F(0)), ("1e3", F(1000)),
])
def test_parse_fraction_reads_the_decimal_text(value, expected) -> None:
    assert parse_fraction(value) == expected
    assert type(parse_fraction(value)) is Fraction


@pytest.mark.parametrize("value", [
    True, False, None, [1], {"q": "1"}, F(1, 2), math.inf, math.nan, "x",
])
def test_parse_fraction_refuses_what_is_no_rational(value) -> None:
    with pytest.raises((TypeError, ValueError)):
        parse_fraction(value)


def test_a_json_float_is_one_tenth_at_every_place() -> None:
    # a metric offset "c": 0.1 read 3602879701896397/36028797018963968
    with tempfile.TemporaryDirectory() as tmp:
        for place in PLACES:
            assert _load(tmp, place, 0.1) == F(1, 10), place


def test_a_bool_exits_2_at_every_place() -> None:
    # a metric offset "c": true read as 1, with exit 0
    with tempfile.TemporaryDirectory() as tmp:
        for place in PLACES:
            code, err = _run(tmp, place, True)
            assert code == 2, place
            assert err.startswith("config error: ") and err.count("\n") == 1
