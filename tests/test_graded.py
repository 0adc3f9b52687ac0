"""Section rings of (P^n, O(m)), graded norms, submultiplicativity, statistics."""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from math import comb, inf

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from geonorm import graded
from geonorm.cli import main
from geonorm.field import TRIVIAL
from geonorm.graded import (
    GradedError,
    GradedNorm,
    SectionRing,
    asymptotic_stats,
    check_submultiplicative,
    generate_degree_one,
    graded_geodesic,
    lattice_points,
    serialize_counterexample,
)
from geonorm.norms import DiagNorm
from geonorm.suites import planted_submultiplicativity_violation, run_suite

F = Fraction


def _mixed_pair():
    ring = SectionRing(1, 2)
    gn0 = generate_degree_one(ring, {(0,): F(1, 6), (1,): F(1, 2), (2,): F(-2, 3)}, 4)
    gn1 = generate_degree_one(ring, {(0,): F(1, 5), (1,): F(-3, 7), (2,): F(2, 35)}, 4)
    return ring, gn0, gn1


def test_lattice_points_counts() -> None:
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            assert len(lattice_points(n, d)) == comb(d + n, n)
    assert list(lattice_points(1, 2)) == [(0,), (1,), (2,)]
    assert (1, 1) in lattice_points(2, 2)


def test_one_lattice_point_table_per_n_and_d() -> None:
    # every ring on (n, m) reads one table per degree, and a float degree
    # is no key of an int one
    assert SectionRing(2, 1).basis(3) is SectionRing(2, 1).basis(3)
    assert SectionRing(2, 3).basis(1) is lattice_points(2, 3)
    with pytest.raises(TypeError):
        lattice_points(1, 2.0)


def test_section_ring_h0() -> None:
    r12 = SectionRing(1, 2)
    assert [r12.h0(k) for k in (1, 2, 3)] == [3, 5, 7]
    r21 = SectionRing(2, 1)
    assert [r21.h0(k) for k in (1, 2, 3)] == [3, 6, 10]
    assert len(r21.basis(2)) == 6


def test_generate_trivial_stays_trivial() -> None:
    ring = SectionRing(1, 2)
    gn = generate_degree_one(ring, {a: F(0) for a in ring.basis(1)}, 5)
    for k in (1, 3, 5):
        assert all(w == 0 for w in gn.degree_weights(k).values())


def test_generate_affine_weights() -> None:
    ring = SectionRing(1, 1)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, 6)
    for k in (1, 2, 4, 6):
        assert gn.degree_weights(k) == {(j,): F(j) for j in range(k + 1)}


def test_generate_concentrated_weight() -> None:
    # the doubled middle point beats the sum of the endpoints
    ring = SectionRing(1, 2)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(5), (2,): F(0)}, 4)
    assert gn.weight(2, (2,)) == 10
    assert gn.weight(2, (1,)) == 5
    assert gn.weight(4, (4,)) == 20


def test_generate_matches_bruteforce_oracle() -> None:
    rng = random.Random(101)
    for ring in (SectionRing(1, 1), SectionRing(1, 2), SectionRing(2, 1)):
        for _ in range(8):
            table = {a: F(rng.randint(-4, 4)) for a in ring.basis(1)}
            gn = generate_degree_one(ring, table, 3)
            for k in (2, 3):
                for a in ring.basis(k):
                    expected = oracles.max_decomposition_weight(table, a, k)
                    assert gn.weight(k, a) == expected


def test_generated_norms_are_submultiplicative() -> None:
    rng = random.Random(103)
    ring = SectionRing(1, 2)
    for _ in range(5):
        table = {a: F(rng.randint(-3, 3)) for a in ring.basis(1)}
        gn = generate_degree_one(ring, table, 8)
        assert check_submultiplicative(gn) is None


def test_planted_violation_found_in_lex_order() -> None:
    ring = SectionRing(1, 1)
    gn = GradedNorm(ring, [
        {(0,): F(0), (1,): F(0)},
        {(0,): F(-1), (1,): F(0), (2,): F(0)},
    ])
    violation = check_submultiplicative(gn)
    assert violation == (1, 1, (0,), (0,))
    assert serialize_counterexample(violation) == {
        "k": 1, "l": 1, "a": [0], "b": [0]
    }


def test_graded_geodesic_endpoints_and_midpoint() -> None:
    ring = SectionRing(1, 1)
    gn0 = generate_degree_one(ring, {(0,): F(0), (1,): F(0)}, 4)
    gn1 = generate_degree_one(ring, {(0,): F(0), (1,): F(2)}, 4)
    assert graded_geodesic(gn0, gn1, 0) == gn0
    assert graded_geodesic(gn0, gn1, 1) == gn1
    # degree-3 weights of gn1 are (0,2,4,6); halving them interpolates
    assert gn1.degree_weights(3) == {(j,): F(2 * j) for j in range(4)}
    mid = graded_geodesic(gn0, gn1, F(1, 2))
    assert mid.degree_weights(3) == {(j,): F(j) for j in range(4)}
    # denominators 6 and 35: the endpoints come back in canonical form
    _, gn0, gn1 = _mixed_pair()
    assert graded_geodesic(gn0, gn1, 0) == gn0
    assert graded_geodesic(gn0, gn1, 1) == gn1
    assert graded_geodesic(gn0, gn1, F(1, 3)) != gn0


def test_graded_geodesic_preserves_submultiplicativity() -> None:
    rng = random.Random(107)
    for ring, K in ((SectionRing(1, 2), 8), (SectionRing(2, 1), 5)):
        for _ in range(4):
            t0 = {a: F(rng.randint(-3, 3)) for a in ring.basis(1)}
            t1 = {a: F(rng.randint(-3, 3)) for a in ring.basis(1)}
            gn0 = generate_degree_one(ring, t0, K)
            gn1 = generate_degree_one(ring, t1, K)
            for t in (F(1, 4), F(1, 3), F(1, 2), F(2, 3)):
                assert check_submultiplicative(graded_geodesic(gn0, gn1, t)) is None


def test_asymptotic_stats_zero_pair() -> None:
    ring = SectionRing(1, 1)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, 5)
    values, limit = asymptotic_stats(gn, gn, 1, oracle_limit=F(0))
    assert [v for _, v in values] == [F(0)] * 5
    assert limit == 0


def test_asymptotic_stats_linear_pair() -> None:
    ring = SectionRing(1, 1)
    gn0 = generate_degree_one(ring, {(0,): F(0), (1,): F(0)}, 6)
    gn1 = generate_degree_one(ring, {(0,): F(0), (1,): F(2)}, 6)
    values, _ = asymptotic_stats(gn0, gn1, 1)
    assert [v for _, v in values] == [F(1)] * 6
    sup_values, _ = asymptotic_stats(gn0, gn1, inf)
    assert [v for _, v in sup_values] == [F(2)] * 6
    # second moment of the rescaled spectrum: 4(2k+1)/(6k) -> integral 4/3
    sq_values, _ = asymptotic_stats(gn0, gn1, 2)
    assert [v for _, v in sq_values[:3]] == [F(2), F(5, 3), F(14, 9)]
    assert sq_values[-1][1] - F(4, 3) < F(1, 8)


def test_asymptotic_stats_rejects_bad_p() -> None:
    ring = SectionRing(1, 1)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, 3)
    with pytest.raises(GradedError):
        asymptotic_stats(gn, gn, F(3, 2))


@pytest.mark.parametrize("kmax", [True, 2.5, 0, -1, "2", None])
def test_generate_degree_one_refuses_a_kmax_that_is_no_int_at_least_1(
        kmax) -> None:
    # True built one degree, 2.5 died with a TypeError inside the loop
    ring = SectionRing(1, 1)
    with pytest.raises(GradedError, match="kmax must be a positive integer"):
        generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, kmax)


@pytest.mark.parametrize("p, kmax", [
    (True, None), (False, None), (0, 0), (0, None), (-1, None), (2.0, None),
    (F(1), None), (-inf, None)])
def test_asymptotic_stats_checks_p_before_any_degree(p, kmax) -> None:
    # p = True ran as p = 1, and p = 0 with kmax = 0 returned ([], None)
    ring = SectionRing(1, 1)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, 3)
    with pytest.raises(GradedError,
                       match="p must be a positive integer or inf"):
        asymptotic_stats(gn, gn, p, kmax)


@pytest.mark.parametrize("p", [1, 3, inf])
def test_asymptotic_stats_reads_every_degree_for_a_good_p(p) -> None:
    ring = SectionRing(1, 1)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, 3)
    with pytest.raises(GradedError, match="kmax must be a positive integer"):
        asymptotic_stats(gn, gn, p, 0)
    assert asymptotic_stats(gn, gn, p)[0] == [(1, 0), (2, 0), (3, 0)]


def test_norm_at_is_monomial_diagonal() -> None:
    ring = SectionRing(1, 2)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(5), (2,): F(0)}, 3)
    n2 = gn.norm_at(2)
    assert isinstance(n2, DiagNorm)
    assert n2.field is TRIVIAL
    assert n2.is_standard_basis()
    assert set(n2.weights) == {F(0), F(5), F(10)}


def test_degree_one_norm_input_equivalent_to_table() -> None:
    ring = SectionRing(1, 2)
    table = {(0,): F(0), (1,): F(5), (2,): F(0)}
    via_norm = generate_degree_one(
        ring, DiagNorm.standard(TRIVIAL, (F(0), F(5), F(0))), 3)
    via_table = generate_degree_one(ring, table, 3)
    assert via_norm == via_table


def test_graded_json_round_trip() -> None:
    ring = SectionRing(1, 2)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(5, 2), (2,): F(-1)}, 3)
    again = GradedNorm.from_json(gn.to_json())
    assert again == gn
    _, gn0, gn1 = _mixed_pair()
    for gn in (gn0, gn1, graded_geodesic(gn0, gn1, F(3, 4))):
        assert GradedNorm.from_json(gn.to_json()) == gn


def _q(text):
    return {"q": text}


_EYE2 = [[_q("1"), _q("0")], [_q("0"), _q("1")]]


def _degrees(one=None, two=None):
    """A P^1 graded norm of degrees 1 and 2 whose degree objects default to
    valid monomial-diagonal norms, with the given ones put in."""
    eye3 = [[_q("1" if i == j else "0") for j in range(3)] for i in range(3)]
    ok1 = {"field": "trivial", "dim": 2, "basis": _EYE2,
           "weights": ["0", "1/2"]}
    ok2 = {"field": "trivial", "dim": 3, "basis": eye3,
           "weights": ["0", "1/2", "1"]}
    return {"ring": {"n": 1, "m": 1},
            "degrees": {"1": ok1 if one is None else one,
                        "2": ok2 if two is None else two}}


def _deg1(**changes):
    obj = {"field": "trivial", "dim": 2, "basis": _EYE2,
           "weights": ["0", "1/2"]}
    obj.update(changes)
    return {k: v for k, v in obj.items() if v is not None}


# Each malformed degree object and the error it raises: the exception class
# and its message, pinned on the loader that built a ``DiagNorm`` per degree.
# A scalar or weight that ``parse_fraction`` refuses is malformed norm JSON,
# under its degree like every other norm error.
_GRADED_ERRORS = [
    ([], AttributeError, "'list' object has no attribute 'get'"),
    (_deg1(field="foo"), GradedError,
     "degree 1: malformed norm JSON: unknown field backend 'foo'"),
    (_deg1(field=[]), GradedError,
     "degree 1: malformed norm JSON: unhashable type: 'list'"),
    (_deg1(basis=None), GradedError, "degree 1: malformed norm JSON: 'basis'"),
    (_deg1(basis=3), GradedError,
     "degree 1: malformed norm JSON: 'int' object is not iterable"),
    (_deg1(basis=[[_q("1"), {"q": "0", "x": 1}], [_q("0"), _q("1")]]),
     GradedError, "degree 1: malformed norm JSON: malformed trivially valued "
     "scalar: {'q': '0', 'x': 1}"),
    (_deg1(basis=[[_q("1"), _q("x")], [_q("0"), _q("1")]]), GradedError,
     "degree 1: malformed norm JSON: Invalid literal for Fraction: 'x'"),
    (_deg1(basis=[[_q("1"), _q("1/0")], [_q("0"), _q("1")]]), GradedError,
     "degree 1: malformed norm JSON: Fraction(1, 0)"),
    (_deg1(basis=["ab", "cd"]), GradedError,
     "degree 1: malformed norm JSON: malformed trivially valued scalar: 'a'"),
    (_deg1(weights=None), GradedError,
     "degree 1: malformed norm JSON: 'weights'"),
    (_deg1(weights=["0", "x"]), GradedError,
     "degree 1: malformed norm JSON: Invalid literal for Fraction: 'x'"),
    (_deg1(weights=["0", "1/0"]), GradedError,
     "degree 1: malformed norm JSON: Fraction(1, 0)"),
    (_deg1(weights=["0", None]), GradedError,
     "degree 1: malformed norm JSON: a rational must be a string or a "
     "number, got None"),
    (_deg1(weights=7), GradedError,
     "degree 1: malformed norm JSON: 'int' object is not iterable"),
    (_deg1(dim=3), GradedError, "degree 1: declared dim does not match weights"),
    (_deg1(weights=["0"], dim=None), GradedError,
     "degree 1: basis and weights must have equal length"),
    (_deg1(basis=[], weights=[], dim=None), GradedError,
     "degree 1: a norm needs dimension >= 1"),
    (_deg1(basis=[[_q("1")], [_q("0")]]), GradedError,
     "degree 1: basis must be square (ambient dim = count)"),
    (_deg1(basis=[[_q("1"), _q("1")], [_q("2"), _q("2")]]), GradedError,
     "degree 1: basis vectors are linearly dependent"),
    (_deg1(basis=[[_q("1"), _q("0")], [_q("1"), _q("1")]]), GradedError,
     "degree 1 norm must be monomial-diagonal of dimension 2"),
    (_deg1(basis=[[_q("1")]], weights=["0"], dim=1), GradedError,
     "degree 1 norm must be monomial-diagonal of dimension 2"),
    (_deg1(basis=[[_q("0"), _q("1")], [_q("1"), _q("0")]]), GradedError,
     "degree 1 norm must be monomial-diagonal of dimension 2"),
    # a string is no list of weights, though it iterates as one
    (_deg1(weights="12"), GradedError,
     "degree 1: malformed norm JSON: weights must be a list, got '12'"),
    # a bool is no rational, though Python counts it as an int
    (_deg1(weights=[True, False]), GradedError,
     "degree 1: malformed norm JSON: a rational must be a string or a "
     "number, got True"),
    # a rational is read in its ASCII forms only, with no blanks
    (_deg1(weights=["0", " 1/2 "]), GradedError,
     "degree 1: malformed norm JSON: Invalid literal for Fraction: ' 1/2 '"),
]


@pytest.mark.parametrize("one, exc, message", _GRADED_ERRORS)
def test_graded_json_errors_are_pinned(one, exc, message) -> None:
    with pytest.raises(exc) as info:
        GradedNorm.from_json(_degrees(one))
    assert type(info.value) is exc and str(info.value) == message
    # the same object as degree 2 fails there, once degree 1 has loaded
    if exc is GradedError and "dimension 2" not in message:
        with pytest.raises(GradedError) as info:
            GradedNorm.from_json(_degrees(two=one))
        assert str(info.value) == message.replace("degree 1", "degree 2")


@pytest.mark.parametrize("one, weights", [
    # every form ``parse_fraction`` reads is a weight (a JSON number by its
    # decimal text), and the literal forms of the identity are not the only
    # ones
    (_deg1(weights=["0", "+1/2"]), (F(0), F(1, 2))),
    (_deg1(weights=["-0", "2/4"]), (F(0), F(1, 2))),
    (_deg1(weights=["1.5", "1e1"]), (F(3, 2), F(10))),
    (_deg1(weights=[1, 2.5]), (F(1), F(5, 2))),
    (_deg1(weights=[0.1, 1e-3]), (F(1, 10), F(1, 1000))),
    (_deg1(weights=["1", "2"]), (F(1), F(2))),
    (_deg1(dim=None), (F(0), F(1, 2))),
    (_deg1(field=None), (F(0), F(1, 2))),
    (_deg1(basis=[[_q("01"), _q("0/3")], [_q("-0"), _q("2/2")]]),
     (F(0), F(1, 2))),
    (_deg1(field="tadic", basis=[
        [{"t": {"num": [1], "den": [1]}}, {"t": {"num": [], "den": [1]}}],
        [{"t": {"num": [], "den": [1]}}, {"t": {"num": [1], "den": [1]}}]]),
     (F(0), F(1, 2))),
])
def test_graded_json_accepts_what_the_norm_loader_accepts(one, weights) -> None:
    gn = GradedNorm.from_json(_degrees(one))
    assert tuple(gn.degree_weights(1)[a] for a in gn.ring.basis(1)) == weights
    assert gn.degree_weights(2) == {(0,): 0, (1,): F(1, 2), (2,): 1}


def test_weight_cover_errors() -> None:
    ring = SectionRing(1, 2)
    with pytest.raises(GradedError):
        generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, 3)
    with pytest.raises(GradedError):
        generate_degree_one(ring, {a: F(0) for a in ring.basis(1)}, 0)

# -- the integer path against the Fraction loops it replaced --------------------


_RINGS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))
# mixed denominators: 6 and 35 share no factor, 2 * 3 * 5 * 7 reaches 210
_WEIGHTS = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 5, 6, 7, 35)))


@st.composite
def _graded_cases(draw):
    """A ring, two degree-one tables and two kmax values, up to 5 on P^1, 3 on P^2."""
    n, m = draw(st.sampled_from(_RINGS))
    ring = SectionRing(n, m)
    kmax = st.integers(1, 5 if n == 1 else 3)
    tables = [{a: draw(_WEIGHTS) for a in ring.basis(1)} for _ in range(2)]
    return ring, tables, (draw(kmax), draw(kmax))


@st.composite
def _bent_norms(draw):
    """A graded norm that may fail superadditivity somewhere.

    Either a generated norm with violations planted at random (k, l, a, b),
    where the weight at a + b drops below w_k(a) + w_l(b), or random weights
    in every degree.
    """
    ring, tables, (K, _) = draw(_graded_cases())
    K = max(K, 2)
    if draw(st.booleans()):
        return GradedNorm(ring, [{a: draw(_WEIGHTS) for a in ring.basis(k)}
                                 for k in range(1, K + 1)])
    gn = generate_degree_one(ring, tables[0], K)
    weights = [dict(gn.degree_weights(k)) for k in range(1, K + 1)]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, K - 1))
        l = draw(st.integers(1, K - k))
        a = draw(st.sampled_from(ring.basis(k)))
        b = draw(st.sampled_from(ring.basis(l)))
        c = tuple(x + y for x, y in zip(a, b))
        drop = draw(st.builds(F, st.integers(1, 5), st.sampled_from((1, 2, 7))))
        weights[k + l - 1][c] = weights[k - 1][a] + weights[l - 1][b] - drop
    return GradedNorm(ring, weights)


def _assert_same_norm(got, want) -> None:
    assert got == want
    for k in range(1, want.kmax + 1):
        assert list(got.degree_weights(k).items()) == \
            list(want.degree_weights(k).items())


@settings(max_examples=120)
@given(_graded_cases())
def test_generate_degree_one_matches_fraction_oracle(case) -> None:
    ring, tables, kmaxes = case
    for table, K in zip(tables, kmaxes):
        _assert_same_norm(generate_degree_one(ring, table, K),
                          oracles.generate_degree_one(ring, table, K))


@settings(max_examples=150)
@given(_bent_norms(), st.integers(0, 6))
def test_check_submultiplicative_matches_fraction_oracle(gn, kmax) -> None:
    for K in (None, kmax):
        if K == 0:  # no count, now refused
            with pytest.raises(GradedError):
                check_submultiplicative(gn, K)
            continue
        assert check_submultiplicative(gn, K) == \
            oracles.check_submultiplicative(gn, K)


@settings(max_examples=120)
@given(_graded_cases(), st.integers(0, 8), st.integers(1, 8))
def test_graded_geodesic_matches_fraction_oracle(case, p, q) -> None:
    ring, tables, (K0, K1) = case
    gn0 = generate_degree_one(ring, tables[0], K0)
    gn1 = generate_degree_one(ring, tables[1], K1)
    t = F(min(p, q), q)
    got = graded_geodesic(gn0, gn1, t)
    _assert_same_norm(got, oracles.graded_geodesic(gn0, gn1, t))
    assert check_submultiplicative(got) is None


@settings(max_examples=120)
@given(_graded_cases(), st.sampled_from((1, 2, 3, inf)), st.integers(0, 6))
def test_asymptotic_stats_matches_fraction_oracle(case, p, kmax) -> None:
    ring, tables, (K0, K1) = case
    gn0 = generate_degree_one(ring, tables[0], K0)
    gn1 = generate_degree_one(ring, tables[1], K1)
    for K in (None, kmax):
        if K == 0:  # no count, now refused
            with pytest.raises(GradedError):
                asymptotic_stats(gn0, gn1, p, K, F(1, 3))
            continue
        assert asymptotic_stats(gn0, gn1, p, K, F(1, 3)) == \
            oracles.asymptotic_stats(gn0, gn1, p, K, F(1, 3))


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                        "__lt__", "__gt__")


def test_graded_loops_run_no_fraction_arithmetic(monkeypatch) -> None:
    ring = SectionRing(2, 2)
    table0 = {a: F(i - 3, 6) for i, a in enumerate(ring.basis(1))}
    table1 = {a: F(2 - i, 35) for i, a in enumerate(ring.basis(1))}
    gn0 = oracles.generate_degree_one(ring, table0, 4)
    gn1 = oracles.generate_degree_one(ring, table1, 3)
    bent = [dict(gn0.degree_weights(k)) for k in (1, 2, 3, 4)]
    bent[3][(2, 6)] -= F(1, 7)
    bent = GradedNorm(ring, bent)
    calls = []
    for name in _FRACTION_ARITHMETIC:
        def counted(*args, _real=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(Fraction, name, counted)

    generate_degree_one(ring, table0, 4)
    violation = check_submultiplicative(bent)
    passes = [check_submultiplicative(gn0), check_submultiplicative(gn1, 2)]
    mid = graded_geodesic(gn0, gn1, F(2, 3))
    asymptotic_stats(gn0, gn1, 2)
    asymptotic_stats(gn0, gn1, inf)
    monkeypatch.undo()
    assert calls == []
    assert violation is not None and passes == [None, None]
    assert mid == oracles.graded_geodesic(gn0, gn1, F(2, 3))


# -- canonical form -------------------------------------------------------------


def test_unreduced_tables_give_the_same_norm() -> None:
    ring = SectionRing(1, 1)
    reduced = GradedNorm(ring, [{(0,): F(1, 6), (1,): F(1, 2)},
                                {(0,): F(1, 3), (1,): 1, (2,): F(-2, 3)}])
    as_strings = GradedNorm(ring, [{(0,): "2/12", (1,): "3/6"},
                                   {(0,): "4/12", (1,): "6/6", (2,): "-8/12"}])
    over_60 = GradedNorm._from_numerators(ring, 60, ((10, 30), (20, 60, -40)))
    assert as_strings == reduced
    assert over_60 == reduced
    assert (over_60._den, over_60._nums) == (6, ((1, 3), (2, 6, -4)))
    zero = GradedNorm._from_numerators(ring, 12, ((0, 0), (0, 0, 0)))
    assert zero._den == 1
    assert zero == GradedNorm(ring, [{(0,): 0, (1,): 0},
                                     {(0,): 0, (1,): 0, (2,): 0}])


def test_degrees_outside_the_norm_are_refused() -> None:
    ring = SectionRing(1, 1)
    gn = generate_degree_one(ring, {(0,): F(0), (1,): F(1)}, 3)
    for k in (0, -1, 4):
        with pytest.raises(GradedError):
            gn.degree_weights(k)
        with pytest.raises(GradedError):
            gn.weight(k, (0,))
    assert gn.degree_weights(3) == {(j,): F(j) for j in range(4)}


def test_degree_weights_are_reduced_fractions_in_basis_order() -> None:
    ring, gn0, gn1 = _mixed_pair()
    table = {(0,): F(1, 6), (1,): F(1, 2), (2,): F(-2, 3)}
    assert list(gn0.degree_weights(1).items()) == list(table.items())
    old = oracles.graded_geodesic(gn0, gn1, F(2, 5))
    mid = graded_geodesic(gn0, gn1, F(2, 5))
    for k in range(1, 5):
        got = mid.degree_weights(k)
        assert list(got) == list(ring.basis(k))
        assert all(type(w) is Fraction for w in got.values())
        assert got == old.degree_weights(k)
        got[ring.basis(k)[0]] += 1
        assert mid.degree_weights(k) == old.degree_weights(k)
        assert mid.weight(k, list(ring.basis(k)[-1])) == got[ring.basis(k)[-1]]


# -- end to end: the suite rows and CLI artifacts of the Fraction loops -----------


_GRADED_FUNCTIONS = ("generate_degree_one", "check_submultiplicative",
                     "graded_geodesic", "asymptotic_stats")


def _graded_config(path) -> None:
    ring, gn0, gn1 = _mixed_pair()
    bent = [dict(gn0.degree_weights(k)) for k in range(1, 5)]
    bent[3][(5,)] -= F(1, 35)
    tasks = [{"op": "asymptotic", "graded": ["g0", "g1"], "p": p}
             for p in (1, 2, 3, "inf")]
    tasks.append({"op": "asymptotic", "graded": ["g1", "bent"], "p": 2,
                  "oracle_limit": "1/3"})
    tasks += [{"op": "verify", "target": "submultiplicative", "graded": name}
              for name in ("g0", "g1", "bent", "planted")]
    path.write_text(json.dumps({
        "objects": {"graded": {
            "g0": gn0.to_json(), "g1": gn1.to_json(),
            "bent": GradedNorm(ring, bent).to_json(),
            "planted": planted_submultiplicativity_violation().to_json()}},
        "tasks": tasks,
        "output": {"format": "json"},
    }))


def _artifacts(tmp_path, name) -> tuple:
    cfg = tmp_path / f"{name}.json"
    _graded_config(cfg)
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, err.getvalue(), {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_suite_rows_and_cli_artifacts_match_fraction_oracles(monkeypatch,
                                                             tmp_path) -> None:
    rows = run_suite("graded", seed=0)
    artifacts = _artifacts(tmp_path, "library")
    for name in _GRADED_FUNCTIONS:
        real = getattr(graded, name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("geonorm") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, getattr(oracles, name))
    assert run_suite("graded", seed=0) == rows
    assert _artifacts(tmp_path, "oracle") == artifacts
    code, err, files = artifacts
    assert code == 1 and err.count("counterexample") == 2
    assert len(files) > 9
