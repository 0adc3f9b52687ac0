"""Norm geodesics: interpolation, metric speed, convexity lemmas."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from geonorm import linalg
from geonorm.field import TADIC, TRIVIAL, RatFunc
from geonorm.geodesics import NormGeodesic, geodesic
from geonorm.norms import (
    DiagNorm,
    NormError,
    det_norm,
    distance,
    sym_power_norm,
    volume,
)

F = Fraction
TS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1))


def _std(weights):
    return DiagNorm.standard(TRIVIAL, tuple(F(w) for w in weights))


def _rand_std(rng, d):
    return _std(tuple(rng.randint(-4, 4) for _ in range(d)))


def _rand_norm(rng, field, d):
    """A norm on a random invertible basis other than the standard one,
    with rational weights."""
    while True:
        if field is TRIVIAL:
            basis = [[F(rng.randint(-3, 3), rng.choice((1, 2)))
                      for _ in range(d)] for _ in range(d)]
        else:
            basis = [[TADIC.of(rng.randint(-3, 3))
                      * RatFunc.t_power(rng.randint(-1, 2))
                      for _ in range(d)] for _ in range(d)]
        weights = [F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                   for _ in range(d)]
        try:
            n = DiagNorm(field, basis, weights)
        except NormError:
            continue
        if not n.is_standard_basis():
            return n


_FIELDS = pytest.mark.parametrize("field", [TRIVIAL, TADIC], ids=["Q", "Q(t)"])


def test_constant_geodesic() -> None:
    n = _std((0, 2))
    g = geodesic(n, n)
    for t in TS:
        assert g.at(t) == n


def test_endpoints() -> None:
    n0, n1 = _std((0, 0)), _std((3, -1))
    g = geodesic(n0, n1)
    assert g.at(F(0)) == n0
    assert g.at(F(1)) == n1


def test_midpoint_same_basis() -> None:
    g = geodesic(_std((0, 0)), _std((0, 2)))
    assert tuple(sorted(g.at(F(1, 2)).weights)) == (F(0), F(1))


def test_quarter_point() -> None:
    g = geodesic(_std((0, 4)), _std((2, 0)))
    assert tuple(sorted(g.at(F(1, 4)).weights)) == (F(1, 2), F(3))


def test_cross_basis_midpoint() -> None:
    n0 = _std((0, 1))
    n1 = DiagNorm(TRIVIAL, ((F(1), F(1)), (F(1), F(0))), (F(0), F(1)))
    mid = geodesic(n0, n1).at(F(1, 2))
    assert mid.evaluate((F(1), F(0))) == F(1, 2)
    assert mid.evaluate((F(0), F(1))) == F(1, 2)


def test_t_out_of_range() -> None:
    g = geodesic(_std((0,)), _std((1,)))
    with pytest.raises(NormError):
        g.at(F(3, 2))
    with pytest.raises(NormError):
        g.at(F(-1, 4))


def _geodesic_cases():
    """name -> (n0, n1, whether the common basis is n0's own basis)."""
    b0 = ((F(1), F(1)), (F(1), F(2)))
    b1 = ((F(2), F(-1)), (F(0), F(1)))
    t = RatFunc.t_power(1)
    q0 = ((TADIC.one, t), (TADIC.zero, TADIC.of(2)))
    q1 = ((TADIC.of(3), TADIC.one), (t * t, TADIC.one))
    return {
        "Q cross": (DiagNorm(TRIVIAL, b0, (F(0), F(1))),
                    DiagNorm(TRIVIAL, b1, (F(2), F(-1))), False),
        "Q shared": (DiagNorm(TRIVIAL, b0, (F(0), F(1))),
                     DiagNorm(TRIVIAL, b0, (F(3), F(-2))), True),
        "Q(t) cross": (DiagNorm(TADIC, q0, (F(0), F(1))),
                       DiagNorm(TADIC, q1, (F(-2), F(1))), False),
        "Q(t) shared": (DiagNorm(TADIC, q0, (F(0), F(1))),
                        DiagNorm(TADIC, q0, (F(1), F(-3))), True),
    }


def _counting_inversions(monkeypatch):
    """The arguments of every inversion from now on: of a matrix of field
    elements (``linalg.inverse_rows``) or of a basis record's columns
    (``linalg.inverse_columns``)."""
    calls = []
    for name in ("inverse_rows", "inverse_columns"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, _real=real:
                            calls.append(args) or _real(*args))
    return calls


@pytest.mark.parametrize("case", sorted(_geodesic_cases()))
def test_geodesic_slices_share_one_inverse(case, monkeypatch) -> None:
    n0, n1, shared = _geodesic_cases()[case]
    g = geodesic(n0, n1)
    calls = _counting_inversions(monkeypatch)
    ts = (F(1, 4), F(1, 2), F(2, 3))
    slices = [g.start, g.end] + [g.at(t) for t in ts]
    inverses = [s._inverse() for s in slices]
    # over Q(t) the kernel hands the slices the inverse of the common
    # basis; over Q a common basis of its own is inverted once, on first
    # use
    assert len(calls) == (0 if shared or g.field is TADIC else 1)
    assert all(inv is inverses[0] for inv in inverses)
    monkeypatch.undo()
    matrix = tuple(zip(*g.basis))
    assert (oracles.row_values(g.field, slices[0]._inverse())
            == oracles.invert_field(matrix))
    weights = [g.weights0, g.weights1] + [
        tuple((1 - t) * a + t * b for a, b in zip(g.weights0, g.weights1))
        for t in ts]
    for norm, w in zip(slices, weights):
        assert norm.basis is slices[0].basis
        expected = DiagNorm(g.field, g.basis, w)
        assert norm == expected
        assert norm.to_json() == expected.to_json()
    for t in (F(-1, 4), F(5, 4)):
        with pytest.raises(NormError):
            g.at(t)


@pytest.mark.parametrize("count", [1, 2, 9])
def test_q_geodesic_inverts_once_for_any_number_of_slices(count,
                                                          monkeypatch) -> None:
    n0, n1, _ = _geodesic_cases()["Q cross"]
    calls = _counting_inversions(monkeypatch)
    g = geodesic(n0, n1)
    assert calls == []
    slices = [g.at(F(i, count)) for i in range(count + 1)]
    assert calls == []  # the inverse is taken on first use
    for s in slices:
        assert s.basis is g.basis and s._inverse() is slices[0]._inverse()
        s.evaluate(n0.basis[0])
    assert len(calls) == 1

def test_geodesic_value_semantics_ignore_the_cached_norm() -> None:
    n0, n1, _ = _geodesic_cases()["Q cross"]
    g = geodesic(n0, n1)
    h = NormGeodesic(g.field, g.basis, g.weights0, g.weights1)
    g.at(F(1, 2))  # builds g's norm, not h's
    assert g == h and hash(g) == hash(h)
    assert repr(g) == repr(h) == (
        f"NormGeodesic(field={g.field!r}, basis={g.basis!r}, "
        f"weights0={g.weights0!r}, weights1={g.weights1!r})")
    assert h.at(F(1, 2)) == g.at(F(1, 2))
    # a slice checks its weights against the basis like DiagNorm does
    bad = NormGeodesic(TRIVIAL, g.basis, g.weights0, (F(1),))
    with pytest.raises(NormError):
        bad.end


def test_distance_linear_in_t() -> None:
    rng = random.Random(41)
    for _ in range(30):
        d = rng.randint(1, 4)
        n0, n1 = _rand_std(rng, d), _rand_std(rng, d)
        g = geodesic(n0, n1)
        for p in (1, 2, math.inf):
            base = distance(n0, n1, p)
            for t in TS:
                for s in TS:
                    got = distance(g.at(t), g.at(s), p)
                    if p == math.inf:
                        assert got == abs(t - s) * base
                    else:
                        # distance() returns the p-th power for finite p
                        assert got == abs(t - s) ** p * base


def test_log_convexity_on_vectors() -> None:
    # on the -log scale the geodesic value at t dominates the chord
    rng = random.Random(43)
    for _ in range(30):
        d = rng.randint(2, 3)
        n0, n1 = _rand_std(rng, d), _rand_std(rng, d)
        g = geodesic(n0, n1)
        for _ in range(10):
            v = tuple(F(rng.randint(-3, 3)) for _ in range(d))
            if all(x == 0 for x in v):
                continue
            v0, v1 = n0.evaluate(v), n1.evaluate(v)
            for t in TS:
                assert g.at(t).evaluate(v) >= (1 - t) * v0 + t * v1


def test_endpoint_monotonicity() -> None:
    rng = random.Random(47)
    for _ in range(30):
        d = rng.randint(1, 3)
        w0 = tuple(rng.randint(-3, 3) for _ in range(d))
        w1 = tuple(rng.randint(-3, 3) for _ in range(d))
        # primed endpoints dominate on the -log scale: larger weights
        w0p = tuple(x + rng.randint(0, 2) for x in w0)
        w1p = tuple(x + rng.randint(0, 2) for x in w1)
        g = geodesic(_std(w0), _std(w1))
        gp = geodesic(_std(w0p), _std(w1p))
        for t in TS:
            a, b = g.at(t), gp.at(t)
            assert all(x <= y for x, y in zip(a.weights, b.weights))


def test_determinant_commutes() -> None:
    rng = random.Random(53)
    for _ in range(20):
        d = rng.randint(1, 4)
        n0, n1 = _rand_std(rng, d), _rand_std(rng, d)
        g = geodesic(n0, n1)
        gd = geodesic(det_norm(n0), det_norm(n1))
        for t in TS:
            assert det_norm(g.at(t)) == gd.at(t)


@_FIELDS
def test_determinant_commutes_on_random_bases(field) -> None:
    # the companion of test_determinant_commutes on bases that make the
    # geodesic run the codiagonalization kernel
    rng = random.Random(f"det-commutes:{field.name}")
    for _ in range(15):
        d = rng.randint(1, 4)
        n0, n1 = _rand_norm(rng, field, d), _rand_norm(rng, field, d)
        g = geodesic(n0, n1)
        gd = geodesic(det_norm(n0), det_norm(n1))
        for t in TS:
            assert det_norm(g.at(t)) == gd.at(t)


def test_relative_volume_affine() -> None:
    rng = random.Random(59)
    for _ in range(20):
        d = rng.randint(1, 3)
        g = geodesic(_rand_std(rng, d), _rand_std(rng, d))
        h = geodesic(_rand_std(rng, d), _rand_std(rng, d))
        vals = [volume(g.at(t), h.at(t)) for t in TS]
        v0, v1 = vals[0], vals[-1]
        assert vals == [(1 - t) * v0 + t * v1 for t in TS]


def test_metric_convexity_d1_and_dinf() -> None:
    rng = random.Random(61)
    for _ in range(20):
        d = rng.randint(1, 3)
        g = geodesic(_rand_std(rng, d), _rand_std(rng, d))
        h = geodesic(_rand_std(rng, d), _rand_std(rng, d))
        for p in (1, math.inf):
            end0 = distance(g.at(F(0)), h.at(F(0)), p)
            end1 = distance(g.at(F(1)), h.at(F(1)), p)
            for t in TS:
                assert distance(g.at(t), h.at(t), p) <= (1 - t) * end0 + t * end1


def test_sym_power_commutes() -> None:
    rng = random.Random(67)
    for _ in range(10):
        d = rng.randint(2, 3)
        n0, n1 = _rand_std(rng, d), _rand_std(rng, d)
        for m in (2, 3, 4):
            g = geodesic(n0, n1)
            gs = geodesic(sym_power_norm(n0, m), sym_power_norm(n1, m))
            for t in (F(0), F(1, 2), F(2, 3), F(1)):
                assert sym_power_norm(g.at(t), m) == gs.at(t)


@_FIELDS
@pytest.mark.parametrize("m", [2, 3])
def test_sym_power_commutes_on_random_bases(field, m) -> None:
    # the companion of test_sym_power_commutes on bases that make both
    # geodesics run the codiagonalization kernel; over Q(t) Sym^3 runs in
    # dimension 2 only, since a 10-dimensional Q(t) geodesic takes seconds
    rng = random.Random(f"sym-commutes:{field.name}:{m}")
    top = 2 if field is TADIC and m == 3 else 3
    for _ in range(5):
        d = rng.randint(2, top)
        n0, n1 = _rand_norm(rng, field, d), _rand_norm(rng, field, d)
        g = geodesic(n0, n1)
        gs = geodesic(sym_power_norm(n0, m), sym_power_norm(n1, m))
        for t in (F(0), F(1, 2), F(2, 3), F(1)):
            assert sym_power_norm(g.at(t), m) == gs.at(t)
