"""The rooftop P(phi0, phi1) with the cells that its envelope found,
against the route it replaced: the envelope's pieces pruned by a second
conjugate and that profile integrated (``oracles.rooftop_by_prune``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from test_toric_pins import P3_CASES, _pair as _toric_pair
from geonorm import plconvex, toric
from geonorm.plconvex import EnvelopeError, MaxAffine, integrate_profile
from geonorm.segments import (
    fs_segment,
    legendre_segment,
    maximal_segment,
    segment_from_dual,
)
from geonorm.toric import (
    ToricMetric,
    compare_metrics,
    d1_metric,
    energy,
    envelope_P,
    fs_from_norm,
    moment_volume,
    section_ring,
)

F = Fraction

# (n, m, level) of the drawn FS pairs
_ARENAS = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1),
           (3, 1, 1), (3, 1, 2))


def _metric(n, m, pieces):
    return ToricMetric(n, m, MaxAffine(n, [
        (tuple(F(x) for x in g), F(c)) for g, c in pieces]))


_WEIGHT = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3)))


@st.composite
def _pairs(draw):
    """An FS pair on P^1-P^3: two drawn metrics, one metric twice, or one
    metric and a shift of it."""
    n = draw(st.integers(1, 3))
    n, m, level = draw(st.sampled_from([a for a in _ARENAS if a[0] == n]))
    ring = section_ring(n, m)
    basis = ring.basis(level)
    weights = st.lists(_WEIGHT, min_size=len(basis), max_size=len(basis))
    phi0 = fs_from_norm(ring, level, dict(zip(basis, draw(weights))))
    kind = draw(st.sampled_from(("drawn", "equal", "shifted")))
    if kind == "equal":
        return phi0, phi0
    if kind == "shifted":
        return phi0, phi0.shifted(draw(_WEIGHT))
    return phi0, fs_from_norm(ring, level, dict(zip(basis, draw(weights))))


# gradient hulls touching in a point of the line, an edge of the plane
# and a face of space: no full-dimensional rooftop region
_TOUCHING = (
    (_metric(1, 2, [((0,), 0), ((1,), 1)]),
     _metric(1, 2, [((1,), 0), ((2,), 2)])),
    (_metric(2, 2, [((0, 0), 0), ((1, 0), 1), ((0, 1), -1)]),
     _metric(2, 2, [((1, 0), 0), ((0, 1), 2), ((1, 1), 1)])),
    (_metric(3, 3, [((0, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), 2),
                    ((0, 0, 1), 3)]),
     _metric(3, 3, [((1, 0, 0), 0), ((0, 1, 0), 1), ((0, 0, 1), 2),
                    ((1, 1, 1), 3)])))
# full-support level-1 metrics with m = 1: one cell each, so their overlay
# and their rooftop's region have one cell
_ONE_CELL = (
    (_metric(2, 1, [((0, 0), 0), ((1, 0), 1), ((0, 1), -1)]),
     _metric(2, 1, [((0, 0), 1), ((1, 0), 0), ((0, 1), 3)])),
    (_metric(3, 1, [((0, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), -2),
                    ((0, 0, 1), 3)]),
     _metric(3, 1, [((0, 0, 0), 2), ((1, 0, 0), -1), ((0, 1, 0), 0),
                    ((0, 0, 1), 1)])))
# a level-2 P^2 pair whose rooftop has cells of four and five vertices
_QUADS = tuple(
    fs_from_norm(section_ring(2, 1), 2, dict(zip(
        section_ring(2, 1).basis(2), map(F, weights))))
    for weights in ((-2, -1, -2, 0, 1, -1), (1, 2, -2, 2, -1, -2)))


def _cells(den, faces):
    """The rooftop's faces as (vertex set, plane) pairs, in Fractions."""
    return {(frozenset(tuple(F(x, P[-1]) for x in P[:-1]) for P in pts),
             tuple(F(x, den) for x in plane)) for plane, pts, _ in faces}


@settings(max_examples=80)
@given(_pairs())
@example(_TOUCHING[0])
@example(_TOUCHING[1])
@example(_TOUCHING[2])
@example(_ONE_CELL[0])
@example(_ONE_CELL[1])
@example(_QUADS)
def test_rooftop_matches_the_pruned_route(pair) -> None:
    phi0, phi1 = pair
    n, m = phi0.n, phi0.m
    q0, q1 = phi0.profile(), phi1.profile()
    try:
        pot, q, integral = oracles.rooftop_by_prune(n, m, q0, q1)
    except EnvelopeError:
        with pytest.raises(EnvelopeError, match="empty domain"):
            toric._rooftop(n, m, q0, q1)
        return
    roof, den, faces = toric._rooftop(n, m, q0, q1)
    # the same potential row for row, the same cells and the same E(P)
    assert (roof.potential._den, roof.potential._rows) == (pot._den, pot._rows)
    assert _cells(den, faces) == {
        (frozenset(c.vertices), (*c.grad, c.offset)) for c in q.cells}
    assert plconvex._homogeneous_integral(faces, n, 1, den) == integral
    if phi0.has_full_support() and phi1.has_full_support():
        # int |q0 - q1| = int q0 + int q1 - 2 int P on the overlay's route
        # and on d1's envelope route
        want = integrate_profile(q0) + integrate_profile(q1) - 2 * integral
        assert plconvex._overlay_integral(plconvex._overlay(q0, q1), 1) == want
        limit = d1_metric(phi0, phi1, kmax=1).limit
        assert limit == want / moment_volume(n, m)


def test_quads_have_cells_that_are_no_simplex() -> None:
    # the example above pulls cells into simplices off their masks
    phi0, phi1 = _QUADS
    _, _, faces = toric._rooftop(2, 1, phi0.profile(), phi1.profile())
    assert sorted(len(pts) for _, pts, _ in faces)[-2:] == [4, 5]


# -- kernel passes per call ---------------------------------------------------


_BUDGET_PAIRS = {
    1: (_metric(1, 2, [((0,), 0), ((1,), 1), ((2,), -1)]),
        _metric(1, 2, [((0,), 1), ((1,), -1), ((2,), 0)])),
    2: _QUADS,
    3: _ONE_CELL[1],
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rooftop_and_d1_run_each_kernel_once(n, conjugated,
                                             monkeypatch) -> None:
    # envelope_P: the two profiles and one vertex enumeration, with no
    # conjugate of the rooftop; d1 adds the overlay's enumeration on n >= 2
    runs = []
    real = plconvex._vertices
    monkeypatch.setattr(plconvex, "_vertices",
                        lambda rows: runs.append(rows) or real(rows))
    phi0, phi1 = _BUDGET_PAIRS[n]
    envelope_P(phi0, phi1)
    assert (len(conjugated), len(runs)) == (2, 1)
    conjugated.clear()
    runs.clear()
    d1_metric(phi0, phi1, kmax=2)
    assert (len(conjugated), len(runs)) == (2, 1 + (n >= 2))


@pytest.mark.parametrize("n", [1, 2])
def test_line_ops_enter_no_hull_wrap(n, monkeypatch) -> None:
    # P^1 profiles come straight off the upper chain with their domain
    # rows, so no toric op on the line wraps a hull or assembles facets;
    # on P^2 every one of them still does, so the zeros are not vacuous
    calls = []
    for name in ("_facets", "_conjugate_wrap"):
        real = getattr(plconvex, name)
        monkeypatch.setattr(plconvex, name, lambda *args, _real=real: (
            calls.append(1) or _real(*args)))
    phi0, phi1 = _BUDGET_PAIRS[n]
    seg = fs_segment(section_ring(n, 1), 3 - n, [0, -1, 1], [1, 0, -2])
    t = F(1, 3)
    for op in (lambda: energy(phi0, phi1, kmax=2),
               lambda: d1_metric(phi0, phi1, kmax=2),
               lambda: maximal_segment(phi0, phi1, t, kmax=2),
               lambda: legendre_segment(phi0, phi1, t),
               lambda: compare_metrics(phi0, phi1),
               lambda: segment_from_dual(seg, t)):
        calls.clear()
        op()
        assert bool(calls) == (n > 1)


def test_plane_ops_enter_no_general_wrap(monkeypatch, conjugated) -> None:
    # full-rank P^2 conjugates take the upper wrap of d = 3, so no toric op
    # on P^2 enters the general gift-wrap; a P^3 pair still does, so the
    # zero is not vacuous
    calls = []
    real = plconvex._wrap
    monkeypatch.setattr(plconvex, "_wrap", lambda *args: (
        calls.append(1) or real(*args)))
    ring, t = section_ring(2, 1), F(1, 3)
    for seed in range(3):
        rng = random.Random(f"rooftop:wrap-guard:{seed}")
        for level in (1, 2):
            w0, w1 = [[F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                       for _ in ring.basis(level)] for _ in range(2)]
            phi0, phi1 = (fs_from_norm(ring, level, dict(zip(
                ring.basis(level), w))) for w in (w0, w1))
            energy(phi0, phi1, kmax=2)
            d1_metric(phi0, phi1, kmax=2)
            maximal_segment(phi0, phi1, t, kmax=2)
            legendre_segment(phi0, phi1, t)
            compare_metrics(phi0, phi1)
            segment_from_dual(fs_segment(ring, level, w0, w1), t)
    assert calls == [] and len(conjugated) > 30
    _, phi0, phi1 = _toric_pair(P3_CASES[0])
    energy(phi0, phi1, kmax=1)
    assert calls


def _counted(monkeypatch, owner, name):
    """The arguments of every later call to the method ``owner.name``,
    one tuple per call."""
    calls = []
    real = getattr(owner, name)

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_level_sums_read_weights_only_above_the_line(monkeypatch) -> None:
    # P^1 tables sum each level on the cells of the pair's overlay, with no
    # lattice value read; P^2 tables read the weight table of every level;
    # the maximal segment reads the top level of its chain only
    read = _counted(monkeypatch, plconvex.ConcaveProfile,
                    "_lattice_numerators")
    phi0, phi1 = _BUDGET_PAIRS[1]
    energy(phi0, phi1, kmax=8)
    d1_metric(phi0, phi1, kmax=8)
    assert read == []
    weights = _counted(monkeypatch, toric.MetricPair, "_weights")
    maximal_segment(phi0, phi1, F(1, 3), kmax=8)
    assert weights == [(8,)]
    weights.clear()
    energy(*_QUADS, kmax=4)
    assert weights == [(1,), (2,), (3,), (4,)]
