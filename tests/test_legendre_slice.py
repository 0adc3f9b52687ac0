"""The Legendre slice read off the overlay, against the rooftop family.

``segments.SegmentPair._slice`` prunes one piece per overlay vertex of the
two profiles, valued (1 - t) q0 + t q1 there.  ``oracles.rooftop_family``
builds the paper's route: the rooftops P(phi0, phi1 - tau) over the
critical tau, and the sup of the family shifted by t tau.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from geonorm import segments
from geonorm.plconvex import MaxAffine
from geonorm.segments import SegmentPair, legendre_segment
from geonorm.toric import ToricError, ToricMetric, fs_from_norm, section_ring

F = Fraction

# (n, m, level): level-1 pairs with m = 1 have one-cell profiles, so their
# overlay has one cell
_ARENAS = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2),
           (2, 2, 1), (3, 1, 1), (3, 1, 2))


def _metric(n, m, pieces):
    return ToricMetric(n, m, MaxAffine(n, [
        (tuple(F(x) for x in g), F(c)) for g, c in pieces]))


@st.composite
def _metrics(draw, n, m, level):
    """A metric with gradients on the lattice points of m Delta / level:
    all of them (full support) or a random nonempty subset, each point
    kept with odds 3 : 1, so that the two hulls of a pair may overlap in
    part, touch or miss each other."""
    basis = section_ring(n, m).basis(level)
    points = basis
    if draw(st.booleans()):
        keep = draw(st.lists(st.sampled_from((True, True, True, False)),
                             min_size=len(basis), max_size=len(basis)))
        points = [a for a, k in zip(basis, keep) if k] or [basis[-1]]
    weights = draw(st.lists(st.integers(-6, 6), min_size=len(points),
                            max_size=len(points)))
    return _metric(n, m, [(tuple(F(x, level) for x in a), F(w, 2 * level))
                          for a, w in zip(points, weights)])


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 3))
    n, m, level = draw(st.sampled_from([a for a in _ARENAS if a[0] == n]))
    return draw(_metrics(n, m, level)), draw(_metrics(n, m, level))


# t = 0 and t = 1, where pruning may drop overlay vertices, or a t inside
_TIMES = st.one_of(
    st.sampled_from((F(0), F(1))),
    st.integers(2, 12).flatmap(
        lambda d: st.integers(1, d - 1).map(lambda a: F(a, d))))

# hulls [0, 1/2] and [1/2, 1] touch in a point
_TOUCHING_P1 = (_metric(1, 1, [((0,), 0), ((F(1, 2),), 1)]),
                _metric(1, 1, [((F(1, 2),), 0), ((1,), 2)]))
# two triangles of 2 Delta sharing an edge
_TOUCHING_P2 = (_metric(2, 2, [((0, 0), 0), ((1, 0), 1), ((0, 1), -1)]),
                _metric(2, 2, [((1, 0), 0), ((0, 1), 2), ((1, 1), 1)]))
# the triangle Delta against 2 Delta: one common cell, on the boundary of
# the larger domain
_ONE_CELL_P2 = (_metric(2, 2, [((0, 0), 0), ((1, 0), 1), ((0, 1), -1)]),
                _metric(2, 2, [((0, 0), 1), ((2, 0), 0), ((0, 2), 3)]))
# full-support level-1 metrics on P^3: one cell each
_ONE_CELL_P3 = (_metric(3, 1, [((0, 0, 0), 0), ((1, 0, 0), 1),
                               ((0, 1, 0), -2), ((0, 0, 1), 3)]),
                _metric(3, 1, [((0, 0, 0), 2), ((1, 0, 0), -1),
                               ((0, 1, 0), 0), ((0, 0, 1), 1)]))

# level-2 FS metrics on P^2 whose slice at t = 1/3 has its cells listed in
# another order on each route, so the profiles are equal only as sets
_REORDERED_P2 = tuple(
    fs_from_norm(section_ring(2, 1), 2, dict(zip(
        section_ring(2, 1).basis(2), map(F, weights))))
    for weights in ((-2, 1, -2, F(-3, 2), F(-3, 2), -3),
                    (-2, F(-1, 2), -2, -2, 1, 1)))


@settings(max_examples=120)
@given(_pairs(), _TIMES)
@example(_TOUCHING_P1, F(1, 3))
@example(_TOUCHING_P2, F(0))
@example(_ONE_CELL_P2, F(1, 4))
@example(_ONE_CELL_P2, F(1))
@example(_ONE_CELL_P3, F(2, 3))
@example(_REORDERED_P2, F(1, 3))
def test_slice_matches_the_rooftop_family(pair, t) -> None:
    phi0, phi1 = pair
    try:
        want, q_want = oracles.legendre_via_rooftops(phi0, phi1, t)
    except ToricError as exc:
        assert str(exc).startswith("no critical shift tau")
        with pytest.raises(ToricError, match="no critical shift tau"):
            legendre_segment(phi0, phi1, t)
        return
    got = legendre_segment(phi0, phi1, t)
    assert got.to_json() == want.to_json()
    assert (got.potential._den, got.potential._rows) == (
        want.potential._den, want.potential._rows)
    q = SegmentPair(phi0, phi1)._slice(t)[1]
    assert q == q_want
    assert oracles.profile_key(q) == oracles.profile_key(q_want)
    if q.n == 1:
        # on the line both routes list the cells in one order too
        assert (q._verts, q._cells, q._planes) == (
            q_want._verts, q_want._cells, q_want._planes)


def test_profiles_listing_their_cells_in_other_orders_are_equal() -> None:
    # the two routes to the slice at t = 1/3 list the cells of one profile
    # in other orders; == and hash read no order
    phi0, phi1 = _REORDERED_P2
    t = F(1, 3)
    q = SegmentPair(phi0, phi1)._slice(t)[1]
    want = oracles.legendre_via_rooftops(phi0, phi1, t)[1]
    assert q._cells != want._cells
    assert q == want and hash(q) == hash(want)
    assert q != want.shifted(1)


def test_slice_prunes_once_per_distinct_t(monkeypatch) -> None:
    pruned = []
    real = segments._pruned

    def counted(f):
        pruned.append(f)
        return real(f)

    monkeypatch.setattr(segments, "_pruned", counted)
    pair = SegmentPair(*_ONE_CELL_P2)
    for t in (F(1, 3), F(0), F(1, 3), F(1), F(0)):
        pair.legendre(t)
    assert len(pruned) == 3
