"""Per-level energy and d1 sums on P^1 in closed form, the P^1 overlay
they sum, and the maximal segment off the top level of its chain, against
the routes they replaced: the sum over every lattice point of the pair's
weight table (``oracles.per_degree_by_points``) and over the two profiles'
merged cells (``oracles.line_sum``), the loop over every pair of cells
(``oracles.overlay_line_pairwise``), and the pruned max of every level
segment of the chain (``oracles.maximal_over_chain``)."""

from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings, strategies as st

import oracles
from geonorm.plconvex import MaxAffine, _overlay, _overlay_line_sum, conjugate
from geonorm.segments import SegmentPair, maximal_segment, quantization_levels
from geonorm.toric import MetricPair, fs_from_norm, section_ring

F = Fraction

_WEIGHT = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5)))


def _fs(n, m, level, weights):
    ring = section_ring(n, m)
    return fs_from_norm(ring, level, dict(zip(ring.basis(level), weights)))


@st.composite
def _line_pairs(draw):
    """A P^1 pair of level 1-3 on O(1)-O(3): two drawn metrics, one metric
    twice, a metric and its shift, or a metric and its tilt by s (b - b0)
    in the weight of each monomial b, whose profile differs from the first
    by s (y - b0 / level), crossing it at the lattice point b0 / level."""
    m, level = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = m * level + 1
    weights = draw(st.lists(_WEIGHT, min_size=size, max_size=size))
    phi0 = _fs(1, m, level, weights)
    kind = draw(st.sampled_from(("drawn", "equal", "shifted", "tilted")))
    if kind == "equal":
        return phi0, phi0
    if kind == "shifted":
        return phi0, phi0.shifted(draw(_WEIGHT))
    if kind == "tilted":
        s, b0 = draw(_WEIGHT), draw(st.integers(0, size - 1))
        return phi0, _fs(1, m, level, [w + s * (b - b0)
                                       for b, w in enumerate(weights)])
    return phi0, _fs(1, m, level,
                     draw(st.lists(_WEIGHT, min_size=size, max_size=size)))


# q0 - q1 crosses zero at 1/2, a lattice point of every even level
@example((_fs(1, 1, 2, (0, 1, 0)), _fs(1, 1, 2, (F(-1, 2), 1, F(1, 2)))), 60)
@settings(max_examples=60)
@given(_line_pairs(), st.integers(1, 60))
def test_line_sums_match_the_point_loop(pair, kmax) -> None:
    phi0, phi1 = pair
    got = MetricPair(phi0, phi1)
    assert got.energy(kmax).per_k == oracles.per_degree_by_points(
        MetricPair(phi0, phi1), kmax, lambda d: d)
    assert got.d1(kmax).per_k == oracles.per_degree_by_points(
        MetricPair(phi0, phi1), kmax, abs)
    # each level against the sum over the merged cells it replaced
    q0, q1, m = got.q0, got.q1, phi0.m
    den = lcm(q0._den, q1._den)
    cells = oracles.line_cells(q0, q1, den)
    for k in range(1, kmax + 1):
        for term in (lambda d: d, abs):
            assert _overlay_line_sum(got._overlay(), m, k, term) == (
                oracles.line_sum(cells, m * den, den, k, term))


@st.composite
def _line_profiles(draw):
    """Two P^1 profiles with gradients j / d on [0, 4], d in {1, 2, 3},
    each interval's ends among them: both on [0, 4], on two drawn
    intervals (nested, overlapping, touching or apart), on two intervals
    touching at one end, or on two intervals apart."""
    d = draw(st.sampled_from((1, 2, 3)))
    top = 4 * d

    def profile(lo, hi):
        inner = draw(st.lists(st.integers(lo, hi), max_size=5))
        return conjugate(MaxAffine(1, [((F(j, d),), draw(_WEIGHT))
                                       for j in {lo, hi, *inner}]))

    def span():
        return sorted(draw(st.lists(st.integers(0, top), min_size=2,
                                    max_size=2, unique=True)))

    kind = draw(st.sampled_from(("full", "drawn", "touch", "apart")))
    if kind == "full":
        spans = (0, top), (0, top)
    elif kind == "drawn":
        spans = span(), span()
    else:
        b = draw(st.integers(1, top - 2))
        c = b + (kind == "apart")
        spans = ((draw(st.integers(0, b - 1)), b),
                 (c, draw(st.integers(c + 1, top))))
    if draw(st.booleans()):
        spans = spans[::-1]
    return tuple(profile(*s) for s in spans)


@example((conjugate(MaxAffine(1, [((0,), 0), ((1,), 1), ((2,), 0)])),
          conjugate(MaxAffine(1, [((1,), 0), ((2,), 1), ((3,), 0)]))))
@settings(max_examples=150)
@given(_line_profiles())
def test_line_overlay_merge_matches_the_pairwise_loop(pair) -> None:
    # the same cells in the same order, and so the same vertices and values
    got, want = _overlay(*pair), oracles.overlay_line_pairwise(*pair)
    assert got.den == want.den
    assert got.cells == want.cells
    assert list(got.verts.items()) == list(want.verts.items())


# (n, m, level) of the maximal-segment pairs; the levels of a chain that
# are multiples of the pairs' level all give one max, so level-3 pairs
# tell every level of a chain apart
_ARENAS = ((1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1),
           (3, 1, 2))


@st.composite
def _chain_cases(draw):
    """A pair on P^1-P^3, a kmax of 1-9 and a t of 0, 1 or drawn."""
    n, m, level = draw(st.sampled_from(_ARENAS))
    size = len(section_ring(n, m).basis(level))
    phi0, phi1 = (
        _fs(n, m, level, draw(st.lists(_WEIGHT, min_size=size,
                                       max_size=size)))
        for _ in range(2))
    kmax = draw(st.integers(1, 9))
    t = draw(st.one_of(st.sampled_from((F(0), F(1))),
                       st.fractions(0, 1, max_denominator=7)))
    return phi0, phi1, kmax, t


@example((_fs(1, 2, 2, (0, 0, 3, 0, 0)), _fs(1, 2, 2, (0, -1, 0, 2, 0)), 3,
          F(1, 2)))
@settings(max_examples=50)
@given(_chain_cases())
def test_maximal_segment_is_its_chain_max(case) -> None:
    phi0, phi1, kmax, t = case
    want, q = oracles.maximal_over_chain(SegmentPair(phi0, phi1), t, kmax)
    got = maximal_segment(phi0, phi1, t, kmax)
    assert got.potential == want.potential
    assert (got.potential._den, got.potential._rows) == (
        want.potential._den, want.potential._rows)
    _, qg = SegmentPair(phi0, phi1)._maximal(quantization_levels(kmax), t)
    assert oracles.profile_key(qg) == oracles.profile_key(q)
