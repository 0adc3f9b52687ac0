"""FS segments, quantized maximal segments, Kiselman duality, diagnostics."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linprog
import oracles
from geonorm import norms, plconvex, segments
from geonorm.plconvex import MaxAffine, compare
from geonorm.segments import (
    FSSegment,
    SegmentPair,
    detect_non_psh,
    diagnostics,
    duality_tau_set,
    fs_segment,
    kiselman_dual,
    legendre_segment,
    maximal_segment,
    planted_non_psh_path,
    quantization_levels,
    quantized_level,
    quantized_segment,
    segment_from_dual,
    tau_critical_set,
)
from geonorm.toric import (
    ToricError,
    ToricMetric,
    compare_metrics,
    energy_limit,
    envelope_P,
    fs_from_norm,
    reference,
    section_ring,
    supnorm,
)

F = Fraction
RING1 = section_ring(1, 1)
RING2 = section_ring(1, 2)


def _ma(*pieces):
    n = len(pieces[0][0])
    return MaxAffine(n, [(tuple(F(x) for x in g), F(c)) for g, c in pieces])


def _fs(ring, k, weights):
    return fs_from_norm(ring, k, dict(zip(ring.basis(k), map(F, weights))))


def _comparable_seg():
    return fs_segment(RING1, 1, (F(0), F(0)), (F(0), F(-2)))


# -- FS segments -----------------------------------------------------------------


def test_constant_segment() -> None:
    seg = fs_segment(RING1, 1, (F(0), F(1)), (F(0), F(1)))
    for t in (F(0), F(1, 3), F(1)):
        assert seg.eval(t) == seg.start


def test_segment_midpoint_worked_example() -> None:
    seg = _comparable_seg()
    assert seg.eval(F(1, 2)).potential == _ma(((0,), 0), ((1,), -1))


def test_segment_endpoints_are_fs_metrics() -> None:
    seg = _comparable_seg()
    assert seg.start == _fs(RING1, 1, (0, 0))
    assert seg.end == _fs(RING1, 1, (0, -2))


def test_segment_convex_in_t() -> None:
    seg = fs_segment(RING2, 1, (F(0), F(3), F(0)), (F(0), F(-1), F(2)))
    mid = seg.eval(F(1, 2)).potential
    avg = seg.start.potential.plus(seg.end.potential).scaled(F(1, 2))
    assert compare(mid, avg).relation in ("le", "eq")


def test_segment_time_validation() -> None:
    # every entry point that takes a segment time rejects t outside [0, 1]
    # with the same error, segment_from_dual included
    seg = _comparable_seg()
    phi0, phi1 = seg.start, seg.end
    for t in (F(-1, 2), F(3, 2)):
        for run in (lambda: seg.eval(t),
                    lambda: segment_from_dual(seg, t),
                    lambda: legendre_segment(phi0, phi1, t),
                    lambda: diagnostics(phi0, phi1, kmax=1, ts=(0, t))):
            with pytest.raises(ToricError, match=re.escape(
                    f"segment time {t} outside [0, 1]")):
                run()


def test_segment_time_is_checked_before_anything_is_built(monkeypatch) -> None:
    # maximal_segment builds no level, legendre_segment no slice and
    # diagnostics no profile for a t outside [0, 1]
    seg = _comparable_seg()
    phi0, phi1 = seg.start, seg.end

    def refuse(*args):
        raise AssertionError("built before t was checked")

    monkeypatch.setattr(SegmentPair, "_weights", refuse)
    monkeypatch.setattr(segments, "_interpolated", refuse)
    for t in (F(-1, 2), F(3, 2)):
        for run in (lambda: maximal_segment(phi0, phi1, t, kmax=4),
                    lambda: legendre_segment(phi0, phi1, t)):
            with pytest.raises(ToricError, match=re.escape(
                    f"segment time {t} outside [0, 1]")):
                run()
    # diagnostics checks each of its times before it conjugates anything
    monkeypatch.setattr(SegmentPair, "_profile", refuse)
    for ts, bad in (((F(1, 2), 2), 2), ((F(-1, 3), F(1, 2)), F(-1, 3))):
        with pytest.raises(ToricError, match=re.escape(
                f"segment time {bad} outside [0, 1]")):
            diagnostics(phi0, phi1, 4, ts=ts)


def test_quantized_level_needs_a_positive_level() -> None:
    seg = _comparable_seg()
    for k in (0, -1):
        with pytest.raises(ToricError, match=f"level k must be at least 1, "
                                             f"got {k}"):
            quantized_level(seg.start, seg.end, k)


def test_segment_from_dual_checks_t_before_any_dual(monkeypatch) -> None:
    # a level-2 segment on P^1 has four duality slopes, and a bad t builds
    # none of their duals, on P^1 as on P^3
    calls = []
    real = segments.kiselman_dual
    monkeypatch.setattr(segments, "kiselman_dual",
                        lambda *args: calls.append(args) or real(*args))
    seg = fs_segment(RING2, 2, (0, 0, 3, 0, 0), (0, -1, 0, 2, 0))
    assert len(duality_tau_set(seg)) == 4
    ring3 = section_ring(3, 1)
    seg3 = fs_segment(ring3, 1, (0, 1, 2, 3), (0, -1, -2, -3))
    for bad in (seg, seg3):
        with pytest.raises(ToricError, match=re.escape(
                "segment time 3/2 outside [0, 1]")):
            segment_from_dual(bad, F(3, 2))
    assert calls == []


def test_segment_weight_validation() -> None:
    with pytest.raises(ToricError):
        fs_segment(RING1, 1, (F(0),), (F(0), F(1)))
    with pytest.raises(ToricError):
        fs_segment(RING1, 1, {(0,): F(0)}, {(0,): F(0), (1,): F(0)})


def test_joint_potential_values() -> None:
    joint = _comparable_seg().joint_potential()
    # u(t, v) = max(0, v - 2t)
    assert joint((F(0), F(1))) == 1
    assert joint((F(1, 2), F(1))) == 0
    assert joint((F(1), F(3))) == 1


def test_segment_json_round_trip() -> None:
    seg = fs_segment(RING2, 2, (0, 0, 3, 0, 0), (0, -1, 0, 2, 0))
    again = FSSegment.from_json(seg.to_json())
    assert again.k == seg.k
    assert again.weights0 == seg.weights0
    assert again.weights1 == seg.weights1


# -- quantized and maximal segments ---------------------------------------------------


def test_quantization_levels() -> None:
    assert quantization_levels(1) == (1,)
    assert quantization_levels(8) == (1, 2, 4, 8)
    assert quantization_levels(12) == (1, 2, 4, 8)


def test_quantized_endpoint_recovers_fs_input() -> None:
    phi0, phi1 = _fs(RING1, 1, (0, 0)), _fs(RING1, 1, (0, -2))
    at0 = quantized_segment(phi0, phi1, 1, 0)
    assert at0 == phi0
    rel = compare_metrics(quantized_segment(phi0, phi1, 2, 1), phi1).relation
    assert rel == "eq"


def test_quantized_midpoint_worked_example() -> None:
    phi0, phi1 = reference(1, 1), _fs(RING1, 1, (0, -2))
    mid = quantized_segment(phi0, phi1, 1, F(1, 2))
    assert mid.potential == _ma(((0,), 0), ((1,), -1))


def test_level_refinement_monotone() -> None:
    pairs = [
        (_fs(RING1, 1, (0, 0)), _fs(RING1, 1, (0, -2))),
        (_fs(RING2, 1, (0, 3, 0)), _fs(RING2, 1, (0, -1, 2))),
    ]
    for phi0, phi1 in pairs:
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            lo = quantized_segment(phi0, phi1, 1, t)
            hi = quantized_segment(phi0, phi1, 2, t)
            assert compare_metrics(lo, hi).relation in ("le", "eq")


def test_maximal_constant() -> None:
    phi = _fs(RING2, 1, (0, 5, 0))
    for t in (F(0), F(1, 2), F(1)):
        assert maximal_segment(phi, phi, t, 4) == phi


def test_maximal_stabilizes_at_level_one_for_degree_one_endpoints() -> None:
    # on the line with O(1), the geodesic between degree-one FS metrics is
    # already maximal at the first level
    phi0, phi1 = _fs(RING1, 1, (0, 1)), _fs(RING1, 1, (2, -1))
    for t in (F(0), F(1, 4), F(1, 2), F(1)):
        q1 = quantized_segment(phi0, phi1, 1, t)
        for K in (1, 2, 4, 8):
            assert maximal_segment(phi0, phi1, t, K) == q1


def test_maximal_stabilizes_on_plane_degree_one() -> None:
    ring = section_ring(2, 1)
    phi0 = _fs(ring, 1, (0, 1, 0))
    phi1 = _fs(ring, 1, (1, 0, -1))
    for t in (F(1, 3), F(1, 2)):
        q1 = quantized_segment(phi0, phi1, 1, t)
        assert maximal_segment(phi0, phi1, t, 4) == q1


def test_maximal_strictly_refines_on_level_two_instance() -> None:
    # level-two endpoints whose level-one quantization loses information
    phi0 = _fs(RING2, 2, (0, 0, 3, 0, 0))
    phi1 = _fs(RING2, 2, (0, -1, 0, 2, 0))
    for t in (F(1, 4), F(1, 2)):
        m1 = maximal_segment(phi0, phi1, t, 1)
        m2 = maximal_segment(phi0, phi1, t, 2)
        assert compare_metrics(m2, m1).relation == "ge"
        assert maximal_segment(phi0, phi1, t, 8) == m2


def test_maximal_dominates_endpoint_dominated_competitor() -> None:
    # a segment with reduced endpoint weights stays below the maximal one
    phi0, phi1 = _fs(RING2, 1, (0, 3, 0)), _fs(RING2, 1, (0, -1, 2))
    competitor = fs_segment(RING2, 1, (F(0), F(2), F(-1)), (F(0), F(-1), F(1)))
    for t in (F(1, 4), F(1, 2), F(3, 4)):
        rel = compare_metrics(competitor.eval(t),
                              maximal_segment(phi0, phi1, t, 4)).relation
        assert rel in ("le", "eq")


def test_mismatched_bundles_rejected() -> None:
    # pairs differing in n, only in m, and in n with equal h0 = 3 (where
    # the two sup-norms of a level have the same dimension)
    on_p1 = _fs(RING1, 1, (0, 0))
    on_p1_m2 = _fs(RING2, 1, (0, 1, 0))
    on_p2 = _fs(section_ring(2, 1), 1, (0, 1, 0))
    for phi0, phi1 in ((on_p1, on_p2), (on_p1, on_p1_m2), (on_p1_m2, on_p2)):
        for run in (lambda: legendre_segment(phi0, phi1, F(1, 2)),
                    lambda: diagnostics(phi0, phi1, kmax=2),
                    lambda: maximal_segment(phi0, phi1, F(1, 2), kmax=2),
                    lambda: quantized_level(phi0, phi1, 1),
                    lambda: tau_critical_set(phi0, phi1)):
            with pytest.raises(ToricError,
                               match="metrics live on different line bundles"):
                run()


def _refuse_lp(monkeypatch, message) -> None:
    """Make the simplex raise, also where a module binds it by name."""
    def refuse(*args):
        raise AssertionError(message)

    monkeypatch.setattr(linprog, "minimize_max_affine", refuse)
    monkeypatch.setattr(plconvex, "minimize_max_affine", refuse, raising=False)


def test_legendre_segment_runs_no_lp(monkeypatch) -> None:
    # rooftops and the sup over tau need hulls only, never a comparison LP
    phi0 = _fs(RING2, 2, (0, 0, 3, 0, 0))
    phi1 = _fs(RING2, 2, (0, -1, 0, 2, 0))
    want = [oracles.legendre_segment_per_t(phi0, phi1, t)
            for t in (F(0), F(1, 3), F(1))]
    _refuse_lp(monkeypatch, "legendre_segment solved an LP")
    got = [legendre_segment(phi0, phi1, t) for t in (F(0), F(1, 3), F(1))]
    assert [g.potential.pieces for g in got] == [
        w.potential.pieces for w in want]


@pytest.mark.parametrize("pieces0, pieces1", [
    # P^1: single pieces of gradient 0 and 1
    ([((0,), 0)], [((1,), 0)]),
    # P^1: gradient hulls [0, 1/2] and [1/2, 1] meet in one point
    ([((0,), 0), ((F(1, 2),), 0)], [((F(1, 2),), 0), ((1,), 0)]),
    # P^2: a gradient segment against the full triangle
    ([((0, 0), 0), ((1, 0), 0)], [((0, 0), 0), ((1, 0), 0), ((0, 1), 0)]),
])
def test_legendre_segment_without_critical_tau(pieces0, pieces1,
                                               monkeypatch) -> None:
    phi0 = ToricMetric(len(pieces0[0][0]), 1, _ma(*pieces0))
    phi1 = ToricMetric(len(pieces1[0][0]), 1, _ma(*pieces1))
    assert tau_critical_set(phi0, phi1) == ()

    def refuse(*args):
        raise AssertionError("a slice was built")

    monkeypatch.setattr(segments, "_interpolated", refuse)
    with pytest.raises(ToricError, match="no critical shift tau"):
        legendre_segment(phi0, phi1, F(1, 2))
    # a bad t is reported first
    with pytest.raises(ToricError, match=re.escape(
            "segment time 3/2 outside [0, 1]")):
        legendre_segment(phi0, phi1, F(3, 2))


_ARENAS = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2))


@st.composite
def _metric_pairs(draw):
    """Two level-k FS metrics on one (P^n, O(m)), weights in (1/2)Z."""
    n, m, level = draw(st.sampled_from(_ARENAS))
    ring = section_ring(n, m)
    size = len(ring.basis(level))
    weights = st.lists(st.integers(-6, 6).map(lambda x: F(x, 2)),
                       min_size=size, max_size=size)
    return _fs(ring, level, draw(weights)), _fs(ring, level, draw(weights))


@settings(max_examples=40)
@given(_metric_pairs(), st.sampled_from((F(0), F(1, 3), F(1, 2), F(1))))
def test_legendre_segment_matches_per_t_oracle(pair, t) -> None:
    phi0, phi1 = pair
    got = legendre_segment(phi0, phi1, t)
    want = oracles.legendre_segment_per_t(phi0, phi1, t)
    assert got.potential.pieces == want.potential.pieces


@settings(max_examples=20)
@given(_metric_pairs())
def test_diagnostics_energies_match_per_t_oracle(pair) -> None:
    # repeated and unsorted times: each distinct t is recovered once
    phi0, phi1 = pair
    ts = (F(1, 2), F(0), F(1, 3), F(1, 2), F(1))
    report = diagnostics(phi0, phi1, kmax=1, ts=ts)
    ref = reference(phi0.n, phi0.m)
    want = [str(energy_limit(oracles.legendre_segment_per_t(phi0, phi1, t),
                             ref)) for t in ts]
    assert [row["energy"] for row in report["energy_along_segment"]] == want


@settings(max_examples=40)
@given(_metric_pairs(), st.integers(1, 3),
       st.fractions(0, 1, max_denominator=6))
def test_level_segments_match_geodesic_oracle(pair, kmax, t) -> None:
    # weights, maximal potentials and the level chain of diagnostics, with
    # t repeated among the report's times
    phi0, phi1 = pair
    ring = section_ring(phi0.n, phi0.m)
    for k in range(1, kmax + 1):
        got = quantized_level(phi0, phi1, k)
        want = oracles.level_segment_via_geodesic(
            ring, k, supnorm(k, phi0), supnorm(k, phi1))
        assert (got.weights0, got.weights1) == (want.weights0, want.weights1)
        assert got == want
    got = maximal_segment(phi0, phi1, t, kmax)
    want = oracles.maximal_segment_via_geodesic(phi0, phi1, t, kmax)
    assert got.potential.to_json() == want.potential.to_json()
    ts = (F(0), t, F(1, 2), t, F(1))
    report = diagnostics(phi0, phi1, kmax, ts)
    per_level, recovery = oracles.level_chain_via_geodesic(phi0, phi1, kmax,
                                                           ts)
    assert report["d1_geodesic_per_level"] == per_level
    assert report["endpoint_recovery"] == recovery


def test_level_segments_build_no_norm(monkeypatch) -> None:
    # the levels read the two profiles: no DiagNorm, no codiagonalization
    # and no norm distance, while supnorm still builds its DiagNorm
    built = []
    real_init, real_on = norms.DiagNorm.__init__, norms.DiagNorm._on

    def init(self, *args):
        built.append("__init__")
        real_init(self, *args)

    def on(cls, *args):
        built.append("_on")
        return real_on(*args)

    def spy(owner, name):
        real = getattr(owner, name)
        return lambda *args, **kw: built.append(name) or real(*args, **kw)

    monkeypatch.setattr(norms.DiagNorm, "__init__", init)
    monkeypatch.setattr(norms.DiagNorm, "_on", classmethod(on))
    # every codiagonalization and every verification goes through a pair
    monkeypatch.setattr(norms, "codiagonalize", spy(norms, "codiagonalize"))
    monkeypatch.setattr(norms.NormPair, "__init__",
                        spy(norms.NormPair, "__init__"))
    ring = section_ring(2, 1)
    for phi0, phi1 in (
            (_fs(RING2, 2, (0, 0, 3, 0, 0)), _fs(RING2, 2, (0, -1, 0, 2, 0))),
            (_fs(ring, 2, (0, 1, -1, 2, 0, 0)),
             _fs(ring, 2, (1, -2, 0, 0, 3, -1)))):
        maximal_segment(phi0, phi1, F(1, 3), kmax=4)
        quantized_level(phi0, phi1, 3).eval(F(1, 2))
        quantized_segment(phi0, phi1, 2, F(2, 3))
        diagnostics(phi0, phi1, kmax=4)
        assert built == []
    supnorm(2, phi0)
    assert built == ["__init__"]


def test_legendre_equals_maximal_on_level_two_instance() -> None:
    phi0 = _fs(RING2, 2, (0, 0, 3, 0, 0))
    phi1 = _fs(RING2, 2, (0, -1, 0, 2, 0))
    for t in (F(0), F(1, 4), F(1, 2), F(1)):
        assert legendre_segment(phi0, phi1, t) == maximal_segment(
            phi0, phi1, t, 8)


# -- Kiselman duality ---------------------------------------------------------------


def test_duality_tau_set() -> None:
    assert duality_tau_set(_comparable_seg()) == (F(-2), F(0))


def test_tau_critical_set_matches() -> None:
    seg = _comparable_seg()
    assert tau_critical_set(seg.start, seg.end) == (F(-2), F(0))


def test_kiselman_dual_worked_examples() -> None:
    seg = _comparable_seg()
    # extreme shifts recover the endpoint potentials
    assert kiselman_dual(seg, F(-2)).potential == _ma(((0,), 0), ((1,), 0))
    assert kiselman_dual(seg, F(0)).potential == _ma(((0,), 0), ((1,), -2))
    # the middle shift is the rooftop of the recentered endpoints
    mid = kiselman_dual(seg, F(-1))
    assert mid.potential == _ma(((0,), 0), ((F(1, 2),), 0), ((1,), -1))


def test_kiselman_dual_is_rooftop_for_maximal_segment() -> None:
    # concave weight vectors interpolate to concave weights, so the FS segment
    # is already the geodesic and the dual saturates the rooftop bound
    seg = fs_segment(RING2, 1, (F(0), F(3), F(0)), (F(0), F(1), F(2)))
    for tau in duality_tau_set(seg) + (F(-1), F(1, 2)):
        dual = kiselman_dual(seg, tau)
        roof = envelope_P(seg.start, seg.end.shifted(-tau))
        assert compare_metrics(dual, roof).relation == "eq"


def test_kiselman_dual_below_rooftop_for_subgeodesic() -> None:
    # (0, -1, 2) is not concave on {0, 1, 2}, so this FS segment sits strictly
    # below the geodesic and its dual stays a strict psh minorant of the
    # rooftop at interior shifts
    seg = fs_segment(RING2, 1, (F(0), F(3), F(0)), (F(0), F(-1), F(2)))
    seen_strict = False
    for tau in duality_tau_set(seg) + (F(-1), F(1, 2)):
        dual = kiselman_dual(seg, tau)
        roof = envelope_P(seg.start, seg.end.shifted(-tau))
        rel = compare_metrics(dual, roof).relation
        assert rel in ("le", "eq")
        seen_strict = seen_strict or rel == "le"
    assert seen_strict


def test_kiselman_dual_output_is_psh() -> None:
    # gradients of the marginal stay inside m*Delta; the metric constructor
    # would reject anything else
    seg = fs_segment(RING2, 2, (0, 0, 3, 0, 0), (0, -1, 0, 2, 0))
    for tau in duality_tau_set(seg):
        dual = kiselman_dual(seg, tau)
        assert dual.m == 2
        for g in dual.potential.gradients():
            assert 0 <= g[0] <= 2


def test_segment_from_dual_round_trip() -> None:
    for seg in (_comparable_seg(),
                fs_segment(RING2, 2, (0, 0, 3, 0, 0), (0, -1, 0, 2, 0))):
        for t in (F(0), F(1, 3), F(1, 2), F(1)):
            assert segment_from_dual(seg, t) == seg.eval(t)


def test_compare_and_detect_non_psh_run_no_lp(monkeypatch) -> None:
    # every comparison is a test against a conjugate profile
    _refuse_lp(monkeypatch, "a comparison solved an LP")
    cases = (  # (f, f with a redundant piece, g <= f, h incomparable to f)
        (_ma(((0,), 0), ((1,), 0)), ((F(1, 2),), -1),
         _ma(((0,), 0), ((1,), -2)), _ma(((F(1, 2),), F(1, 2)))),
        (_ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0)), ((F(1, 3), F(1, 3)), -1),
         _ma(((0, 0), 0), ((1, 0), 0)), _ma(((F(1, 2), F(1, 2)), 1))),
        (_ma(((0, 0), 0), ((1, 1), 0)), ((F(1, 2), F(1, 2)), -1),
         _ma(((0, 0), 0), ((1, 1), -1)), _ma(((F(1, 2), F(1, 2)), F(1, 4)))),
    )
    for f, redundant, lower, other in cases:
        same = f.max_with(MaxAffine(f.n, [redundant]))
        assert len(same.pieces) > len(f.pieces)
        assert compare(f, same).relation == "eq"
        assert compare(lower, f).relation == "le"
        got = compare(f, lower)
        assert got.relation == "ge"
        assert f(got.witness_first_gt) > lower(got.witness_first_gt)
        got = compare(f, other)
        assert got.relation == "incomparable"
        assert f(got.witness_first_gt) > other(got.witness_first_gt)
        assert f(got.witness_second_gt) < other(got.witness_second_gt)
    witness = detect_non_psh(*planted_non_psh_path())
    assert witness["point"] == ["0"]
    samples = tuple(
        (t, dict(zip(RING2.basis(1), (F(0), 3 - 4 * t, 2 * t))))
        for t in (F(0), F(1, 2), F(1)))
    assert detect_non_psh(RING2, 1, samples) is None


def _honest_and_bulged(ring, k, w0, w1, ts, i):
    """detect_non_psh on the weight interpolation of w0 and w1 at ts, and
    on the same path with its constant monomial raised by 1/2 at ts[i];
    the first must find nothing, the second a witness that the sampled
    potentials confirm."""
    basis = ring.basis(k)
    w0, w1 = (dict(zip(basis, map(F, w))) for w in (w0, w1))
    samples = [(t, {a: (1 - t) * w0[a] + t * w1[a] for a in basis})
               for t in ts]
    assert detect_non_psh(ring, k, samples) is None
    t, w = samples[i]
    samples[i] = (t, {**w, basis[0]: w[basis[0]] + F(1, 2)})
    got = detect_non_psh(ring, k, samples)
    assert F(got["lhs"]) > F(got["rhs"])
    phi = {t: fs_from_norm(ring, k, w).potential for t, w in samples}
    t0, t1, t2 = (F(got[key]) for key in ("t0", "t1", "t2"))
    lam = (t2 - t1) / (t2 - t0)
    point = tuple(F(x) for x in got["point"])
    assert phi[t1](point) == F(got["lhs"])
    assert lam * phi[t0](point) + (1 - lam) * phi[t2](point) == F(got["rhs"])


def test_detect_non_psh_on_p2_at_uneven_times() -> None:
    # at t1 = 1/3 the chord's gradients (a + 2b)/6 are mostly distinct
    _honest_and_bulged(section_ring(2, 1), 2, (0, 3, -1, 2, 0, -2),
                       (1, -2, 0, 0, 3, -1),
                       (F(0), F(1, 5), F(1, 3), F(3, 4), F(1)), 2)


@pytest.mark.parametrize("k, w0, w1", [
    (1, (0, 2, -1, 1), (1, -2, 0, 3)),
    (2, (0, 3, -1, 2, 0, -2, 1, 0, 2, -1), (1, -2, 0, 0, 3, -1, 0, 2, -1, 1)),
], ids=["level1", "level2"])
def test_detect_non_psh_on_p3(k, w0, w1) -> None:
    # the mix of the two chord ends is formed and conjugated on P^3 too
    _honest_and_bulged(section_ring(3, 1), k, w0, w1,
                       (F(0), F(1, 3), F(1, 2), F(1)), 1)


@st.composite
def _sampled_paths(draw):
    """A path on P^1 (m, k <= 2) or P^2 (m = 1, k <= 2) sampled at 3..6
    times in [0, 1]: the weight interpolation of two integer endpoints,
    honest or with its constant monomial raised at an inner sample."""
    n = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(1, 2)) if n == 1 else 1
    ring, k = section_ring(n, m), draw(st.integers(1, 2))
    basis = ring.basis(k)
    w0, w1 = ({a: F(draw(st.integers(-3 * k, 3 * k))) for a in basis}
              for _ in range(2))
    ts = sorted(F(i, 12) for i in draw(st.lists(
        st.integers(0, 12), min_size=3, max_size=6, unique=True)))
    samples = [(t, {a: (1 - t) * w0[a] + t * w1[a] for a in basis})
               for t in ts]
    if draw(st.booleans()):
        i = draw(st.integers(1, len(ts) - 2))
        t, w = samples[i]
        bump = draw(st.sampled_from((F(1, 2), F(1), F(3, 2))))
        samples[i] = (t, {**w, basis[0]: w[basis[0]] + bump})
    return ring, k, samples


@settings(max_examples=80)
@given(_sampled_paths())
def test_consecutive_triples_decide_like_every_triple(path) -> None:
    # the consecutive triples find a witness iff some triple has one; the
    # witness lies on a consecutive triple, its lhs above its rhs, and on
    # three samples nothing changes
    ring, k, samples = path
    got = detect_non_psh(ring, k, samples)
    want = oracles.detect_non_psh_all_triples(ring, k, samples)
    assert (got is None) == (want is None)
    if len(samples) == 3:
        assert got == want
    if got is not None:
        ts = [str(t) for t, _ in samples]
        i = ts.index(got["t0"])
        assert ts[i:i + 3] == [got["t0"], got["t1"], got["t2"]]
        assert F(got["lhs"]) > F(got["rhs"])
        phi = {str(t): fs_from_norm(ring, k, w).potential for t, w in samples}
        point = tuple(F(x) for x in got["point"])
        assert phi[got["t1"]](point) == F(got["lhs"])


@pytest.mark.parametrize("ts", [
    (F(1, 2),) * 3,
    (F(0), F(1, 2), F(1, 2), F(1)),
], ids=["one-t", "two-weights-at-one-t"])
def test_detect_non_psh_refuses_a_repeated_t(ts) -> None:
    # the samples are then no function of t
    samples = [(t, {(0,): F(i), (1,): F(-i)}) for i, t in enumerate(ts)]
    with pytest.raises(ToricError, match="repeat t = 1/2"):
        detect_non_psh(RING1, 1, samples)


# -- diagnostics ------------------------------------------------------------------------


def test_diagnostics_builds_each_level_once(monkeypatch) -> None:
    # one level segment per level serves d1 and endpoint recovery
    calls = []
    real = SegmentPair._weights

    def counted(self, k):
        calls.append(k)
        return real(self, k)

    phi0 = _fs(RING2, 2, (0, 0, 3, 0, 0))
    phi1 = _fs(RING2, 2, (0, -1, 0, 2, 0))
    want = {label: compare_metrics(maximal_segment(phi0, phi1, t, 2),
                                   phi).relation
            for label, t, phi in (("start", 0, phi0), ("end", 1, phi1))}
    monkeypatch.setattr(SegmentPair, "_weights", counted)
    report = diagnostics(phi0, phi1, kmax=2)
    assert sorted(calls) == [1, 2]
    assert {label: row["relation"] for label, row
            in report["endpoint_recovery"].items()} == want


def test_diagnostics_comparable_pair() -> None:
    phi0, phi1 = reference(1, 1), _fs(RING1, 1, (0, -2))
    report = diagnostics(phi0, phi1, kmax=8)
    assert report["levels"] == [1, 2, 4, 8]
    assert report["ts"] == ["0", "1/4", "1/2", "3/4", "1"]
    per_level = report["d1_geodesic_per_level"]
    assert [row["k"] for row in per_level] == [1, 2, 4, 8]
    assert all(row["geodesic_exact"] for row in per_level)
    assert [row["d1_endpoints"] for row in per_level] == ["1", "2", "4", "8"]
    energies = [row["energy"] for row in report["energy_along_segment"]]
    assert energies == ["0", "-1/4", "-1/2", "-3/4", "-1"]
    assert report["energy_affine_exact"] is True
    assert report["endpoint_recovery"]["start"]["recovered"] is True
    assert report["endpoint_recovery"]["end"]["recovered"] is True


def test_diagnostics_level_two_instance() -> None:
    phi0 = _fs(RING2, 2, (0, 0, 3, 0, 0))
    phi1 = _fs(RING2, 2, (0, -1, 0, 2, 0))
    report = diagnostics(phi0, phi1, kmax=4, ts=(0, F(1, 2), 1))
    assert report["energy_affine_exact"] is True
    assert all(row["geodesic_exact"]
               for row in report["d1_geodesic_per_level"])
    assert report["endpoint_recovery"]["start"]["recovered"] is True
    assert report["endpoint_recovery"]["end"]["recovered"] is True


# -- one profile per endpoint and call ----------------------------------------------


def _pairs():
    ring = section_ring(2, 1)
    return [
        (_fs(RING2, 2, (0, 0, 3, 0, 0)), _fs(RING2, 2, (0, -1, 0, 2, 0))),
        (_fs(ring, 2, (0, 1, -1, 2, 0, 0)), _fs(ring, 2, (1, -2, 0, 0, 3, -1))),
    ]


def _once_each(conjugated, call, phi0, phi1):
    """Run call() and check it conjugated each endpoint potential once and
    stored nothing on either metric."""
    before = vars(phi0).copy(), vars(phi1).copy()
    conjugated.clear()
    call()
    assert sum(f is phi0.potential for f in conjugated) == 1
    assert sum(f is phi1.potential for f in conjugated) == 1
    assert (vars(phi0), vars(phi1)) == before


@pytest.mark.parametrize("pair", _pairs())
def test_maximal_segment_conjugates_each_endpoint_once(pair, conjugated) -> None:
    phi0, phi1 = pair
    _once_each(conjugated, lambda: maximal_segment(phi0, phi1, F(1, 3), kmax=8),
               phi0, phi1)


@pytest.mark.parametrize("pair", _pairs())
def test_diagnostics_conjugates_each_endpoint_once(pair, conjugated) -> None:
    phi0, phi1 = pair
    _once_each(conjugated, lambda: diagnostics(phi0, phi1, kmax=4), phi0, phi1)


@pytest.mark.parametrize("pair", _pairs())
def test_legendre_segment_prunes_once(pair, conjugated) -> None:
    # the slice is read off the overlay of the two profiles: one conjugate
    # per endpoint and one prune of the interpolated pieces
    phi0, phi1 = pair
    _once_each(conjugated, lambda: legendre_segment(phi0, phi1, F(1, 2)),
               phi0, phi1)
    assert len(conjugated) == 2 + 1
