"""Toric psh metrics on (P^n, O(m)): FS/sup-norm operators, energy, d1."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from geonorm import plconvex, toric
from geonorm.plconvex import MaxAffine
from geonorm.suites import convergence_pair_p1, convergence_pair_p2
from geonorm.toric import (
    ConvergenceResult,
    ToricError,
    ToricMetric,
    compare_metrics,
    d1_metric,
    d_infinity_limit,
    energy,
    energy_limit,
    envelope_P,
    fs_from_norm,
    moment_volume,
    reference,
    section_ring,
    sup_graded,
    supnorm,
)
from geonorm.graded import GradedError, check_submultiplicative
from geonorm.segments import (
    detect_non_psh,
    diagnostics,
    fs_segment,
    maximal_segment,
    quantized_level,
)

F = Fraction


def _ma(*pieces):
    n = len(pieces[0][0])
    return MaxAffine(n, [(tuple(F(x) for x in g), F(c)) for g, c in pieces])


def _fs_p1(weights, m=1, k=1):
    ring = section_ring(1, m)
    basis = ring.basis(k)
    return fs_from_norm(ring, k, dict(zip(basis, map(F, weights))))


# -- FS metrics ------------------------------------------------------------------


def test_fs_reference() -> None:
    phi = _fs_p1((0, 0))
    assert phi.potential == _ma(((0,), 0), ((1,), 0))
    assert phi == reference(1, 1)
    assert phi.provenance == "fs(1)"


def test_fs_shifted_weight() -> None:
    assert _fs_p1((0, -2)).potential == _ma(((0,), 0), ((1,), -2))


def test_fs_three_weights() -> None:
    phi = _fs_p1((0, 5, 0), m=2)
    assert phi.potential == _ma(((0,), 0), ((1,), 5), ((2,), 0))


def test_fs_level_divides_weights() -> None:
    phi = _fs_p1((0, 0, -2), m=1, k=2)
    assert phi.potential == _ma(((0,), 0), ((F(1, 2),), 0), ((1,), -1))


def test_fs_missing_monomial_rejected() -> None:
    ring = section_ring(1, 2)
    with pytest.raises(ToricError):
        fs_from_norm(ring, 1, {(0,): F(0), (2,): F(0)})


def test_gradient_constraint_enforced() -> None:
    with pytest.raises(ToricError):
        ToricMetric(1, 1, _ma(((2,), 0), ((0,), 0)))
    with pytest.raises(ToricError):
        ToricMetric(2, 1, _ma(((1, 1), 0), ((0, 0), 0), ((1, 0), 1)))


def test_full_support_detection() -> None:
    assert reference(2, 1).has_full_support()
    lopsided = ToricMetric(1, 1, _ma(((0,), 0), ((F(1, 2),), 0)))
    assert not lopsided.has_full_support()
    with pytest.raises(ToricError):
        supnorm(1, lopsided)


# -- sup-norm operator --------------------------------------------------------------


def test_supnorm_reference() -> None:
    assert supnorm(1, reference(1, 1)).weights == (F(0), F(0))


def test_supnorm_closes_concave_gap() -> None:
    phi = _fs_p1((0, -5, 0), m=2)
    assert supnorm(1, phi).weights == (F(0), F(0), F(0))


def test_supnorm_fixes_concave_weights() -> None:
    phi = _fs_p1((0, 5, 0), m=2)
    assert supnorm(1, phi).weights == (F(0), F(5), F(0))


def test_supnorm_matches_concave_closure_oracle() -> None:
    rng = random.Random(109)
    for n, m in ((1, 1), (1, 2), (2, 1)):
        ring = section_ring(n, m)
        basis1 = ring.basis(1)
        for _ in range(6):
            table = {a: F(rng.randint(-4, 4)) for a in basis1}
            phi = fs_from_norm(ring, 1, table)
            pts = [(tuple(map(F, a)), w) for a, w in table.items()]
            for k in (1, 2, 3):
                weights = supnorm(k, phi).weights
                for a, w in zip(ring.basis(k), weights):
                    y = tuple(F(x, k) for x in a)
                    assert w == k * oracles.concave_value(pts, y)


def test_supnorm_roundtrip_inequality_and_closure() -> None:
    rng = random.Random(113)
    seen_closed, seen_open = 0, 0
    for _ in range(40):
        ring = section_ring(1, 2)
        table = {a: F(rng.randint(-4, 4)) for a in ring.basis(1)}
        phi = fs_from_norm(ring, 1, table)
        back = fs_from_norm(ring, 1, supnorm(1, phi))
        rel = compare_metrics(back, phi).relation
        assert rel in ("le", "eq")
        pts = [(tuple(map(F, a)), w) for a, w in table.items()]
        closed = all(
            w == oracles.concave_value(pts, tuple(map(F, a)))
            for a, w in table.items()
        )
        beta = dict(zip(ring.basis(1), supnorm(1, phi).weights))
        if closed:
            seen_closed += 1
            assert beta == table
        else:
            seen_open += 1
            assert beta != table
        # metric-level equality holds either way
        assert back == phi
    assert seen_closed and seen_open


def test_supnorm_idempotent() -> None:
    rng = random.Random(127)
    for _ in range(10):
        ring = section_ring(2, 1)
        table = {a: F(rng.randint(-3, 3)) for a in ring.basis(1)}
        phi = fs_from_norm(ring, 1, table)
        for k in (1, 2):
            n1 = supnorm(k, phi)
            n2 = supnorm(k, fs_from_norm(ring, k, n1))
            assert n1 == n2


_ARENAS = ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1))


@st.composite
def _fs_pairs(draw):
    """(ring, phi0, phi1): level-k FS metrics on one (P^n, O(m)).

    phi1 has independent weights, or phi0's weights lowered entry by
    entry, which keeps the metric whenever only weights under the concave
    hull drop, so equal pairs with different weights come up too.
    """
    n, m, level = draw(st.sampled_from(_ARENAS))
    ring = section_ring(n, m)
    basis = ring.basis(level)
    weights = st.lists(st.integers(-6, 6).map(lambda x: F(x, 2)),
                       min_size=len(basis), max_size=len(basis))
    w0 = draw(weights)
    if draw(st.booleans()):
        w1 = [w - draw(st.integers(0, 3)) for w in w0]
    else:
        w1 = draw(weights)
    return (ring, fs_from_norm(ring, level, dict(zip(basis, w0))),
            fs_from_norm(ring, level, dict(zip(basis, w1))))


@settings(max_examples=60)
@given(_fs_pairs())
def test_supnorm_fs_supnorm_is_supnorm(case) -> None:
    ring, phi, _ = case
    for k in (1, 2, 4):
        top = supnorm(k, phi)
        assert supnorm(k, fs_from_norm(ring, k, top)) == top


@settings(max_examples=60)
@given(_fs_pairs())
def test_d1_limit_vanishes_exactly_on_equal_metrics(case) -> None:
    _, phi0, phi1 = case
    res = d1_metric(phi0, phi1, kmax=2)   # raises if its two routes disagree
    assert res.limit >= 0
    assert (res.limit == 0) == (compare_metrics(phi0, phi1).relation == "eq")


@st.composite
def _fs_metrics(draw):
    """(ring, phi): an FS metric on P^1 (m <= 2, level <= 3) or P^2 (m = 1,
    level <= 2), weights with denominators 1, 2, 3 and 6."""
    n, m, level = draw(st.sampled_from(
        [(1, m, lv) for m in (1, 2) for lv in (1, 2, 3)]
        + [(2, 1, 1), (2, 1, 2)]))
    ring = section_ring(n, m)
    basis = ring.basis(level)
    weight = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 6)))
    w = draw(st.lists(weight, min_size=len(basis), max_size=len(basis)))
    return ring, fs_from_norm(ring, level, dict(zip(basis, w)))


@settings(max_examples=80)
@given(_fs_metrics())
def test_supnorm_weights_match_fraction_oracle(case) -> None:
    ring, phi = case
    q = phi.profile()
    graded = sup_graded(phi, 8)
    for k in range(1, 9):
        want = oracles.supnorm_weights_fraction(q, k, ring.basis(k))
        got = supnorm(k, phi).weights
        assert got == want
        assert list(map(str, got)) == list(map(str, want))
        assert graded.norm_at(k).weights == want


def test_sup_graded_is_submultiplicative() -> None:
    phi = _fs_p1((0, 5, 0), m=2)
    gn = sup_graded(phi, 6)
    assert check_submultiplicative(gn) is None
    assert gn.norm_at(2) == supnorm(2, phi)


# -- rooftop envelope ---------------------------------------------------------------


def test_envelope_same_metric() -> None:
    phi = _fs_p1((0, 5, 0), m=2)
    assert envelope_P(phi, phi) == phi


def test_envelope_comparable_pair() -> None:
    low = _fs_p1((0, -2))
    env = envelope_P(reference(1, 1), low)
    assert env == low
    assert env.provenance == "envelope"


def test_envelope_rooftop_truncates_both() -> None:
    phi0 = _fs_p1((0, -2)).shifted(1)           # max(1, v-1)
    phi1 = reference(1, 1)
    env = envelope_P(phi0, phi1)
    assert env.potential == _ma(((0,), 0), ((F(1, 2),), 0), ((1,), -1))
    for phi in (phi0, phi1):
        assert compare_metrics(env, phi).relation in ("le", "eq")


# -- energy ----------------------------------------------------------------------------


def test_moment_volume() -> None:
    assert moment_volume(1, 1) == 1
    assert moment_volume(1, 2) == 2
    assert moment_volume(2, 1) == F(1, 2)
    assert moment_volume(2, 3) == F(9, 2)


def test_energy_zero_on_diagonal() -> None:
    phi = _fs_p1((0, 5, 0), m=2)
    res = energy(phi, phi, kmax=4)
    assert res.limit == 0
    assert all(v == 0 for _, v in res.per_k)


def test_energy_comparable_pair() -> None:
    low = _fs_p1((0, -2))
    res = energy(low, reference(1, 1), kmax=6)
    assert res.limit == -1
    assert all(v == -1 for _, v in res.per_k)
    assert energy(reference(1, 1), low, kmax=2).limit == 1


def test_energy_sign_convention() -> None:
    # phi0 <= phi1 forces E(phi0, phi1) <= 0, and raising phi0 raises E
    low = _fs_p1((0, -2))
    ref = reference(1, 1)
    assert compare_metrics(low, ref).relation == "le"
    assert energy_limit(low, ref) < 0
    assert energy_limit(low.shifted(F(1, 2)), ref) > energy_limit(low, ref)


def test_energy_cocycle_at_limit() -> None:
    rng = random.Random(131)
    ring = section_ring(1, 2)
    metrics = []
    for _ in range(3):
        # level 2, so that two of the profiles have three cells each
        table = {a: F(rng.randint(-3, 3)) for a in ring.basis(2)}
        metrics.append(fs_from_norm(ring, 2, table))
    a, b, c = metrics
    # the overlay integrals of three different pairs satisfy the cocycle
    # identity, and the per-metric energies agree with each of them
    overlay = oracles.energy_limit_overlay
    assert overlay(a, b) + overlay(b, c) == overlay(a, c)
    for x, y in ((a, b), (b, c), (a, c)):
        assert energy_limit(x, y) == overlay(x, y)


@st.composite
def _energy_pairs(draw):
    """(phi0, phi1): level 1-3 FS metrics on P^1 or P^2 with m in {1, 2}."""
    n = draw(st.sampled_from((1, 2)))
    m = draw(st.sampled_from((1, 2)))
    level = draw(st.integers(1, 3))
    ring = section_ring(n, m)
    basis = ring.basis(level)
    weight = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
    weights = st.lists(weight, min_size=len(basis), max_size=len(basis))
    return tuple(fs_from_norm(ring, level, dict(zip(basis, draw(weights))))
                 for _ in range(2))


@settings(max_examples=60)
@given(_energy_pairs())
def test_energy_limits_match_overlay_oracle(pair) -> None:
    phi0, phi1 = pair
    want = oracles.energy_limit_overlay(phi0, phi1)
    assert energy(phi0, phi1, kmax=1).limit == want
    assert energy_limit(phi0, phi1) == want
    # d1 returns its overlay route and raises unless the envelope route,
    # E(phi0) + E(phi1) - 2 E(P), equals it; here both meet the oracle's
    # envelope route, E(phi0, P) + E(phi1, P) over two overlays
    roof = envelope_P(phi0, phi1)
    via_envelope = (oracles.energy_limit_overlay(phi0, roof)
                    + oracles.energy_limit_overlay(phi1, roof))
    assert d1_metric(phi0, phi1, kmax=1).limit == via_envelope


# -- d1 ---------------------------------------------------------------------------------


def test_d1_zero_iff_equal() -> None:
    phi = _fs_p1((0, 5, 0), m=2)
    assert d1_metric(phi, phi, kmax=3).limit == 0
    other = _fs_p1((0, 4, 0), m=2)
    assert d1_metric(phi, other, kmax=3).limit > 0


def test_d1_comparable_pair() -> None:
    res = d1_metric(_fs_p1((0, -2)), reference(1, 1), kmax=6)
    assert res.limit == 1
    assert all(v == 1 for _, v in res.per_k)


def test_d1_rooftop_pair() -> None:
    # two-route value through P = max(0, v/2, v-1): each energy term is 1/4
    phi0 = _fs_p1((0, -2)).shifted(1)
    phi1 = reference(1, 1)
    env = envelope_P(phi0, phi1)
    assert energy_limit(phi0, env) == F(1, 4)
    assert energy_limit(phi1, env) == F(1, 4)
    assert d1_metric(phi0, phi1, kmax=4).limit == F(1, 2)


@pytest.mark.parametrize("route",
                         ["_overlay_integral", "_homogeneous_integral"])
def test_d1_raises_when_its_routes_disagree(monkeypatch, route) -> None:
    # the overlay's integral of |q0 - q1|, and E(P) integrated on the
    # rooftop's cells; a constant offset would cancel in
    # E(phi0) + E(phi1) - 2 E(P)
    real = getattr(toric, route)
    monkeypatch.setattr(toric, route, lambda *a: 2 * real(*a))
    phi0, phi1 = _fs_p1((0, -2)).shifted(1), reference(1, 1)
    with pytest.raises(ToricError, match="d1 routes disagree"):
        d1_metric(phi0, phi1, kmax=1)


def test_d1_triangle_inequality_at_limit() -> None:
    rng = random.Random(137)
    ring = section_ring(1, 1)
    for _ in range(15):
        ms = [fs_from_norm(ring, 1, {a: F(rng.randint(-3, 3))
                                     for a in ring.basis(1)})
              for _ in range(3)]
        ab = d1_metric(ms[0], ms[1], kmax=1).limit
        bc = d1_metric(ms[1], ms[2], kmax=1).limit
        ac = d1_metric(ms[0], ms[2], kmax=1).limit
        assert ac <= ab + bc


def test_d_infinity_limit() -> None:
    low = _fs_p1((0, -2))
    assert d_infinity_limit(low, reference(1, 1)) == 2
    assert d_infinity_limit(low, low) == 0


# -- convergence bookkeeping ----------------------------------------------------------


def test_convergence_rows_contract() -> None:
    res = energy(_fs_p1((0, -2)), reference(1, 1), kmax=3)
    rows = res.rows()
    assert [r["k"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert set(r) == {"k", "exact_value", "decimal_value", "oracle_limit"}
        assert r["exact_value"] == "-1"
        assert r["decimal_value"] == "-1"
        assert r["oracle_limit"] == "-1"
    assert res.gap(2) == 0
    with pytest.raises(KeyError):
        res.gap(7)


def test_decimal_rendering() -> None:
    res = ConvergenceResult(((1, F(1, 3)),), F(0))
    assert res.rows()[0]["decimal_value"] == "0.333333333333"


def test_frozen_convergence_instance_p1() -> None:
    phi0, phi1 = convergence_pair_p1()
    e = energy(phi0, phi1, kmax=4)
    assert e.limit == 1
    assert e.gap(2) == F(1, 4)
    d = d1_metric(phi0, phi1, kmax=4)
    assert d.limit == 1
    assert d.gap(2) == F(1, 4)


def test_frozen_convergence_instance_p2() -> None:
    phi0, phi1 = convergence_pair_p2()
    e = energy(phi0, phi1, kmax=2)
    assert e.limit == F(1, 4)
    assert e.gap(2) == F(1, 24)


# -- serialization -----------------------------------------------------------------------


def test_metric_json_round_trip() -> None:
    phi = _fs_p1((0, 5, 0), m=2)
    again = ToricMetric.from_json(phi.to_json())
    assert again == phi
    assert again.provenance == phi.provenance


def test_mismatched_bundles_rejected() -> None:
    with pytest.raises(ToricError):
        energy(reference(1, 1), reference(1, 2))
    with pytest.raises(ToricError):
        compare_metrics(reference(1, 1), reference(2, 1))


@pytest.mark.parametrize("fn", [energy, d1_metric])
@pytest.mark.parametrize("kmax", [0, -3])
def test_tables_need_a_positive_kmax(fn, kmax, monkeypatch) -> None:
    # refused first: before the bundle check and before any conjugate
    def refuse(f):
        raise AssertionError("conjugated before kmax was checked")

    monkeypatch.setattr(plconvex, "conjugate", refuse)
    monkeypatch.setattr(toric, "conjugate", refuse)
    for phi1 in (_fs_p1((0, -2)), reference(1, 2)):
        with pytest.raises(ToricError, match="kmax must be at least 1"):
            fn(reference(1, 1), phi1, kmax=kmax)


@pytest.mark.parametrize("kmax", [F(5, 2), 2.5, True, 0])
def test_kmax_is_an_int_of_at_least_one_before_any_conjugate(
        kmax, monkeypatch) -> None:
    # the tables, the level and its chains refuse it with ToricError and
    # the graded sup-norms with GradedError, each before any conjugate:
    # range() would take True for 1 and a level chain 5/2 as (1, 2)
    def refuse(f):
        raise AssertionError("conjugated before kmax was checked")

    monkeypatch.setattr(plconvex, "conjugate", refuse)
    monkeypatch.setattr(toric, "conjugate", refuse)
    phi0, phi1 = _fs_p1((0, -2)), reference(1, 1)
    why = "at least 1" if type(kmax) is int else "an int"
    for name, call in (
            ("kmax", lambda: energy(phi0, phi1, kmax=kmax)),
            ("kmax", lambda: d1_metric(phi0, phi1, kmax=kmax)),
            ("kmax", lambda: maximal_segment(phi0, phi1, F(1, 2), kmax=kmax)),
            ("kmax", lambda: diagnostics(phi0, phi1, kmax=kmax)),
            ("level k", lambda: quantized_level(phi0, phi1, kmax))):
        with pytest.raises(ToricError, match=f"^{name} must be {why}, got "):
            call()
    with pytest.raises(GradedError, match=f"^kmax must be {why}, got "):
        sup_graded(phi0, kmax)


# a level is an int >= 1: 0 gave a potential over den 0, True passed for
# level 1 and 2.0 raised a bare TypeError from ``ring.basis``
_BAD_LEVELS = (0, -1, True, 2.0, F(5, 2))


def _why(k):
    return "at least 1" if type(k) is int else "an int"


@pytest.mark.parametrize("k", _BAD_LEVELS)
def test_fs_from_norm_needs_a_level_of_at_least_one(k) -> None:
    ring = section_ring(1, 1)
    norm = supnorm(1, reference(1, 1))
    for source in ({(0,): 0}, {(0,): 0, (1,): 0}, norm):
        with pytest.raises(ToricError, match=f"^level k must be {_why(k)}"):
            fs_from_norm(ring, k, source)


@pytest.mark.parametrize("k", _BAD_LEVELS)
def test_supnorm_needs_a_level_of_at_least_one(k, monkeypatch) -> None:
    # refused before any weight is read off the profile
    def refuse(*args):
        raise AssertionError("weights read before the level was checked")

    monkeypatch.setattr(toric, "_supweights", refuse)
    with pytest.raises(ToricError, match=f"^level k must be {_why(k)}"):
        supnorm(k, _fs_p1((0, -2)))


@pytest.mark.parametrize("k", _BAD_LEVELS)
def test_fs_segment_needs_a_level_of_at_least_one(k) -> None:
    # level 0 built a segment whose metrics had a potential over den 0
    for w0, w1 in (([0], [1]), ([0, 0], [1, 1])):
        with pytest.raises(ToricError, match=f"^level k must be {_why(k)}"):
            fs_segment(section_ring(1, 1), k, w0, w1)


@pytest.mark.parametrize("k", _BAD_LEVELS)
def test_detect_non_psh_needs_a_level_of_at_least_one(k) -> None:
    # level 0 raised ZeroDivisionError; no samples still check the level
    samples = [(F(t), {(0,): F(t)}) for t in (0, 1, 2)]
    for path in (samples, []):
        with pytest.raises(ToricError, match=f"^level k must be {_why(k)}"):
            detect_non_psh(section_ring(1, 1), k, path)


# -- one profile per endpoint and call ----------------------------------------------


@pytest.mark.parametrize("fn", [energy, d1_metric])
@pytest.mark.parametrize("pair", [convergence_pair_p1(), convergence_pair_p2()])
def test_tables_conjugate_each_endpoint_once(fn, pair, conjugated) -> None:
    phi0, phi1 = pair
    before = vars(phi0).copy(), vars(phi1).copy()
    fn(phi0, phi1, kmax=4)
    assert sum(f is phi0.potential for f in conjugated) == 1
    assert sum(f is phi1.potential for f in conjugated) == 1
    assert (vars(phi0), vars(phi1)) == before


def test_section_ring_refuses_non_integer_dims(monkeypatch) -> None:
    # (1, 2.0) == (1, 2), so a float m would file its ring under the int
    # key and every later section_ring(1, 2) would get a float ring
    monkeypatch.setattr(toric, "_rings", {})
    for n, m in ((1, 2.0), (1.0, 1), (True, 1), (1, "2"), (1, F(2))):
        with pytest.raises(ToricError, match="integer n and m"):
            section_ring(n, m)
    assert toric._rings == {}
    assert section_ring(1, 2).basis(1) == ((0,), (1,), (2,))
    assert list(toric._rings) == [(1, 2)]
