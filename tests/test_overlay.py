"""The integer overlay of two profiles: d1 integrals, sups, critical shifts
and the rooftop family of ``oracles`` read off it, against the Fraction
overlay of ``oracles`` and the envelope route of ``toric._rooftop``."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from geonorm import plconvex, toric
from geonorm.plconvex import (
    MaxAffine,
    PLError,
    conjugate,
    integrate_abs_difference,
    integrate_profile,
    max_abs_difference,
    overlay_vertices,
)
from geonorm.segments import SegmentPair, legendre_segment, tau_critical_set
from geonorm.toric import ToricError, ToricMetric, fs_from_norm, section_ring

F = Fraction


def _ma(*pieces):
    n = len(pieces[0][0])
    return MaxAffine(n, [(tuple(F(x) for x in g), F(c)) for g, c in pieces])


# -- the power p -------------------------------------------------------------


_SEGMENT = conjugate(_ma(((0,), 0), ((2,), 0)))                # 0 on [0, 2]
_TRIANGLE = conjugate(_ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0)))


@pytest.mark.parametrize("p", [0, -1, F(1, 2), 1.0, True, "1", None])
@pytest.mark.parametrize("q", [_SEGMENT, _TRIANGLE], ids=["P1", "P2"])
def test_integrate_abs_difference_needs_an_integer_power(q, p) -> None:
    # p = 0 counted a tie cell twice (4 on [0, 2], 1 on the unit
    # triangle), p = -1 raised a bare ValueError and p = 1/2 a TypeError
    with pytest.raises(PLError, match=re.escape(
            f"the power p must be a positive integer, got {p!r}")):
        integrate_abs_difference(q, q, p)
    assert integrate_abs_difference(q, q, 1) == 0
    assert integrate_abs_difference(q, q.shifted(1), 1) == (
        2 if q is _SEGMENT else F(1, 2))


# -- the overlay against the Fraction oracle ---------------------------------


_OFFSET = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3)))


@st.composite
def _metric_pairs(draw):
    """(phi0, phi1) on P^1 or P^2, m in {1, 2}, with gradients on the
    lattice of (m d) Delta over d in {1, 2}: the second metric has its own
    gradients (another hull), or the first's pieces with one offset moved
    (ties on whole cells), or the first's potential."""
    n = draw(st.sampled_from((1, 2)))
    m = draw(st.sampled_from((1, 2)))
    d = draw(st.sampled_from((1, 2)))
    lattice = [a for a in itertools.product(range(m * d + 1), repeat=n)
               if sum(a) <= m * d]
    grads = st.lists(st.sampled_from(lattice), min_size=n + 1, max_size=6,
                     unique=True)

    def potential(points):
        return MaxAffine(n, [(tuple(F(x, d) for x in a), draw(_OFFSET))
                             for a in points])

    pot0 = potential(draw(grads))
    kind = draw(st.sampled_from(("own", "tie", "same")))
    if kind == "own":
        pot1 = potential(draw(grads))
    elif kind == "tie":
        pieces = list(pot0.pieces)
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = (pieces[i][0], pieces[i][1] + draw(_OFFSET))
        pot1 = MaxAffine(n, pieces)
    else:
        pot1 = pot0
    return ToricMetric(n, m, pot0), ToricMetric(n, m, pot1)


@settings(max_examples=80)
@given(_metric_pairs(), st.data())
@example((ToricMetric(1, 2, _ma(((0,), 0), ((2,), 0))),
          ToricMetric(1, 2, _ma(((0,), 0), ((1,), 3), ((2,), 1)))), None)
def test_integer_overlay_matches_fraction_oracle(pair, data) -> None:
    phi0, phi1 = pair
    taus = oracles.critical_taus_fraction(phi0.profile(), phi1.profile())
    # no shift, a random one, or a critical one: q1 - tau - q0 then
    # vanishes at an overlay vertex, and may cross zero through it
    shift = (F(1) if data is None else data.draw(st.one_of(
        st.just(F(0)), _OFFSET,
        st.sampled_from(taus) if taus else st.just(F(0)))))
    phi1 = phi1.shifted(-shift)
    q0, q1 = phi0.profile(), phi1.profile()
    for p in (1, 2, 3):
        assert (integrate_abs_difference(q0, q1, p)
                == oracles.integrate_abs_difference_fraction(q0, q1, p))
    assert max_abs_difference(q0, q1) == oracles.max_abs_difference_fraction(
        q0, q1)
    assert overlay_vertices(q0, q1) == oracles.overlay_vertices_fraction(
        q0, q1)
    assert tau_critical_set(phi0, phi1) == oracles.critical_taus_fraction(
        q0, q1)


# -- the overlay against the clipped overlay of the oracles ------------------


_GRID = {n: [a for a in itertools.product(range(4), repeat=n)] for n in (1, 2)}


@st.composite
def _profile_pairs(draw):
    """(q0, q1) on n in {1, 2}: conjugates of functions with gradients on
    a grid.  The second function has gradients of its own, or the first's
    with new offsets (cells split by the sign of q0 - q1), or the first's
    reflected in the hyperplane through their largest first coordinate
    (hulls touching in a face), or on a line, or the first's moved away
    (no common cell)."""
    n = draw(st.sampled_from((1, 2)))

    def grads(least):
        return draw(st.lists(st.sampled_from(_GRID[n]), min_size=least,
                             max_size=7, unique=True))

    def conj(points):
        return conjugate(MaxAffine(n, [(tuple(map(F, a)), draw(_OFFSET))
                                       for a in points]))

    g0 = grads(n + 1)
    shape = draw(st.sampled_from(("own", "own", "offsets", "touch", "line",
                                  "apart")))
    if shape == "own":
        g1 = grads(1)
    elif shape == "offsets":
        g1 = g0
    elif shape == "touch":
        top = max(a[0] for a in g0)
        g1 = [(2 * top - a[0],) + a[1:] for a in g0]
    elif shape == "line":
        g1 = [(k,) * n for k in range(draw(st.integers(1, 4)))]
    else:
        g1 = [(a[0] + 5,) + a[1:] for a in g0]
    return conj(g0), conj(g1)


def _cell_set(cells):
    return {(frozenset(cell[0]), cell[-2], cell[-1]) for cell in cells}


@settings(max_examples=150)
@given(_profile_pairs())
@example((_SEGMENT, conjugate(_ma(((2,), 0), ((4,), 1)))))
@example((_TRIANGLE, conjugate(_ma(((1, 0), 0), ((0, 1), 0), ((1, 1), 2)))))
@example((_TRIANGLE, _TRIANGLE.shifted(1)))
def test_overlay_matches_clipped_overlay(pair) -> None:
    # the vertices with their values, the cells and the integrals of
    # |q0 - q1|^p, including the pieces of split cells
    q0, q1 = pair
    got, want = plconvex._overlay(q0, q1), oracles._overlay(q0, q1)
    assert got.den == want.den
    assert got.verts == want.verts
    assert _cell_set(got.cells) == _cell_set(want.cells)
    for p in (1, 2, 3):
        assert (plconvex._overlay_integral(got, p)
                == oracles._overlay_integral(want, p))
    for q in pair:
        if q.cells:
            assert integrate_profile(q) == oracles.integrate_profile(q)


# -- profiles with no common cell, and profiles with no cell -----------------


# gradient hulls touching in an edge of the plane and a face of space
_TOUCHING = {
    2: (((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1))),
    3: (((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
}


@pytest.mark.parametrize("n", [2, 3])
def test_hulls_touching_in_a_face_share_no_cell(n) -> None:
    # on O(n), whose simplex holds both hulls
    phi0, phi1 = (ToricMetric(n, n, _ma(*[(g, c) for c, g in enumerate(gs)]))
                  for gs in _TOUCHING[n])
    q0, q1 = phi0.profile(), phi1.profile()
    assert q0.cells and q1.cells
    assert plconvex._overlay(q0, q1).cells == []
    assert integrate_abs_difference(q0, q1) == 0
    assert max_abs_difference(q0, q1) == 0
    assert tau_critical_set(phi0, phi1) == ()
    with pytest.raises(ToricError, match="no critical shift tau"):
        legendre_segment(phi0, phi1, F(1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_profile_without_cells_is_not_integrated(n) -> None:
    # gradients in a hyperplane: the profile's domain has no interior
    q = conjugate(_ma(*[(g, 0) for g in _TOUCHING[n][0][:n]]))
    assert not q.cells
    with pytest.raises(PLError, match=(
            "profile has no full-dimensional cells to integrate")):
        integrate_profile(q)
    assert integrate_abs_difference(q, q) == 0


# -- the rooftop family against the envelope route ---------------------------


def _family_cases():
    """Seeded FS metric pairs: P^1 with m in {1, 2} at levels 1-3, and P^2
    (m = 1) at levels 1-2."""
    rng = random.Random(271)
    cases = []
    arenas = itertools.chain(itertools.product((1,), (1, 2), (1, 2, 3)),
                             ((2, 1, 1), (2, 1, 2)))
    for n, m, level in arenas:
        ring = section_ring(n, m)
        basis = ring.basis(level)
        for _ in range(4):
            phi0, phi1 = (fs_from_norm(ring, level, {
                a: F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                for a in basis}) for _ in range(2))
            cases.append((n, m, phi0, phi1))
    return cases


_CASES = _family_cases()


def _family_mismatches(cases):
    """The (case, tau) where the family's potential is not the rooftop
    potential of ``toric._rooftop``, row for row."""
    out = []
    for case in cases:
        n, m, phi0, phi1 = case
        q0, q1 = phi0.profile(), phi1.profile()
        family = oracles.rooftop_family(plconvex._overlay(q0, q1))
        assert tuple(tau for tau, _ in family) == (
            oracles.critical_taus_fraction(q0, q1))
        for tau, u in family:
            want = toric._rooftop(n, m, q0, q1.shifted(-tau))[0].potential
            if (u.n, u._den, u._rows) != (want.n, want._den, want._rows):
                out.append((case, tau))
    return out


def _crosses_inside_an_edge(q0, q1, tau):
    """Whether q1 - tau - q0 changes sign strictly inside an edge of a
    region of the Fraction overlay."""
    for region, c0, c1 in oracles.overlay(q0, q1):
        vals = [c1.affine(y) - tau - c0.affine(y) for y in region]
        if any(a * b < 0 for a, b in zip(vals, vals[1:] + vals[:1])):
            return True
    return False


def test_rooftop_family_matches_envelope_route() -> None:
    assert _family_mismatches(_CASES) == []


def test_rooftop_family_without_crossings_fails(monkeypatch) -> None:
    # a family that reads the overlay's vertices alone misses the kinks of
    # min(q0, q1 - tau) inside the overlay's edges
    monkeypatch.setattr(oracles, "_crossings", lambda *args: [])
    bad = _family_mismatches(_CASES)
    assert bad
    for (_, _, phi0, phi1), tau in bad:
        assert _crosses_inside_an_edge(phi0.profile(), phi1.profile(), tau)


# -- one overlay per pair ----------------------------------------------------


def _counting(monkeypatch, calls, module, name):
    """Append ``name`` to ``calls`` at every later call of
    ``module.name``."""
    real = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)
    monkeypatch.setattr(module, name, counted)


def test_pair_builds_one_overlay_and_legendre_no_envelope(monkeypatch) -> None:
    calls = []
    for name in ("_overlay", "_envelope", "_vertices", "_domain_hrep"):
        _counting(monkeypatch, calls, plconvex, name)
    _counting(monkeypatch, calls, toric, "_overlay")
    _counting(monkeypatch, calls, toric, "_envelope")
    _, _, phi0, phi1 = _CASES[5]
    pair = SegmentPair(phi0, phi1)
    pair.legendre(F(1, 3))
    assert calls == ["_overlay"]
    calls.clear()
    pair.d1(kmax=2)
    # the check route alone: one envelope, its vertices and two domains
    assert calls.count("_envelope") == 1
    assert "_overlay" not in calls
    calls.clear()
    pair.d_infinity()
    pair.diagnostics(kmax=2)
    assert "_overlay" not in calls and "_envelope" not in calls


def test_line_pair_tables_and_slices_read_one_overlay(monkeypatch) -> None:
    # on P^1 the energy table builds the pair's overlay, and the d1 table
    # and integral, d_infinity, the Legendre slice and the critical shifts
    # read it
    calls = []
    for module in (plconvex, toric):
        _counting(monkeypatch, calls, module, "_overlay")
    n, _, phi0, phi1 = _CASES[5]
    assert n == 1
    pair = SegmentPair(phi0, phi1)
    pair.energy(kmax=4)
    assert calls == ["_overlay"]
    pair.d1(kmax=4)
    pair.d_infinity()
    pair.legendre(F(1, 3))
    pair.critical_taus()
    assert calls == ["_overlay"]
