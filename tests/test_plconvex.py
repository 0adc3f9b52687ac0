"""Piecewise-linear convex calculus: conjugates, envelopes, marginals, integrals."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from linprog import minimize_max_affine
from geonorm import plconvex
from geonorm.graded import lattice_points
from geonorm.plconvex import (
    EnvelopeError,
    MaxAffine,
    PLError,
    compare,
    conjugate,
    domain_hrep,
    envelope_constrained,
    integrate_abs_difference,
    integrate_profile,
    le_witness,
    marginal_min,
    max_abs_difference,
    mix_witness,
    moment_simplex,
    prune,
)

F = Fraction


def _ma(*pieces):
    n = len(pieces[0][0])
    return MaxAffine(n, [(tuple(F(x) for x in g), F(c)) for g, c in pieces])


def fix_first(f, t):
    """Restrict a function of (t, v) to a fixed t."""
    return MaxAffine(f.n - 1, [(g[1:], c + g[0] * t) for g, c in f.pieces])


REF = _ma(((0,), 0), ((1,), 0))                       # max(0, v)
PEAKED = _ma(((0,), 0), ((1,), 5), ((2,), 0))         # max(0, v+5, 2v)
SUNK = _ma(((0,), 0), ((1,), -5), ((2,), 0))          # max(0, v-5, 2v)


# -- evaluation and algebra ----------------------------------------------------


def test_eval_examples() -> None:
    assert REF((F(-3),)) == 0
    assert REF((F(2),)) == 2
    assert PEAKED((F(1),)) == 6


def test_piece_dedup_keeps_best_offset() -> None:
    f = _ma(((1,), 0), ((1,), 3))
    assert len(f.pieces) == 1
    assert f((F(0),)) == 3


def test_pieces_are_fractions_whatever_the_input() -> None:
    mixed = MaxAffine(2, [((1, F(1, 2)), 3), (("1/3", 0), F(-1)),
                          ((F(1), F(1, 2)), "7/2")])
    assert mixed.pieces == (((F(1, 3), F(0)), F(-1)),
                            ((F(1), F(1, 2)), F(7, 2)))
    assert all(type(x) is F for g, c in mixed.pieces for x in g + (c,))
    with pytest.raises(PLError, match="length 1, expected 2"):
        MaxAffine(2, [((1,), 0)])
    with pytest.raises(PLError, match="at least one piece"):
        MaxAffine(2, [])


@pytest.mark.parametrize("n", [True, False, 1.0, 2.5, 0, -1, "1", ["a"],
                               None])
def test_from_json_takes_only_a_positive_int_n(n) -> None:
    obj = {"n": n, "pieces": [{"g": ["0"], "c": "0"}, {"g": ["1"], "c": "0"}]}
    with pytest.raises(PLError) as info:
        MaxAffine.from_json(obj)
    assert str(info.value) == (
        f"max-affine n must be a positive integer, got {n!r}")
    assert MaxAffine.from_json(dict(obj, n=1)).n == 1


def test_points_of_the_wrong_length_are_rejected() -> None:
    line = _ma(((0,), 0), ((1,), 0))
    plane = _ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0))
    for f in (line, plane):
        for bad in ((F(1),) * (f.n + 1), (F(1),) * (f.n - 1)):
            msg = f"point has length {len(bad)}, expected {f.n}"
            with pytest.raises(PLError, match=msg):
                f(bad)
            with pytest.raises(PLError, match=msg):
                conjugate(f).value(bad)
    assert line((F(2),)) == 2 and conjugate(plane).value((0, 0)) == 0


def test_algebra() -> None:
    f = REF.scaled(F(3))
    assert f((F(2),)) == 6
    assert REF.shifted(F(-1))((F(0),)) == -1
    s = REF.plus(REF)
    assert s((F(2),)) == 4
    m = REF.max_with(_ma(((0,), 1)))
    assert m((F(0),)) == 1
    with pytest.raises(PLError):
        REF.scaled(0)


def test_fix_first() -> None:
    joint = _ma(((1, 0), 0), ((0, 1), 0))   # max(t, v)
    at_half = fix_first(joint, F(1, 2))
    assert at_half((F(0),)) == F(1, 2)
    assert at_half((F(2),)) == 2


def test_prune_drops_redundant_piece() -> None:
    f = _ma(((0,), 0), ((F(1, 2),), 0), ((1,), 0))
    g = prune(f)
    assert len(g.pieces) == 2
    assert g == f


_COORD = st.integers(-3, 3).map(F) | st.fractions(-3, 3, max_denominator=2)


@st.composite
def _max_affine_cases(draw, n=None):
    """Random n = 1, 2 pieces with frequent repeats, collinear and tied points."""
    if n is None:
        n = draw(st.sampled_from((1, 2)))
    count = draw(st.integers(1, 7))
    if n == 2 and draw(st.booleans()):
        # gradients on one line: a rank-1 hull in the plane
        g0, d = (draw(st.tuples(_COORD, _COORD)) for _ in range(2))
        steps = draw(st.lists(st.integers(-2, 2), min_size=count,
                              max_size=count))
        grads = [(g0[0] + s * d[0], g0[1] + s * d[1]) for s in steps]
    else:
        grads = draw(st.lists(st.tuples(*[_COORD] * n), min_size=count,
                              max_size=count))
    # offsets on or just below one affine function tie many lifted points
    w = draw(st.tuples(*[_COORD] * n))
    b = draw(_COORD)
    pieces = []
    for g in grads:
        if draw(st.booleans()):
            c = sum(x * y for x, y in zip(w, g)) + b - draw(st.integers(0, 1))
        else:
            c = draw(_COORD)
        pieces.append((g, c))
    return n, pieces


@settings(max_examples=300)
@given(_max_affine_cases())
def test_prune_matches_nonredundant_oracle(case) -> None:
    f = MaxAffine(*case)
    assert prune(f).pieces == tuple(oracles.nonredundant_pieces(list(f.pieces)))


_P3_COORD = st.integers(-1, 2).map(F) | st.sampled_from((F(1, 2), F(-1, 2)))


@st.composite
def _p3_cases(draw, count=(1, 8)):
    """Pieces on R^3: up to 8 gradients on a small grid, often on a plane
    or a line, offsets random or tied to one affine function."""
    shape = draw(st.sampled_from(("any", "any", "plane", "line")))
    base = draw(st.tuples(*[_P3_COORD] * 3))
    dirs = [draw(st.tuples(*[st.integers(-1, 1).map(F)] * 3)) for _ in "ab"]
    grads = []
    for _ in range(draw(st.integers(*count))):
        if shape == "any":
            grads.append(draw(st.tuples(*[_P3_COORD] * 3)))
        else:
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            t = t if shape == "plane" else 0
            grads.append(tuple(b + s * x + t * y
                               for b, x, y in zip(base, *dirs)))
    w, b = draw(st.tuples(*[_P3_COORD] * 3)), draw(_P3_COORD)
    pieces = []
    for g in grads:
        if draw(st.booleans()):
            c = sum(x * y for x, y in zip(w, g)) + b - draw(st.integers(0, 1))
        else:
            c = draw(_P3_COORD)
        pieces.append((g, c))
    return pieces


@settings(max_examples=60)
@given(_p3_cases())
# the unit simplex, a cube with its top face flat, and a plane of gradients
@example([((0, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), -1), ((0, 0, 1), 2)])
@example([(g, g[0] + g[1] - g[2] if g[2] else 0)
          for g in itertools.product((0, 1), repeat=3)])
@example([((0, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), 0), ((1, 1, 0), 0),
          ((F(1, 2), F(1, 2), 0), 1)])
def test_conjugate_p3_matches_tuple_oracle(pieces) -> None:
    f = MaxAffine(3, pieces)
    prof = conjugate(f)
    pieces = list(f.pieces)
    kept = oracles.nonredundant_lp(pieces)
    assert prof.to_max_affine().pieces == tuple(kept)
    assert prune(f).pieces == tuple(kept)
    want = oracles.upper_planes(pieces)
    if want is None:
        # gradients on a plane, a line or a point: no cells
        assert prof.cells == ()
        assert all(prof.value(g) >= c for g, c in pieces)
        return
    assert prof.planes == tuple(plane for plane, _ in want)
    for cell, (_, on) in zip(prof.cells, want):
        assert len(cell.vertices) >= 4
        assert set(cell.vertices) <= {pieces[i][0] for i in on}
    assert {p for p, _ in prof.vertices} == {g for g, _ in kept}


@settings(max_examples=40)
@given(_p3_cases(), _p3_cases())
@example([((0, 0, 0), 0), ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
         [((0, 0, 0), 0), ((1, 1, 1), -1)])
def test_compare_p3_matches_lp_oracle(p, q) -> None:
    f, g = MaxAffine(3, p), MaxAffine(3, q)
    fg, gf = oracles.lp_le_witness(f, g), oracles.lp_le_witness(g, f)
    for a, b, want in ((f, g, fg), (g, f, gf)):
        got = le_witness(a, b)
        assert (got is None) == (want is None)
        assert got is None or a(got) > b(got)
    relation = {(True, True): "eq", (True, False): "le", (False, True): "ge",
                (False, False): "incomparable"}[fg is None, gf is None]
    assert compare(f, g).relation == relation
    assert (f == g) == (relation == "eq")
    # pieces below the midpoints of f's lifted points change nothing
    below = [(tuple(F(x + y) / 2 for x, y in zip(a0, a1)), F(c0 + c1, 2) - 1)
             for (a0, c0), (a1, c1) in zip(p, p[1:])]
    assert f == MaxAffine(3, p + below)


@settings(max_examples=30)
@given(_p3_cases(count=(1, 5)), _P3_COORD)
@example([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 1),
          ((-1, 1, 1), 0)], F(1, 2))
def test_marginal_min_p3_matches_fm_oracle(pieces, tau) -> None:
    # four variables (t, v1, v2, v3): the pruned marginal lives on R^3
    joint = MaxAffine(4, [(g + (g[0] - g[1],), c) for g, c in pieces])
    assert (marginal_min(joint, tau).pieces
            == oracles.marginal_min_fm(3, list(joint.pieces), tau,
                                       keep=oracles.nonredundant_lp))


_P3_F = _ma(((0, 0, 0), 0), ((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 1))
_P3_Q = conjugate(_P3_F)


@pytest.mark.parametrize("run", [
    lambda: oracles.integrate_cell_affine(_P3_Q.cells[0].vertices,
                                          _P3_Q.cells[0].affine, 3),
    lambda: oracles._halfspace_part(_P3_Q.cells[0].vertices, (1, 0, 0), 0),
], ids=["integrate_cell_affine", "halfspace_part"])
def test_cell_readers_refuse_n3(run) -> None:
    # the P^3 conjugate has one cell, which these read as a polygon
    assert len(_P3_Q.cells) == 1
    with pytest.raises(PLError, match="n <= 2"):
        run()


@pytest.mark.parametrize("run, want", [
    (lambda: integrate_profile(_P3_Q), F(1, 24)),
    (lambda: integrate_abs_difference(_P3_Q, _P3_Q.shifted(-1), 2), F(1, 6)),
    (lambda: max_abs_difference(_P3_Q, _P3_Q.shifted(-1)), 1),
    (lambda: len(plconvex.overlay_vertices(_P3_Q, _P3_Q)), 4),
], ids=["integrate_profile", "integrate_abs_difference", "max_abs_difference",
        "overlay"])
def test_cell_readers_run_on_n3(run, want) -> None:
    # the profile z on the unit tetrahedron, and its overlay with itself
    # one lower or as it is
    assert run() == want


# -- comparison ------------------------------------------------------------------


def test_compare_equal() -> None:
    c = compare(REF, _ma(((1,), 0), ((0,), 0)))
    assert c.relation == "eq"


def test_compare_ordered_pair() -> None:
    lower = _ma(((0,), 0), ((1,), -2))      # max(0, v-2)
    c = compare(REF, lower)
    assert c.relation == "ge"
    w = c.witness_first_gt
    assert REF(w) > lower(w)


def test_compare_incomparable_with_witnesses() -> None:
    g = _ma(((F(1, 2),), F(1, 2)))
    c = compare(REF, g)
    assert c.relation == "incomparable"
    assert REF(c.witness_first_gt) > g(c.witness_first_gt)
    assert REF(c.witness_second_gt) < g(c.witness_second_gt)


def test_compare_unbounded_direction() -> None:
    # same values on [0, oo) but different recession slopes
    f = _ma(((2,), 0), ((0,), 0))
    c = compare(f, REF)
    assert c.relation == "ge"
    assert f(c.witness_first_gt) > REF(c.witness_first_gt)


@st.composite
def _comparison_pairs(draw):
    """(f, g) on one n <= 2, drawn apart or as f plus redundant pieces."""
    n, pieces = draw(_max_affine_cases())
    f = MaxAffine(n, pieces)
    if draw(st.booleans()):
        return f, MaxAffine(n, draw(_max_affine_cases(n))[1])
    # lowered convex combinations of f's pieces lie below f, so g equals f
    extra = []
    for _ in range(draw(st.integers(1, 3))):
        (a0, c0), (a1, c1) = (draw(st.sampled_from(f.pieces)) for _ in "01")
        lam = draw(st.sampled_from((F(1, 2), F(1, 3))))
        extra.append((tuple(lam * x + (1 - lam) * y for x, y in zip(a0, a1)),
                      lam * c0 + (1 - lam) * c1 - draw(st.integers(0, 1))))
    return f, MaxAffine(n, list(f.pieces) + extra)


@settings(max_examples=300)
@given(_comparison_pairs())
# single pieces; collinear gradients; a gradient off hull(grad g) (the
# march branch); equal functions, one with a redundant piece
@example((_ma(((1,), 0)), _ma(((0,), 0), ((2,), -1))))
@example((_ma(((0, 0), 0), ((1, 1), 0)), _ma(((0, 0), 0), ((2, 2), -3))))
@example((_ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0)),
          _ma(((0, 0), 0), ((1, 0), 0))))
@example((_ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0)),
          _ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((F(1, 3), F(1, 3)), -1))))
def test_le_witness_matches_lp_oracle(pair) -> None:
    f, g = pair
    fg, gf = oracles.lp_le_witness(f, g), oracles.lp_le_witness(g, f)
    for a, b, want in ((f, g, fg), (g, f, gf)):
        got = le_witness(a, b)
        assert (got is None) == (want is None)
        assert got is None or a(got) > b(got)
    relation = {(True, True): "eq", (True, False): "le", (False, True): "ge",
                (False, False): "incomparable"}[fg is None, gf is None]
    assert compare(f, g).relation == relation


def _pieces(n):
    """Pieces on R^n: as ``_max_affine_cases`` draws them for n = 1, 2,
    and as ``_p3_cases`` does, up to 5, for n = 3."""
    if n == 3:
        return _p3_cases(count=(1, 5))
    return _max_affine_cases(n).map(lambda case: case[1])


@st.composite
def _mix_cases(draw, n=None):
    """(f, g0, g1, lam) on n = 1, 2, or on the given n: g0, g1 apart; f
    apart or built from pieces of the mix h = lam*g0 + (1-lam)*g1, lowered
    or raised by a little."""
    if n is None:
        n, p0 = draw(_max_affine_cases())
    else:
        p0 = draw(_pieces(n))
    g0, g1 = MaxAffine(n, p0), MaxAffine(n, draw(_pieces(n)))
    lam = draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(3, 4), F(1))))
    if draw(st.booleans()):
        return MaxAffine(n, draw(_pieces(n))), g0, g1, lam
    mix = [(tuple(lam * x + (1 - lam) * y for x, y in zip(a0, a1)),
            lam * c0 + (1 - lam) * c1)
           for (a0, c0), (a1, c1) in zip(draw(st.permutations(g0.pieces)),
                                         draw(st.permutations(g1.pieces)))]
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        (a0, c0), (a1, c1) = (draw(st.sampled_from(mix)) for _ in "01")
        mu = draw(st.sampled_from((F(0), F(1, 2), F(1, 3))))
        bump = draw(st.sampled_from((F(0), F(0), F(-1, 12), F(1, 12))))
        pieces.append((tuple(mu * x + (1 - mu) * y for x, y in zip(a0, a1)),
                       mu * c0 + (1 - mu) * c1 + bump))
    return MaxAffine(n, pieces), g0, g1, lam


@settings(max_examples=300)
@given(_mix_cases())
# two non-parallel rank-1 summands: every facet of the mix is edge + edge
@example((_ma(((F(1, 2), F(1, 2)), F(1, 2))),
          _ma(((0, 0), 0), ((1, 0), 0)), _ma(((0, 0), 0), ((0, 1), 0)),
          F(1, 2)))
# ... on a tilted facet z = y1 - y2, just above it at (1/4, 1/4)
@example((_ma(((F(1, 4), F(1, 4)), F(1, 12))),
          _ma(((0, 0), 0), ((1, 0), 1)), _ma(((0, 0), 0), ((0, 1), -1)),
          F(1, 2)))
def test_mix_witness_matches_lp_oracle(case) -> None:
    f, g0, g1, lam = case
    h = g0.scaled(lam).plus(g1.scaled(1 - lam)) if 0 < lam < 1 else (
        g0 if lam == 1 else g1)
    got = mix_witness(f, g0, g1, lam)
    assert (got is None) == (oracles.lp_le_witness(f, h) is None)
    assert got is None or f(got) > h(got)


def _mix_witness_of_the_pruned_mix(f, g0, g1, lam):
    """mix_witness(f, g0, g1, lam), checked to be le_witness against the
    mix of prune(g0) and prune(g1) and to lie above lam*g0 + (1-lam)*g1."""
    got = mix_witness(f, g0, g1, lam)
    if 0 < lam < 1:
        mix = prune(g0).scaled(lam).plus(prune(g1).scaled(1 - lam))
    else:
        mix = prune(g0 if lam == 1 else g1)
    assert got == le_witness(f, mix)
    assert got is None or f(got) > lam * g0(got) + (1 - lam) * g1(got)
    return got


@settings(max_examples=300)
@given(_mix_cases())
@example((_ma(((F(1, 2), F(1, 2)), F(1, 2))),
          _ma(((0, 0), 0), ((1, 0), 0)), _ma(((0, 0), 0), ((0, 1), 0)),
          F(1, 2)))
@example((_ma(((F(1, 4), F(1, 4)), F(1, 12))),
          _ma(((0, 0), 0), ((1, 0), 1)), _ma(((0, 0), 0), ((0, 1), -1)),
          F(1, 2)))
def test_mix_witness_agrees_with_the_minkowski_slopes(case) -> None:
    # the route that read the mix's planes off the two hypographs' facets
    # and edge pairs finds a witness exactly when the pruned mix does
    got = _mix_witness_of_the_pruned_mix(*case)
    assert (got is None) == (oracles.mix_witness_minkowski(*case) is None)


@settings(max_examples=60)
@given(_mix_cases(3))
def test_mix_witness_on_p3_is_the_pruned_mix_witness(case) -> None:
    _mix_witness_of_the_pruned_mix(*case)


@pytest.mark.parametrize("lam", [F(-1, 2), F(3, 2)])
def test_mix_witness_refuses_a_weight_outside_0_1(lam) -> None:
    with pytest.raises(PLError, match=rf"mix weight {lam} outside \[0, 1\]"):
        mix_witness(REF, REF, REF.shifted(-1), lam)


def test_library_never_imports_the_lp() -> None:
    # comparison runs on the conjugate side; the LP is the test oracle
    # tests/linprog.py, and geonorm.linprog is only a name
    code = "\n".join((
        "import sys",
        "import geonorm, geonorm.cli, geonorm.segments, geonorm.suites",
        "from geonorm.plconvex import MaxAffine, compare",
        "from geonorm.segments import detect_non_psh, planted_non_psh_path",
        "f = MaxAffine(1, [((0,), 0), ((1,), 0)])",
        "assert compare(f, f.shifted(-1)).relation == 'ge'",
        "assert detect_non_psh(*planted_non_psh_path()) is not None",
        "assert 'geonorm.linprog' not in sys.modules, 'linprog imported'",
    ))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- conjugation -------------------------------------------------------------------


def test_conjugate_reference() -> None:
    prof = conjugate(REF)
    assert sorted(prof.domain_points()) == [(F(0),), (F(1),)]
    for y in (F(0), F(1, 3), F(1)):
        assert prof.value((y,)) == 0


def test_conjugate_peaked() -> None:
    prof = conjugate(PEAKED)
    expected = {F(0): F(0), F(1, 2): F(5, 2), F(1): F(5),
                F(3, 2): F(5, 2), F(2): F(0)}
    for y, q in expected.items():
        assert prof.value((y,)) == q


def test_conjugate_drops_sunk_piece() -> None:
    prof = conjugate(SUNK)
    for y in (F(0), F(1, 2), F(1), F(2)):
        assert prof.value((y,)) == 0


def test_conjugate_equals_concave_closure_random_1d() -> None:
    rng = random.Random(71)
    for _ in range(100):
        pieces = [((rng.randint(-3, 3),), rng.randint(-4, 4))
                  for _ in range(rng.randint(2, 6))]
        f = _ma(*pieces)
        prof = conjugate(f)
        pts = [(g[0], c) for g, c in f.pieces]
        xs = sorted(x for x, _ in pts)
        for _ in range(8):
            y = xs[0] + (xs[-1] - xs[0]) * F(rng.randint(0, 12), 12)
            assert prof.value((y,)) == oracles.concave_value_1d(pts, y)


def test_conjugate_equals_concave_closure_random_2d() -> None:
    rng = random.Random(73)
    done = 0
    while done < 60:
        pieces = [((rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-3, 3))
                  for _ in range(rng.randint(3, 6))]
        f = _ma(*pieces)
        grads = f.gradients()
        if len(set(grads)) < 3:
            continue
        done += 1
        prof = conjugate(f)
        pts = [(g, c) for g, c in f.pieces]
        for _ in range(6):
            # random barycenter of the gradients stays inside the domain
            ws = [F(rng.randint(0, 4)) for _ in grads]
            if sum(ws) == 0:
                continue
            tot = sum(ws)
            y = tuple(sum(w * g[i] for w, g in zip(ws, grads)) / tot
                      for i in range(2))
            assert prof.value(y) == oracles.concave_value_2d(pts, y)


def _lattice(level):
    """Gradients of a level-``level`` P^2 metric on O(1): Delta's a/level."""
    return [(F(i, level), F(j, level))
            for i in range(level + 1) for j in range(level + 1 - i)]


@st.composite
def _p2_pieces(draw):
    """Lifted points over P^2 lattice gradients at levels 1-6 (m <= 28):
    all of them, a random subset, or one lattice line plus one point off
    it; offsets random or on one plane, so that many points are coplanar."""
    grads = _lattice(draw(st.integers(1, 6)))
    shape = draw(st.sampled_from(("all", "subset", "line")))
    if shape == "subset":
        grads = draw(st.lists(st.sampled_from(grads), min_size=3,
                              max_size=len(grads), unique=True))
    elif shape == "line":
        a, b = draw(st.lists(st.sampled_from(grads), min_size=2, max_size=2,
                             unique=True))
        on = [g for g in grads if (b[0] - a[0]) * (g[1] - a[1])
              == (b[1] - a[1]) * (g[0] - a[0])]
        off = [g for g in grads if g not in on]
        grads = on + draw(st.lists(st.sampled_from(off), min_size=0,
                                   max_size=1)) if off else on
    w = draw(st.tuples(_COORD, _COORD))
    b = draw(_COORD)
    pieces = []
    for g in grads:
        if draw(st.booleans()):
            c = w[0] * g[0] + w[1] * g[1] + b - draw(st.sampled_from((0, 0, 1)))
        else:
            c = draw(_COORD)
        pieces.append((g, c))
    return pieces


@settings(max_examples=300)
@given(st.one_of(_max_affine_cases(), _p2_pieces().map(lambda p: (2, p))))
def test_pruned_profile_is_the_profile_of_the_pruned_function(case) -> None:
    # the profile pruning computes is the profile of what it returns: the
    # same vertices, the same cells on the same planes and the same
    # integral; only the order of the cells may differ (a piece on a facet
    # that is no vertex of it orders the facets and is pruned away)
    f = MaxAffine(*case)
    pruned, q = plconvex._pruned(f)
    assert pruned.pieces == prune(f).pieces and q == conjugate(f)
    again = conjugate(pruned)
    assert (again.n, again._den, again._verts) == (q.n, q._den, q._verts)
    assert (sorted(zip(again._cells, again._planes))
            == sorted(zip(q._cells, q._planes)))
    if q._cells:
        assert integrate_profile(again) == integrate_profile(q)


def _assert_conjugate_matches_triples(f) -> None:
    prof = conjugate(f)
    want = oracles.conjugate_2d_triples(list(f.pieces))
    if want is None:
        # gradients on one line: the one-dimensional chain, no cells
        assert prof.cells == ()
        return
    vertices, cells, planes = want
    assert prof.vertices == vertices
    assert tuple((c.vertices, c.grad, c.offset) for c in prof.cells) == cells
    assert prof.planes == planes


@settings(max_examples=150)
@given(_p2_pieces())
def test_conjugate_2d_matches_triple_oracle(pieces) -> None:
    _assert_conjugate_matches_triples(MaxAffine(2, pieces))


@pytest.mark.parametrize("pieces, ncells", [
    # one triangle
    ((((0, 0), 0), ((1, 0), 1), ((0, 1), 2)), 1),
    # a square whose two diagonals tie: one square cell
    ((((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), 0)), 1),
    # the tie broken: two triangles
    ((((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), -1)), 2),
    # collinear interior points on facet edges: (1, 0) on the boundary,
    # (1, 1) on the ridge x + y = 2 shared by the two facets
    ((((0, 0), 0), ((1, 0), 1), ((2, 0), 2), ((0, 2), 2), ((2, 2), 0),
      ((1, 1), 2)), 2),
    # the full level-6 lattice, every point on one plane
    ([(g, g[0] - 2 * g[1] + 1) for g in _lattice(6)], 1),
])
def test_conjugate_2d_explicit_cases(pieces, ncells) -> None:
    f = _ma(*pieces)
    assert len(conjugate(f).cells) == ncells
    _assert_conjugate_matches_triples(f)


@settings(max_examples=100)
@given(_p2_pieces())
def test_general_wrap_matches_the_planar_wrap(pieces) -> None:
    # on gradients spanning the plane, the upper wrap of d = 3 and the
    # wrap of every n give the profile of the inline planar wrap they
    # replaced, byte for byte
    f = MaxAffine(2, pieces)
    if len({g for g, _ in f.pieces}) < 3 or oracles.conjugate_2d_triples(
            list(f.pieces)) is None:
        return
    want = oracles.conjugate_2d_wrap(f._den, f._rows)
    assert plconvex._conjugate_wrap(2, f._den, f._rows, [0, 1]) == want
    assert conjugate(f) == want
    with mock.patch.object(plconvex, "_upper_wrap", plconvex._wrap):
        assert plconvex._conjugate_wrap(2, f._den, f._rows, [0, 1]) == want


def _views(prof):
    """A profile's public views as plain tuples, every entry a Fraction."""
    cells = tuple((c.vertices, c.grad, c.offset) for c in prof.cells)
    values = [x for p, v in prof.vertices for x in p + (v,)]
    values += [x for poly, g, c in cells for p in poly for x in p + g + (c,)]
    values += [x for g, c in prof.planes for x in g + (c,)]
    assert all(type(x) is F for x in values)
    return prof.vertices, cells, prof.planes


@settings(max_examples=200)
@given(_max_affine_cases())
# gradients on a slanted line, along each axis, and on a line of slope -1
@example((2, [((0, 0), 0), ((F(1, 2), F(1, 4)), 1), ((1, F(1, 2)), 0),
              ((2, 1), -3)]))
@example((2, [((1, 0), 2), ((0, 0), 0), ((2, 0), 1)]))
@example((2, [((0, 1), 2), ((0, 0), 0), ((0, -1), 1)]))
@example((2, [((1, -1), 2), ((0, 0), 0), ((-1, 1), 1), ((2, -2), 1)]))
def test_conjugate_matches_fraction_chain_and_triples(case) -> None:
    f = MaxAffine(*case)
    pieces = list(f.pieces)
    got = _views(conjugate(f))
    if len(pieces) == 1:
        zero = tuple(F(0) for _ in range(f.n))
        assert got == (tuple(pieces), (), ((zero, pieces[0][1]),))
    elif f.n == 1:
        assert got == oracles.conjugate_1d_chain(pieces)
    elif oracles.conjugate_2d_triples(pieces) is None:
        vertices, planes = oracles.conjugate_on_line(pieces)
        assert got == (vertices, (), planes)
    else:
        assert got == oracles.conjugate_2d_triples(pieces)


@settings(max_examples=120)
@given(_max_affine_cases())
def test_integrate_profile_matches_cell_oracle(case) -> None:
    f = MaxAffine(*case)
    prof = conjugate(f)
    if not prof.cells:
        with pytest.raises(PLError, match="no full-dimensional cells"):
            integrate_profile(prof)
        return
    assert integrate_profile(prof) == oracles.integrate_cells(
        _views(prof)[1], f.n)


_HALFPLANE = {n: st.tuples(st.tuples(*[_COORD] * n), st.integers(-1, 4).map(F)
                           | _COORD) for n in (1, 2)}


@st.composite
def _min_profile_cases(draw):
    """(planes, domain vertices, extra halfplanes, n): a simplex, a hull of
    random points, or (n = 2, no halfplanes) a segment or a point."""
    n = draw(st.sampled_from((1, 2)))
    planes = draw(st.lists(st.tuples(st.tuples(*[_COORD] * n), _COORD),
                           min_size=1, max_size=6))
    extra = draw(st.lists(_HALFPLANE[n], max_size=3))
    shape = draw(st.sampled_from(("simplex", "hull", "degenerate")))
    if n == 1:
        lo = draw(_COORD)
        width = draw(st.sampled_from((F(0), F(1, 2), F(1), F(3))))
        return planes, [(lo,), (lo + width,)], extra, 1
    if shape == "simplex":
        m = draw(st.sampled_from((F(1), F(2))))
        return planes, moment_simplex(2, m).vertices, extra, 2
    if shape == "hull":
        pts = draw(st.lists(st.tuples(_COORD, _COORD), min_size=3,
                            max_size=6))
        return planes, oracles._hull_ccw(pts), extra, 2
    p, d = draw(st.tuples(_COORD, _COORD)), draw(st.tuples(_COORD, _COORD))
    steps = draw(st.lists(st.sampled_from((F(0), F(1, 2), F(1), F(2))),
                          min_size=1, max_size=3, unique=True))
    return planes, [(p[0] + s * d[0], p[1] + s * d[1]) for s in steps], [], 2


@settings(max_examples=200)
@given(_min_profile_cases())
# a one-point interval, cut down from [0, 2]
@example(([((1,), 0), ((-1,), 1), ((F(1, 2),), 0)], [(0,), (2,)],
          [((1,), 1), ((-1,), -1)], 1))
# a segment and a point in the plane, and a square cut into triangles
@example(([((1, 0), 0), ((0, 1), 0), ((0, 0), F(1, 3))],
          [(1, 0), (F(1, 2), F(1, 2)), (0, 1)], [], 2))
@example(([((1, 0), 0), ((0, 1), 1)], [(1, 0)], [], 2))
@example(([((1, 0), 0), ((0, 1), 0), ((1, 1), -1), ((0, 0), 1)],
          [(0, 0), (2, 0), (2, 2), (0, 2)], [((1, 1), 3)], 2))
def test_min_profile_matches_fraction_oracle(case) -> None:
    planes, domain, extra, n = case
    try:
        want = oracles.min_profile_fraction(planes, domain, extra, n)
    except oracles.EmptyDomain:
        with pytest.raises(EnvelopeError, match="empty domain"):
            oracles.min_profile(planes, domain, extra, n)
        return
    got = oracles.min_profile(planes, domain, extra, n)
    assert _views(got) == want
    if want[1]:
        assert integrate_profile(got) == oracles.integrate_cells(want[1], n)


@st.composite
def _envelope_cases(draw):
    """Two functions with gradients among the level-2 points of m Delta."""
    n = draw(st.sampled_from((1, 2)))
    m = draw(st.sampled_from((1, 2)))
    grads = [g for g in _lattice(2 * m) if n == 2] or [
        (F(i, 2),) for i in range(2 * m + 1)]
    funcs = []
    for _ in range(2):
        chosen = draw(st.lists(st.sampled_from(grads), min_size=n + 1,
                               max_size=len(grads), unique=True))
        funcs.append(MaxAffine(n, [(g, draw(_COORD)) for g in chosen]))
    return funcs, moment_simplex(n, m)


@settings(max_examples=120)
@given(_envelope_cases())
def test_envelope_matches_fraction_oracle(case) -> None:
    funcs, P = case
    q0, q1 = (conjugate(f) for f in funcs)
    hrep = list(P.hrep) + domain_hrep(q0) + domain_hrep(q1)
    try:
        vertices, _, _ = oracles.min_profile_fraction(
            q0.planes + q1.planes, P.vertices, hrep, P.n)
    except oracles.EmptyDomain:
        with pytest.raises(EnvelopeError, match="empty domain"):
            envelope_constrained(funcs, P)
        return
    assert (envelope_constrained(funcs, P).pieces
            == MaxAffine(P.n, vertices).pieces)


_SIMPLEX_P3 = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@st.composite
def _envelope_cases_p3(draw):
    """Two functions on R^3 with 4 to 6 gradients among the integer points
    of m Delta, m = 1 or 2, and m Delta."""
    m = draw(st.sampled_from((1, 2)))
    grads = [tuple(F(x) for x in a) for a in lattice_points(3, m)]
    funcs = []
    for _ in range(2):
        chosen = draw(st.lists(st.sampled_from(grads), min_size=4,
                               max_size=6, unique=True))
        funcs.append(MaxAffine(3, [(g, draw(_COORD)) for g in chosen]))
    return funcs, moment_simplex(3, m)


@settings(max_examples=40)
@given(_envelope_cases_p3())
# gradient hulls that share a facet, an edge or a vertex (flat regions)
# and that are disjoint
@example(([_ma(*[(g, 0) for g in _SIMPLEX_P3]),
           _ma(((1, 0, 0), 1), ((0, 1, 0), 0), ((0, 0, 1), 0),
               ((1, 1, 1), 0))], moment_simplex(3, 2)))
@example(([_ma(*[(g, 0) for g in _SIMPLEX_P3]),
           _ma(((1, 0, 0), 1), ((0, 1, 0), 0), ((1, 1, 0), 0),
               ((F(1, 2), F(1, 2), F(1, 2)), 0))], moment_simplex(3, 2)))
@example(([_ma(*[(g, 0) for g in _SIMPLEX_P3]),
           _ma(((1, 0, 0), 1), ((2, 0, 0), 0), ((1, 1, 0), 0),
               ((1, 0, 1), 0))], moment_simplex(3, 2)))
@example(([_ma(*[(g, 0) for g in _SIMPLEX_P3]),
           _ma(((2, 0, 0), 1), ((0, 2, 0), 0), ((0, 0, 2), 0),
               ((1, 1, 0), 0))], moment_simplex(3, 2)))
def test_p3_envelope_matches_vertex_oracle(case) -> None:
    funcs, P = case
    q0, q1 = (conjugate(f) for f in funcs)
    vertices = oracles.hypograph_vertices(
        q0.planes + q1.planes,
        list(P.hrep) + domain_hrep(q0) + domain_hrep(q1))
    ys = [y for y, _ in vertices]
    if not ys or oracles.rank([tuple(a - b for a, b in zip(y, ys[0]))
                               for y in ys]) < 3:
        with pytest.raises(EnvelopeError, match="empty domain"):
            envelope_constrained(funcs, P)
        return
    assert (envelope_constrained(funcs, P).pieces
            == MaxAffine(3, vertices).pieces)


@settings(max_examples=100)
@given(st.sampled_from((1, 2)).flatmap(lambda nv: st.tuples(
    st.just(nv), st.lists(st.tuples(st.tuples(*[_COORD] * (nv + 1)), _COORD),
                          min_size=1, max_size=5))), _COORD)
# v-gradients on one line: the pruned marginal has a rank-1 conjugate
@example((2, [((1, 0, 0), 0), ((0, 1, 1), 0), ((-1, 2, 2), 1)]), F(1, 2))
@example((1, [((1, 0), 0), ((0, 1), 0)]), F(1))
def test_marginal_min_matches_fm_oracle(case, tau) -> None:
    nv, pieces = case
    joint = MaxAffine(nv + 1, pieces)
    assert (marginal_min(joint, tau).pieces
            == oracles.marginal_min_fm(nv, list(joint.pieces), tau))


@settings(max_examples=150)
@given(_comparison_pairs())
@example((_ma(((1,), 0)), _ma(((0,), 0), ((2,), -1))))
@example((_ma(((0, 0), 0), ((1, 1), 0)), _ma(((0, 0), 0), ((2, 2), -3))))
@example((_ma(((0, 0), 0), ((2, 0), 0), ((0, 2), 0)),
          _ma(((0, 0), 0), ((1, 0), 0))))
# pieces above a point where two planes of the profile meet
@example((_ma(((1,), 2)), _ma(((0,), 0), ((1,), 1), ((2,), 0))))
@example((_ma(((1, 0), 1)),
          _ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 1), -1))))
def test_le_witness_is_the_fraction_walk(pair) -> None:
    # the first active plane, or the first outward normal of g's domain
    f, g = pair
    q = conjugate(g)
    assert le_witness(f, g) == oracles.walk_fraction(
        f.pieces, g, q.planes, domain_hrep(q))


@settings(max_examples=100)
@given(_max_affine_cases(), _COORD)
def test_profile_of_a_shift_is_the_shifted_profile(case, c) -> None:
    f = MaxAffine(*case)
    assert conjugate(f.shifted(c)) == conjugate(f).shifted(c)


def test_equality_stops_at_the_first_failing_direction(conjugated) -> None:
    lower = REF.shifted(-1)
    assert not REF == lower       # REF <= lower fails: lower is never tested
    assert conjugated == [lower]
    conjugated.clear()
    assert REF == _ma(((1,), 0), ((0,), 0))
    assert len(conjugated) == 2


def test_biconjugation_random() -> None:
    rng = random.Random(79)
    for trial in range(200):
        n = 1 if trial % 5 < 3 else 2
        pieces = [(tuple(rng.randint(-3, 3) for _ in range(n)),
                   rng.randint(-4, 4))
                  for _ in range(rng.randint(1, 8))]
        f = _ma(*pieces)
        assert conjugate(f).to_max_affine() == f


# -- constrained envelopes -----------------------------------------------------------


def test_envelope_identity_on_convex_input() -> None:
    P = moment_simplex(1, 2)
    assert envelope_constrained([PEAKED], P) == PEAKED


def test_envelope_comparable_pair() -> None:
    lower = _ma(((0,), 0), ((1,), -2))
    env = envelope_constrained([REF, lower], moment_simplex(1, 1))
    assert env == lower


def test_envelope_vee_pair_collapses() -> None:
    # min of the two one-sided kinks admits only constants below it
    left = _ma(((0,), 0), ((-1,), 0))
    env = envelope_constrained([REF, left], moment_simplex(1, 1))
    assert env == _ma(((0,), 0))


def test_envelope_rooftop() -> None:
    # conjugates: q0 = 1-2y and q1 = 0 on [0,1]; their min has a breakpoint
    # at y = 1/2, so the envelope picks up a middle piece of slope 1/2
    shifted = _ma(((0,), 1), ((1,), -1))     # max(1, v-1)
    env = envelope_constrained([shifted, REF], moment_simplex(1, 1))
    assert env == _ma(((0,), 0), ((F(1, 2),), 0), ((1,), -1))


def test_envelope_matches_grid_oracle() -> None:
    shifted = _ma(((0,), 1), ((1,), -1))
    env = envelope_constrained([shifted, REF], moment_simplex(1, 1))

    def f(x):
        return min(shifted((x,)), REF((x,)))

    for k in range(-8, 9):
        v = F(k, 2)
        assert env((v,)) == oracles.grid_envelope_1d(f, 0, 1, v)


def test_envelope_monotone_and_idempotent_random() -> None:
    rng = random.Random(83)
    P = moment_simplex(1, 2)
    for _ in range(40):
        # a shared gradient keeps the admissible slope set nonempty
        fs = [_ma(((1,), rng.randint(-3, 3)),
                  *[((rng.randint(0, 2),), rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 3))])
              for _ in range(2)]
        env = envelope_constrained(fs, P)
        for f in fs:
            assert compare(env, f).relation in ("le", "eq")
        again = envelope_constrained([env], P)
        assert again == env
        # lifting one input can only raise the envelope
        raised = envelope_constrained([fs[0].shifted(2), fs[1]], P)
        assert compare(env, raised).relation in ("le", "eq")


# -- marginal minimization --------------------------------------------------------------


def test_marginal_constant_in_t() -> None:
    joint = _ma(((0, 0), 0), ((0, 1), 0))
    assert marginal_min(joint, 0) == REF


def test_marginal_worked_example() -> None:
    joint = _ma(((1, 0), 0), ((0, 1), 0))     # max(t, v)
    assert marginal_min(joint, 1) == _ma(((0,), 0), ((1,), -1))
    assert marginal_min(joint, 0) == REF


def test_marginal_below_every_slice() -> None:
    rng = random.Random(89)
    for _ in range(30):
        pieces = [((rng.randint(-2, 2), rng.randint(-2, 2)),
                   rng.randint(-3, 3)) for _ in range(rng.randint(2, 5))]
        joint = _ma(*pieces)
        tau = F(rng.randint(-2, 2))
        marg = marginal_min(joint, tau)
        for t in (F(0), F(1, 2), F(1)):
            slice_t = fix_first(joint, t).shifted(-tau * t)
            assert compare(marg, slice_t).relation in ("le", "eq")


def test_marginal_matches_candidate_oracle() -> None:
    rng = random.Random(97)
    for _ in range(40):
        nv = rng.randint(1, 2)
        pieces = [(tuple(rng.randint(-2, 2) for _ in range(nv + 1)),
                   rng.randint(-3, 3)) for _ in range(rng.randint(2, 5))]
        joint = _ma(*pieces)
        tau = F(rng.randint(-2, 2))
        marg = marginal_min(joint, tau)
        oracle_pieces = [(g[0], g[1:], c) for g, c in joint.pieces]
        for _ in range(10):
            v = tuple(F(rng.randint(-6, 6), rng.randint(1, 2))
                      for _ in range(nv))
            assert marg(v) == oracles.min_over_t(oracle_pieces, v, tau)


# -- integration --------------------------------------------------------------------------


def test_integrate_profile_examples() -> None:
    assert integrate_profile(conjugate(REF)) == 0
    # envelope through (0,0), (1,2): q = 2y on [0,1]
    ramp = conjugate(_ma(((0,), 0), ((1,), 2)))
    assert integrate_profile(ramp) == 1
    # tent q = min(5y, 10-5y) on [0,2]
    assert integrate_profile(conjugate(PEAKED)) == 5


def test_integrate_difference_1d() -> None:
    zero = conjugate(REF)
    ramp = conjugate(_ma(((0,), 0), ((1,), 2)))
    assert oracles.integrate_difference(zero, ramp) == -1
    assert oracles.integrate_difference(ramp, zero) == 1
    assert integrate_abs_difference(zero, ramp) == 1
    assert integrate_abs_difference(zero, ramp, 2) == F(4, 3)
    assert max_abs_difference(zero, ramp) == 2


def test_integrate_abs_difference_sign_split() -> None:
    up = conjugate(_ma(((0,), 0), ((1,), 1)))        # q = y on [0,1]
    down = conjugate(_ma(((0,), 1), ((1,), 0)))      # q = 1-y on [0,1]
    assert oracles.integrate_difference(up, down) == 0
    assert integrate_abs_difference(up, down) == F(1, 2)
    assert integrate_abs_difference(up, down, 2) == F(1, 3)
    assert oracles.abs_power_integral_1d(-1, 2, 0, 1, 1) == F(1, 2)
    assert max_abs_difference(up, down) == 1


def test_integrate_difference_2d() -> None:
    flat = conjugate(_ma(((0, 0), 0), ((1, 0), 0), ((0, 1), 0)))
    tilted = conjugate(_ma(((0, 0), 0), ((1, 0), 1), ((0, 1), 1)))
    assert integrate_profile(flat) == 0
    assert oracles.integrate_difference(tilted, flat) == F(1, 3)
    tris = [((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))]
    assert oracles.triangles_integral(tris, lambda p: p[0] + p[1]) == F(1, 3)
    assert max_abs_difference(tilted, flat) == 1


# -- the LP primitive ------------------------------------------------------------------------


def test_minimize_max_affine_optimal() -> None:
    res = minimize_max_affine(1, [((F(1),), F(0)), ((F(-1),), F(0))])
    assert res.status == "optimal"
    assert res.value == 0
    assert res.point == (F(0),)


def test_minimize_max_affine_unbounded() -> None:
    res = minimize_max_affine(1, [((F(1),), F(3))])
    assert res.status == "unbounded"
    g, c = F(1), F(3)
    start = g * res.point[0] + c
    stepped = g * (res.point[0] + res.ray[0]) + c
    assert stepped < start
