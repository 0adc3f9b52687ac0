"""The ``(den, numerators)`` form: its one reader and its one reducer, and
every layer boundary that hands it on instead of ``Fraction``s.

``field.cleared`` and ``field.lowest_terms`` are checked against
``Fraction`` arithmetic: each numerator over den is the rational it stands
for, and den shares no factor with every numerator, which makes den the
lcm of the denominators and the form unique.  Each boundary is checked
against its old ``Fraction`` route in ``tests/oracles.py`` on ``_den`` and
``_nums``, not only on ``==``.
"""

from fractions import Fraction as F
from math import gcd, lcm

from hypothesis import example, given, settings, strategies as st

import oracles
from geonorm.field import TADIC, TRIVIAL, cleared, lowest_terms
from geonorm.graded import GradedNorm, SectionRing, generate_degree_one
from geonorm.norms import DiagNorm
from geonorm.toric import fs_from_norm, section_ring, sup_graded, supnorm

# large coprime denominators next to small shared ones
_DENOMINATORS = st.sampled_from((1, 2, 3, 4, 6, 12, 10 ** 9 + 7, 2 ** 61 - 1,
                                 (10 ** 9 + 7) * 6))
_RATIONALS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.builds(F, st.integers(-10 ** 12, 10 ** 12), _DENOMINATORS))
_ROWS = st.lists(st.lists(_RATIONALS, max_size=5), min_size=1, max_size=3)


def _assert_form(den, rows, values):
    """``(den, rows)`` is ``values`` in lowest terms: tuples of ints, each
    over den the rational it stands for, den > 0 sharing no factor with
    every numerator."""
    assert type(den) is int and den > 0
    assert [len(r) for r in rows] == [len(v) for v in values]
    for row, vals in zip(rows, values):
        assert type(row) is tuple and all(type(x) is int for x in row)
        assert [F(x, den) for x in row] == [F(v) for v in vals]
    assert gcd(den, *[x for r in rows for x in r]) == 1


@settings(max_examples=200, deadline=None)
@given(_ROWS)
@example([[0]])
@example([[0, 0], []])
@example([[-5]])
@example([[F(1, 2)], [F(-1, 2)]])
@example([[F(1, 10 ** 9 + 7), F(1, 2 ** 61 - 1)]])
def test_cleared_reads_rows_over_the_lcm_of_their_denominators(rows) -> None:
    den, *nums = cleared(*rows)
    _assert_form(den, nums, rows)
    assert den == lcm(*[F(x).denominator for r in rows for x in r])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 6).flatmap(lambda g: st.tuples(
    st.just(g), _DENOMINATORS,
    st.lists(st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=5),
             min_size=1, max_size=3))))
@example((1, 1, [[0]]))
@example((6, 1, [[0, 0], []]))
@example((4, 3, [[-2]]))
@example((1, 10 ** 9 + 7, [[5, -7]]))
@example((2 ** 61 - 1, 10 ** 9 + 7, [[3]]))
def test_lowest_terms_divides_by_the_gcd(case) -> None:
    # rows over g * d with a common factor g planted in every entry
    g, d, rows = case
    den, rows = g * d, [tuple(g * x for x in r) for r in rows]
    values = [[F(x, den) for x in r] for r in rows]
    got_den, *got = lowest_terms(den, *rows)
    _assert_form(got_den, got, values)
    if gcd(den, *[x for r in rows for x in r]) == 1:
        assert all(a is b for a, b in zip(got, rows))


# -- boundaries ------------------------------------------------------------


@st.composite
def _fs_metrics(draw):
    """An FS metric on P^1 (m <= 2, level <= 3) or P^2 (m = 1, level <= 2)
    with weights over denominators 1, 2, 3, 4 and 6."""
    n, m, level = draw(st.sampled_from(
        [(1, m, lv) for m in (1, 2) for lv in (1, 2, 3)]
        + [(2, 1, 1), (2, 1, 2)]))
    ring = section_ring(n, m)
    basis = ring.basis(level)
    weight = st.builds(F, st.integers(-12, 12),
                       st.sampled_from((1, 2, 3, 4, 6)))
    w = draw(st.lists(weight, min_size=len(basis), max_size=len(basis)))
    return fs_from_norm(ring, level, dict(zip(basis, w)))


def _assert_same_norm(got, want):
    assert (got._den, got._nums) == (want._den, want._nums)
    assert type(got._nums) is tuple
    assert got.is_standard_basis() and got == want
    _assert_form(got._den, [got._nums], [want.weights])


def _assert_same_graded(got, want):
    assert got.kmax == want.kmax and got.ring == want.ring
    assert (got._den, got._nums) == (want._den, want._nums)
    assert got == want
    _assert_form(got._den, got._nums, [
        [want.weight(k, a) for a in want.ring.basis(k)]
        for k in range(1, want.kmax + 1)])


@settings(max_examples=60, deadline=None)
@given(_fs_metrics(), st.integers(1, 4))
def test_supnorm_matches_the_fraction_route(phi, k) -> None:
    _assert_same_norm(supnorm(k, phi), oracles.supnorm_fractions(k, phi))


@settings(max_examples=40, deadline=None)
@given(_fs_metrics(), st.integers(1, 3))
def test_sup_graded_and_norm_at_match_the_fraction_routes(phi, kmax) -> None:
    gn = sup_graded(phi, kmax)
    _assert_same_graded(gn, oracles.sup_graded_fractions(phi, kmax))
    for k in range(1, kmax + 1):
        _assert_same_norm(gn.norm_at(k), oracles.norm_at_fractions(gn, k))


_WEIGHT = st.builds(F, st.integers(-20, 20), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def _degree_one_norms(draw):
    """(ring, a standard-basis norm on ring.basis(1), kmax)."""
    n, m = draw(st.sampled_from(((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))))
    ring = SectionRing(n, m)
    w = draw(st.lists(_WEIGHT, min_size=ring.h0(1), max_size=ring.h0(1)))
    return ring, DiagNorm.standard(TRIVIAL, w), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(_degree_one_norms())
def test_generate_degree_one_on_a_norm_matches_the_fraction_route(
        case) -> None:
    ring, norm, kmax = case
    gn = generate_degree_one(ring, norm, kmax)
    _assert_same_graded(gn, oracles.generate_degree_one(ring, norm, kmax))
    for k in range(1, kmax + 1):
        _assert_same_norm(gn.norm_at(k), oracles.norm_at_fractions(gn, k))


@st.composite
def _graded_json(draw):
    """A graded norm's JSON whose degrees write the identity basis in other
    forms than ``{"q": "1"}`` and ``{"q": "0"}``, so each degree is read
    through a norm, over Q or over Q(t)."""
    n, m = draw(st.sampled_from(((1, 1), (1, 2), (2, 1))))
    ring = SectionRing(n, m)
    one = st.sampled_from(("2/2", "1.0", "+1", "1e0"))
    zero = st.sampled_from(("0", "-0", "0/7", "0.0"))
    degrees = {}
    for k in range(1, draw(st.integers(1, 3)) + 1):
        h0 = ring.h0(k)
        weights = draw(st.lists(_WEIGHT, min_size=h0, max_size=h0))
        if draw(st.booleans()):
            obj = DiagNorm.standard(TADIC, weights).to_json()
        else:
            obj = DiagNorm.standard(TRIVIAL, weights).to_json()
            obj["basis"] = [[{"q": draw(one if i == j else zero)}
                             for j in range(h0)] for i in range(h0)]
        degrees[str(k)] = obj
    return {"ring": {"n": n, "m": m}, "degrees": degrees}


@settings(max_examples=60, deadline=None)
@given(_graded_json())
def test_graded_from_json_matches_the_fraction_route(obj) -> None:
    _assert_same_graded(GradedNorm.from_json(obj),
                        oracles.graded_from_json_fractions(obj))
