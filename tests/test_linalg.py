"""Exact linear algebra over the scalar backends."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from geonorm import linalg, plconvex
from geonorm.field import TADIC, TRIVIAL, RatFunc


def mat_mul(A, B):
    """Matrix product through the field operations of the entries."""
    return tuple(tuple(linalg._dot(row, col) for col in zip(*B)) for row in A)


def _rand_matrix(rng, d):
    return [[Fraction(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)]


def _perm_det(A):
    # Leibniz expansion; fine for d <= 4
    d = len(A)
    total = Fraction(0)
    for perm in itertools.permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(d):
            prod *= A[i][perm[i]]
        total += sign * prod
    return total


def test_rank_against_oracle_random() -> None:
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(rng.randint(1, 5))]
        assert len(linalg.rref(rows)[0]) == oracles.rank(rows)


def test_determinant_against_leibniz_random() -> None:
    rng = random.Random(5)
    for _ in range(100):
        A = _rand_matrix(rng, rng.randint(1, 4))
        assert linalg.determinant(A) == _perm_det(A)


def test_determinant_tadic() -> None:
    t = RatFunc.t_power
    A = [[t(1), TADIC.zero], [TADIC.one, t(-2)]]
    assert linalg.determinant(A) == t(-1)
    assert TADIC.valuation(linalg.determinant(A)) == -1


def test_invert_round_trip_random() -> None:
    rng = random.Random(9)
    seen = 0
    while seen < 50:
        A = _rand_matrix(rng, rng.randint(1, 4))
        try:
            inv = oracles.row_values(TRIVIAL, linalg.inverse_rows(TRIVIAL, A))
        except linalg.SingularMatrixError:
            continue
        seen += 1
        d = len(A)
        assert mat_mul(A, inv) == linalg.identity(TRIVIAL, d)


def test_invert_singular_raises() -> None:
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse_rows(TRIVIAL, [[Fraction(1), Fraction(2)],
                                      [Fraction(2), Fraction(4)]])


def test_solve_rows() -> None:
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    b = (Fraction(3), Fraction(2))
    x = linalg.solve_rows(TRIVIAL, linalg.inverse_rows(TRIVIAL, A), b)
    assert x == (Fraction(1), Fraction(1))
    assert tuple(linalg.mat_vec(A, x)) == b


# -- the integer Q path against the field-arithmetic slow paths ----------------

_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
)


@st.composite
def _matrices(draw, nrows=None, ncols=None):
    """Fraction matrices up to 6 x 6, with planted zero, duplicate and
    dependent rows: tall, wide, square and singular shapes."""
    nrows = nrows or draw(st.integers(1, 6))
    ncols = ncols or draw(st.integers(1, 6))
    rows = [tuple(draw(_ENTRY) for _ in range(ncols)) for _ in range(nrows)]
    plants = st.sampled_from(("zero", "duplicate", "multiple", "sum"))
    for plant in draw(st.lists(plants, max_size=3)):
        i = draw(st.integers(0, nrows - 1))
        a, b = rows[draw(st.integers(0, nrows - 1))], rows[i - 1]
        c = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)))
        rows[i] = {
            "zero": (Fraction(0),) * ncols,
            "duplicate": a,
            "multiple": tuple(c * x for x in a),
            "sum": tuple(x + c * y for x, y in zip(a, b)),
        }[plant]
    return rows


_LINALG = settings(max_examples=200)


@_LINALG
@given(_matrices())
def test_rref_matches_field_oracle(rows) -> None:
    got = linalg.rref(rows)
    assert got == oracles.rref_field(rows)
    assert all(type(x) is Fraction for row in got[0] for x in row)


@st.composite
def _square(draw):
    d = draw(st.integers(1, 6))
    return draw(_matrices(nrows=d, ncols=d))


@_LINALG
@given(_square())
def test_invert_and_determinant_match_field_oracle(A) -> None:
    det = linalg.determinant(A)
    assert det == oracles.determinant_field(A)
    assert type(det) is Fraction
    inv = oracles.invert_field(A)
    if inv is None:
        assert det == 0
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse_rows(TRIVIAL, A)
    else:
        assert oracles.row_values(TRIVIAL,
                                  linalg.inverse_rows(TRIVIAL, A)) == inv


# -- the integer-polynomial Q(t) path against the field loop --------------------

_T = RatFunc.t_power
_COEFF = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
# non-monomial denominators: 1 + t, 1 + t^2, 2 - t
_NON_MONOMIAL = st.builds(
    RatFunc,
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from(((1, 1), (1, 0, 1), (2, -1))),
)
_QT_ENTRY = st.one_of(
    st.just(TADIC.zero),
    st.builds(lambda c, k: RatFunc.of(c) * _T(k), _COEFF, st.integers(-2, 2)),
    st.builds(lambda f, k: f * _T(k), _NON_MONOMIAL, st.integers(-2, 2)),
)


@st.composite
def _qt_matrices(draw, nrows=None, ncols=None):
    """Q(t) matrices up to 4 x 4: entries c t^k with k in [-2, 2] and
    entries over 1 + t, 1 + t^2 or 2 - t, with planted zero, duplicate,
    multiple and sum rows: tall, wide, square and singular shapes."""
    nrows = nrows or draw(st.integers(1, 4))
    ncols = ncols or draw(st.integers(1, 4))
    rows = [tuple(draw(_QT_ENTRY) for _ in range(ncols)) for _ in range(nrows)]
    plants = st.sampled_from(("zero", "duplicate", "multiple", "sum"))
    for plant in draw(st.lists(plants, max_size=3)):
        i = draw(st.integers(0, nrows - 1))
        a, b = rows[draw(st.integers(0, nrows - 1))], rows[i - 1]
        c = draw(_QT_ENTRY.filter(bool))
        rows[i] = {
            "zero": (TADIC.zero,) * ncols,
            "duplicate": a,
            "multiple": tuple(c * x for x in a),
            "sum": tuple(x + c * y for x, y in zip(a, b)),
        }[plant]
    return rows


def _canonical(x):
    return type(x) is RatFunc and \
        (x.num, x.den) == oracles.reduced_ratfunc(x.num, x.den)


@_LINALG
@given(_qt_matrices())
def test_rref_over_qt_matches_field_oracle(rows) -> None:
    got = linalg.rref(rows)
    assert got == oracles.rref_field(rows)
    assert all(_canonical(x) for row in got[0] for x in row)


@st.composite
def _qt_square(draw):
    d = draw(st.integers(1, 4))
    return draw(_qt_matrices(nrows=d, ncols=d))


@_LINALG
@given(_qt_square())
def test_invert_and_determinant_over_qt_match_field_oracle(A) -> None:
    det = linalg.determinant(A)
    assert det == oracles.determinant_field(A)
    assert _canonical(det)
    inv = oracles.invert_field(A)
    if inv is None:
        assert not det
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse_rows(TADIC, A)
    else:
        got = oracles.row_values(TADIC, linalg.inverse_rows(TADIC, A))
        assert got == inv
        assert all(_canonical(x) for row in got for x in row)
        assert mat_mul(A, got) == linalg.identity(TADIC, len(A))


def test_poly_cleared_takes_the_least_common_denominator() -> None:
    assert linalg._poly_cleared([Fraction(1, 2), Fraction(1, 4)]) == (
        (4,), [(2,), (1,)])


@_LINALG
@given(_qt_square(), st.data())
def test_coordinate_orders_match_valuations(A, data) -> None:
    # any matrix, its rows cleared to (den, numerators) over Z[t], stands
    # for an inverse; so do the identity (None) and, when A is invertible,
    # the rows inverse_rows reads off the elimination, whose coordinates
    # solve_rows builds as field elements
    d = len(A)
    vectors = data.draw(_qt_matrices(nrows=3, ncols=d))
    cases = [([linalg._poly_cleared(row) for row in A], A), (None, None)]
    inv = oracles.invert_field(A)
    if inv is not None:
        cases.append((linalg.inverse_rows(TADIC, A), inv))
    for rows, field_rows in cases:
        want = [
            tuple(map(TADIC.valuation,
                      v if field_rows is None
                      else linalg.mat_vec(field_rows, v)))
            for v in vectors
        ]
        cleared = [linalg._poly_cleared(v) for v in vectors]
        assert linalg.coordinate_orders(rows, cleared) == want
    if inv is not None:
        rows = cases[-1][0]
        for v in vectors:
            assert (linalg.solve_rows(TADIC, rows, v)
                    == linalg.mat_vec(inv, v))


# -- the Smith kernel against the loop that eliminated [M0 | M1] ---------------

_SMITH_ENTRY = {
    TRIVIAL: st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 12))),
    TADIC: _QT_ENTRY,
}
# rational offsets over both fields, the full weights of the columns
_OFFSET = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4)))


@st.composite
def _smith_inputs(draw, field):
    """Square M0 (invertible) and M1 (perhaps singular) over ``field``, of
    dimension 1 to 4, and one rational offset per column of each."""
    d = draw(st.integers(1, 4))
    entry = _SMITH_ENTRY[field]
    M0, M1 = ([tuple(draw(entry) for _ in range(d)) for _ in range(d)]
              for _ in range(2))
    assume(oracles.invert_field(M0) is not None)
    a, b = (tuple(draw(_OFFSET) for _ in range(d)) for _ in range(2))
    return M0, M1, a, b


def _columns(field, M):
    """The columns of M as ``(den, numerators)`` pairs."""
    return [linalg.ring(field).clear(col) for col in zip(*M)]


def _smith_values(field, M0, M1, a, b):
    """``linalg.smith`` on the matrices and rational offsets, handed over
    as integer numerators over their common denominator: C as field
    vectors, P as field rows, w0 and w1 as rationals."""
    den = math.lcm(*(x.denominator for x in (*a, *b)))
    C, P, w0, w1 = linalg.smith(field, linalg.inverse_rows(field, M0),
                                _columns(field, M0), _columns(field, M1),
                                [int(x * den) for x in a],
                                [int(x * den) for x in b], den)
    return (oracles.row_values(field, C), oracles.row_values(field, P),
            *(tuple(Fraction(x, den) for x in w) for w in (w0, w1)))


@pytest.mark.parametrize("field", [TRIVIAL, TADIC], ids=["Q", "Q(t)"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_smith_matches_eliminating_oracle(field, data) -> None:
    # the common basis, P, and both weight lists, entry for entry; a
    # singular M1 fails on both sides
    M0, M1, a, b = data.draw(_smith_inputs(field))
    try:
        C, P, w0, w1 = oracles.smith_eliminating(M0, M1, a, b)
    except linalg.SingularMatrixError:
        assert oracles.invert_field(M1) is None
        with pytest.raises(linalg.SingularMatrixError):
            _smith_values(field, M0, M1, a, b)
        return
    assert _smith_values(field, M0, M1, a, b) == (
        C, oracles.row_values(field, P), w0, w1)


# -- no elimination runs in the field ------------------------------------------

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def _random_qt(rng, nrows, ncols):
    t = RatFunc.t_power
    entries = (TADIC.zero, t(-1), t(2), RatFunc((1, 1), (2, -1)),
               RatFunc((3,), (1, 0, 1)), RatFunc.of(Fraction(-2, 3)) * t(1))
    return [tuple(rng.choice(entries) for _ in range(ncols))
            for _ in range(nrows)]


def test_elimination_runs_no_field_arithmetic(monkeypatch) -> None:
    rng = random.Random(23)
    rational = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(ncols)] for _ in range(nrows)]
                for nrows, ncols in ((1, 1), (3, 5), (5, 3), (4, 4), (6, 6))]
    rational.append([[Fraction(0)] * 3] * 2)
    poly = [_random_qt(rng, nrows, ncols)
            for nrows, ncols in ((1, 1), (2, 4), (4, 2), (3, 3), (4, 4))]
    pairs = [(_random_qt(rng, d, d), _random_qt(rng, d, d))
             for d in (1, 2, 3, 3, 4)]
    calls = []
    for cls in (Fraction, RatFunc):
        for name in _ARITHMETIC:
            def counted(*args, _real=getattr(cls, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(cls, name, counted)

    for field, matrices in ((TRIVIAL, rational), (TADIC, poly)):
        for A in matrices:
            linalg.rref(A)
            if len(A) == len(A[0]):
                try:
                    linalg.inverse_rows(field, A)
                except linalg.SingularMatrixError:
                    pass
    for M0, M1 in pairs:
        zeros = (0,) * len(M0)
        try:
            linalg.smith(TADIC, linalg.inverse_rows(TADIC, M0),
                         _columns(TADIC, M0), _columns(TADIC, M1),
                         zeros, zeros, 1)
        except linalg.SingularMatrixError:
            pass
    monkeypatch.undo()
    assert calls == []


def test_inverse_rows_build_no_field_elements(monkeypatch) -> None:
    # an inverse in row form is read off the elimination, composed by
    # mul_rows, kron_rows and times_t_powers and read by coordinate_orders on
    # integers and Z[t] polynomials only
    rng = random.Random(29)
    rational = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(d)] for _ in range(d)] for d in (1, 2, 3, 4)]
    poly = [_random_qt(rng, d, d) for d in (1, 2, 3, 3, 4)]
    built = []
    real_new, real_init = Fraction.__new__, RatFunc.__init__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw:
                        built.append(cls) or real_new(cls, *args, **kw))
    monkeypatch.setattr(RatFunc, "__init__", lambda self, *args, **kw:
                        built.append(RatFunc) or real_init(self, *args, **kw))

    inverses = []
    for field, matrices in ((TRIVIAL, rational), (TADIC, poly)):
        for A in matrices:
            try:
                rows = linalg.inverse_rows(field, A)
            except linalg.SingularMatrixError:
                continue
            inverses.append((field, A, rows))
            linalg.mul_rows(field, rows, rows)
            linalg.kron_rows(field, rows, rows)
            if field is TADIC:
                linalg.times_t_powers(rows, range(-1, len(rows) - 1))
                linalg.coordinate_orders(
                    rows, [linalg._poly_cleared(v) for v in A])
    monkeypatch.undo()
    assert built == []
    assert len(inverses) > 4
    for field, A, rows in inverses:
        inv = oracles.invert_field(A)
        assert oracles.row_values(field, rows) == inv
        assert (oracles.row_values(field, linalg.mul_rows(field, rows, rows))
                == mat_mul(inv, inv))


# -- the shared integer echelon ---------------------------------------------


@st.composite
def _integer_vectors(draw):
    """1..8 integer vectors of one length d = 1..6, mostly sparse, with
    zero vectors, repeats and integer combinations of earlier ones."""
    d = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    vecs = [tuple(draw(entry) for _ in range(d))]
    kinds = st.sampled_from(("new", "zero", "repeat", "combination"))
    for kind in draw(st.lists(kinds, max_size=7)):
        a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        vecs.append({
            "new": tuple(draw(entry) for _ in range(d)),
            "zero": (0,) * d,
            "repeat": a,
            "combination": tuple(x * p + y * q for p, q in zip(a, b)),
        }[kind])
    return vecs


@_LINALG
@given(_integer_vectors())
def test_extend_echelon_matches_the_stepwise_echelon(vecs) -> None:
    # the same decisions and pivots as the echelon of the filtration split
    # that divided by the gcd at every step, and proportional rows
    got, want = [], []
    for v in vecs:
        assert (linalg._extend_echelon(got, v)
                == oracles.extends_echelon_stepwise(want, v))
    assert [p for p, _ in got] == [p for p, _ in want]
    for (p, r), (_, e) in zip(got, want):
        assert all(x * e[p] == y * r[p] for x, y in zip(r, e))
    rref_pivots = oracles.rref_field([tuple(map(Fraction, v)) for v in vecs])[1]
    assert sorted(p for p, _ in got) == rref_pivots


@_LINALG
@given(_integer_vectors(), st.data())
def test_independent_matches_the_sorted_echelon(pts, data) -> None:
    # plconvex._independent on the shared echelon keeps the indices and
    # the sorted pivots of its own echelon with rows sorted by pivot
    idxs = data.draw(st.permutations(range(len(pts))))
    idxs = idxs[:data.draw(st.integers(1, len(idxs)))]
    rank = data.draw(st.integers(0, len(pts[0])))
    assert (plconvex._independent(pts, idxs, rank)
            == oracles.independent_sorted_echelon(pts, idxs, rank))
