"""Scalar backends: trivially valued rationals and t-adic rational functions."""

import random
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from geonorm.field import (
    INF,
    RatFunc,
    TADIC,
    TRIVIAL,
    FieldError,
    _poly_exact_div,
    _poly_gcd,
    _poly_lcm,
    field_by_name,
    format_decimal,
    format_fraction,
    parse_fraction,
)


def test_inf_sentinel_ordering() -> None:
    assert INF > Fraction(10**9)
    assert not INF < Fraction(0)
    assert INF == INF
    assert INF + Fraction(5) is INF
    assert min(INF, Fraction(3)) == 3


def test_fraction_text_round_trip() -> None:
    for text in ("0", "7", "-3", "5/2", "-11/4"):
        assert format_fraction(parse_fraction(text)) == text
    assert parse_fraction("4/2") == 2


_MAG = st.integers(1, 10 ** 30)


@st.composite
def _rationals(draw, exponents):
    """A signed rational times 10^e, e drawn from ``exponents``."""
    q = Fraction(draw(st.integers(-10 ** 30, 10 ** 30)), draw(_MAG))
    return q * Fraction(10) ** draw(exponents)


@settings(max_examples=300)
@given(_rationals(st.integers(-300, 300)))
def test_format_decimal_is_the_float_formatting_in_range(q) -> None:
    assert format_decimal(q) == f"{float(q):.12g}"


_TWELVE = Context(prec=12, rounding=ROUND_HALF_EVEN, Emax=10 ** 6,
                  Emin=-10 ** 6)


@settings(max_examples=200)
@given(_rationals(st.integers(-700, -360) | st.integers(340, 700)))
def test_format_decimal_rounds_past_float_range_exactly(q) -> None:
    # |q| above 10^310 or below 10^-330: q rounded to 12 significant
    # digits half to even, by decimal's correctly rounded division
    if not q:
        return
    want = _TWELVE.divide(Decimal(q.numerator), Decimal(q.denominator))
    assert format_decimal(q) == format(want.normalize(_TWELVE), ".12g")
    assert format_decimal(q) != "0"


def test_format_decimal_examples() -> None:
    assert format_decimal(Fraction(10) ** 400) == "1e+400"
    assert format_decimal(-Fraction(1, 10 ** 400)) == "-1e-400"
    assert format_decimal(Fraction(-25, 10 ** 401)) == "-2.5e-400"
    # 9.999999999995e404 rounds half to even into the next decade
    assert format_decimal(999999999999500 * 10 ** 390) == "1e+405"
    assert format_decimal(Fraction(1, 3)) == "0.333333333333"
    assert format_decimal(0) == "0"


def test_trivial_valuation() -> None:
    assert TRIVIAL.valuation(Fraction(5, 7)) == 0
    assert TRIVIAL.valuation(Fraction(-3)) == 0
    assert TRIVIAL.valuation(Fraction(0)) is INF


def test_tadic_valuation_examples() -> None:
    t = RatFunc.t_power
    assert TADIC.valuation(t(3)) == 3
    assert TADIC.valuation(t(-2)) == -2
    assert TADIC.valuation(TADIC.one + t(1)) == 0
    assert TADIC.valuation(TADIC.zero) is INF
    # valuation only sees the lowest-order term
    assert TADIC.valuation(t(2) + t(5)) == 2


def test_ratfunc_reduction_is_canonical() -> None:
    # (t^2 - 1)/(t - 1) = t + 1
    q = RatFunc((-1, 0, 1), (-1, 1))
    assert q == RatFunc((1, 1))
    # denominator sign pinned by the lowest-order coefficient
    r = RatFunc((1,), (-1,))
    assert r == RatFunc((-1,))
    assert RatFunc((2, 2), (2,)) == RatFunc((1, 1))
    # t^2 (2t - 4) / (-6 t^3 (t - 2)) = -1/(3t)
    assert RatFunc((0, 0, -4, 2), (0, 0, 0, 12, -6)) == RatFunc((-1,), (0, 3))
    assert RatFunc((0, 0), (0, -5)) == TADIC.zero
    assert RatFunc((3, 6), (-9,)) == RatFunc((-1, -2), (3,))


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


_POLY = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(tuple)
_NONZERO_POLY = _POLY.filter(any)
_NONZERO_INT = st.integers(-6, 6).filter(bool)


@st.composite
def _planted_quotients(draw):
    """num/den with a planted common factor and t-powers on both sides; the
    denominator is a general polynomial, a constant or a monomial, and the
    numerator may be zero."""
    common = draw(_NONZERO_POLY)
    num = _mul(draw(_POLY), common)
    kind = draw(st.sampled_from(("poly", "constant", "monomial")))
    if kind == "poly":
        den = _mul(draw(_NONZERO_POLY), common)
    elif kind == "constant":
        den = (draw(_NONZERO_INT),)
    else:
        den = (0,) * draw(st.integers(1, 3)) + (draw(_NONZERO_INT),)
    num = (0,) * draw(st.integers(0, 3)) + num
    den = (0,) * draw(st.integers(0, 3)) + den
    return num, den


@settings(max_examples=400)
@given(_planted_quotients())
def test_ratfunc_reduction_matches_euclid_oracle(case) -> None:
    num, den = case
    r = RatFunc(num, den)
    assert (r.num, r.den) == oracles.reduced_ratfunc(num, den)
    g = _poly_gcd(num, den)
    expected = oracles.poly_gcd_euclid(num, den)
    assert g in (expected, tuple(-x for x in expected))
    assert g[-1] > 0


@settings(max_examples=200)
@given(_planted_quotients(), st.integers(-4, 4))
def test_shifted_is_canonical_product_with_t_power(case, k) -> None:
    num, den = case
    r = RatFunc(num, den).shifted(k)
    assert r == RatFunc(num, den) * RatFunc.t_power(k)
    assert (r.num, r.den) == oracles.reduced_ratfunc(
        (0,) * max(k, 0) + num, (0,) * max(-k, 0) + den)


def _trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


@st.composite
def _lcm_operands(draw):
    """Two nonzero trimmed polynomials with a planted common factor, integer
    contents and powers of t."""
    common = _trimmed(draw(_NONZERO_POLY))
    a, b = (_mul(_trimmed(draw(_NONZERO_POLY)), common) for _ in range(2))
    return tuple((0,) * draw(st.integers(0, 2))
                 + tuple(draw(_NONZERO_INT) * x for x in p) for p in (a, b))


@settings(max_examples=300)
@given(_lcm_operands())
def test_poly_lcm_matches_sympy_lcm(case) -> None:
    # least in the integer content as well as in the primitive part, up to
    # sign (sympy, tests only)
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    a, b = case
    want = sympy.lcm(*(sympy.Poly(p[::-1], t, domain="ZZ") for p in case))
    got = sympy.Poly(_poly_lcm(a, b)[::-1], t, domain="ZZ")
    assert got in (want, -want)


def test_poly_lcm_is_least_in_the_content() -> None:
    assert _poly_lcm((2,), (4,)) == (4,)
    assert _poly_lcm((2, 0, 2), (4, 4)) == (4, 4, 4, 4)
    assert _poly_lcm((0, 6), (0, 0, 4)) == (0, 0, 12)


def test_exact_div_rejects_inexact_and_non_integer_quotients() -> None:
    assert _poly_exact_div((-1, 0, 1), (-1, 1)) == (1, 1)
    with pytest.raises(FieldError, match="inexact"):
        _poly_exact_div((1, 0, 1), (1, 1))
    with pytest.raises(FieldError, match="inexact"):
        _poly_exact_div((1, 1), (1, 0, 1))
    with pytest.raises(FieldError, match="non-integer quotient"):
        _poly_exact_div((1, 1), (2, 2))
    with pytest.raises(FieldError, match="non-integer quotient"):
        _poly_exact_div((2, 3, 1), (2, 2))


def test_ratfunc_field_axioms_random() -> None:
    rng = random.Random(7)

    def rand():
        num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        try:
            return RatFunc(num, den)
        except FieldError:
            return RatFunc((1,))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a
        assert TADIC.valuation(a * b) == TADIC.valuation(a) + TADIC.valuation(b)


def test_ratfunc_valuation_ultrametric_random() -> None:
    rng = random.Random(11)
    for _ in range(200):
        a = RatFunc(tuple(rng.randint(-2, 2) for _ in range(4)))
        b = RatFunc(tuple(rng.randint(-2, 2) for _ in range(4)))
        v = TADIC.valuation(a + b)
        assert v >= min(TADIC.valuation(a), TADIC.valuation(b))


def test_field_by_name() -> None:
    assert field_by_name("trivial") is TRIVIAL
    assert field_by_name("tadic") is TADIC
    with pytest.raises(FieldError):
        field_by_name("p-adic")


def scalar_from_json(obj):
    """Decode a scalar, inferring the backend from the JSON shape."""
    if isinstance(obj, dict) and "q" in obj:
        return TRIVIAL.from_json(obj)
    if isinstance(obj, dict) and "t" in obj:
        return TADIC.from_json(obj)
    raise FieldError(f"unrecognized scalar encoding: {obj!r}")


def test_scalar_json_round_trip() -> None:
    q = Fraction(-7, 3)
    assert scalar_from_json(TRIVIAL.to_json(q)) == q
    r = RatFunc((1, 2), (1, 0, 1))
    assert scalar_from_json(TADIC.to_json(r)) == r
    with pytest.raises(FieldError):
        scalar_from_json({"bogus": 1})


@pytest.mark.parametrize("coeff", [True, 1.5, "1"])
def test_tadic_from_json_requires_int_coefficients(coeff) -> None:
    with pytest.raises(FieldError, match="integer"):
        TADIC.from_json({"t": {"num": [coeff], "den": [1]}})
    with pytest.raises(FieldError, match="integer"):
        TADIC.from_json({"t": {"num": [1], "den": [0, coeff]}})
