"""Exact scalars for the two valued fields used throughout the package.

Two backends are supported:

* trivially valued rationals: every nonzero element has valuation 0;
* t-adic rational functions over the rationals: the valuation of a
  nonzero function is the order of vanishing at t = 0 (order of the
  numerator minus order of the denominator).

Valuations are additive, written on the -log scale: ``v(xy) = v(x) + v(y)``
and ``v(x + y) >= min(v(x), v(y))`` with equality when the two valuations
differ.  The valuation of 0 is plus infinity, represented by the ``INF``
sentinel which compares greater than every rational.

Rationals become integers in one place.  The package holds a vector of
rationals as ``(den, numerators)``, integers over one positive den.
``cleared`` reads rows of ints and ``Fraction``s into it over the lcm of
their denominators, which is in lowest terms; ``lowest_terms`` reduces
numerators a computation built (a geodesic slice, a convolution power, a
profile's lattice values) by their gcd with den.  Layers hand the form on,
and ``Fraction``s are built only as views of what a public API returns.

Arguments are read in one place too.  ``parse_fraction`` reads every
rational of a config; ``read_count`` (a level k, a bound kmax, a ring's n
or m: an int >= 1, no bool), ``read_time`` (t in [0, 1], a string or
float read as a config reads it) and ``read_exponent`` (a d_p exponent: ``math.inf`` or a
count) check every such argument of the package, each raising the
exception class its caller passes, so every entry point keeps its own.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, inf, lcm


class FieldError(ValueError):
    """Raised for malformed scalars or unsupported backend operations."""


class _PlusInfinity:
    """Sentinel for +infinity on the valuation scale.  Singleton ``INF``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("geonorm.INF")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("INF has no negative on the valuation scale")


INF = _PlusInfinity()


# "num/den", or a decimal with an exponent as a finite float's repr has it
_RATIONAL_TEXT = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")


def parse_fraction(value) -> Fraction:
    """The rational a JSON scalar writes, the one reader of every rational
    in a config: a ``"num/den"`` or decimal string, an integer, or a JSON
    number read by its decimal text, so ``0.1`` is 1/10.  A string is read
    only in those ASCII forms: no blanks, no ``_`` between digits and no
    other digits than 0-9.  A bool (which Python counts as an int), a
    non-finite number or any other value raises: a TypeError for a value
    of another type, else a ValueError (a ZeroDivisionError for ``"1/0"``).
    """
    kind = type(value)
    if kind is float:
        value = repr(value)
    elif kind is not str and kind is not int:
        raise TypeError(f"a rational must be a string or a number, got {value!r}")
    elif kind is str and _RATIONAL_TEXT.fullmatch(value) is None:
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    return Fraction(value)


def _rational(x):
    """x as an int or a Fraction, both of which carry numerator/denominator;
    any other number is coerced by ``Fraction``."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def cleared(*rows):
    """``(den, *numerator_rows)``: rows (sequences) of ints and
    ``Fraction``s as tuples of integers over den, the lcm of all their
    denominators, so in lowest terms."""
    den = lcm(*[x.denominator for r in rows for x in r])
    if den == 1:
        return (1, *[tuple([x.numerator for x in r]) for r in rows])
    return (den, *[tuple([x.numerator * (den // x.denominator) for x in r])
                   for r in rows])


def lowest_terms(den: int, *rows):
    """``(den, *rows)`` for integer rows over den > 0, in lowest terms: all
    divided by the gcd of den and every entry.  When that gcd is 1 the
    rows come back as they are."""
    g = gcd(den, *[gcd(*r) for r in rows])
    if g == 1:
        return (den, *rows)
    return (den // g, *[tuple([x // g for x in r]) for r in rows])


def json_list(value, what: str):
    """``value``, read where a JSON list is documented, unless it is a
    string or an object, which would be read one character or one key per
    entry: a TypeError naming ``what`` then.  Other values that are no
    list fail where they are read."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"{what} must be a list, got {value!r}")
    return value


def read_count(value, what: str, error) -> int:
    """``value``, read where a count is documented (a level k, a bound
    kmax, a ring's n or m, a power): an int >= 1.  Anything else raises
    ``error`` naming ``what``: a bool (which Python counts as an int), a
    float or ``Fraction`` (which ``range`` and a level chain would round or
    refuse deep in the work), a string or an int below 1."""
    if type(value) is not int or value < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
    return value


def read_time(value, what: str, error) -> Fraction:
    """``value`` as a ``Fraction``, read where a time t in [0, 1] is
    documented (a segment or geodesic time, a mix weight): an int or a
    ``Fraction`` as it is, and a string or float by ``parse_fraction``, so
    0.1 is 1/10.  Anything else (a bool, None, a text that is no rational)
    raises ``error`` naming ``what``, and so does a t outside [0, 1]."""
    try:
        t = (Fraction(value) if type(value) in (int, Fraction)
             else parse_fraction(value))
    except (TypeError, ValueError, ZeroDivisionError):
        raise error(f"{what} must be a rational, got {value!r}") from None
    if not 0 <= t <= 1:
        raise error(f"{what} {t} outside [0, 1]")
    return t


def read_exponent(value, what: str, error):
    """``value``, read where a d_p exponent is documented: ``math.inf`` or
    a count (see ``read_count``); ``error`` naming ``what`` otherwise, so a
    bool, a float other than inf, a string or a ``Fraction`` is refused."""
    if value != inf and (type(value) is not int or value < 1):
        raise error(f"{what} must be a positive integer or inf, got {value!r}")
    return value


def format_fraction(q: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` (``"num"`` when integral)."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_decimal(q) -> str:
    """A rational to 12 significant digits, as ``f"{float(q):.12g}"``
    writes it whenever float(q) is finite and, for q != 0, nonzero.  Past
    float range, and below it, q itself is rounded (half to even) in the
    same notation, such as ``"1e+400"`` and ``"-2.5e-400"``."""
    try:
        x = float(q)
    except OverflowError:
        x = 0.0
    if x or not q:
        return f"{x:.12g}"
    q = Fraction(q)
    a = abs(q)
    num, den = a.numerator, a.denominator
    # e with 10^e <= |q| < 10^(e + 1), from the bit lengths and then exact
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while a < Fraction(10) ** e:
        e -= 1
    while a >= Fraction(10) ** (e + 1):
        e += 1
    digits = round(a / Fraction(10) ** (e - 11))
    if digits == 10 ** 12:
        digits, e = 10 ** 11, e + 1
    m = str(digits).rstrip("0")
    mant = m[0] + ("." + m[1:] if len(m) > 1 else "")
    return f"{'-' if q < 0 else ''}{mant}e{'-' if e < 0 else '+'}{abs(e):02d}"


# ---------------------------------------------------------------------------
# Integer-coefficient polynomials in one variable t, constant term first.
# What the rational-function field and the Z[t] elimination in
# ``geonorm.linalg`` need: ring ops, order at t = 0, exact division, and a
# primitive gcd over Z, computed with integers only.
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _poly_neg(a):
    return tuple(-x for x in a)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub_mul(p, x, a, y):
    """p*x - a*y."""
    out = [0] * (max(len(p) + len(x), len(a) + len(y)) - 1)
    if x:
        for i, u in enumerate(p):
            if u:
                for j, v in enumerate(x, i):
                    out[j] += u * v
    if y:
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(y, i):
                    out[j] -= u * v
    return _trim(out)


def _poly_dot(u, v):
    """sum u_i * v_i for two rows of polynomials."""
    out = []
    for a, b in zip(u, v):
        if a and b:
            n = len(a) + len(b) - 1
            if len(out) < n:
                out.extend([0] * (n - len(out)))
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
    return _trim(out)


def _poly_content(a) -> int:
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def _poly_primitive(a):
    g = _poly_content(a)
    if g <= 1:
        return _trim(a)
    return tuple(x // g for x in a)


def _poly_ord(a) -> int:
    """Order of vanishing at t = 0; caller guarantees a nonzero."""
    for i, x in enumerate(a):
        if x:
            return i
    raise FieldError("order of the zero polynomial")


def _poly_prem(a, b):
    """A nonzero integer multiple of the remainder of a by b over Q.

    Each step scales the running remainder by ``lc(b) / g`` and subtracts
    ``lc(r) / g`` times the shifted b, with ``g = gcd(lc(r), lc(b))``: a
    pseudo-remainder that scales by less than the classical
    ``lc(b)^(deg a - deg b + 1)``.  b is trimmed and nonzero; returns a
    trimmed list.
    """
    r = list(a)
    nb = len(b)
    lb = b[-1]
    while len(r) >= nb:
        lr = r[-1]
        g = gcd(lr, lb)
        sr, sb = lb // g, lr // g
        shift = len(r) - nb
        if sr != 1:
            r = [x * sr for x in r]
        for i, c in enumerate(b):
            r[shift + i] -= sb * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _poly_gcd(a, b):
    """Primitive gcd over Z, positive leading coefficient.

    The common power of t, ``t^min(ord a, ord b)``, is split off first.  The
    rest is the gcd of the t-free primitive parts, taken by a primitive
    polynomial remainder sequence: pseudo-remainders with the content
    divided out at each step (Collins 1967, Brown-Traub 1971).  No step runs
    when either t-free part is a constant.
    """
    a, b = _trim(a), _trim(b)
    if not a or not b:
        g = _poly_primitive(a or b)
        return _poly_neg(g) if g and g[-1] < 0 else g
    i, j = _poly_ord(a), _poly_ord(b)
    a, b = a[i:], b[j:]
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        a, b = _poly_primitive(a), _poly_primitive(b)
    while len(b) > 1:
        r = _poly_prem(a, b)
        if not r:
            break
        a, b = b, _poly_primitive(r)
    if len(b) == 1:
        b = (1,)
    elif b[-1] < 0:
        b = _poly_neg(b)
    return (0,) * min(i, j) + b


def _poly_lcm(a, b):
    """The least common multiple of two nonzero polynomials over Z, up to
    sign: a * b over their gcd, which is the gcd c of their contents times
    their primitive gcd g, so the lcm of the contents times the lcm of the
    primitive parts.  b / g keeps b's content (g is primitive), which c
    divides."""
    if a == b or b == (1,):
        return a
    if a == (1,):
        return b
    q = _poly_exact_div(b, _poly_gcd(a, b))
    c = gcd(_poly_content(a), _poly_content(b))
    return _poly_mul(a, tuple(x // c for x in q) if c > 1 else q)


def _poly_exact_div(a, b):
    """a / b for trimmed integer polynomials; FieldError unless b divides a
    over Z."""
    nb = len(b)
    lb = b[-1]
    r = list(a)
    out = [0] * max(len(a) - nb + 1, 0)
    for k in range(len(out) - 1, -1, -1):
        q, rem = divmod(r[k + nb - 1], lb)
        if rem:
            if _poly_prem(a, b):
                raise FieldError("inexact polynomial division")
            raise FieldError("non-integer quotient in exact division")
        out[k] = q
        if q:
            for i, c in enumerate(b):
                r[k + i] -= q * c
    if any(r):
        raise FieldError("inexact polynomial division")
    return _trim(out)


class RatFunc:
    """A rational function num(t)/den(t) with integer coefficients, reduced.

    Canonical form: poly-gcd(num, den) = 1, gcd of the two contents is 1,
    and the lowest-order nonzero coefficient of den is positive.  This makes
    equality and hashing structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,), _reduced=False):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise FieldError("zero denominator")
        if not num:
            self.num, self.den = (), (1,)
            return
        if not _reduced:
            k = min(_poly_ord(num), _poly_ord(den))
            if k:
                num, den = num[k:], den[k:]
            g = _poly_gcd(num, den)
            if len(g) > 1:
                num = _poly_exact_div(num, g)
                den = _poly_exact_div(den, g)
            cn, cd = _poly_content(num), _poly_content(den)
            c = gcd(cn, cd)
            if c > 1:
                num = tuple(x // c for x in num)
                den = tuple(x // c for x in den)
            if den[_poly_ord(den)] < 0:
                num = _poly_neg(num)
                den = _poly_neg(den)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, int):
            return RatFunc((x,))
        if isinstance(x, Fraction):
            return RatFunc((x.numerator,), (x.denominator,))
        raise FieldError(f"cannot coerce {x!r} to a rational function")

    @staticmethod
    def t_power(k: int) -> "RatFunc":
        if k >= 0:
            return RatFunc((0,) * k + (1,))
        return RatFunc((1,), (0,) * (-k) + (1,))

    def shifted(self, k: int) -> "RatFunc":
        """``self * t^k``, kept canonical without a gcd: only powers of t
        can cancel."""
        if not k or not self.num:
            return self
        num, den = self.num, self.den
        if k > 0:
            j = min(k, _poly_ord(den))
            num, den = (0,) * (k - j) + num, den[j:]
        else:
            j = min(-k, _poly_ord(num))
            num, den = num[j:], (0,) * (-k - j) + den
        return RatFunc(num, den, _reduced=True)

    # -- ring/field operations ---------------------------------------------

    def __add__(self, other):
        o = RatFunc.of(other)
        num = _poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den))
        return RatFunc(num, _poly_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_poly_neg(self.num), self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-RatFunc.of(other))

    def __rsub__(self, other):
        return RatFunc.of(other) + (-self)

    def __mul__(self, other):
        o = RatFunc.of(other)
        return RatFunc(_poly_mul(self.num, o.num), _poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc.of(other)
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(_poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        return RatFunc.of(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.of(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        def fmt(p):
            if not p:
                return "0"
            terms = []
            for i, c in enumerate(p):
                if c == 0:
                    continue
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*t" if c != 1 else "t")
                else:
                    terms.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
            return " + ".join(terms)

        if self.den == (1,):
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"

    def order(self):
        """Order of vanishing at t = 0 (the t-adic valuation); INF at 0."""
        if not self.num:
            return INF
        return Fraction(_poly_ord(self.num) - _poly_ord(self.den))


# ---------------------------------------------------------------------------
# Field backends.  Elements of the trivially valued field are plain
# Fractions; elements of the t-adic field are RatFunc instances.  The
# backend object carries the valuation and the JSON codec.
# ---------------------------------------------------------------------------


class TriviallyValuedRationals:
    name = "trivial"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldError(f"cannot coerce {x!r} into the trivially valued field")

    def valuation(self, x):
        return INF if x == 0 else Fraction(0)

    def is_zero(self, x) -> bool:
        return x == 0

    def to_json(self, x):
        return {"q": format_fraction(x)}

    def from_json(self, obj):
        if not (isinstance(obj, dict) and set(obj) == {"q"}):
            raise FieldError(f"malformed trivially valued scalar: {obj!r}")
        return parse_fraction(obj["q"])

    def __repr__(self):
        return "TrivialQ"


class TAdicRationalFunctions:
    name = "tadic"
    zero = RatFunc(())
    one = RatFunc((1,))
    t = RatFunc((0, 1))

    def of(self, x):
        return RatFunc.of(x)

    def valuation(self, x):
        return RatFunc.of(x).order()

    def is_zero(self, x) -> bool:
        return not RatFunc.of(x)

    def to_json(self, x):
        x = RatFunc.of(x)
        return {"t": {"num": list(x.num), "den": list(x.den)}}

    def from_json(self, obj):
        if not (isinstance(obj, dict) and set(obj) == {"t"}):
            raise FieldError(f"malformed t-adic scalar: {obj!r}")
        body = obj["t"]
        if not (isinstance(body, dict) and set(body) == {"num", "den"}):
            raise FieldError(f"malformed t-adic scalar body: {obj!r}")
        num, den = body["num"], body["den"]
        if not (isinstance(num, list) and isinstance(den, list)
                and all(type(c) is int for c in num + den)):
            raise FieldError(f"t-adic coefficients must be integers: {obj!r}")
        return RatFunc(tuple(num), tuple(den))

    def __repr__(self):
        return "TAdicQ(t)"


TRIVIAL = TriviallyValuedRationals()
TADIC = TAdicRationalFunctions()

_FIELDS = {"trivial": TRIVIAL, "tadic": TADIC}


def field_by_name(name: str):
    try:
        return _FIELDS[name]
    except KeyError:
        raise FieldError(f"unknown field backend {name!r}") from None
