"""Graded norms on the section ring of (P^n, O(m)).

Degree k sections are spanned by monomials indexed by lattice points of the
dilated simplex km*Delta_n (dehomogenized exponents); multiplication adds
exponents.  Over a trivially valued field every norm considered here is
diagonal in the monomial basis, so a graded norm is a weight per lattice
point per degree, submultiplicativity is superadditivity of weights, and
degree-one generation is a tropical (max-plus) convolution power.

Representation.  A ``GradedNorm`` stores one positive common denominator D
and, per degree k, one tuple of integer numerators in ``ring.basis(k)``
order: the weight of the i-th point is numerators[k-1][i] / D.  The pair is
reduced by gcd(D, *numerators), so it is canonical and equality compares
integers.  The ``{point: Fraction}`` weights of a degree are built once, on
first use, and ``degree_weights(k)`` returns a copy of them.  ``from_json``
reads each degree's weights straight into these rows: a degree written
with the identity basis builds no ``DiagNorm`` (see ``_degree_weights``).

Keys.  The graded functions address a lattice point a of degree k <= K by
the mixed-radix integer sum_i a_i * R^(n-1-i) with radix R = K*m + 1.  Every
coordinate of a point of degree <= K is at most K*m < R, so adding two
points never carries, and key(a + b) = key(a) + key(b): the product of two
monomials is found by adding two integers.

First violation.  ``check_submultiplicative`` compares numerators over the
one denominator D, which orders the weights exactly as the fractions do,
and walks k, l, a, b in the same order as the fraction loop it replaced:
k and l increasing, a and b in basis order.  The first violation it returns
is therefore unchanged, and so are the counterexamples derived from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, inf, lcm

from .field import TRIVIAL
from .norms import DiagNorm, NormError, _identity, _json_parts


class GradedError(ValueError):
    pass


def lattice_points(n: int, d: int):
    """Lattice points of d*Delta_n: a in Z^n, a >= 0, sum a_i <= d."""
    if d < 0:
        return ()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], d, n)
    return tuple(sorted(out))


class SectionRing:
    """Monomial model of R(P^n, O(m)) = sum_k H^0(km * O(1))."""

    __slots__ = ("n", "m", "_bases")

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise GradedError("need n >= 1 and m >= 1")
        self.n = n
        self.m = m
        self._bases = {}

    def basis(self, k: int):
        if k not in self._bases:
            self._bases[k] = lattice_points(self.n, k * self.m)
        return self._bases[k]

    def h0(self, k: int) -> int:
        return comb(k * self.m + self.n, self.n)

    def __repr__(self):
        return f"SectionRing(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return (isinstance(other, SectionRing)
                and (self.n, self.m) == (other.n, other.m))

    __hash__ = None


def _is_positive_int(value) -> bool:
    return type(value) is int and value >= 1


def _ring_dims(spec, where: str) -> tuple:
    """``(n, m)`` of the JSON object ``spec`` that holds a ring's n and m.

    Every ring read from JSON passes here: GradedError unless both are
    ints >= 1, since a float, a bool or a string would pass the
    ``SectionRing`` constructor and fail deep inside a computation.
    """
    if not isinstance(spec, dict):
        raise GradedError(
            f"{where!r} must be a JSON object, got {type(spec).__name__}")
    for key in ("n", "m"):
        if not _is_positive_int(spec.get(key)):
            raise GradedError(f"{where}.{key} must be a positive integer, "
                              f"got {spec.get(key)!r}")
    return spec["n"], spec["m"]


def _level_k(spec) -> int:
    """The level ``k`` of the JSON object ``spec`` (a segment or a sampled
    path): GradedError unless it is an int >= 1, since ``int()`` would
    truncate 1.5 to level 1."""
    k = spec["k"]
    if not _is_positive_int(k):
        raise GradedError(f"k must be a positive integer, got {k!r}")
    return k


def _keys(ring: SectionRing, k: int, radix: int) -> list:
    """Mixed-radix keys of ``ring.basis(k)``, in basis order."""
    out = []
    for a in ring.basis(k):
        key = 0
        for c in a:
            key = key * radix + c
        out.append(key)
    return out


class GradedNorm:
    """Monomial-diagonal norms in every degree 1..kmax."""

    __slots__ = ("ring", "kmax", "_den", "_nums", "_tables")

    def __init__(self, ring: SectionRing, weights_by_degree):
        rows = []
        for k, table in enumerate(weights_by_degree, start=1):
            basis = ring.basis(k)
            if set(table) != set(basis):
                raise GradedError(
                    f"degree {k} weights must cover exactly the "
                    f"{ring.h0(k)} monomials of km*Delta")
            rows.append([Fraction(table[a]) for a in basis])
        if not rows:
            raise GradedError("a graded norm needs at least degree one")
        # reduced fractions over the lcm of their denominators: gcd 1 already
        den = lcm(*(w.denominator for row in rows for w in row))
        self._set(ring, den, tuple(
            tuple(w.numerator * (den // w.denominator) for w in row)
            for row in rows))

    @classmethod
    def _from_numerators(cls, ring: SectionRing, den: int, nums) -> "GradedNorm":
        """The norm with weight nums[k-1][i] / den at ``ring.basis(k)[i]``."""
        g = gcd(den, *(x for row in nums for x in row))
        if g > 1:
            den //= g
            nums = tuple(tuple(x // g for x in row) for row in nums)
        out = cls.__new__(cls)
        out._set(ring, den, nums)
        return out

    def _set(self, ring, den, nums):
        self.ring = ring
        self.kmax = len(nums)
        self._den = den
        self._nums = nums
        self._tables = [None] * len(nums)

    def _table(self, k: int) -> dict:
        """The cached ``{point: Fraction}`` weights of degree k."""
        if not 1 <= k <= self.kmax:
            raise GradedError(f"degree {k} outside 1..{self.kmax}")
        table = self._tables[k - 1]
        if table is None:
            den = self._den
            table = self._tables[k - 1] = {
                a: Fraction(x, den)
                for a, x in zip(self.ring.basis(k), self._nums[k - 1])}
        return table

    def weight(self, k: int, a) -> Fraction:
        return self._table(k)[tuple(a)]

    def degree_weights(self, k: int) -> dict:
        # a copy: changing it must not leave the cache and the numerators apart
        return dict(self._table(k))

    def norm_at(self, k: int) -> DiagNorm:
        return DiagNorm.standard(TRIVIAL, tuple(self._table(k).values()))

    def __eq__(self, other):
        if not isinstance(other, GradedNorm):
            return NotImplemented
        return (self.ring == other.ring and self._den == other._den
                and self._nums == other._nums)

    __hash__ = None

    def __repr__(self):
        return (f"GradedNorm(n={self.ring.n}, m={self.ring.m}, "
                f"kmax={self.kmax})")

    def to_json(self):
        return {
            "ring": {"n": self.ring.n, "m": self.ring.m},
            "degrees": {
                str(k): self.norm_at(k).to_json()
                for k in range(1, self.kmax + 1)
            },
        }

    @classmethod
    def from_json(cls, obj) -> "GradedNorm":
        if not isinstance(obj, dict):
            raise GradedError(
                f"a graded norm must be a JSON object, got {type(obj).__name__}")
        for key in ("ring", "degrees"):
            if key not in obj:
                raise GradedError(f"missing key {key!r}")
        spec, degrees = obj["ring"], obj["degrees"]
        ring = SectionRing(*_ring_dims(spec, "ring"))
        if not isinstance(degrees, dict):
            raise GradedError(
                "'degrees' must be a JSON object keyed \"1\", \"2\", ..., "
                f"got {type(degrees).__name__}")
        for k in range(1, len(degrees) + 1):
            if str(k) not in degrees:
                raise GradedError(
                    f"'degrees' has no degree {k}: keys must run \"1\", \"2\", "
                    "... without gaps")
        rows = []
        for k in range(1, len(degrees) + 1):
            try:
                rows.append(_degree_weights(ring.h0(k), degrees[str(k)]))
            except NormError as exc:
                raise GradedError(f"degree {k}: {exc}") from exc
            if rows[-1] is None:
                raise GradedError(
                    f"degree {k} norm must be monomial-diagonal of "
                    f"dimension {ring.h0(k)}")
        # reduced fractions over the lcm of their denominators: gcd 1 already
        den = lcm(*(w.denominator for row in rows for w in row))
        return cls._from_numerators(ring, den, tuple(
            tuple(w.numerator * (den // w.denominator) for w in row)
            for row in rows))


def _degree_weights(h0: int, obj):
    """The weights of a degree's norm JSON, if it is monomial-diagonal of
    dimension h0, else None; NormError as ``DiagNorm.from_json`` raises it.

    A basis written as the identity (see ``norms._json_parts``) with h0
    weights is read with no norm built.  Any other is built as a norm, which
    raises what the norm raises for it, and is then asked whether it is
    standard.
    """
    field, basis, weights = _json_parts(obj)
    if basis is _identity(field, h0) and len(weights) == h0:
        return weights
    norm = DiagNorm(field, basis, weights)
    if norm.dim != h0 or not norm.is_standard_basis():
        return None
    return norm.weights


def _degree_one_table(ring: SectionRing, source) -> dict:
    basis = ring.basis(1)
    if isinstance(source, DiagNorm):
        if source.dim != len(basis) or not source.is_standard_basis():
            raise GradedError("degree-one norm must be monomial-diagonal")
        return dict(zip(basis, source.weights))
    table = {tuple(a): Fraction(w) for a, w in dict(source).items()}
    if set(table) != set(basis):
        raise GradedError("degree-one weights must cover m*Delta exactly")
    return table


def generate_degree_one(ring: SectionRing, degree_one, kmax: int) -> GradedNorm:
    """Graded norm generated in degree one.

    Degree-k weight at a is the max of sum(beta_{a_i}) over decompositions
    a = a_1 + ... + a_k with each a_i in the degree-one basis: the quotient
    norm through Sym^k H^0 -> H^0(k), computed as a max-plus convolution
    power.  Superadditive, hence submultiplicative, by construction.  The
    convolution runs on integer numerators over the lcm of the degree-one
    denominators, keyed as in the module docstring.
    """
    if kmax < 1:
        raise GradedError("kmax must be at least 1")
    w1 = _degree_one_table(ring, degree_one)
    den = lcm(*(w.denominator for w in w1.values()))
    radix = kmax * ring.m + 1
    one = [(key, w1[a].numerator * (den // w1[a].denominator))
           for key, a in zip(_keys(ring, 1, radix), ring.basis(1))]
    rows = [tuple(x for _, x in one)]
    prev = dict(one)
    for k in range(2, kmax + 1):
        table = {}
        for kb, wb in prev.items():
            for ka, wa in one:
                c = ka + kb
                w = wa + wb
                old = table.get(c)
                if old is None or w > old:
                    table[c] = w
        rows.append(tuple(table[key] for key in _keys(ring, k, radix)))
        prev = table
    return GradedNorm._from_numerators(ring, den, tuple(rows))


def check_submultiplicative(gn: GradedNorm, kmax: int | None = None):
    """None if superadditive up to kmax, else the first violation (k,l,a,b)."""
    K = gn.kmax if kmax is None else min(kmax, gn.kmax)
    ring = gn.ring
    radix = K * ring.m + 1
    keyed = [None] + [
        list(zip(_keys(ring, k, radix), gn._nums[k - 1], ring.basis(k)))
        for k in range(1, K + 1)]
    lookup = [None] + [{key: w for key, w, _ in row} for row in keyed[1:]]
    for k in range(1, K):
        for l in range(1, K - k + 1):
            wkl = lookup[k + l]
            rows_l = keyed[l]
            for ka, wa, a in keyed[k]:
                for kb, wb, b in rows_l:
                    if wkl[ka + kb] < wa + wb:
                        return (k, l, a, b)
    return None


def graded_geodesic(gn0: GradedNorm, gn1: GradedNorm, t) -> GradedNorm:
    """Degreewise weight interpolation (1-t)*w0 + t*w1.

    At t = p/q the weight (1-t)*x/D0 + t*y/D1 is the integer
    (q-p)*(L/D0)*x + p*(L/D1)*y over L*q, with L = lcm(D0, D1).
    """
    if gn0.ring != gn1.ring:
        raise GradedError("graded norms live on different rings")
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise NormError(f"geodesic time {t} outside [0, 1]")
    p, q = t.numerator, t.denominator
    L = lcm(gn0._den, gn1._den)
    s0 = (q - p) * (L // gn0._den)
    s1 = p * (L // gn1._den)
    # zip stops at the lower kmax of the two
    nums = tuple(
        tuple(s0 * x + s1 * y for x, y in zip(r0, r1))
        for r0, r1 in zip(gn0._nums, gn1._nums))
    return GradedNorm._from_numerators(gn0.ring, L * q, nums)


def asymptotic_stats(gn0: GradedNorm, gn1: GradedNorm, p, kmax: int | None = None,
                     oracle_limit=None):
    """Per-degree spectral statistics of the pair, normalized per unit degree.

    Degree-k relative spectrum is w0 - w1 on the monomial basis; the value
    reported is the p-th moment of the rescaled spectrum lambda/k under the
    uniform measure on the h0(k) monomials (max |lambda|/k for p = inf).
    For p = 1 this equals (k*h0(k))^-1 * sum |lambda|.  The sequence
    converges to the conjugate-profile integral when both inputs come from
    metrics; callers may pass that oracle value through for reporting.
    With L = lcm(D0, D1), lambda is an integer over L, and each degree makes
    one Fraction: max|lambda|/(kL), or sum|lambda|^p / ((kL)^p * h0(k)).
    """
    if gn0.ring != gn1.ring:
        raise GradedError("graded norms live on different rings")
    K = min(gn0.kmax, gn1.kmax)
    if kmax is not None:
        K = min(K, kmax)
    L = lcm(gn0._den, gn1._den)
    s0, s1 = L // gn0._den, L // gn1._den
    values = []
    for k in range(1, K + 1):
        lam = [abs(s0 * x - s1 * y)
               for x, y in zip(gn0._nums[k - 1], gn1._nums[k - 1])]
        if p == inf:
            val = Fraction(max(lam), k * L)
        else:
            if not isinstance(p, int) or p < 1:
                raise GradedError("p must be an integer >= 1 or inf")
            val = Fraction(sum(x ** p for x in lam), (k * L) ** p * len(lam))
        values.append((k, val))
    return values, oracle_limit


def serialize_counterexample(violation) -> dict:
    """Machine-readable form of a check_submultiplicative violation."""
    k, l, a, b = violation
    return {
        "k": k,
        "l": l,
        "a": list(a),
        "b": list(b),
    }
