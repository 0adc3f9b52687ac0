"""Graded norms on the section ring of (P^n, O(m)).

Degree k sections are spanned by monomials indexed by lattice points of the
dilated simplex km*Delta_n (dehomogenized exponents); multiplication adds
exponents.  Over a trivially valued field every norm considered here is
diagonal in the monomial basis, so a graded norm is a weight per lattice
point per degree, submultiplicativity is superadditivity of weights, and
degree-one generation is a tropical (max-plus) convolution power.

Representation.  A ``GradedNorm`` stores one positive common denominator D
and, per degree k, one tuple of integer numerators in ``ring.basis(k)``
order: the weight of the i-th point is numerators[k-1][i] / D, in lowest
terms, so equality compares integers.  Given weights are read by
``field.cleared``, and built numerators reduced by ``field.lowest_terms``
(``_from_numerators``).  Norms and graded norms trade numerators, never
``Fraction``s: ``from_json`` (``_degree_weights``), ``generate_degree_one``
and ``norm_at``.  The ``{point: Fraction}`` weights of a degree are built
once, on first use, and ``degree_weights(k)`` returns a copy of them.

Arguments.  A weight table of degree k, given as a mapping from the
lattice points or as a standard-basis norm, is read by ``_basis_weights``
alone, for this module, ``toric.fs_from_norm`` and ``FSSegment.build``.
Ring dims, levels and kmax are counts (``field.read_count``), a geodesic
time lies in [0, 1] (``field.read_time``) and p is an exponent
(``field.read_exponent``), each checked before any degree is read.

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

import functools
from fractions import Fraction
from math import comb, inf, lcm

from .field import (TRIVIAL, _rational, cleared, lowest_terms, read_count,
                    read_exponent, read_time)
from .norms import (DiagNorm, NormError, _identity, _json_parts,
                    _standard_record)


class GradedError(ValueError):
    pass


@functools.lru_cache(maxsize=None, typed=True)
def lattice_points(n: int, d: int):
    """Lattice points of d*Delta_n: a in Z^n, a >= 0, sum a_i <= d, as a
    sorted tuple, built once per (n, d) (2 and 2.0 apart)."""
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

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        self.n = read_count(n, "section ring n", GradedError)
        self.m = read_count(m, "section ring m", GradedError)

    def basis(self, k: int):
        return lattice_points(self.n, k * self.m)

    def h0(self, k: int) -> int:
        return comb(k * self.m + self.n, self.n)

    def __repr__(self):
        return f"SectionRing(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return (isinstance(other, SectionRing)
                and (self.n, self.m) == (other.n, other.m))

    __hash__ = None


def _ring_dims(spec, where: str) -> tuple:
    """``(n, m)`` of the JSON object ``spec`` that holds a ring's n and m.

    Every ring read from JSON passes here: GradedError naming the key
    unless both are counts (``field.read_count``).
    """
    if not isinstance(spec, dict):
        raise GradedError(
            f"{where!r} must be a JSON object, got {type(spec).__name__}")
    return tuple(read_count(spec.get(key), f"{where}.{key}", GradedError)
                 for key in ("n", "m"))


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
        # a mapping per degree: {**table} refuses a norm or a list of pairs
        rows = [_basis_weights(ring, k, {**table}, GradedError)
                for k, table in enumerate(weights_by_degree, start=1)]
        if not rows:
            raise GradedError("a graded norm needs at least degree one")
        self._set(ring, *_over_one_den(rows))

    @classmethod
    def _from_numerators(cls, ring: SectionRing, den: int, nums) -> "GradedNorm":
        """The norm with weight nums[k-1][i] / den at ``ring.basis(k)[i]``,
        in lowest terms."""
        den, *nums = lowest_terms(den, *nums)
        out = cls.__new__(cls)
        out._set(ring, den, tuple(nums))
        return out

    def _set(self, ring, den, nums):
        self.ring = ring
        self.kmax = len(nums)
        self._den = den
        self._nums = nums
        self._tables = [None] * len(nums)

    def _row(self, k: int) -> tuple:
        if not 1 <= k <= self.kmax:
            raise GradedError(f"degree {k} outside 1..{self.kmax}")
        return self._nums[k - 1]

    def _table(self, k: int) -> dict:
        """The cached ``{point: Fraction}`` weights of degree k."""
        row = self._row(k)
        table = self._tables[k - 1]
        if table is None:
            den = self._den
            table = self._tables[k - 1] = {
                a: Fraction(x, den) for a, x in zip(self.ring.basis(k), row)}
        return table

    def weight(self, k: int, a) -> Fraction:
        return self._table(k)[tuple(a)]

    def degree_weights(self, k: int) -> dict:
        # a copy: changing it must not leave the cache and the numerators apart
        return dict(self._table(k))

    def norm_at(self, k: int) -> DiagNorm:
        row = self._row(k)
        rec = _standard_record(TRIVIAL, len(row))
        return DiagNorm._on(rec, self._den, row)

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
        return cls._from_numerators(ring, *_over_one_den(rows))


def _over_one_den(rows):
    """``(den, numerator rows)``: rows of ``(den, numerators)``, each in
    lowest terms, over the lcm of their dens, so in lowest terms."""
    den = lcm(*(d for d, _ in rows))
    return den, tuple(tuple(x * (den // d) for x in row) for d, row in rows)


def _degree_weights(h0: int, obj):
    """``(den, numerators)``: the weights of a degree's norm JSON, in basis
    order and lowest terms, if it is monomial-diagonal of dimension h0, else
    None; NormError as ``DiagNorm.from_json`` raises it.

    A basis written as the identity (see ``norms._json_parts``) with h0
    weights is read with no norm built.  Any other is built as a norm, which
    raises what the norm raises for it, and is then asked whether it is
    standard.
    """
    field, basis, weights = _json_parts(obj)
    if basis is _identity(field, h0) and len(weights) == h0:
        return cleared(weights)
    norm = DiagNorm(field, basis, weights)
    if norm.dim != h0 or not norm.is_standard_basis():
        return None
    return norm._den, norm._nums


def _basis_weights(ring: SectionRing, k: int, source, error):
    """``(den, numerators)``: the weights of a degree-k weight table, in
    ``ring.basis(k)`` order and lowest terms, the one reader of such a
    table.  ``source`` is a standard-basis norm of dimension h0(k) or a
    mapping from the lattice points of km*Delta (tuples) that covers them
    exactly; ``error`` otherwise."""
    basis = ring.basis(k)
    if isinstance(source, DiagNorm):
        if source.dim != len(basis) or not source.is_standard_basis():
            raise error(f"degree {k} norm must be monomial-diagonal of "
                        f"dimension {len(basis)}")
        return source._den, source._nums
    table = dict(source)
    if set(table) != set(basis):
        raise error(f"degree {k} weights must cover exactly the "
                    f"{len(basis)} monomials of km*Delta")
    return cleared([_rational(table[a]) for a in basis])


def generate_degree_one(ring: SectionRing, degree_one, kmax: int) -> GradedNorm:
    """Graded norm generated in degree one.

    Degree-k weight at a is the max of sum(beta_{a_i}) over decompositions
    a = a_1 + ... + a_k with each a_i in the degree-one basis: the quotient
    norm through Sym^k H^0 -> H^0(k), computed as a max-plus convolution
    power.  Superadditive, hence submultiplicative, by construction.  The
    convolution runs on integer numerators over the lcm of the degree-one
    denominators, keyed as in the module docstring.  kmax is a count.
    """
    read_count(kmax, "kmax", GradedError)
    den, w1 = _basis_weights(ring, 1, degree_one, GradedError)
    radix = kmax * ring.m + 1
    one = list(zip(_keys(ring, 1, radix), w1))
    rows = [w1]
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
    """None if superadditive up to kmax, else the first violation (k,l,a,b).

    kmax is a count, or None for every degree of gn."""
    K = gn.kmax
    if kmax is not None:
        K = min(read_count(kmax, "kmax", GradedError), K)
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
    t = read_time(t, "geodesic time", NormError)
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
    p is an exponent (``field.read_exponent``), kmax a count or None for
    every degree of both norms; both are checked before any degree.
    """
    if gn0.ring != gn1.ring:
        raise GradedError("graded norms live on different rings")
    read_exponent(p, "p", GradedError)
    K = min(gn0.kmax, gn1.kmax)
    if kmax is not None:
        K = min(K, read_count(kmax, "kmax", GradedError))
    L = lcm(gn0._den, gn1._den)
    s0, s1 = L // gn0._den, L // gn1._den
    values = []
    for k in range(1, K + 1):
        lam = [abs(s0 * x - s1 * y)
               for x, y in zip(gn0._nums[k - 1], gn1._nums[k - 1])]
        if p == inf:
            val = Fraction(max(lam), k * L)
        else:
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
