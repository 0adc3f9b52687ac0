"""Geodesic segments between diagonalizable norms.

Two norms admit a common orthogonal basis; along the segment the weights
interpolate linearly while the basis stays fixed.  The resulting path is
the metric geodesic for every d_p, and evaluation at rational times stays
exact.

A geodesic holds its two weight vectors as integer numerators a and b
over one positive denominator D, and the slice at t = p/q has the weights
((q - p) a + p b) over q D, put in lowest terms, with no ``Fraction``
built.  ``basis``, ``weights0`` and ``weights1`` are views: a geodesic of
two norms builds the basis as field vectors (``Fraction``s or
``RatFunc``s) and the ``Fraction`` weights only when they are read.

``geodesic`` hands its base norm the record of the common basis (see
``geonorm.norms``): n0's own when the two norms share their basis, else a
new one that holds the common basis as ``(den, numerators)`` columns over
Z or Z[t] in lowest terms, with the inverse ``codiagonalize`` derives,
over Q(t) the product of the kernel's row operations with n0's cached
inverse.  Only over Q with different bases (and for a ``NormGeodesic``
built directly) is the basis inverted, once, on first use: there it is
the filtration-split form of the kernel's basis C, and its inverse
T^{-1} C^{-1} would cost the product C^{-1} = P B0^{-1}, the coordinates
T of the split basis and their inverse, more than the one elimination.
``at``, ``start`` and ``end`` re-weight the base norm, so every norm on
the segment shares one record: one basis and one inverse, one ord_t det
for ``det_norm`` (read from the Z[t] columns over Q(t), none at all over
Q), one Sym^m basis per m for ``sym_power_norm``, and ``==`` between two
of them reads the basis once.

``geodesic`` reads the ``NormPair`` record of its two norms
(``pair_geodesic`` takes one the caller keeps): the common basis, its
verification and its record are the pair's, shared with ``join`` and the
spectrum of the pair, so a caller that keeps the record runs the kernel
once for all of them.
"""

from __future__ import annotations

from fractions import Fraction

from .norms import DiagNorm, NormError, NormPair, _numerators


class NormGeodesic:
    """The geodesic from the norm with ``weights0`` to the norm with
    ``weights1`` on one common ``basis`` over ``field``.

    Compared, hashed and printed by those four values.  One built directly
    checks its basis and weights as ``DiagNorm`` does, on first use.
    """

    __slots__ = ("field", "_basis", "_weights", "_norm", "_ends")

    def __init__(self, field, basis, weights0, weights1):
        self.field, self._basis = field, basis
        self._weights = (weights0, weights1)
        self._norm = self._ends = None

    @classmethod
    def _of(cls, norm: DiagNorm, den, a, b) -> "NormGeodesic":
        """The geodesic from ``norm`` to the norm on its record with the
        weights b / den, for its weights a / den."""
        geo = object.__new__(cls)
        geo.field, geo._basis, geo._weights = norm.field, None, None
        geo._norm, geo._ends = norm, (den, a, b)
        return geo

    @property
    def basis(self):
        return self._basis if self._basis is not None else self._norm.basis

    @property
    def weights0(self):
        return self._fractions()[0]

    @property
    def weights1(self):
        return self._fractions()[1]

    def _fractions(self):
        if self._weights is None:
            den, a, b = self._ends
            self._weights = tuple(tuple(Fraction(x, den) for x in w)
                                  for w in (a, b))
        return self._weights

    def _base(self) -> DiagNorm:
        if self._norm is None:
            self._norm = DiagNorm(self.field, self._basis, self._weights[0])
        return self._norm

    def _numerators(self):
        """``(D, a, b)``: both weight vectors over one denominator."""
        if self._ends is None:
            d = self._base().dim
            w0, w1 = self._weights
            den, nums = _numerators(tuple(w0) + tuple(w1))
            if len(nums) != 2 * d:
                raise NormError("basis and weights must have equal length")
            self._ends = (den, nums[:d], nums[d:])
        return self._ends

    def at(self, t) -> DiagNorm:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise NormError(f"geodesic time {t} outside [0, 1]")
        den, a, b = self._numerators()
        p, q = t.numerator, t.denominator
        return DiagNorm._on(self._base()._rec, q * den,
                            tuple((q - p) * x + p * y for x, y in zip(a, b)))

    @property
    def start(self) -> DiagNorm:
        den, a, _ = self._numerators()
        return DiagNorm._on(self._base()._rec, den, a)

    @property
    def end(self) -> DiagNorm:
        den, _, b = self._numerators()
        return DiagNorm._on(self._base()._rec, den, b)

    def _key(self):
        return (self.field, self.basis, self.weights0, self.weights1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"NormGeodesic(field={self.field!r}, basis={self.basis!r}, "
                f"weights0={self.weights0!r}, weights1={self.weights1!r})")


def geodesic(n0: DiagNorm, n1: DiagNorm) -> NormGeodesic:
    return pair_geodesic(NormPair(n0, n1))


def pair_geodesic(pair: NormPair) -> NormGeodesic:
    """``geodesic(pair.n0, pair.n1)``, on the common basis record the
    ``NormPair`` holds, which a ``join`` of the pair shares; its weights
    are the pair's, over the pair's denominator."""
    _, a, b = pair._common()
    return NormGeodesic._of(DiagNorm._on(pair._basis_record(), pair._den, a),
                            pair._den, a, b)
