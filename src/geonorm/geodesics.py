"""Geodesic segments between diagonalizable norms.

Two norms admit a common orthogonal basis; along the segment the weights
interpolate linearly while the basis stays fixed.  The resulting path is
the metric geodesic for every d_p, and evaluation at rational times stays
exact.

``geodesic`` hands its base norm the record of the common basis (see
``geonorm.norms``): n0's own when the two norms share their basis, else a
new one with the inverse ``codiagonalize`` derives, over Q(t) the product
of the kernel's row operations with n0's cached inverse.  Only over Q with
different bases (and for a ``NormGeodesic`` built directly) is the basis
inverted, once, on first use: there it is the filtration-split form of
the kernel's basis C, and its inverse T^{-1} C^{-1} would cost the
product C^{-1} = P B0^{-1}, the coordinates T of the split basis and
their inverse, more than the one elimination.  ``at``, ``start`` and
``end`` re-weight the base norm, so every norm on the segment shares one
record: one basis tuple and one inverse, one ord_t det for ``det_norm``
(none at all over Q), one Sym^m basis per m for ``sym_power_norm``, and
``==`` between two of them reads the basis once.

``geodesic`` reads the ``NormPair`` record of its two norms
(``pair_geodesic`` takes one the caller keeps): the common basis, its
verification and its record are the pair's, shared with ``join`` and the
spectrum of the pair, so a caller that keeps the record runs the kernel
once for all of them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .norms import DiagNorm, NormError, NormPair


@dataclass(frozen=True)
class NormGeodesic:
    field: object
    basis: tuple
    weights0: tuple
    weights1: tuple
    _norm: DiagNorm | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def _base(self) -> DiagNorm:
        if self._norm is None:
            object.__setattr__(self, "_norm", DiagNorm(
                self.field, self.basis, self.weights0))
        return self._norm

    def at(self, t) -> DiagNorm:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise NormError(f"geodesic time {t} outside [0, 1]")
        w = tuple((1 - t) * a + t * b
                  for a, b in zip(self.weights0, self.weights1))
        return self._base()._reweighted(w)

    @property
    def start(self) -> DiagNorm:
        return self._base()._reweighted(self.weights0)

    @property
    def end(self) -> DiagNorm:
        return self._base()._reweighted(self.weights1)


def geodesic(n0: DiagNorm, n1: DiagNorm) -> NormGeodesic:
    return pair_geodesic(NormPair(n0, n1))


def pair_geodesic(pair: NormPair) -> NormGeodesic:
    """``geodesic(pair.n0, pair.n1)``, on the common basis record the
    ``NormPair`` holds, which a ``join`` of the pair shares."""
    _, w0, w1 = pair._common()
    rec = pair._basis_record()
    geo = NormGeodesic(pair.n0.field, rec.basis, tuple(w0), tuple(w1))
    object.__setattr__(geo, "_norm", DiagNorm._on(rec, geo.weights0))
    return geo
