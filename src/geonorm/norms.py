"""Diagonalizable ultrametric norms on finite-dimensional spaces.

A norm is described by a diagonalizing basis together with rational
weights: the i-th basis vector has norm ``exp(-weights[i])``, and for
``v = sum a_i s_i`` the norm is ``max_i |a_i| * exp(-weights[i])``.
Everything is done on the -log scale, so ``evaluate`` returns
``min_i (valuation(a_i) + weights[i])``, an exact rational (``INF`` for 0).

The central construction is ``codiagonalize``: any two diagonalizable
norms over the same field admit a common diagonalizing basis
(Goldman-Iwahori).  One algorithm finds it over both fields: the
weighted-pivot kernel ``linalg.smith`` on the change of basis between the
two norms' bases, with the weights as pivot offsets (over Q(t) their
fractional parts, after shifting each basis vector by t^(-floor(w)), so
any rational weights work).  Over Q the result is put in the canonical
form of the filtration split.  The relative spectrum, the d_p distances,
the relative volume and the join (max) all read off the common basis.
This module only handles field elements.

Norms diagonal in the standard basis share one identity basis per field
and dimension, which is also their inverse, so ``DiagNorm.standard`` costs
O(d).  Every ``codiagonalize`` result is verified, and ``==`` is decided,
by evaluating norms on batches of vectors without ``evaluate``: the
coordinates of a vector are dot products of the rows of the cached inverse
with it (for a standard basis, the vector itself).  Over Q the valuation is
0 off zero, so only the zero pattern of the coordinates matters; it is read
from integer dot products of integer-scaled rows and vectors (positive
scalings keep the pattern).  Over Q(t) ``linalg.coordinate_orders`` scales
rows and vectors to Z[t] and reads each valuation as the order at t = 0 of
a polynomial dot product minus the orders of the two scalings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

from . import linalg
from .field import (
    INF,
    FieldError,
    TADIC,
    TRIVIAL,
    field_by_name,
    format_fraction,
    parse_fraction,
)


class NormError(ValueError):
    """Raised on malformed norms or unsupported codiagonalization input."""


class DiagNorm:
    """A diagonalizable norm: basis vectors plus -log weights.

    Args:
        field: scalar backend (``TRIVIAL`` or ``TADIC``).
        basis: tuple of basis vectors, each a tuple of field elements in
            ambient coordinates.  Must be linearly independent, square
            and non-empty (dimension >= 1).
        weights: one rational per basis vector; ``norm(s_i) = e^{-w_i}``.
    """

    __slots__ = ("field", "basis", "weights", "_inv")

    def __init__(self, field, basis, weights):
        weights = tuple(Fraction(w) for w in weights)
        if basis is not _identities.get((field.name, len(weights))):
            basis = tuple(tuple(field.of(x) for x in vec) for vec in basis)
        if len(basis) != len(weights):
            raise NormError("basis and weights must have equal length")
        if not basis:
            raise NormError("a norm needs dimension >= 1")
        if any(len(vec) != len(basis) for vec in basis):
            raise NormError("basis must be square (ambient dim = count)")
        self.field = field
        self.basis = basis
        self.weights = weights
        self._inv = None
        # fail fast on dependent bases; identity is recognized cheaply
        self._inverse()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def standard(cls, field, weights) -> "DiagNorm":
        """Norm diagonal in the standard basis with the given weights, in O(d)."""
        weights = tuple(weights)
        return cls(field, _identity(field, len(weights)), weights)

    @classmethod
    def trivial(cls, field, dim) -> "DiagNorm":
        return cls.standard(field, (Fraction(0),) * dim)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def is_standard_basis(self) -> bool:
        """O(1) for a norm built by ``standard``; a full check otherwise."""
        eye = _identity(self.field, self.dim)
        return self.basis is eye or self.basis == eye

    def _inverse(self):
        if self._inv is None:
            if self.is_standard_basis():
                self._inv = self.basis  # the identity is its own inverse
            else:
                matrix = tuple(
                    tuple(self.basis[c][r] for c in range(self.dim))
                    for r in range(self.dim)
                )
                try:
                    self._inv = linalg.invert(self.field, matrix)
                except linalg.SingularMatrixError:
                    raise NormError("basis vectors are linearly dependent") from None
        return self._inv

    def _reweighted(self, weights) -> "DiagNorm":
        """A norm sharing this basis tuple and its cached inverse, with the
        given weights, coerced and checked as in ``__init__``."""
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != self.dim:
            raise NormError("basis and weights must have equal length")
        out = object.__new__(DiagNorm)
        out.field, out.basis, out.weights = self.field, self.basis, weights
        out._inv = self._inv
        return out

    # -- evaluation -----------------------------------------------------------

    def coordinates(self, v):
        """Coordinates of an ambient vector in the diagonalizing basis."""
        v = tuple(self.field.of(x) for x in v)
        if len(v) != self.dim:
            raise NormError(f"vector has length {len(v)}, expected {self.dim}")
        inv = self._inverse()
        return v if inv is self.basis else linalg.solve_from_inverse(inv, v)

    def evaluate(self, v):
        """-log of the norm of ``v``: an exact rational, or INF iff v = 0.

        Examples:
            >>> n = DiagNorm.standard(TRIVIAL, (Fraction(0), Fraction(1)))
            >>> n.evaluate((Fraction(3), Fraction(0)))
            Fraction(0, 1)
            >>> n.evaluate((Fraction(0), Fraction(0)))
            INF
        """
        coords = self.coordinates(v)
        best = INF
        for a, w in zip(coords, self.weights):
            val = self.field.valuation(a)
            if val is INF:
                continue
            cand = val + w
            if cand < best:
                best = cand
        return best

    # -- equality: two diagonal norms agree iff they agree on both bases ------

    def __eq__(self, other):
        if not isinstance(other, DiagNorm):
            return NotImplemented
        if self.field is not other.field or self.dim != other.dim:
            return False
        vecs = self.basis + other.basis
        return _values(self, vecs) == _values(other, vecs)

    __hash__ = None

    def __repr__(self):
        ws = ", ".join(format_fraction(w) for w in self.weights)
        return f"DiagNorm({self.field.name}, dim={self.dim}, weights=[{ws}])"

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {
            "field": self.field.name,
            "dim": self.dim,
            "basis": [[self.field.to_json(x) for x in vec] for vec in self.basis],
            "weights": [format_fraction(w) for w in self.weights],
        }

    @classmethod
    def from_json(cls, obj) -> "DiagNorm":
        try:
            field = field_by_name(obj.get("field", "trivial"))
            basis = tuple(
                tuple(field.from_json(x) for x in vec) for vec in obj["basis"]
            )
            weights = tuple(parse_fraction(w) for w in obj["weights"])
        except (KeyError, TypeError, FieldError) as exc:
            raise NormError(f"malformed norm JSON: {exc}") from exc
        if "dim" in obj and obj["dim"] != len(weights):
            raise NormError("declared dim does not match weights")
        return cls(field, basis, weights)


_identities: dict = {}


def _identity(field, d):
    """The identity basis of ``field`` in dimension d, one shared tuple."""
    key = (field.name, d)
    if key not in _identities:
        _identities[key] = linalg.identity(field, d)
    return _identities[key]


def _values(norm: DiagNorm, vectors):
    """``tuple(norm.evaluate(v) for v in vectors)``, batched.

    n(v) is the least w_j + v(c_j) over the nonzero coordinates c_j of v,
    or INF; the coordinates are the dot products of the rows of the cached
    inverse with v, and for a standard basis v itself.  Over Q the
    valuation is 0 off zero, so only the zero pattern of the coordinates
    matters: it is read from integer dot products of the integer-scaled
    rows of the inverse with the integer-scaled v, trying the weights in
    increasing order.  Over Q(t) the valuations v(c_j) come from
    ``linalg.coordinate_orders``, which reads them from Z[t] dot products.
    """
    w = norm.weights
    inv = norm._inverse()
    # not cached on the norm: callers keep many norms alive, each for one use
    if norm.field is not TRIVIAL:
        orders = linalg.coordinate_orders(
            None if inv is norm.basis else inv, vectors)
        return tuple(min((o + wj for o, wj in zip(ords, w) if o is not INF),
                         default=INF) for ords in orders)
    order = sorted(range(norm.dim), key=w.__getitem__)
    if inv is norm.basis:
        return tuple(next((w[j] for j in order if v[j]), INF) for v in vectors)
    rows = [linalg._cleared(row)[1] for row in inv]
    out = []
    for v in vectors:
        ints = linalg._cleared(v)[1]
        out.append(next((w[j] for j in order if sum(map(mul, rows[j], ints))),
                        INF))
    return tuple(out)


# ---------------------------------------------------------------------------
# Codiagonalization.
# ---------------------------------------------------------------------------


def codiagonalize(n0: DiagNorm, n1: DiagNorm):
    """Common diagonalizing basis for two norms.

    Returns ``(basis, weights0, weights1)`` such that both input norms are
    diagonal in ``basis`` with the respective weights.  Every result is
    verified before returning: n0(s_i) = weights0[i] and n1(s_i) =
    weights1[i] for each common basis vector s_i (see ``_values``).

    Norms that share their basis are returned as they are.  Otherwise the
    weighted-pivot kernel ``linalg.smith`` runs on the two bases as
    columns, with the weights as offsets.  Over Q(t) each column s_i is
    shifted to t^(-floor(w_i)) s_i, a basis of the unit ball, and its
    offset is the fractional part of w_i, so any rational weights work; the
    kernel's basis is the result.  Over Q the kernel's basis c_i, with
    weights (a_i, b_i), is put in the form the filtration split gave it:
    for each pair (s, t) that occurs, in decreasing order, the RREF rows of
    F0^s n F1^t = span{c_i : a_i >= s, b_i >= t} are stacked, and each row
    independent of the rows before it is kept, read from the pivot columns
    of one RREF.  An RREF is unique, so the result does not depend on the
    kernel's choices.
    """
    if n0.field is not n1.field:
        raise NormError("cannot codiagonalize norms over different fields")
    if n0.dim != n1.dim:
        raise NormError("cannot codiagonalize norms of different dimensions")
    split = (_codiagonalize_same_basis if n0.basis == n1.basis
             else _codiagonalize_pivots)
    basis, w0, w1 = result = split(n0, n1)
    if _values(n0, basis) != tuple(w0) or _values(n1, basis) != tuple(w1):
        raise NormError("internal error: common basis failed verification")
    return result


def _codiagonalize_same_basis(n0: DiagNorm, n1: DiagNorm):
    return n0.basis, n0.weights, n1.weights


def _codiagonalize_pivots(n0: DiagNorm, n1: DiagNorm):
    d = n0.dim
    (cols0, a), (cols1, b) = _kernel_columns(n0), _kernel_columns(n1)
    P, w0, w1 = linalg.smith(list(zip(*cols0)), list(zip(*cols1)), a, b)
    # common basis: the columns of C = M0 P^{-1}, i.e. the rows of C^T,
    # which solves P^T C^T = M0^T: the right half of the RREF of [P^T | M0^T]
    reduced, _ = linalg.rref([
        tuple(P[r][c] for r in range(d)) + tuple(cols0[c]) for c in range(d)
    ])
    basis = tuple(row[d:] for row in reduced)
    if n0.field is TADIC:
        return basis, w0, w1
    stacked = []
    for s, t in sorted(set(zip(w0, w1)), reverse=True):
        meet = [vec for vec, x, y in zip(basis, w0, w1) if x >= s and y >= t]
        stacked += [(row, s, t) for row in linalg.rref(meet)[0]]
    _, pivots = linalg.rref(list(zip(*(row for row, _, _ in stacked))))
    basis, w0, w1 = zip(*(stacked[k] for k in pivots))
    return basis, w0, w1


def _kernel_columns(n: DiagNorm):
    """The columns and offsets ``linalg.smith`` starts from: over Q the
    basis and weights, over Q(t) the columns t^(-floor(w_i)) s_i and the
    fractional parts of the w_i."""
    if n.field is not TADIC:
        return n.basis, n.weights
    floors = [math.floor(w) for w in n.weights]
    return ([tuple(x.shifted(-f) for x in vec) if f else vec
             for vec, f in zip(n.basis, floors)],
            [w - f for w, f in zip(n.weights, floors)])


# ---------------------------------------------------------------------------
# Spectrum, distances, volume, join.
# ---------------------------------------------------------------------------


def spectrum(n0: DiagNorm, n1: DiagNorm):
    """Relative spectrum: sorted weight differences over a common basis.

    Entry ``lambda_i = w0_i - w1_i = log(n1(s_i) / n0(s_i))`` for a common
    diagonalizing basis, sorted increasingly.  Independent of the choice of
    common basis.
    """
    _, w0, w1 = codiagonalize(n0, n1)
    return tuple(sorted(a - b for a, b in zip(w0, w1)))


def distance(n0: DiagNorm, n1: DiagNorm, p=1):
    """d_p distance, normalized by dimension.

    For finite integer ``p >= 1`` returns the p-th power of the distance,
    ``(1/d) * sum |lambda_i|^p``, which stays rational.  For ``p = math.inf``
    returns ``max |lambda_i|``.  Non-integer finite p would force irrational
    values and is rejected.
    """
    if p != math.inf:
        try:
            p = Fraction(p)
        except (ArithmeticError, ValueError, TypeError):
            p = None  # -inf, nan and non-numbers
        if p is None or p.denominator != 1 or p < 1:
            raise NormError(
                "finite p must be an integer >= 1 for exact arithmetic")
        p = int(p)
    lam = spectrum(n0, n1)
    if p == math.inf:
        return max((abs(x) for x in lam), default=Fraction(0))
    return Fraction(sum(abs(x) ** p for x in lam), len(lam))


def volume(n0: DiagNorm, n1: DiagNorm) -> Fraction:
    """Raw spectrum sum.  Cocycle: vol(a,b) + vol(b,c) = vol(a,c)."""
    return sum(spectrum(n0, n1), Fraction(0))


def join(n0: DiagNorm, n1: DiagNorm) -> DiagNorm:
    """Pointwise maximum of the two norms (minimum of the weights)."""
    basis, w0, w1 = codiagonalize(n0, n1)
    return DiagNorm(n0.field, basis, tuple(min(a, b) for a, b in zip(w0, w1)))


# ---------------------------------------------------------------------------
# Functorial constructions.
# ---------------------------------------------------------------------------


def det_norm(n: DiagNorm) -> DiagNorm:
    """Norm induced on the top exterior power (a line): weights add up.

    Normalized on the standard generator e_1 ^ ... ^ e_d.  The wedge of
    the presenting basis differs from it by det(basis), whose valuation
    shifts the weight; this makes the result independent of which
    diagonalizing basis presents the norm.
    """
    total = sum(n.weights, Fraction(0))
    total -= n.field.valuation(linalg.determinant(n.basis))
    return DiagNorm(n.field, ((n.field.one,),), (total,))


def sym_monomials(dim: int, m: int):
    """Exponent tuples of the degree-m monomials in ``dim`` variables."""
    out = []
    for combo in combinations_with_replacement(range(dim), m):
        expo = [0] * dim
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return sorted(out)


def sym_power_norm(n: DiagNorm, m: int) -> DiagNorm:
    """m-th symmetric power: products of basis vectors, summed weights.

    The symmetric power is modelled as degree-m polynomials in the ambient
    coordinates; the basis vector for a multiset I is the polynomial
    product of the corresponding linear forms, and its weight is the sum
    of the factors' weights.
    """
    if m < 1:
        raise NormError("symmetric power needs m >= 1")
    field = n.field
    d = n.dim
    monos = sym_monomials(d, m)
    index = {e: i for i, e in enumerate(monos)}
    basis = []
    weights = []
    for combo in combinations_with_replacement(range(d), m):
        poly = {(0,) * d: field.one}
        # multiply the linear forms of the chosen basis vectors
        for i in combo:
            nxt = {}
            for expo, coeff in poly.items():
                for r, c in enumerate(n.basis[i]):
                    if not c:
                        continue
                    e2 = list(expo)
                    e2[r] += 1
                    e2 = tuple(e2)
                    nxt[e2] = nxt.get(e2, field.zero) + coeff * c
            poly = nxt
        col = [field.zero] * len(monos)
        for expo, coeff in poly.items():
            col[index[expo]] = coeff
        basis.append(tuple(col))
        weights.append(sum((n.weights[i] for i in combo), Fraction(0)))
    return DiagNorm(field, tuple(basis), tuple(weights))


def tensor_norm(n0: DiagNorm, n1: DiagNorm) -> DiagNorm:
    """Tensor product norm: product basis, summed weights."""
    if n0.field is not n1.field:
        raise NormError("tensor factors must share the field")
    field = n0.field
    basis = []
    weights = []
    for vec0, w0 in zip(n0.basis, n0.weights):
        for vec1, w1 in zip(n1.basis, n1.weights):
            basis.append(tuple(a * b for a in vec0 for b in vec1))
            weights.append(w0 + w1)
    return DiagNorm(field, tuple(basis), tuple(weights))


def quotient_norm(n: DiagNorm, spanning):
    """Quotient norm on V/W for W spanned by the given vectors.

    Returns ``(qnorm, project)``: the quotient norm is diagonal in the
    images of an adapted basis, and ``project`` maps an ambient vector to
    its quotient coordinates.  Uses the ultrametric exchange argument to
    build a diagonalizing basis of the original norm whose first vectors
    span W; the quotient then simply drops those coordinates.
    """
    field = n.field
    spanning = [tuple(field.of(x) for x in vec) for vec in spanning]
    W = linalg.span_basis([v for v in spanning if any(v)])
    k = len(W)
    if k == 0:
        raise NormError("quotient by the zero subspace is the norm itself")
    if k >= n.dim:
        raise NormError("quotient by the full space is zero-dimensional")

    vecs = list(n.basis)
    weights = list(n.weights)
    swapped = []
    for w in W:
        matrix_inv = linalg.invert(
            field,
            tuple(tuple(vecs[c][r] for c in range(n.dim)) for r in range(n.dim)),
        )
        coords = list(linalg.solve_from_inverse(matrix_inv, w))
        # remove components along already swapped-in W vectors (stay in W)
        for p in swapped:
            coords[p] = field.zero
        best = None
        for p, a in enumerate(coords):
            if p in swapped:
                continue
            val = field.valuation(a)
            if val is INF:
                continue
            cand = val + weights[p]
            if best is None or cand < best[0]:
                best = (cand, p)
        if best is None:
            raise NormError("spanning vectors are linearly dependent")
        value, p_star = best
        w_reduced = tuple(
            sum((coords[c] * vecs[c][r] for c in range(n.dim) if coords[c]),
                field.zero)
            for r in range(n.dim)
        )
        vecs[p_star] = w_reduced
        weights[p_star] = value
        swapped.append(p_star)

    remaining = [p for p in range(n.dim) if p not in swapped]
    qnorm = DiagNorm.standard(field, tuple(weights[p] for p in remaining))
    final_inv = linalg.invert(
        field,
        tuple(tuple(vecs[c][r] for c in range(n.dim)) for r in range(n.dim)),
    )

    def project(v):
        coords = linalg.solve_from_inverse(final_inv, tuple(field.of(x) for x in v))
        return tuple(coords[p] for p in remaining)

    return qnorm, project
