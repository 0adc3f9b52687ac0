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
two norms' bases, with the weights as pivot offsets, so any rational
weights work.  The kernel multiplies n0's cached inverse with n1's basis
as they are, instead of eliminating; over Q(t) its outputs are moved to
the unit balls once, by powers of t.  Its basis stays integer (Q) or Z[t]
(Q(t)) columns over one denominator each, and its weights integer
numerators over the pair's common denominator.  The relative spectrum,
the d_p distances and the relative volume read only the multiset of
weight pairs, which is the same for every common basis, so they take the
kernel's basis and weights as they are, verified.  The common basis of
``codiagonalize``, ``join`` and the geodesics is, over Q, the canonical
form of the filtration split, found on integer rows (``_filtration_form``,
``linalg._extend_echelon``), and over Q(t) the kernel's basis.

A norm holds its weights as integer numerators over one positive
denominator, in lowest terms; ``weights`` is their ``Fraction`` view,
built on first read.  ``__init__`` reads given weights with
``field.cleared``, and ``_on`` takes numerators that a computation built
and reduces them with ``field.lowest_terms``.  Every weight the library
derives is computed on numerators: the weight pairs of two norms over the
lcm D of their denominators (the kernel's offsets, the join's minima, the
spectrum, the distances and the volume), a geodesic slice at t = p/q as
((q - p) a + p b) over q D, and the Sym^m and det weights as sums over
the norm's own denominator.  A ``Fraction`` is built only for a value the
public API returns.

A norm also holds a record of its basis (``_Basis``), which the norms the
library derives on one basis share: the slices of a geodesic, a join on a
shared basis, and the Sym^m norms of any of them.  Over both fields the
record holds the basis only as ``(den, numerators)`` columns, over Z for
Q and over Z[t] for Q(t): a basis the user gives, cleared once at
construction; the common basis of a pair, as the kernel or the
filtration form gives it, put in lowest terms (each column divided by
the gcd of its numerators and denominator: over Q(t) the kernel's
columns carry common polynomial factors, which every product formed from
them would carry on); a Sym^m basis, as ``sym_power_norm`` multiplies it
out.  ``basis`` is the view of those columns as field vectors, built on
first read and cached in the record, and no computation reads it; a
reduced ``Fraction`` or ``RatFunc`` does not depend on how its column is
scaled.  The record holds the inverse of the basis matrix in the row
form of ``linalg.inverse_rows``: one ``(den, numerators)`` pair per row.
It holds ord_t det of the basis, which ``det_norm`` reads: over Q it is
0, read with no determinant, since every basis a norm holds is
invertible; over Q(t) one Bareiss determinant of the Z[t] numerators
per basis.  It holds one Sym^m record per m, so the Sym^m norms of all
the slices of a geodesic share one Sym^m basis, built once.  ``==``
between two norms on one basis evaluates that basis once.

Constructed norms get their inverse without an elimination, from data
their inputs hold: ``join`` and the geodesic slices over Q(t) from the
kernel's row operations and n0's inverse, ``join`` and the geodesics on a
shared basis from n0's record, ``sym_power_norm`` as Sym^m of the input's
inverse and ``tensor_norm`` as the Kronecker product of the two.  Only a
basis the user gives is inverted, from its columns
(``linalg.inverse_columns``), and over Q the filtration-split common
basis, on first use (the one elimination of a spectrum against such a
norm).  ``quotient_norm`` inverts nothing: its exchange argument is a
forward elimination on coordinates read through the cached inverse.  Norms diagonal in the
standard basis share one identity basis per field and dimension and one
identity inverse, so ``DiagNorm.standard`` costs O(d).

The functions of a pair of norms (``spectrum``, ``distance``, ``volume``,
``join``, ``codiagonalize`` and ``geodesics.geodesic``) read one record of
the pair, ``NormPair``, filled on first use: one kernel run, the verified
weight pairs, the verified common basis and its ``_Basis`` record.  A
public function builds a throwaway record, so each call checks and
verifies what it reads; a caller that keeps one (``geonorm run`` does,
per pair of norm names) runs the kernel once for all of them.

Every norm value is read by one batched path, ``_values``, on vectors in
the same row form: ``evaluate`` runs it on one vector, it verifies every
common basis (of ``codiagonalize`` and of ``spectrum``) on its columns,
and it decides ``==`` on batches of basis vectors.  The coordinates of a
vector are dot products of the rows of the cached inverse with it (for a
standard basis, the vector itself).  Over Q the valuation is 0 off zero,
so only the zero pattern of the coordinates matters; it is read from
integer dot products of the integer rows with the vectors' numerators.
Over Q(t) ``linalg.coordinate_orders`` reads each valuation as the order
at t = 0 of a polynomial dot product minus the orders of the two
denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from operator import floordiv, mul, sub

from . import linalg
from .field import (
    INF,
    TADIC,
    TRIVIAL,
    _rational,
    cleared,
    field_by_name,
    format_fraction,
    json_list,
    lowest_terms,
    parse_fraction,
    read_count,
    read_exponent,
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

    The norm keeps its weights as the integer numerators ``_nums`` over
    one positive denominator ``_den``, in lowest terms, and ``weights`` is
    their ``Fraction`` view, built on first read.  The basis and
    everything derived from it alone live in a ``_Basis`` record, which
    every norm on that basis that the library derives shares (the slices
    of a geodesic, a join on a shared basis, their Sym^m norms); a norm
    adds only its weights.
    """

    __slots__ = ("field", "_den", "_nums", "_rec", "_weights")

    def __init__(self, field, basis, weights):
        den, nums = cleared([_rational(w) for w in weights])
        d = len(nums)
        identity = basis is _identities.get((field.name, d))
        if not identity:
            basis = tuple(tuple(field.of(x) for x in vec) for vec in basis)
        if len(basis) != d:
            raise NormError("basis and weights must have equal length")
        if not basis:
            raise NormError("a norm needs dimension >= 1")
        if any(len(vec) != d for vec in basis):
            raise NormError("basis must be square (ambient dim = count)")
        self.field, self._den, self._nums = field, den, nums
        self._weights = None
        if identity:
            self._rec = _standard_record(field, d)
        else:
            self._rec = _vector_record(field, basis)
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
        return cls.standard(field, (0,) * dim)

    @property
    def basis(self):
        return self._rec.basis

    @property
    def weights(self):
        """The weights as ``Fraction``s, built on first read."""
        if self._weights is None:
            den = self._den
            self._weights = tuple(Fraction(x, den) for x in self._nums)
        return self._weights

    @property
    def dim(self) -> int:
        return len(self._nums)

    def is_standard_basis(self) -> bool:
        """O(1) for a norm built by ``standard``; a full check otherwise."""
        return _same_columns(self.field, self._rec.rows,
                             _identity_rows(self.field, self.dim))

    def _inverse(self):
        """The inverse of the basis matrix (the basis vectors as columns), as
        ``linalg.inverse_rows`` gives it, cached in the record: read from
        the record's columns (``linalg.inverse_columns``), or for a basis
        that is the identity the shared identity rows, which its record
        holds from the start."""
        rec = self._rec
        if rec.inv is None:
            try:
                rec.inv = linalg.inverse_columns(self.field, rec.rows)
            except linalg.SingularMatrixError:
                raise NormError("basis vectors are linearly dependent") from None
        return rec.inv

    def _has_identity_inverse(self) -> bool:
        return self._inverse() is _identity_rows(self.field, self.dim)

    @classmethod
    def _on(cls, rec, den, nums) -> "DiagNorm":
        """A norm with the weights ``nums`` / ``den`` (den > 0, integers) on
        the basis of the record ``rec``, which it shares; the weights are
        put in lowest terms (``field.lowest_terms``), and nothing else is
        checked."""
        den, nums = lowest_terms(den, nums)
        out = object.__new__(cls)
        out.field, out._den, out._nums, out._rec = rec.field, den, nums, rec
        out._weights = None
        return out

    # -- evaluation -----------------------------------------------------------

    def _vector(self, v):
        """An ambient vector as a tuple of field elements, of length dim."""
        v = tuple(self.field.of(x) for x in v)
        if len(v) != self.dim:
            raise NormError(f"vector has length {len(v)}, expected {self.dim}")
        return v

    def coordinates(self, v):
        """Coordinates of an ambient vector in the diagonalizing basis."""
        v = self._vector(v)
        if self._has_identity_inverse():
            return v
        return linalg.solve_rows(self.field, self._inverse(), v)

    def evaluate(self, v):
        """-log of the norm of ``v``: an exact rational, or INF iff v = 0.

        Examples:
            >>> n = DiagNorm.standard(TRIVIAL, (Fraction(0), Fraction(1)))
            >>> n.evaluate((Fraction(3), Fraction(0)))
            Fraction(0, 1)
            >>> n.evaluate((Fraction(0), Fraction(0)))
            INF
        """
        clear = linalg.ring(self.field).clear
        x = _values(self, (clear(self._vector(v)),))[0]
        return x if x is INF else Fraction(x, self._den)

    # -- equality: two diagonal norms agree iff they agree on both bases ------
    # (on one basis, once)

    def __eq__(self, other):
        if not isinstance(other, DiagNorm):
            return NotImplemented
        if self.field is not other.field or self.dim != other.dim:
            return False
        vecs = self._rec.rows
        if not _one_basis(self._rec, other._rec):
            vecs += other._rec.rows
        return (_scaled(_values(self, vecs), other._den)
                == _scaled(_values(other, vecs), self._den))

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
        return cls(*_json_parts(obj))


def _scaled(values, k):
    """Numerators times k, INF kept."""
    if k == 1:
        return values
    return tuple(x if x is INF else x * k for x in values)


def _json_parts(obj):
    """``(field, basis, weights)`` of a norm's JSON, read and checked as far
    as ``from_json`` checks before it builds the norm.

    A basis over Q written as the identity, entries ``{"q": "1"}`` and
    ``{"q": "0"}``, is not parsed: it is the shared identity tuple, which
    the norm recognizes as standard at once.
    """
    try:
        field = field_by_name(obj.get("field", "trivial"))
        d = _written_identity(obj["basis"]) if field is TRIVIAL else None
        if d is None:
            basis = tuple(
                tuple(field.from_json(x) for x in vec) for vec in obj["basis"]
            )
        else:
            basis = _identity(field, d)
        weights = tuple(parse_fraction(w)
                        for w in json_list(obj["weights"], "weights"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise NormError(f"malformed norm JSON: {exc}") from exc
    if "dim" in obj and obj["dim"] != len(weights):
        raise NormError("declared dim does not match weights")
    return field, basis, weights


_ZERO_JSON, _ONE_JSON = {"q": "0"}, {"q": "1"}


def _written_identity(rows):
    """d if ``rows`` is the d x d identity, d >= 1, written with the entries
    ``{"q": "1"}`` and ``{"q": "0"}``; else None."""
    if type(rows) is not list or not rows:
        return None
    d = len(rows)
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != d:
            return None
        for j, x in enumerate(row):
            if x != (_ONE_JSON if i == j else _ZERO_JSON):
                return None
    return d


_identities: dict = {}
_inverse_identities: dict = {}


def _identity(field, d):
    """The identity basis of ``field`` in dimension d, one shared tuple."""
    key = (field.name, d)
    if key not in _identities:
        _identities[key] = linalg.identity(field, d)
    return _identities[key]


def _identity_rows(field, d):
    """The identity as ``(den, numerators)`` rows, one shared tuple: the
    columns and the inverse of every standard basis of ``field`` in
    dimension d."""
    key = (field.name, d)
    if key not in _inverse_identities:
        _inverse_identities[key] = linalg.identity_rows(field, d)
    return _inverse_identities[key]


def _standard_record(field, d):
    """A new record of the standard basis: the shared identity tuple, and
    the shared identity rows as its columns and its inverse."""
    eye = _identity_rows(field, d)
    return _Basis(field, eye, eye, _identity(field, d))


class _Basis:
    """What the norms on one basis share, filled on first use.

    ``rows`` is the basis as ``(den, numerators)`` columns over Z (Q) or
    Z[t] (Q(t)), the only form the record is built from, and ``basis``
    their view as field vectors, built on first read and cached in
    ``_view``.  ``inv`` is the inverse rows (see ``DiagNorm._inverse``),
    ``ord_det`` ord_t det of the basis over Q(t) (see ``_ord_det``), and
    ``sym`` maps m to the record of the Sym^m basis (see
    ``sym_power_norm``).
    """

    __slots__ = ("field", "rows", "inv", "ord_det", "sym", "_view")

    def __init__(self, field, rows, inv=None, basis=None):
        self.field, self.rows, self.inv, self._view = field, rows, inv, basis
        self.ord_det = self.sym = None

    @property
    def basis(self):
        if self._view is None:
            self._view = linalg.row_values(self.field, self.rows)
        return self._view


def _vector_record(field, basis):
    """A new record of a basis of field vectors: its columns, each vector
    cleared once.  A cleared unit vector is the identity row, so an
    identity basis shows as the identity rows, which are its inverse."""
    rows = tuple((den, tuple(nums))
                 for den, nums in map(linalg.ring(field).clear, basis))
    eye = _identity_rows(field, len(rows))
    return _Basis(field, rows, eye if rows == eye else None)


def _same_columns(field, a, b):
    """Whether two tuples of ``(den, numerators)`` columns over the ring of
    ``field`` hold the same vectors: u / e = v / f entry by entry, whatever
    the scaling."""
    mul_ = linalg.ring(field).mul
    return a is b or all(mul_(x, f) == mul_(y, e)
                         for (e, u), (f, v) in zip(a, b) for x, y in zip(u, v))


def _one_basis(a: _Basis, b: _Basis) -> bool:
    """Whether two records hold one basis: one record, or one inverse
    object (the shared identity rows of two standard bases)."""
    return a is b or (a.inv is not None and a.inv is b.inv)


def _values(norm: DiagNorm, vectors):
    """The -log norms of a batch of ``(den, numerators)`` vectors (see
    ``linalg.ring``), each the integer numerator of an exact rational over
    the norm's denominator ``_den``, or INF: every norm value goes through
    here.

    n(v) is the least w_j + v(c_j) over the nonzero coordinates c_j of v,
    or INF; coordinate j is the dot product of row j of the cached inverse
    with v, a numerator row over one denominator, and for a standard basis
    v itself.  Over Q the valuation is 0 off zero, so only the zero pattern
    of the coordinates matters: it is read from integer dot products of
    the integer rows of the inverse with the numerators of v, trying the
    weights in increasing order.  Over Q(t) the valuations v(c_j) come from
    ``linalg.coordinate_orders``, which reads them from Z[t] dot products,
    and the value's numerator is v(c_j) ``_den`` + w_j.
    """
    w = norm._nums
    standard = norm._has_identity_inverse()
    if norm.field is not TRIVIAL:
        den = norm._den
        orders = linalg.coordinate_orders(
            None if standard else norm._inverse(), vectors)
        return tuple(min((o * den + wj for o, wj in zip(ords, w)
                          if o is not INF), default=INF) for ords in orders)
    order = sorted(range(norm.dim), key=w.__getitem__)
    if standard:
        return tuple(next((w[j] for j in order if u[j]), INF)
                     for _, u in vectors)
    rows = [nums for _, nums in norm._inverse()]
    return tuple(next((w[j] for j in order if sum(map(mul, rows[j], u))), INF)
                 for _, u in vectors)


# ---------------------------------------------------------------------------
# Codiagonalization.
# ---------------------------------------------------------------------------


def codiagonalize(n0: DiagNorm, n1: DiagNorm, *, inverse=False):
    """Common diagonalizing basis for two norms.

    Returns ``(basis, weights0, weights1)`` such that both input norms are
    diagonal in ``basis`` with the respective weights.  Every result is
    verified before returning: n0(s_i) = weights0[i] and n1(s_i) =
    weights1[i] for each common basis vector s_i (see ``_values``).  With
    ``inverse=True`` a fourth entry holds the inverse of the basis matrix
    as ``linalg.inverse_rows`` gives it, derived without an elimination,
    or None over Q when the bases differ.

    Norms that share their basis are returned as they are, with n0's
    inverse.  Otherwise the weighted-pivot kernel ``linalg.smith`` runs on
    the two bases as columns, with the weights as offsets, through n0's
    cached inverse, so any rational weights work.  Over Q(t) the kernel's
    basis, each vector c_k scaled to t^(-f_k) c_k for the floor f_k of its
    weight in n0 (a basis of n0's unit ball), is the result, and its
    inverse is the Z[t] product of the kernel's P, its rows scaled back,
    and n0's cached inverse (``NormPair._smith``).
    Over Q the kernel's basis c_i, with weights (a_i, b_i), is put in the
    canonical form of the filtration split (``_filtration_form``), and that
    form is the basis returned and verified: for each pair (s, t) that
    occurs, in decreasing order, the RREF rows of F0^s n F1^t = span{c_i :
    a_i >= s, b_i >= t} that are independent of the rows kept before them.
    An RREF is unique, so the result does not depend on the kernel's
    choices.
    """
    return NormPair(n0, n1).codiagonalize(inverse=inverse)


class NormPair:
    """Two norms over one field, and what the functions of the pair share.

    The pair's weights are integer numerators over one denominator, the
    lcm ``_den`` of the two norms' denominators: ``_a`` and ``_b`` are the
    weights of n0 and n1 over it, and every weight pair below is over it
    too.  The record is filled on first use, and every entry is computed
    once: the kernel run (one ``linalg.smith``), the weight pairs of a
    verified common basis (what ``spectrum``, ``distance`` and ``volume``
    read), the verified common basis ``codiagonalize`` returns, its
    inverse, and the ``_Basis`` record that ``join`` and the geodesic
    take.  Norms that share their basis skip the kernel: that basis is the
    common one.  Over Q(t) the kernel's basis is the common basis, verified
    once for both uses; over Q the spectrum reads the kernel's basis,
    verified, and the common basis is its filtration form, verified on its
    own.

    The public functions of a pair build a throwaway record, so each call
    checks and verifies what it reads; a caller that keeps one record (one
    ``geonorm run`` keeps one per pair of norm names) gets each result
    once.  The inputs are checked on first use, in the order the public
    functions check them.
    """

    __slots__ = ("n0", "n1", "_den", "_a", "_b", "_shared", "_kernel",
                 "_weights", "_basis", "_inv", "_rec")

    def __init__(self, n0: DiagNorm, n1: DiagNorm):
        self.n0, self.n1 = n0, n1
        self._den = den = math.lcm(n0._den, n1._den)
        self._a = _scaled(n0._nums, den // n0._den)
        self._b = _scaled(n1._nums, den // n1._den)
        self._shared = self._kernel = self._weights = self._basis = None
        self._inv = self._rec = None

    def _checked(self) -> bool:
        """Whether the norms share their basis, once the inputs are
        checked."""
        if self._shared is None:
            n0, n1 = self.n0, self.n1
            if n0.field is not n1.field:
                raise NormError("cannot codiagonalize norms over different fields")
            if n0.dim != n1.dim:
                raise NormError("cannot codiagonalize norms of different dimensions")
            self._shared = _same_columns(n0.field, n0._rec.rows,
                                         n1._rec.rows)
        return self._shared

    def _verified(self, result):
        """``result``, ``(rows, w0, w1)`` with ``(den, numerators)`` rows and
        weights over ``_den``, once the rows are checked against both
        norms."""
        rows, w0, w1 = result
        n0, n1, den = self.n0, self.n1, self._den
        if (_scaled(_values(n0, rows), den // n0._den) != tuple(w0)
                or _scaled(_values(n1, rows), den // n1._den) != tuple(w1)):
            raise NormError("internal error: common basis failed verification")
        return result

    def _smith(self):
        """``(C, P, w0, w1)``: the kernel's run on the two records' columns
        and n0's cached inverse, with the full weights as offsets.

        Over Q(t) its outputs are then moved to the unit balls: with f_k
        the floor of w0[k] (the weight of the pivot row's basis vector),
        column k of C is multiplied by t^(-f_k), row k of P by t^(f_k),
        and both weights lose f_k, so C^{-1} = P B0^{-1} for n0's basis B0
        and every weight w0[k] lies in [0, 1).  This is the run on the
        columns t^(-floor(w)) s of the unit balls, whose keys, pivots and
        row operations are the same.
        """
        if self._kernel is None:
            n0, n1, D = self.n0, self.n1, self._den
            C, P, w0, w1 = linalg.smith(n0.field, n0._inverse(), n0._rec.rows,
                                        n1._rec.rows, self._a, self._b, D)
            if n0.field is TADIC:
                floors = [x // D for x in w0]
                C = linalg.times_t_powers(C, [-f for f in floors])
                P = linalg.times_t_powers(P, floors)
                w0, w1 = (tuple(x - f * D for x, f in zip(w, floors))
                          for w in (w0, w1))
            self._kernel = C, P, w0, w1
        return self._kernel

    def _kernel_basis(self):
        """``(C, w0, w1)``: the kernel's common basis as ``(den,
        numerators)`` columns and its weights."""
        C, _, w0, w1 = self._smith()
        return C, w0, w1

    def _same_basis(self):
        """``(rows, w0, w1)`` of norms that share their basis: n0's rows."""
        return self.n0._rec.rows, self._a, self._b

    def _split(self):
        """``(rows, w0, w1)``: the kernel's basis, over Q in filtration
        form."""
        if self.n0.field is TADIC:
            return self._kernel_basis()
        return _filtration_form(*self._kernel_basis())

    def _common(self):
        """``(rows, w0, w1)``: the common basis ``codiagonalize`` returns,
        verified."""
        if self._basis is None:
            split = self._same_basis if self._checked() else self._split
            self._basis = self._verified(split())
        return self._basis

    def _weight_pairs(self):
        """``(w0, w1)`` of a verified common basis: the common basis's, or
        over Q with different bases the kernel's, which needs no canonical
        form."""
        if self._weights is None:
            if self._checked() or self.n0.field is TADIC:
                self._weights = self._common()[1:]
            else:
                self._weights = self._verified(self._kernel_basis())[1:]
        return self._weights

    def _inverse(self):
        """The inverse rows of the common basis, derived without an
        elimination: n0's on a shared basis, over Q(t) the product P
        B0^{-1} of the kernel's row operations and n0's cached inverse;
        None over Q with different bases."""
        if self._inv is None and (self._checked() or self.n0.field is TADIC):
            if self._shared:
                self._inv = self.n0._inverse()
            else:
                self._inv = linalg.mul_rows(TADIC, self._smith()[1],
                                            self.n0._inverse())
        return self._inv

    def codiagonalize(self, inverse=False):
        """``codiagonalize(n0, n1, inverse=inverse)`` of the pair."""
        _, w0, w1 = self._common()
        basis = self._basis_record().basis
        den = self._den
        w0, w1 = (tuple(Fraction(x, den) for x in w) for w in (w0, w1))
        return (basis, w0, w1, self._inverse()) if inverse else (basis, w0, w1)

    def _basis_record(self) -> "_Basis":
        """The record of the common basis: n0's own when the norms share
        their basis, else a new one of the common basis's columns in lowest
        terms, with the inverse ``_inverse`` derives."""
        if self._rec is None:
            rows, _, _ = self._common()
            if self._shared:
                self._rec = self.n0._rec
            else:
                self._rec = _Basis(self.n0.field, linalg.lowest_columns(
                    self.n0.field, rows), self._inverse())
        return self._rec

    def _differences(self):
        """The weight differences a - b over ``_den``, sorted."""
        return sorted(map(sub, *self._weight_pairs()))

    def spectrum(self):
        """``spectrum(n0, n1)`` of the pair."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._differences())

    def distance(self, p=1):
        """``distance(n0, n1, p)`` of the pair."""
        p = read_exponent(p, "p", NormError)
        lam = self._differences()
        if p == math.inf:
            return Fraction(max(map(abs, lam)), self._den)
        return Fraction(sum(abs(x) ** p for x in lam),
                        self._den ** p * len(lam))

    def volume(self) -> Fraction:
        """``volume(n0, n1)`` of the pair."""
        return Fraction(sum(map(sub, *self._weight_pairs())), self._den)

    def join(self) -> DiagNorm:
        """``join(n0, n1)`` of the pair."""
        _, w0, w1 = self._common()
        return DiagNorm._on(self._basis_record(), self._den,
                            tuple(map(min, w0, w1)))


def _filtration_form(basis, w0, w1):
    """``(basis, w0, w1)``: a common basis over Q in the form the
    filtration split gives it, from the kernel's basis c_i, ``(den,
    numerators)`` columns over Z, with weights (a_i, b_i), integer
    numerators over one denominator.

    For each pair (s, t) that occurs, in decreasing order, the meet F0^s n
    F1^t is spanned by the integer numerators of the c_i with a_i >= s and
    b_i >= t, and one fraction-free ``linalg._gauss_jordan`` over Z gives
    its RREF: row i of the elimination over its pivot.  A row is kept,
    with weights (s, t), iff it does not reduce to zero by the integer
    echelon of the rows kept so far (``linalg._extend_echelon``, the one
    ``plconvex`` ranks its points with), the choice the pivot columns of
    one RREF of all the meets' rows, stacked, would make.  Each kept row comes
    back as the column ``(row[c], row)``, the RREF row row / row[c].
    """
    kept, echelon = [], []
    for s, t in sorted(set(zip(w0, w1)), reverse=True):
        meet = [list(nums) for (_, nums), x, y in zip(basis, w0, w1)
                if x >= s and y >= t]
        pivots = linalg._gauss_jordan(meet, linalg._int_sub_mul, floordiv, 1)
        for row, c in zip(meet, pivots):
            if linalg._extend_echelon(echelon, row):
                kept.append((row, c, s, t))
    return (tuple((row[c], tuple(row)) for row, c, _, _ in kept),
            tuple(s for _, _, s, _ in kept), tuple(t for _, _, _, t in kept))


# ---------------------------------------------------------------------------
# Spectrum, distances, volume, join.
# ---------------------------------------------------------------------------


def spectrum(n0: DiagNorm, n1: DiagNorm):
    """Relative spectrum: sorted weight differences over a common basis.

    Entry ``lambda_i = w0_i - w1_i = log(n1(s_i) / n0(s_i))`` for a common
    diagonalizing basis, sorted increasingly.  Independent of the choice of
    common basis, so no canonical form is built: the basis is the shared
    one, or the kernel's (``linalg.smith``), and it is verified against
    both norms as ``codiagonalize`` verifies its result.
    """
    return NormPair(n0, n1).spectrum()


def distance(n0: DiagNorm, n1: DiagNorm, p=1):
    """d_p distance, normalized by dimension.

    For finite integer ``p >= 1`` returns the p-th power of the distance,
    ``(1/d) * sum |lambda_i|^p``, which stays rational.  For ``p = math.inf``
    returns ``max |lambda_i|``.  Non-integer finite p would force irrational
    values and is rejected.
    """
    return NormPair(n0, n1).distance(p)


def volume(n0: DiagNorm, n1: DiagNorm) -> Fraction:
    """Raw spectrum sum.  Cocycle: vol(a,b) + vol(b,c) = vol(a,c)."""
    return NormPair(n0, n1).volume()


def join(n0: DiagNorm, n1: DiagNorm) -> DiagNorm:
    """Pointwise maximum of the two norms (minimum of the weights).

    On a shared basis the result shares n0's record.  Otherwise it takes
    a new record of the common basis with the inverse ``codiagonalize``
    derives; over Q with different bases there is none, and the basis is
    inverted on first use.
    """
    return NormPair(n0, n1).join()


# ---------------------------------------------------------------------------
# Functorial constructions.
# ---------------------------------------------------------------------------


def det_norm(n: DiagNorm) -> DiagNorm:
    """Norm induced on the top exterior power (a line): weights add up.

    Normalized on the standard generator e_1 ^ ... ^ e_d.  The wedge of
    the presenting basis differs from it by det(basis), whose valuation
    shifts the weight; this makes the result independent of which
    diagonalizing basis presents the norm.  The valuation is read from the
    basis record (``_ord_det``): over Q it is 0 with no determinant, and
    over Q(t) it is computed once per basis.  The weight is summed on
    n's numerators.
    """
    total = sum(n._nums) - _ord_det(n._rec) * n._den
    return DiagNorm._on(_standard_record(n.field, 1), n._den, (total,))


def _ord_det(rec: _Basis):
    """The valuation of the determinant of an invertible basis: 0 over the
    trivially valued Q, and over Q(t) read from the record's Z[t] columns
    (``linalg.det_order``), cached in the record."""
    if rec.field is not TADIC:
        return 0
    if rec.ord_det is None:
        rec.ord_det = linalg.det_order(rec.rows)
    return rec.ord_det


def sym_monomials(dim: int, m: int):
    """Exponent tuples of the degree-m monomials in ``dim`` variables."""
    out = []
    for combo in combinations_with_replacement(range(dim), m):
        expo = [0] * dim
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    return sorted(out)


def _form_products(forms, combos, index, ring):
    """Coefficients of products of linear forms over the degree-m monomials.

    Form i is sum_r forms[i][r] x_r, with coefficients in ``ring`` (Z or
    Z[t], see ``linalg.ring``); for each combination (a multiset of form
    indices) the product of its forms, as a list over the monomial
    exponents in ``index``.
    """
    d = len(forms[0])
    one, zero, mul, add = ring.one, ring.zero, ring.mul, ring.add
    out = []
    for combo in combos:
        poly = {(0,) * d: one}
        # multiply the linear forms of the chosen vectors
        for i in combo:
            nxt = {}
            for expo, coeff in poly.items():
                for r, c in enumerate(forms[i]):
                    if not c:
                        continue
                    e2 = list(expo)
                    e2[r] += 1
                    e2 = tuple(e2)
                    nxt[e2] = add(nxt.get(e2, zero), mul(coeff, c))
            poly = nxt
        col = [zero] * len(index)
        for expo, coeff in poly.items():
            col[index[expo]] = coeff
        out.append(col)
    return out


def sym_power_norm(n: DiagNorm, m: int) -> DiagNorm:
    """m-th symmetric power: products of basis vectors, summed weights.

    The symmetric power is modelled as degree-m polynomials in the ambient
    coordinates; the basis vector for a multiset I is the polynomial
    product of the corresponding linear forms, and its weight is the sum
    of the factors' weights, summed on n's numerators.  The basis depends
    on n's basis alone, so it is built once per basis record and m
    (``_sym_power_basis``) and shared by the Sym^m norms of every norm on
    that record; only the weights are summed per call.
    """
    read_count(m, "symmetric power m", NormError)
    combos = list(combinations_with_replacement(range(n.dim), m))
    w = n._nums
    nums = tuple(sum(w[i] for i in combo) for combo in combos)
    rec = n._rec
    if rec.sym is None:
        rec.sym = {}
    if m not in rec.sym:
        rec.sym[m] = _sym_power_basis(n, m, combos)
    return DiagNorm._on(rec.sym[m], n._den, nums)


def _sym_power_basis(n: DiagNorm, m: int, combos) -> _Basis:
    """The record of Sym^m of n's basis, its basis vectors in the order of
    ``combos``, with its columns and inverse.

    The products run on numerators: each basis vector s_i is the record's
    column ``(e_i, numerators)`` over Z or Z[t], the forms are multiplied
    in that ring, and the products over the product of the factors' e_i
    are the columns of the result.

    The basis is not inverted.  In monomial bases Sym^m is a functor, so
    the inverse is Sym^m of the inverse B^{-1} = diag(1/e) N that ``n``
    caches: row alpha of Sym^m(N), over prod_i e_i^alpha_i, with the rows
    taken in the order of the basis (combinations, not sorted monomials).
    """
    field, d = n.field, n.dim
    index = {e: i for i, e in enumerate(sym_monomials(d, m))}
    ring = linalg.ring(field)
    basis = n._rec.rows
    products = _form_products([nums for _, nums in basis], combos, index,
                              ring)
    cols = tuple((reduce(ring.mul, (basis[i][0] for i in combo)), tuple(col))
                 for combo, col in zip(combos, products))
    inv = n._inverse()
    products = _form_products(list(zip(*(nums for _, nums in inv))), combos,
                              index, ring)
    at = [index[tuple(map(combo.count, range(d)))] for combo in combos]
    by_monomial = [None] * len(combos)
    for col, alpha in zip(products, at):
        by_monomial[alpha] = col
    rows = tuple(
        (reduce(ring.mul, (inv[i][0] for i in combo)),
         tuple(col[alpha] for col in by_monomial))
        for combo, alpha in zip(combos, at))
    return _Basis(field, cols, rows)


def tensor_norm(n0: DiagNorm, n1: DiagNorm) -> DiagNorm:
    """Tensor product norm: product basis, summed weights.

    The columns of the product basis and its inverse are the Kronecker
    products of the two records' columns and of the two cached inverses,
    so nothing is inverted; the weights are summed over the lcm of the
    two denominators.
    """
    field = n0.field
    if field is not n1.field:
        raise NormError("tensor factors must share the field")
    den = math.lcm(n0._den, n1._den)
    a, b = _scaled(n0._nums, den // n0._den), _scaled(n1._nums, den // n1._den)
    rec = _Basis(field, linalg.kron_rows(field, n0._rec.rows, n1._rec.rows),
                 linalg.kron_rows(field, n0._inverse(), n1._inverse()))
    return DiagNorm._on(rec, den, tuple(x + y for x in a for y in b))


def quotient_norm(n: DiagNorm, spanning):
    """Quotient norm on V/W for W spanned by the given vectors.

    Returns ``(qnorm, project)``: the quotient norm is diagonal in the
    images of an adapted basis, and ``project`` maps an ambient vector to
    its quotient coordinates.  The ultrametric exchange argument is a
    forward elimination on coordinates in n's basis, read through its
    cached inverse: the coordinate row of each RREF row of W is reduced by
    the earlier pivot rows, and its pivot is the first column p least in
    v(x_p) + w_p, the column whose basis vector that W vector replaces.
    The quotient keeps the weights of the other columns, and ``project``
    reduces the coordinates of v by the same rows and keeps those columns.
    """
    W = linalg.rref([n._vector(v) for v in spanning])[0]
    if not W:
        raise NormError("quotient by the zero subspace is the norm itself")
    if len(W) >= n.dim:
        raise NormError("quotient by the full space is zero-dimensional")
    valuation, den, nums = n.field.valuation, n._den, n._nums
    rows = []

    def reduced(v):
        x = n.coordinates(v)
        for p, row in rows:
            if x[p]:
                c = x[p] / row[p]
                x = tuple(a - c * b if b else a for a, b in zip(x, row))
        return x

    for w in W:
        x = reduced(w)
        rows.append((min((p for p, a in enumerate(x) if a),
                         key=lambda p: valuation(x[p]) * den + nums[p]), x))
    pivots = {p for p, _ in rows}
    remaining = [p for p in range(n.dim) if p not in pivots]
    qnorm = DiagNorm._on(_standard_record(n.field, len(remaining)), den,
                         tuple(nums[p] for p in remaining))

    def project(v):
        x = reduced(v)
        return tuple(x[p] for p in remaining)

    return qnorm, project
