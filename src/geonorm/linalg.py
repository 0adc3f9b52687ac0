"""Exact dense linear algebra over either scalar backend.

Vectors are tuples of field elements, matrices are tuples of row tuples.

No elimination runs in the field.  Each column of the matrix is scaled to
integers over the lcm of its denominators (Q, ``Fraction`` entries) or to
integer polynomials in t over a common multiple of its denominators (Q(t),
``RatFunc`` entries, Z[t]), and ``rref`` and ``inverse_rows`` run one
fraction-free Gauss-Jordan loop, ``_gauss_jordan``, over Z or Z[t].
Determinants run one triangular Bareiss loop, ``_bareiss``, over Z or
Z[t], on the row-scaled matrix.  ``rref`` builds its field elements once,
at the end: one ``Fraction`` or one reduced ``RatFunc`` per entry.  A
vector over Q is read by the package's one reader, ``field.cleared`` (the
ring's ``clear`` over Z).  The one integer echelon, ``_extend_echelon``,
and the one ``_primitive``, which divides an integer row by its gcd (the
ring's ``primitive`` and ``lowest`` over Z), serve the filtration split of
``norms`` and the hulls of ``plconvex``.

An inverse is kept in row form: one ``(den, numerators)`` pair per row,
over Z for Q and over Z[t] for Q(t), read straight off the elimination,
and ``row_values`` gives its field entries.  A basis is kept in the same
form, one ``(den, numerators)`` pair per column: ``inverse_columns``
inverts it from its numerators (``inverse_rows`` clears a matrix to its
columns and inverts those), ``det_order`` reads ord_t of its determinant
from the Bareiss loop on its Z[t] numerators, and ``lowest_columns``
divides each column by the gcd of its entries, so the same vectors hold
the fewest coefficients.  Inverses in row form compose without field
elements: ``mul_rows``, ``kron_rows`` and ``times_t_powers`` (each row
times a power of t).  The norms read coordinates only
through row form: ``solve_rows`` builds the coordinates of a vector as
field elements, and ``coordinate_orders`` reads their t-adic valuations
from Z[t] dot products with cleared vectors, without forming a
``RatFunc``.

``smith`` is the one codiagonalization kernel: a Smith loop on
X = M0^{-1} M1 whose pivot minimizes ord(X_ij) + a_i - b_j for row offsets
a and column offsets b, run over Z for Q (ord is a zero test) and over
Z[t] for Q(t) (ord is ord_t), on rows with one denominator each.  X is the
ring product of the cached inverse rows of M0 with the columns of M1, and
nothing is eliminated.  It returns the common basis C = M0 P^{-1} in row
form, built by applying the inverse of each row operation to the columns
of M0, and its transformation P, so that C^{-1} = P M0^{-1} is a ring
product.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import add, floordiv, mul, neg

from .field import (
    INF,
    TADIC,
    RatFunc,
    _poly_add,
    _poly_content,
    _poly_dot,
    _poly_exact_div,
    _poly_gcd,
    _poly_lcm,
    _poly_mul,
    _poly_neg,
    _poly_ord,
    _poly_sub_mul,
    cleared,
)

_ZERO = Fraction(0)
_P1 = (1,)  # the constant polynomial 1


class SingularMatrixError(ValueError):
    pass


def identity(field, d):
    one, zero = field.one, field.zero
    return tuple(
        tuple(one if i == j else zero for j in range(d)) for i in range(d)
    )


def _zero_like(x):
    return x - x


def mat_vec(A, v):
    return tuple(_dot(row, v) for row in A)


def _dot(u, v):
    acc = _zero_like(u[0])
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# Fraction-free elimination.  Over Q the matrix is cleared to Z by columns;
# over Q(t) to Z[t], where a polynomial is a trimmed tuple of integer
# coefficients, constant term first, as in ``geonorm.field``.
# ---------------------------------------------------------------------------


def _is_rational(rows):
    return all(isinstance(x, Fraction) for row in rows for x in row)


def _primitive(r):
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*r)
    return r if g <= 1 else tuple([x // g for x in r])


def _extend_echelon(echelon, v):
    """Reduce the integer vector v against ``echelon``, ``(pivot, row)``
    pairs each zero at the pivots before it, and append what is left,
    primitive, at its first nonzero column if it is nonzero; return
    whether it did.  The pivots are the leading columns of the span's
    RREF."""
    for p, e in echelon:
        if v[p]:
            a, b = v[p], e[p]
            v = [b * x - a * y for x, y in zip(v, e)]
    for p, x in enumerate(v):
        if x:
            echelon.append((p, _primitive(v)))
            return True
    return False


def _poly_cleared(row):
    """``(den, polys)`` with ``polys == den * row`` in Z[t].

    den is a common multiple of the entries' denominators; entries that
    are not ``RatFunc`` are coerced first.
    """
    row = [x if type(x) is RatFunc else RatFunc.of(x) for x in row]
    den = _den_lcm(row)
    return den, [_times(x, den) for x in row]


def _den_lcm(entries):
    """A common multiple of the denominators of nonzero ``RatFunc``s."""
    den = _P1
    for x in entries:
        if x.num:
            den = _poly_lcm(den, x.den)
    return den


def _times(x, den):
    """x * den as a polynomial, for a multiple den of x's denominator."""
    if x.den == den or not x.num:
        return x.num
    return _poly_mul(x.num, _poly_exact_div(den, x.den))


def _poly_primitive_row(row):
    """The row divided by the common power of t and the integer content."""
    k = min((_poly_ord(x) for x in row if x), default=0)
    if k:
        row = [x[k:] for x in row]
    g = math.gcd(*map(_poly_content, row))
    if g > 1:
        row = [tuple(c // g for c in x) for x in row]
    return row


def _poly_lowest(row):
    """The row divided by the gcd of its entries in Z[t]: the common power
    of t and the integer content, then the primitive gcd of what is left
    (``field._poly_gcd``)."""
    row = _poly_primitive_row(row)
    g = reduce(_poly_gcd, row)
    return row if len(g) == 1 else [_poly_exact_div(x, g) if x else x
                                    for x in row]


def _int_sub_mul(p, x, a, y):
    return p * x - a * y


def _gauss_jordan(R, sub_mul, exact_div, one):
    """Fraction-free Gauss-Jordan elimination of R in place; returns the
    pivot columns.

    The ring (Z or Z[t]) is given by sub_mul(p, x, a, y) = p*x - a*y,
    exact division and its one.  Each pivot step replaces every other row
    by (pivot * row - entry * pivot row) divided by the previous pivot, an
    exact division (Bareiss 1968; sympy's ``ddm_irref_den``): the entries
    stay minors of the input.  Row i of the RREF is then row i of R over
    its pivot, for i below the number of pivots.
    """
    pivots = []
    r, prev = 0, one
    for c in range(len(R[0]) if R else 0):
        if r == len(R):
            break
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        prow = R[r]
        p = prow[c]
        for i, row in enumerate(R):
            if i != r:
                a = row[c]
                new = [sub_mul(p, x, a, y) for x, y in zip(row, prow)]
                if prev != one:
                    new = [exact_div(x, prev) for x in new]
                R[i] = new
        prev = p
        pivots.append(c)
        r += 1
    return pivots


def _eliminate(r, rows):
    """``(R, pivots, c)`` for a matrix A over Q or Q(t), with r its ring of
    numerators: RREF(A C) is row i of R over its pivot, for the column
    scalings C = diag(c) that clear A to Z or Z[t] (``r.clear`` of each
    column)."""
    c, cols = zip(*map(r.clear, zip(*rows)))
    R = [r.primitive(list(row)) for row in zip(*cols) if any(row)]
    return R, _gauss_jordan(R, r.sub_mul, r.exact_div, r.one), c


# ---------------------------------------------------------------------------
# Elimination.
# ---------------------------------------------------------------------------


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices).

    The matrix A is cleared by columns, A C with C = diag(c), and
    eliminated by ``_gauss_jordan``: RREF(A)[i][j] = R[i][j] c_p / (R[i][p]
    c_j) for the pivot column p of row i, one ``Fraction`` or one reduced
    ``RatFunc`` per entry.
    """
    if not rows:
        return [], []
    r = _Z if _is_rational(rows) else _ZT
    R, pivots, dens = _eliminate(r, rows)
    zero, one = r.element(r.zero, r.one), r.element(r.one, r.one)
    return [tuple(
        zero if not x else one if j == c
        else r.element(r.mul(x, dens[c]), r.mul(row[c], dens[j]))
        for j, x in enumerate(row)) for row, c in zip(R, pivots)], pivots


def inverse_rows(field, A):
    """The inverse of a square matrix, one ``(den, numerators)`` row each.

    Over Q the entries of A are ``Fraction``s or ints and the row is
    integers, over Q(t) polynomials in Z[t].  A is cleared by columns, A =
    N diag(1/c), and inverted from its columns (``inverse_columns``), so
    no field element is built.  Raises SingularMatrixError if A is
    singular.
    """
    return inverse_columns(field, tuple(map(ring(field).clear, zip(*A))))


def inverse_columns(field, cols):
    """The inverse in row form of the matrix B whose columns are the
    ``(den, numerators)`` columns ``cols`` over Z or Z[t].

    B = N diag(1/den) for the matrix N of the numerators, so B^{-1} =
    diag(den) N^{-1}.  [N | I] is eliminated by ``_gauss_jordan``, and row
    i of B^{-1} is R[i][d:] den_i over R[i][i].  Raises
    SingularMatrixError if B is singular.
    """
    d, r = len(cols), ring(field)
    R = [list(row) + [r.one if j == i else r.zero for j in range(d)]
         for i, row in enumerate(zip(*(nums for _, nums in cols)))]
    if _gauss_jordan(R, r.sub_mul, r.exact_div, r.one)[:d] != list(range(d)):
        raise SingularMatrixError("matrix is singular")
    return tuple((row[i], tuple(r.mul(x, den) for x in row[d:]))
                 for i, (row, (den, _)) in enumerate(zip(R, cols)))


def lowest_columns(field, cols):
    """``(den, numerators)`` columns over Z or Z[t], each divided by the
    gcd of its denominator and numerators: the same vectors, in lowest
    terms."""
    lowest = ring(field).lowest
    return tuple((den, tuple(nums))
                 for den, *nums in (lowest([den, *nums]) for den, nums in cols))


def row_values(field, rows):
    """The field entries of a matrix given as ``(den, numerators)`` rows."""
    element = ring(field).element
    return tuple(tuple(element(x, den) for x in nums) for den, nums in rows)


def identity_rows(field, d):
    """The identity matrix as ``(den, numerators)`` rows."""
    r = ring(field)
    return tuple((r.one, tuple(r.one if i == j else r.zero for j in range(d)))
                 for i in range(d))


def determinant(A):
    """Determinant by Bareiss elimination over Z (Q input) or Z[t] (Q(t)).

    det(A) = det(M) / prod(den) for the cleared rows (den, M) of A.
    """
    r = _Z if _is_rational(A) else _ZT
    rows = [r.clear(row) for row in A]
    det = _bareiss([list(nums) for _, nums in rows], r.sub_mul, r.exact_div,
                   neg if r is _Z else _poly_neg)
    return r.element(det, reduce(r.mul, (den for den, _ in rows)))


def det_order(cols):
    """ord_t det of an invertible Q(t) matrix given as ``(den,
    numerators)`` columns (or rows) over Z[t]: ord_t of the Bareiss
    determinant of the numerators minus the orders of the denominators."""
    det = _bareiss([list(nums) for _, nums in cols], _poly_sub_mul,
                   _poly_exact_div, _poly_neg)
    return _poly_ord(det) - sum(_poly_ord(den) for den, _ in cols)


def _bareiss(M, sub_mul, exact_div, negate):
    """Determinant of a square matrix over Z or Z[t]; M is overwritten.

    The ring is given by sub_mul(p, x, a, y) = p*x - a*y, exact division
    and negation.  Each step divides by the previous pivot exactly
    (Bareiss 1968), so the last pivot is the determinant up to the sign of
    the row swaps.
    """
    d = len(M)
    odd = False
    for k in range(d - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, d) if M[i][k]), None)
            if swap is None:
                return M[k][k]  # the ring's zero
            M[k], M[swap] = M[swap], M[k]
            odd = not odd
        pk, rowk = M[k][k], M[k]
        for i in range(k + 1, d):
            row, a = M[i], M[i][k]
            for j in range(k + 1, d):
                x = sub_mul(pk, row[j], a, rowk[j])
                row[j] = exact_div(x, prev) if k else x
        prev = pk
    det = M[d - 1][d - 1]
    return negate(det) if odd else det


def smith(field, inv0, cols0, cols1, a, b, den):
    """Weighted-pivot Smith form of X = M0^{-1} M1: the codiagonalization
    kernel, over Q or Q(t).

    The columns of the invertible matrices M0 and M1 are orthogonal bases
    of two norms, on the -log scale: column i of M0 has value a[i] in the
    first, column j of M1 value b[j] in the second; a and b are integer
    numerators over one positive denominator D = ``den``, any rational
    weights.  ord is ord_t on Q(t) and 0 off zero on the trivially valued
    Q.  Step k takes the entry X_ij of the trailing submatrix that
    minimizes ord(X_ij) + a_i - b_j, the first in row-major order on ties,
    swaps it to (k, k) and clears column k below it by row operations,
    which P records: valid changes of the first basis, as the pivot is
    least in its column.  Least in its row, it also makes the column
    operations that would clear row k valid changes of the second basis,
    so row k is just zeroed right of the pivot.

    Over Q(t), scaling column i of M0 by t^(-f_i) and column j of M1 by
    t^(-g_j) changes ord(X_ij) by f_i - g_j, so the offsets a_i - f_i D and
    b_j - g_j D give the same keys, pivots and row operations, and the
    outputs change by one diagonal scaling: the run on the bases as they
    are, scaled afterwards, is the run on the unit balls
    (``norms.NormPair._smith``).

    M0^{-1} comes as ``(den, numerators)`` rows over Z or Z[t], as
    ``inverse_rows`` gives it, and the columns of M0 and M1 as ``(den,
    numerators)`` pairs, so X is a ring product and nothing is eliminated.
    Returns ``(C, P, w0, w1)``.  C lists the columns of M0 P^{-1} in the
    same form, each orthogonal for both norms, of value w0[k] (its row's
    offset) in the first and w1[k] (its column's offset minus the pivot's
    ord) in the second, both integer numerators over D; P is given as
    rows, so C^{-1} = P M0^{-1} is a ring product.  With zero offsets this
    is the Smith form over the valuation ring, and -w1 lists the ords of
    the invariant factors.

    The loop runs on the ring ``_Z`` (Q) or ``_ZT`` (Q(t)), and the rows of
    [X | I] as numerators over one denominator each.  Subtracting mu =
    (c / p)(pden / den) times the pivot row, for the numerators c and p in
    the pivot column and the rows' denominators den and pden, gives (p *
    row - c * pivot row) over (p * den), common factors divided out.  C
    starts as the columns of M0 and takes the inverse of each row operation
    on P: a row swap swaps two columns, and row_i -= mu row_k adds mu times
    column i to column k.
    """
    D, d, r = den, len(inv0), ring(field)
    order, zero, mul = r.order, r.zero, r.mul
    dens, R = [], []
    for i, (den, row) in enumerate(_products(r, inv0, *_common_den(r, cols1))):
        dens.append(den)
        R.append(list(row) + [den if j == i else zero for j in range(d)])
    cdens, cols = map(list, zip(*cols0))
    A, B = list(a), list(b)
    w0, w1 = [], []
    for k in range(d):
        best = None
        for i in range(k, d):
            s, row = order(dens[i]) * D - A[i], R[i]
            for j in range(k, d):
                if row[j]:
                    key = order(row[j]) * D - s - B[j]
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            raise SingularMatrixError("matrix is singular")
        key, pi, pj = best
        for seq in (R, dens, A, cols, cdens):
            seq[k], seq[pi] = seq[pi], seq[k]
        if pj != k:
            B[k], B[pj] = B[pj], B[k]
            for row in R:
                row[k], row[pj] = row[pj], row[k]
        prow, pden, ck, cden = R[k], dens[k], cols[k], cdens[k]
        for i in range(k + 1, d):
            if R[i][k]:
                p, q = r.primitive([prow[k], R[i][k]])
                # column k += mu column i, mu = q pden / (p dens[i])
                f, g = mul(mul(p, dens[i]), cdens[i]), mul(mul(q, pden), cden)
                cden, *ck = r.primitive(
                    [mul(cden, f)]
                    + [r.add(mul(x, f), mul(g, y))
                       for x, y in zip(ck, cols[i])])
                dens[i], R[i] = _smith_row_op(r, dens[i], R[i], prow, k, p, q)
        cols[k], cdens[k] = ck, cden
        prow[k + 1:d] = [zero] * (d - k - 1)
        w0.append(A[k])
        w1.append(A[k] - key)
    C = tuple((den, tuple(col)) for col, den in zip(cols, cdens))
    P = tuple((den, tuple(row[d:])) for den, row in zip(dens, R))
    return C, P, tuple(w0), tuple(w1)


def _smith_row_op(ring, den, row, prow, k, p, a):
    """``(den, row)`` minus a/p times the numerators of the pivot row, for
    a/p = row[k]/prow[k] with common factors divided out (the pivot row's
    own denominator cancels): zero in columns up to k."""
    den, *new = ring.primitive(
        [ring.mul(den, p)] + [ring.zero] * (k + 1)
        + [ring.sub_mul(p, x, a, y) for x, y in zip(row[k + 1:], prow[k + 1:])])
    return den, new


# The ring operations of ``smith`` and of matrices kept as ``(den,
# numerators)`` rows: Z for Q, where ord is 0 off zero, and Z[t] for Q(t).
# ``primitive`` divides a row by a common factor cheap to find (over Z[t]
# its integer content and power of t), ``lowest`` by the gcd of its
# entries, ``clear(v)`` is a vector as ``(den, numerators)``, and
# ``element(x, den)`` the field element x / den.
_Ring = namedtuple("_Ring", "lcm mul add dot exact_div order sub_mul "
                            "primitive lowest clear element one zero")
_Z = _Ring(math.lcm, mul, add,
           lambda u, v: sum(map(mul, u, v)), floordiv, lambda x: 0,
           _int_sub_mul, _primitive, _primitive, cleared,
           lambda x, den: Fraction(x, den) if x else _ZERO, 1, 0)
_ZT = _Ring(_poly_lcm, _poly_mul, _poly_add, _poly_dot,
            _poly_exact_div, _poly_ord, _poly_sub_mul, _poly_primitive_row,
            _poly_lowest, _poly_cleared,
            lambda x, den: RatFunc(x, den) if x else TADIC.zero, _P1, ())


def ring(field):
    """The ring of numerators of a field's matrices: Z for Q, Z[t] for Q(t)."""
    return _ZT if field is TADIC else _Z


# ---------------------------------------------------------------------------
# Matrices as ``(den, numerators)`` rows over Z or Z[t]: inverses read off
# the elimination and composed without building field elements.
# ---------------------------------------------------------------------------


def solve_rows(field, rows, v):
    """The coordinates A^{-1} v for an inverse given as ``(den,
    numerators)`` rows: one field element per coordinate, nums . u /
    (den e) for the cleared vector u = e v."""
    r = ring(field)
    e, u = r.clear(v)
    return tuple(r.element(r.dot(nums, u), r.mul(den, e)) for den, nums in rows)


def coordinate_orders(rows, vectors):
    """The t-adic valuations of the coordinates of each vector, over Q(t).

    The coordinates are ``solve_rows`` of the inverse ``rows``, given as
    ``(den, numerators)`` rows over Z[t]; rows None stands for the
    identity.  A vector comes as ``(e, u)``, as ``ring(TADIC).clear`` gives
    it.  One tuple per vector, ``INF`` for a zero coordinate: each valuation
    is ord(nums_j . u) - ord(den_j) - ord(e), ord the order at t = 0.
    """
    if rows is not None:
        shifts = [_poly_ord(den) for den, _ in rows]
    out = []
    for e, u in vectors:
        k = _poly_ord(e)
        if rows is None:
            orders = (_poly_ord(c) - k if c else INF for c in u)
        else:
            orders = (_poly_ord(c) - s - k if c else INF
                      for c, s in zip([_poly_dot(nums, u) for _, nums in rows],
                                      shifts))
        out.append(tuple(orders))
    return out


def mul_rows(field, A, B):
    """The product AB of two matrices given as ``(den, numerators)`` rows.

    Over the common multiple E of B's denominators, row i of AB is
    A_i . (E / e_j) B_j over den_i E, with common factors divided out.
    """
    r = ring(field)
    E, B = _common_den(r, B)
    return _products(r, A, E, list(zip(*B)))


def _common_den(r, rows):
    """A common multiple E of the denominators of ``(den, numerators)``
    rows over the ring r, and each row's numerators over E."""
    E = reduce(r.lcm, (den for den, _ in rows))
    return E, [nums if den == E else tuple(r.mul(x, r.exact_div(E, den))
                                           for x in nums)
               for den, nums in rows]


def _products(r, A, E, cols):
    """The ``(den, numerators)`` rows of A times columns of numerators over
    E: row i is A_i . cols over den_i E, common factors divided out."""
    out = []
    for den, nums in A:
        den, *row = r.primitive([r.mul(den, E)] + [r.dot(nums, col) for col in cols])
        out.append((den, tuple(row)))
    return tuple(out)


def times_t_powers(rows, powers):
    """Row j of a Q(t) matrix of ``(den, numerators)`` rows times
    t^powers[j]: the numerators move up by a positive power, the
    denominator by a negative one."""
    out = []
    for (den, nums), k in zip(rows, powers):
        if k > 0:
            nums = tuple((0,) * k + x if x else x for x in nums)
        elif k < 0:
            den = (0,) * -k + den
        out.append((den, nums))
    return tuple(out)


def kron_rows(field, A, B):
    """The Kronecker product of two matrices of ``(den, numerators)`` rows:
    row (i, j) is den_i den_j over the products a_ir b_js, r outer."""
    mul_ = ring(field).mul
    return tuple((mul_(e, f), tuple(mul_(x, y) for x in a for y in b))
                 for e, a in A for f, b in B)

