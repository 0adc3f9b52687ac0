"""Exact dense linear algebra over either scalar backend.

Vectors are tuples of field elements, matrices are tuples of row tuples.

Over Q (every entry a ``Fraction``) the work runs on integers: each row is
scaled to coprime integers, elimination replaces a row by an integer
combination with its content divided out, and Fractions are built once,
for the result.  The determinant is Bareiss's fraction-free elimination on
the integer-scaled rows.  Over Q(t) (``RatFunc`` entries) everything works
through the arithmetic operators of the elements, as a field loop.  The
choice follows the entry type; both paths return the same values, since
the reduced row echelon form (RREF) is unique.
"""

from __future__ import annotations

import math
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SingularMatrixError(ValueError):
    pass


def identity(field, d):
    one, zero = field.one, field.zero
    return tuple(
        tuple(one if i == j else zero for j in range(d)) for i in range(d)
    )


def transpose(A):
    return tuple(zip(*A)) if A else ()


def _zero_like(x):
    return x - x


def mat_vec(A, v):
    return tuple(_dot(row, v) for row in A)


def mat_mul(A, B):
    Bt = transpose(B)
    return tuple(tuple(_dot(row, col) for col in Bt) for row in A)


def _dot(u, v):
    acc = _zero_like(u[0])
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# Integer rows: the Q path.
# ---------------------------------------------------------------------------


def _is_rational(rows):
    return all(isinstance(x, Fraction) for row in rows for x in row)


def _primitive(ints):
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _cleared(row):
    """``(den, ints)`` with ``ints == den * row``; den is the lcm of denominators."""
    den = math.lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _integer_row(row):
    """Coprime integers proportional (by a positive factor) to a Q row."""
    return _primitive(_cleared(row)[1])


def _clear_int(row, prow, c):
    """``row`` with column ``c`` cleared by ``prow``, as primitive integers."""
    a, p = row[c], prow[c]
    g = math.gcd(a, p)
    a, p = a // g, p // g
    return _primitive([p * x - a * y for x, y in zip(row, prow)])


def _clear_field(row, prow, c):
    f = row[c] / prow[c]
    return [x - f * y for x, y in zip(row, prow)]


def _rref_rational(rows):
    R = [r for r in map(_integer_row, rows) if any(r)]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(R):
            break
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        prow = R[r]
        for i, row in enumerate(R):
            if i != r and row[c]:
                R[i] = _clear_int(row, prow, c)
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(R, pivots):
        p = row[c]
        out.append(tuple(
            _ZERO if not x else _ONE if x == p else Fraction(x, p) for x in row
        ))
    return out, pivots


# ---------------------------------------------------------------------------
# Elimination.
# ---------------------------------------------------------------------------


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    if not rows:
        return [], []
    if _is_rational(rows):
        return _rref_rational(rows)
    R = [list(r) for r in rows]
    ncols = len(R[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return [tuple(row) for row in R[:r]], pivots


def invert(field, A):
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    d = len(A)
    eye = identity(field, d)
    aug = [tuple(A[i]) + eye[i] for i in range(d)]
    reduced, pivots = rref(aug)
    if pivots[:d] != list(range(d)) or len(reduced) < d:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(row[d:]) for row in reduced)


def determinant(A):
    """Determinant: Bareiss over Z on Q input, field elimination otherwise."""
    if A and _is_rational(A):
        return _determinant_rational(A)
    d = len(A)
    rows = [list(r) for r in A]
    det = None
    sign = 1
    for col in range(d):
        pivot_row = next(
            (r for r in range(col, d) if rows[r][col] != _zero_like(rows[r][col])),
            None,
        )
        if pivot_row is None:
            return _zero_like(rows[0][0])
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        det = pivot if det is None else det * pivot
        for r in range(col + 1, d):
            factor = rows[r][col] / pivot
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det if sign == 1 else -det


def _determinant_rational(A):
    # det(A) = det(M) / prod(scale) for the integer rows M = scale * A
    M, scale = [], 1
    for row in A:
        den, ints = _cleared(row)
        M.append(ints)
        scale *= den
    d = len(M)
    sign, prev = 1, 1
    for k in range(d - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, d) if M[i][k]), None)
            if swap is None:
                return _ZERO
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pk, rowk = M[k][k], M[k]
        for i in range(k + 1, d):
            row, a = M[i], M[i][k]
            for j in range(k + 1, d):
                row[j] = (row[j] * pk - a * rowk[j]) // prev
        prev = pk
    return Fraction(sign * M[d - 1][d - 1], scale)


def solve_from_inverse(Ainv, b):
    return tuple(_dot(row, b) for row in Ainv)


# ---------------------------------------------------------------------------
# Subspaces.
# ---------------------------------------------------------------------------


def span_basis(vectors):
    """Independent subset spanning the same space, as echelonized rows."""
    R, _ = rref(vectors)
    return [row for row in R if any(row)]


def intersect_spans(U, V):
    """Basis of span(U) n span(V) in RREF; U, V are lists of vectors.

    Zassenhaus: in the RREF of the block ``[U | U ; V | 0]`` the rows whose
    pivot lies in the right half have zero left halves, and their right
    halves are the RREF of the intersection.
    """
    if not U or not V:
        return []
    n = len(U[0])
    pad = (_zero_like(V[0][0]),) * n
    block = [tuple(u) + tuple(u) for u in U] + [tuple(v) + pad for v in V]
    R, pivots = rref(block)
    return [row[n:] for row, c in zip(R, pivots) if c >= n]


def extend_independent(current, candidates):
    """Vectors from ``candidates`` independent of ``current`` and each other.

    Every vector is reduced against the rows kept so far, each with its own
    pivot column; a candidate is picked when a nonzero remainder is left,
    and the remainder joins the kept rows.
    """
    if _is_rational(current) and _is_rational(candidates):
        scale, clear = _integer_row, _clear_int
    else:
        scale, clear = list, _clear_field
    echelon = []  # (pivot column, row); each row is zero at earlier pivots

    def independent(v):
        v = scale(v)
        for c, row in echelon:
            if v[c]:
                v = clear(v, row, c)
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        echelon.append((pivot, v))
        return True

    for v in current:
        independent(v)
    return [v for v in candidates if independent(v)]
