"""Exact rational linear programming: the reference oracle for comparison.

One primitive, the infimum over v in R^n of max_i (<g_i, v> + c_i), as the
LP ``min u subject to u >= <g_i, v> + c_i``, solved by a two-phase tableau
simplex with Bland's rule over Fractions.  The minimum is either attained
(status "optimal", with a witness point) or the maximum is unbounded below
along a ray on which every affine piece eventually decreases ("unbounded").
No library module calls it (``plconvex`` compares on the conjugate side);
tests use it as an oracle, and the benchmark harness imports and traces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MinMaxResult:
    status: str  # "optimal" | "unbounded"
    value: Fraction | None
    point: tuple | None
    ray: tuple | None  # descent direction when unbounded


def _simplex(tableau, basis, ncols):
    """Minimize the objective encoded in the last tableau row (Bland).

    ``tableau`` is a list of rows [a_1 ... a_ncols | rhs]; the last row is
    the objective with reduced costs.  Returns "optimal" or ("unbounded",
    entering column index).
    """
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return "optimal", None
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded", enter
        _pivot(tableau, leave, enter)
        basis[leave] = enter


def _pivot(tableau, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col]:
            f = tableau[i][col]
            tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[row])]


def minimize_max_affine(n: int, pieces) -> MinMaxResult:
    """inf over v in R^n of max_i (<g_i, v> + c_i), exactly.

    Args:
        n: ambient dimension.
        pieces: iterable of (gradient tuple, offset) with Fraction entries.
    """
    pieces = [(tuple(Fraction(x) for x in g), Fraction(c)) for g, c in pieces]
    if not pieces:
        raise ValueError("minimize_max_affine needs at least one piece")
    m = len(pieces)
    # variables: v+ (n), v- (n), u+, u-, slack s_i (m); columns in that order
    nv = 2 * n + 2 + m
    rows = []
    for i, (g, c) in enumerate(pieces):
        # <g, v> - u + s_i = -c
        row = [Fraction(0)] * (nv + 1)
        for j in range(n):
            row[j] = g[j]
            row[n + j] = -g[j]
        row[2 * n] = Fraction(-1)
        row[2 * n + 1] = Fraction(1)
        row[2 * n + 2 + i] = Fraction(1)
        row[-1] = -c
        rows.append(row)

    # phase 1: make rhs nonnegative; rows whose slack flipped to -1 get an
    # artificial basic variable
    for i, row in enumerate(rows):
        if row[-1] < 0:
            rows[i] = [-x for x in row]
    needs_art = [i for i, row in enumerate(rows) if row[2 * n + 2 + i] != 1]
    n_art = len(needs_art)
    width = nv + n_art
    basis = []
    tableau = []
    art_of_row = {r: nv + k for k, r in enumerate(needs_art)}
    for i, row in enumerate(rows):
        ext = [Fraction(0)] * n_art
        if i in art_of_row:
            ext[art_of_row[i] - nv] = Fraction(1)
            basis.append(art_of_row[i])
        else:
            basis.append(2 * n + 2 + i)
        tableau.append(row[:nv] + ext + [row[-1]])
    if n_art:
        obj = [Fraction(0)] * (width + 1)
        for c in art_of_row.values():
            obj[c] = Fraction(1)
        tableau.append(obj)
        for i, b in enumerate(basis):
            if b >= nv:
                tableau[-1] = [x - y for x, y in zip(tableau[-1], tableau[i])]
        _simplex(tableau, basis, width)
        if tableau[-1][-1] != 0:
            raise ValueError("internal LP error: epigraph is always feasible")
        # pivot remaining basic artificials out, drop rows that went zero
        drop = []
        for i, b in enumerate(basis):
            if b >= nv:
                piv_col = next((j for j in range(nv) if tableau[i][j]), None)
                if piv_col is None:
                    drop.append(i)
                else:
                    _pivot(tableau, i, piv_col)
                    basis[i] = piv_col
        tableau = [
            row[:nv] + [row[-1]]
            for i, row in enumerate(tableau[:-1])
            if i not in drop
        ]
        basis = [b for i, b in enumerate(basis) if i not in drop]
    else:
        tableau = [row[:nv] + [row[-1]] for row in tableau]

    # phase 2: minimize u = u+ - u-
    obj = [Fraction(0)] * (nv + 1)
    obj[2 * n] = Fraction(1)
    obj[2 * n + 1] = Fraction(-1)
    tableau.append(obj)
    for i, b in enumerate(basis):
        if tableau[-1][b]:
            f = tableau[-1][b]
            tableau[-1] = [x - f * y for x, y in zip(tableau[-1], tableau[i])]
    status, enter = _simplex(tableau, basis, nv)

    def extract_point():
        x = [Fraction(0)] * nv
        for i, b in enumerate(basis):
            if b < nv:
                x[b] = tableau[i][-1]
        v = tuple(x[j] - x[n + j] for j in range(n))
        u = x[2 * n] - x[2 * n + 1]
        return v, u

    if status == "optimal":
        v, u = extract_point()
        return MinMaxResult("optimal", u, v, None)

    # unbounded: build the ray from the entering column
    v0, _ = extract_point()
    direction = [Fraction(0)] * nv
    direction[enter] = Fraction(1)
    for i, b in enumerate(basis):
        if b < nv:
            direction[b] = -tableau[i][enter]
    ray = tuple(direction[j] - direction[n + j] for j in range(n))
    return MinMaxResult("unbounded", None, v0, ray)
