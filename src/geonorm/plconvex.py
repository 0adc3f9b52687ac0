"""Exact piecewise-linear convex analysis in ambient dimension one and two.

Convex functions are max-affine: ``f(v) = max_i (<g_i, v> + c_i)`` with
rational data.  The module provides Legendre conjugation (the concave
profile ``q = -f*`` on the convex hull of the gradients, as the upper
concave envelope of the points ``(g_i, c_i)``), exact comparison with
witness points, run on the conjugate side with no linear program (also
against a convex combination of two functions, without forming it),
constrained convex envelopes, marginal minimization over a leading variable
by Fourier-Motzkin elimination of the epigraph, and exact integration of
piecewise-linear data over rational polytopes.

The hull machinery, and with it pruning, comparison and marginal minima,
is implemented for n <= 2, where every computation of the package's
verification suites lives (the projective line or plane).  In the plane
the upper hull of the lifted points is gift-wrapped across edges, so a
profile of m points with F facets costs O(m F) sign tests.  Functions
that need a profile the caller already holds have private variants that
take it (``_le_witness``, ``_compare``, ``_mix_witness``, ``_envelope``).

The kernels run on integers.  A ``MaxAffine`` is one positive denominator
D and integer rows ``(G_1, ..., G_n, C)``, the piece (G/D, C/D), with D
the least common denominator of the pieces (so D and the rows have gcd 1)
and the rows deduplicated and sorted on their integer gradients.  A
``ConcaveProfile`` keeps one such denominator for all of its hypograph
vertices, cell polygons and planes.  Hulls, conjugates, comparisons and
Fourier-Motzkin elimination read those rows directly; polygons are
clipped on homogeneous integer points ``(X, Y, W)``, W > 0 and gcd 1,
standing for (X/W, Y/W).  The public ``pieces``, ``planes``, ``vertices``
and ``cells`` are ``Fraction`` views built each time they are read, never
stored.  A profile is read at the lattice points of a dilation k (the
sup-norm weights k q(a/k) of a toric metric) straight from its integer
planes, by ``ConcaveProfile.lattice_values``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd, lcm
from operator import mul

from .field import format_fraction, parse_fraction


class PLError(ValueError):
    pass


class EnvelopeError(PLError):
    """No finite convex minorant with the requested slope constraint."""


_flat = itertools.chain.from_iterable


def _rational(x):
    """x as an int or a Fraction, both of which carry numerator/denominator."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def _point(y, n: int):
    """A point of R^n with rational coordinates; PLError on a wrong length."""
    y = tuple(_rational(x) for x in y)
    if len(y) != n:
        raise PLError(f"point has length {len(y)}, expected {n}")
    return y


def _int_rows(rows):
    """(D, integer rows) of rational rows over their least common
    denominator."""
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [tuple(x.numerator * (den // x.denominator) for x in r)
                 for r in rows]


def _over(den: int, rows):
    """Fraction view of integer rows over den: ((head...), last) per row."""
    return tuple((tuple(Fraction(x, den) for x in r[:-1]),
                  Fraction(r[-1], den)) for r in rows)


# ---------------------------------------------------------------------------
# Max-affine functions.
# ---------------------------------------------------------------------------


class MaxAffine:
    """max of affine pieces; pieces with equal gradient keep the best offset.

    Stored as ``_den`` and integer ``_rows`` (see the module docstring);
    ``pieces`` is the ``Fraction`` view, in gradient order.
    """

    __slots__ = ("n", "_den", "_rows")

    def __init__(self, n: int, pieces):
        rows = []
        for g, c in pieces:
            g = tuple(_rational(x) for x in g)
            if len(g) != n:
                raise PLError(f"piece gradient has length {len(g)}, expected {n}")
            rows.append(g + (_rational(c),))
        if not rows:
            raise PLError("a max-affine function needs at least one piece")
        self._set(n, *_int_rows(rows))

    @classmethod
    def _from_ints(cls, n: int, den: int, rows) -> "MaxAffine":
        """The function with integer rows (G_1, ..., G_n, C) over den > 0.

        Rows may repeat gradients and come in any order.
        """
        self = object.__new__(cls)
        self._set(n, den, rows)
        return self

    def _set(self, n, den, rows):
        # sorted rows end each run of equal gradients with the best offset
        rows = sorted(rows)
        kept = [r for r, nxt in zip(rows, rows[1:]) if r[:-1] != nxt[:-1]]
        kept.append(rows[-1])
        g = gcd(den, *_flat(kept))
        if g > 1:
            den //= g
            kept = [tuple(x // g for x in r) for r in kept]
        self.n, self._den, self._rows = n, den, tuple(kept)

    @property
    def pieces(self):
        return _over(self._den, self._rows)

    def __call__(self, v):
        v = _point(v, self.n)
        dv = lcm(*(x.denominator for x in v))
        V = [x.numerator * (dv // x.denominator) for x in v]
        return Fraction(max(sum(map(mul, r, V)) + r[-1] * dv
                            for r in self._rows), self._den * dv)

    def __eq__(self, other):
        if not isinstance(other, MaxAffine):
            return NotImplemented
        _require_same_n(self, other)
        return (le_witness(self, other) is None
                and le_witness(other, self) is None)

    __hash__ = None

    def __repr__(self):
        return f"MaxAffine(n={self.n}, {len(self._rows)} pieces)"

    def scaled(self, k) -> "MaxAffine":
        """(k * f) for k > 0: pieces scale as (k g, k c)."""
        k = Fraction(k)
        if k <= 0:
            raise PLError("scaling factor must be positive")
        return MaxAffine._from_ints(
            self.n, self._den * k.denominator,
            [tuple(x * k.numerator for x in r) for r in self._rows])

    def shifted(self, c) -> "MaxAffine":
        c = _rational(c)
        den = lcm(self._den, c.denominator)
        s, off = den // self._den, c.numerator * (den // c.denominator)
        return MaxAffine._from_ints(
            self.n, den,
            [tuple(x * s for x in r[:-1]) + (r[-1] * s + off,)
             for r in self._rows])

    def plus(self, other: "MaxAffine") -> "MaxAffine":
        """Pointwise sum (pairwise piece sums)."""
        if self.n != other.n:
            raise PLError("dimension mismatch in sum")
        den = lcm(self._den, other._den)
        s0, s1 = den // self._den, den // other._den
        return MaxAffine._from_ints(self.n, den, [
            tuple(a * s0 + b * s1 for a, b in zip(r0, r1))
            for r0 in self._rows for r1 in other._rows
        ])

    def max_with(self, *others) -> "MaxAffine":
        for o in others:
            if o.n != self.n:
                raise PLError("dimension mismatch in max")
        funcs = (self,) + others
        den = lcm(*(f._den for f in funcs))
        return MaxAffine._from_ints(self.n, den, [
            tuple(x * (den // f._den) for x in r)
            for f in funcs for r in f._rows])

    def gradients(self):
        return tuple(g for g, _ in self.pieces)

    def to_json(self):
        return {"n": self.n, "pieces": [
            {"g": [format_fraction(x) for x in g], "c": format_fraction(c)}
            for g, c in self.pieces
        ]}

    @classmethod
    def from_json(cls, obj) -> "MaxAffine":
        try:
            n = obj["n"] if "n" in obj else len(obj["pieces"][0]["g"])
            pieces = [
                (tuple(parse_fraction(x) for x in p["g"]), parse_fraction(p["c"]))
                for p in obj["pieces"]
            ]
        except (KeyError, TypeError, IndexError) as exc:
            raise PLError(f"malformed max-affine JSON: {exc}") from exc
        return cls(n, pieces)


def prune(f: MaxAffine) -> MaxAffine:
    """Drop pieces that never strictly achieve the maximum (n <= 2).

    A piece is non-redundant exactly when its lifted point ``(g, c)`` is a
    vertex of the upper hull, and those vertices are what ``conjugate``
    keeps, so conjugating back prunes.
    """
    return conjugate(f).to_max_affine()


# ---------------------------------------------------------------------------
# Comparison with witnesses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    relation: str  # "eq" | "le" | "ge" | "incomparable"
    witness_first_gt: tuple | None  # point where first > second
    witness_second_gt: tuple | None


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _walk(f: MaxAffine, g, pden, planes, hden, hrep):
    """First point where f > g, or None, given the profile q of g.

    q is the min of the integer ``planes`` (rows (W, B) over ``pden``) on
    the polytope ``hrep`` (``_hull_hrep`` rows of points over ``hden``);
    ``g`` is only evaluated.  A piece <a, v> + c lies below g iff
    c <= q(a), with q taken as -inf off its domain (Rockafellar, Convex
    Analysis, section 12).
    """
    fden = f._den
    for r in f._rows:
        A, C = r[:-1], r[-1]
        # <N / hden^e, A / fden> > R / hden^(e+1), times hden^(e+1) fden
        out = next((h for h in hrep
                    if sum(map(mul, h[0], A)) * hden > h[1] * fden), None)
        if out is not None:
            # <grad, s nu> <= s b on g's domain: f outgrows g along nu
            N, R, e = out
            nu = tuple(Fraction(x, hden ** e) for x in N)
            b = Fraction(R, hden ** (e + 1))
            a = tuple(Fraction(x, fden) for x in A)
            c = Fraction(C, fden)
            top = g(tuple(Fraction(0) for _ in A))
            s = max(Fraction(1), (top - c) / (_dot(nu, a) - b) + 1)
            return tuple(s * x for x in nu)
        # q(a) = min over planes of (<W, A> + B fden) / (pden fden)
        vals = [sum(map(mul, p, A)) + p[-1] * fden for p in planes]
        qa = min(vals)
        if C * pden > qa:
            # g(-w) = beta for a plane (w, beta) of q active at a
            w = planes[vals.index(qa)]
            return tuple(Fraction(-x, pden) for x in w[:-1])
    return None


def le_witness(f: MaxAffine, g: MaxAffine):
    """None if f <= g everywhere, else a point where f > g (n <= 2)."""
    return _le_witness(f, g, conjugate(g))


def _le_witness(f: MaxAffine, g: MaxAffine, q: ConcaveProfile):
    """``le_witness(f, g)`` given q = conjugate(g)."""
    return _walk(f, g, q._den, q._planes, q._den, _domain_hrep(q))


def mix_witness(f: MaxAffine, g0: MaxAffine, g1: MaxAffine, lam):
    """``le_witness(f, h)`` for h = lam*g0 + (1-lam)*g1, 0 <= lam <= 1.

    h has up to m0*m1 pieces and its profile is never built.  The
    hypograph of q_h is lam*hyp(q0) + (1-lam)*hyp(q1), and each facet of a
    Minkowski sum has the slope of a facet of a summand or is spanned by
    an edge of each.  Every slope w gives a plane <w, y> + h(-w) >= q_h
    that touches it (Fenchel-Young), so q_h is the min of those planes on
    the sum of the two domains.
    """
    return _mix_witness(f, g0, g1, lam, conjugate(g0), conjugate(g1))


def _mix_witness(f, g0, g1, lam, q0: ConcaveProfile, q1: ConcaveProfile):
    """``mix_witness(f, g0, g1, lam)`` given q0, q1 = conjugate(g0, g1)."""
    lam = Fraction(lam)
    slopes = [w for w, _ in q0.planes + q1.planes]
    if f.n == 2:
        for d0, d1 in product(_edge_directions(q0), _edge_directions(q1)):
            uz = d0[0] * d1[1] - d0[1] * d1[0]
            if uz:
                slopes.append(((d0[1] * d1[2] - d0[2] * d1[1]) / -uz,
                               (d0[2] * d1[0] - d0[0] * d1[2]) / -uz))

    def h(v):
        return lam * g0(v) + (1 - lam) * g1(v)

    pden, planes = _int_rows([w + (h(tuple(-x for x in w)),)
                              for w in dict.fromkeys(slopes)])
    hden, pts = _int_rows({
        tuple(lam * x + (1 - lam) * y for x, y in zip(p, r))
        for p in q0.domain_points() for r in q1.domain_points()})
    return _walk(f, h, pden, planes, hden, _hull_hrep(f.n, pts))


def _edge_directions(q: ConcaveProfile):
    """Edge directions (dy, dz) of the hypograph of q (n = 2).

    Each is scaled to a leading 1, so parallel edges appear once.
    """
    cells = q.cells
    if cells:
        dirs = [(b[0] - a[0], b[1] - a[1], cell.affine(b) - cell.affine(a))
                for cell in cells
                for a, b in zip(cell.vertices, cell.vertices[1:]
                                + cell.vertices[:1])]
    else:
        vertices = q.vertices
        dirs = [(b[0] - a[0], b[1] - a[1], zb - za)
                for (a, za), (b, zb) in zip(vertices, vertices[1:])]
    out = set()
    for d in dirs:
        lead = next(x for x in d if x)
        out.add(tuple(x / lead for x in d))
    return sorted(out)


def _require_same_n(f: MaxAffine, g: MaxAffine):
    if f.n != g.n:
        raise PLError("cannot compare functions of different dimensions")


def compare(f: MaxAffine, g: MaxAffine) -> Comparison:
    """Exact pointwise comparison of two max-affine functions (n <= 2)."""
    _require_same_n(f, g)
    return _compare(f, g, conjugate(f), conjugate(g))


def _compare(f, g, qf: ConcaveProfile, qg: ConcaveProfile) -> Comparison:
    """``compare(f, g)`` given qf, qg = conjugate(f), conjugate(g)."""
    w_fg = _le_witness(f, g, qg)   # point where f > g, if any
    w_gf = _le_witness(g, f, qf)   # point where g > f, if any
    if w_fg is None and w_gf is None:
        return Comparison("eq", None, None)
    if w_fg is None:
        return Comparison("le", None, w_gf)
    if w_gf is None:
        return Comparison("ge", w_fg, None)
    return Comparison("incomparable", w_fg, w_gf)


# ---------------------------------------------------------------------------
# Polytopes and polygon utilities (exact, dimension 1 and 2).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    n: int
    hrep: tuple        # ((a, b), ...) meaning <a, y> <= b
    vertices: tuple    # tuple of points


def moment_simplex(n: int, m) -> Polytope:
    """The simplex {y >= 0, sum y_i <= m} in R^n."""
    m = Fraction(m)
    hrep = [(tuple(Fraction(-1 if i == j else 0) for j in range(n)), Fraction(0))
            for i in range(n)]
    hrep.append((tuple(Fraction(1) for _ in range(n)), m))
    vertices = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        vertices.append(tuple(m if j == i else Fraction(0) for j in range(n)))
    return Polytope(n, tuple(hrep), tuple(vertices))


def _canon(p):
    """A homogeneous integer point (X.., W) with W > 0 and gcd 1."""
    if p[-1] < 0:
        p = tuple(-x for x in p)
    g = gcd(*p)
    return p if g == 1 else tuple(x // g for x in p)


def _hom_point(p):
    """The homogeneous integer point of a rational point."""
    w, xs = _int_rows([tuple(_rational(x) for x in p)])
    return xs[0] + (w,)


def _hom_halfplane(a, b):
    """<a, y> <= b with rational a, b as the integer row (a_1.., b)."""
    return _int_rows([tuple(_rational(x) for x in a) + (_rational(b),)])[1][0]


def _common(points):
    """(L, integer points over L) of homogeneous points, L the lcm of the W."""
    den = lcm(*(p[-1] for p in points))
    return den, [tuple(x * (den // p[-1]) for x in p[:-1]) for p in points]


def _fraction_points(points):
    """The Fraction points of homogeneous integer points."""
    return tuple(tuple(Fraction(x, p[-1]) for x in p[:-1]) for p in points)


def _shoelace2(poly):
    """Twice the signed area of a polygon of points with exact coordinates."""
    s = 0
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return s


def _orient_ccw(poly):
    """A polygon of homogeneous points, counterclockwise."""
    if _shoelace2(_common(poly)[1]) < 0:
        return tuple(reversed(poly))
    return tuple(poly)


def clip_polygon(poly, a, b):
    """Intersect a convex polygon with the halfplane <a, y> <= b.

    ``poly`` holds homogeneous integer points (X, Y, W); a and b are
    integers.  The sign of <a, (X, Y)> - b W is that of <a, y> - b.
    """
    if not poly:
        return ()
    a0, a1 = a
    f = [a0 * x + a1 * y - b * w for x, y, w in poly]
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        fp, fq = f[i], f[j]
        if fp <= 0:
            out.append(poly[i])
        if (fp < 0 < fq) or (fq < 0 < fp):
            # (fp q - fq p) / (fp - fq), homogeneously
            out.append(_canon(tuple(fp * u - fq * v
                                    for u, v in zip(poly[j], poly[i]))))
    # dedupe consecutive duplicates
    dedup = []
    for pt in out:
        if not dedup or pt != dedup[-1]:
            dedup.append(pt)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


def hull2d(points):
    """Convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def polygon_hrep(poly):
    """Outward halfplane description of a CCW convex polygon."""
    out = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        d = (q[0] - p[0], q[1] - p[1])
        normal = (d[1], -d[0])
        out.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return out


def _clip_region(poly, halfplanes):
    """Clip homogeneous points by integer rows (a_1, a_2, b): <a, y> <= b."""
    for a0, a1, b in halfplanes:
        poly = clip_polygon(poly, (a0, a1), b)
        if len(poly) < 3 or _shoelace2(_common(poly)[1]) == 0:
            return ()
    return _orient_ccw(poly)


def _clip_interval(lo, hi, a, b):
    """Intersect [lo, hi] with a*y <= b; None if empty.

    lo, hi are homogeneous (X, W) and a, b integers.
    """
    if a:
        y = _canon((b, a))
        if a > 0 and y[0] * hi[1] < hi[0] * y[1]:
            hi = y
        elif a < 0 and y[0] * lo[1] > lo[0] * y[1]:
            lo = y
    elif b < 0:
        return None
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# Concave profiles: q = -f* on the convex hull of the gradients.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """Full-dimensional linearity cell: polygon/interval plus affine data."""

    vertices: tuple            # points (length-n tuples); CCW when n = 2
    grad: tuple
    offset: Fraction

    def affine(self, y):
        return sum(g * x for g, x in zip(self.grad, y)) + self.offset


class ConcaveProfile:
    """A concave PL function on a polytope domain.

    ``value(y) = min over planes`` is valid on the domain only.  ``cells``
    are the full-dimensional linearity regions (empty when the domain is
    lower-dimensional, e.g. for conjugates of functions whose gradients are
    collinear).  ``vertices`` are the hypograph vertices with their values.

    Stored over one denominator ``_den``: ``_verts`` rows (Y.., Z) of the
    hypograph vertices, ``_planes`` rows (W.., B) and ``_cells`` polygons
    of integer points, cell i lying on plane i.  ``vertices``, ``cells``
    and ``planes`` are ``Fraction`` views, rebuilt on every read.
    """

    __slots__ = ("n", "_den", "_verts", "_cells", "_planes")

    def __init__(self, n: int, den: int, verts, cells, planes):
        g = gcd(den, *_flat(verts))
        if g > 1:
            g = gcd(g, *_flat(planes))
        if g > 1:
            g = gcd(g, *_flat(_flat(cells)))
        if g > 1:
            den //= g
            verts = [tuple(x // g for x in r) for r in verts]
            planes = [tuple(x // g for x in r) for r in planes]
            cells = [tuple(tuple(x // g for x in p) for p in poly)
                     for poly in cells]
        self.n, self._den = n, den
        self._verts, self._cells = tuple(verts), tuple(cells)
        self._planes = tuple(planes)

    def _key(self):
        return (self.n, self._den, self._verts, self._cells, self._planes)

    def __eq__(self, other):
        if not isinstance(other, ConcaveProfile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ConcaveProfile(n={self.n}, {len(self._verts)} vertices, "
                f"{len(self._cells)} cells, {len(self._planes)} planes)")

    @property
    def vertices(self):
        """((point, value), ...), the hypograph vertices."""
        return _over(self._den, self._verts)

    @property
    def planes(self):
        """((grad, offset), ...), q = min over them."""
        return _over(self._den, self._planes)

    @property
    def cells(self):
        den = self._den
        return tuple(
            Cell(tuple(tuple(Fraction(x, den) for x in p) for p in poly), w, b)
            for poly, (w, b) in zip(self._cells, self.planes))

    def value(self, y):
        y = _point(y, self.n)
        dy = lcm(*(x.denominator for x in y))
        Y = [x.numerator * (dy // x.denominator) for x in y]
        return Fraction(min(sum(map(mul, r, Y)) + r[-1] * dy
                            for r in self._planes), self._den * dy)

    def lattice_values(self, k: int, points):
        """``k * value(a / k)`` for each integer point a, on integers.

        k q(a/k) is the min over the planes (W, B) / D of (<W, a> + k B) / D.
        """
        den = self._den
        return tuple(Fraction(v, den)
                     for v in self._lattice_numerators(k, points))

    def _lattice_numerators(self, k: int, points):
        """``D * lattice_values(k, points)``, D = ``_den``, as integers."""
        planes = self._planes
        return [min(sum(map(mul, r, a)) + k * r[-1] for r in planes)
                for a in points]

    def domain_points(self):
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in r[:-1])
                     for r in self._verts)

    def to_max_affine(self) -> MaxAffine:
        """Conjugate back: sup over the domain of <y, v> + q(y)."""
        return MaxAffine._from_ints(self.n, self._den, self._verts)

    def shifted(self, c) -> "ConcaveProfile":
        """The profile of f + c, for q the profile of f: q + c."""
        c = _rational(c)
        den = lcm(self._den, c.denominator)
        s, off = den // self._den, c.numerator * (den // c.denominator)

        def lift(r):
            return tuple(x * s for x in r[:-1]) + (r[-1] * s + off,)

        return ConcaveProfile(
            self.n, den, [lift(r) for r in self._verts],
            [tuple(tuple(x * s for x in p) for p in poly)
             for poly in self._cells],
            [lift(r) for r in self._planes])


def _upper_hull_1d(points):
    """Upper concave chain of (y, value, ...) rows, y strictly increasing."""
    pts = sorted(points)
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (x0, z0), (x1, z1) = chain[-2][:2], chain[-1][:2]
            # keep only strictly decreasing slopes
            if (z1 - z0) * (p[0] - x1) <= (p[1] - z1) * (x1 - x0):
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def conjugate(f: MaxAffine) -> ConcaveProfile:
    """Concave profile of a convex max-affine function.

    The profile is the upper concave envelope of the lifted points
    ``(g_i, c_i)``; its domain is the convex hull of the gradients.
    Redundant pieces land strictly below the envelope and disappear.
    """
    if f.n > 2:
        raise PLError("concave profiles implemented for n <= 2")
    rows = f._rows  # deduped by gradient with max offset, over f._den
    if len(rows) == 1:
        return ConcaveProfile(f.n, f._den, rows, (),
                              ((0,) * f.n + (rows[0][-1],),))
    if f.n == 1:
        chain = _upper_hull_1d(rows)
        return _chain_profile(f._den, chain, chain, 0, 0)
    return _conjugate_2d(f._den, rows)


def _chain_profile(den, verts, chain, k, base):
    """Profile of a concave chain of (S, C, ...) rows along a line.

    ``verts`` are the rows (G.., C), over den, of the chain's points, and
    S = G_k - base is their coordinate k from ``base``, increasing along
    the chain.  Each chain edge gives a plane of slope dC / dS along
    coordinate k and 0 along any other; when n = 1 (k = 0, base = 0) each
    edge also bounds a cell.
    """
    n = len(verts[0]) - 1
    edges = list(zip(chain, chain[1:]))
    scale = lcm(*(p1[0] - p0[0] for p0, p1 in edges))
    planes = []
    for (s0, z0), (s1, z1) in ((p0[:2], p1[:2]) for p0, p1 in edges):
        ds, dz = s1 - s0, z1 - z0
        q = scale // ds
        grad = [0] * n
        grad[k] = dz * den * q
        # z0 less the slope times the coordinate base + s0, over den ds
        off = (z0 * ds - dz * s0 - dz * base) * q
        planes.append(tuple(grad) + (off,))
    verts = [tuple(x * scale for x in r) for r in verts]
    cells = []
    if n == 1:
        cells = [((v0[0],), (v1[0],)) for v0, v1 in zip(verts, verts[1:])]
    return ConcaveProfile(n, den * scale, verts, cells, planes)


def _affine_rank_2d(gradients):
    g0 = gradients[0]
    dirs = [(g[0] - g0[0], g[1] - g0[1]) for g in gradients[1:]]
    nonzero = [d for d in dirs if d != (0, 0)]
    if not nonzero:
        return 0, None
    d0 = nonzero[0]
    for d in nonzero[1:]:
        if d0[0] * d[1] - d0[1] * d[0] != 0:
            return 2, None
    return 1, d0


def _conjugate_2d(den, rows):
    """Upper hull of the lifted integer rows over den, one cell per facet.

    Facets come in the order of the lexicographically smallest index
    triple of non-collinear points on them, so ``planes`` (whose first
    active entry is the witness ``le_witness`` returns) does not depend on
    how the hull is searched.
    """
    rank, direction = _affine_rank_2d(rows)
    if rank == 1:
        return _conjugate_2d_on_line(den, rows, direction)
    facets = sorted(_upper_facets(rows))
    # n . (G, C) = d on a facet: q = <-(nx, ny) / nz, y> + d / (nz den)
    scale = lcm(*(normal[2] for _, _, normal, _ in facets))
    cells, planes, on = [], [], set()
    for _, poly, (nx, ny, nz), d in facets:
        q = scale // nz
        planes.append((-nx * den * q, -ny * den * q, d * q))
        cells.append(tuple((rows[i][0] * scale, rows[i][1] * scale)
                           for i in poly))
        on.update(poly)
    verts = [tuple(x * scale for x in rows[i]) for i in sorted(on)]
    return ConcaveProfile(2, den * scale, verts, cells, planes)


def _upper_facets(lifted):
    """Facets of the upper hull of integer points (x, y, z), gift-wrapped.

    The (x, y) are distinct, sorted and span the plane.  Each facet is
    ``(key, poly, normal, d)``: the points on it are those with
    ``normal . p == d`` (normal[2] > 0), ``poly`` indexes its vertices
    counterclockwise, and ``key`` is the lexicographically smallest index
    triple of points on it whose (x, y) are not collinear.  The wrap
    starts at the first edge of the lifted boundary chain from point 0
    and crosses each edge once: O(m) sign tests per edge.
    """
    xy = [(x, y) for x, y, _ in lifted]
    index = {p: i for i, p in enumerate(xy)}
    # point 0 is the lexicographically smallest, so a hull vertex; its
    # lifted boundary chain runs along the first hull edge, first towards
    # the point of largest lifted slope from point 0 (any of them on a tie:
    # they span one line, the axis the wrap turns about)
    x0, y0, z0 = lifted[0]
    hx, hy = hull2d(xy)[1]
    ex, ey = hx - x0, hy - y0
    first, best_s, best_dz = None, 1, 0
    for i, (x, y, z) in enumerate(lifted):
        if i and ex * (y - y0) == ey * (x - x0):
            s = ex * (x - x0) + ey * (y - y0)
            if first is None or (z - z0) * best_s > best_dz * s:
                first, best_s, best_dz = i, s, z - z0
    facets = []
    done = set()              # directed edges with a found facet on the left
    todo = [(0, first)]
    while todo:
        a, b = todo.pop()
        if (a, b) in done:
            continue
        ax, ay, az = lifted[a]
        ux, uy, uz = lifted[b][0] - ax, lifted[b][1] - ay, lifted[b][2] - az
        # rotate a plane about the lifted edge until every point on the
        # left of a -> b lies on or below it
        normal = None
        for x, y, z in lifted:
            vx, vy, vz = x - ax, y - ay, z - az
            if ux * vy - uy * vx > 0 and (
                    normal is None
                    or normal[0] * vx + normal[1] * vy + normal[2] * vz > 0):
                normal = (uy * vz - uz * vy, uz * vx - ux * vz,
                          ux * vy - uy * vx)
        if normal is None:
            continue          # a boundary edge of the domain
        nx, ny, nz = normal
        d = nx * ax + ny * ay + nz * az
        on = [i for i, (x, y, z) in enumerate(lifted)
              if nx * x + ny * y + nz * z == d]
        poly = [index[p] for p in hull2d([xy[i] for i in on])]
        (px, py), (qx, qy) = xy[on[0]], xy[on[1]]
        third = next(i for i in on[2:] if (qx - px) * (xy[i][1] - py)
                     != (qy - py) * (xy[i][0] - px))
        facets.append(((on[0], on[1], third), poly, normal, d))
        for e in zip(poly, poly[1:] + poly[:1]):
            done.add(e)
            todo.append(e[::-1])
    return facets


def _conjugate_2d_on_line(den, rows, direction):
    """Gradients lie on a line g0 + s * direction: reduce to dimension one.

    g0 is the smallest gradient, so the integer direction d is
    lexicographically positive; with k its first nonzero coordinate,
    d_k > 0 and a point's parameter is s = S / d_k for S = G_k - G0_k.
    """
    g0 = rows[0]
    k = 0 if direction[0] != 0 else 1
    a = direction[k]
    params = []
    for i, r in enumerate(rows):
        s = r[k] - g0[k]
        if any(a * x + s * d != a * y
               for x, d, y in zip(g0[:2], direction, r[:2])):
            raise PLError("internal error: gradient off the detected line")
        params.append((s, r[2], i))
    chain = _upper_hull_1d(params)
    return _chain_profile(den, [rows[i] for _, _, i in chain], chain, k,
                          g0[k])


# ---------------------------------------------------------------------------
# min-profiles and constrained envelopes.
# ---------------------------------------------------------------------------


def domain_hrep(profile: ConcaveProfile):
    """Halfplane description of a profile domain (hull of its points)."""
    den = profile._den
    return [(tuple(Fraction(x, den ** e) for x in normal),
             Fraction(rhs, den ** (e + 1)))
            for normal, rhs, e in _domain_hrep(profile)]


def _domain_hrep(profile: ConcaveProfile):
    """``_hull_hrep`` of a profile's domain points, integers over its den."""
    return _hull_hrep(profile.n, [r[:-1] for r in profile._verts])


def _hull_hrep(n: int, pts):
    """Halfplane description of the convex hull of integer points (n <= 2).

    The points are Y = D y for a positive D.  Each row (N, R, e) stands
    for <N, Y> <= R, that is for the rational halfplane <nu, y> <= b with
    nu = N / D^e and b = R / D^(e + 1).
    """
    if n == 1:
        xs = [p[0] for p in pts]
        return [((-1,), -min(xs), 0), ((1,), max(xs), 0)]
    hull = hull2d(pts)
    if len(hull) < 3:
        # segment or point: describe by equality as two opposite halfplanes
        out = []
        if len(hull) == 2:
            p, q = hull
            d = (q[0] - p[0], q[1] - p[1])
            normal = (d[1], -d[0])
            rhs = normal[0] * p[0] + normal[1] * p[1]
            out.append((normal, rhs, 1))
            out.append(((-normal[0], -normal[1]), -rhs, 1))
            # clamp along the segment
            out.append(((-d[0], -d[1]), -(d[0] * p[0] + d[1] * p[1]), 1))
            out.append(((d[0], d[1]), d[0] * q[0] + d[1] * q[1], 1))
        else:
            p = hull[0]
            for a in ((1, 0), (0, 1)):
                rhs = a[0] * p[0] + a[1] * p[1]
                out.append((a, rhs, 0))
                out.append(((-a[0], -a[1]), -rhs, 0))
        return out
    return [(normal, rhs, 1) for normal, rhs in polygon_hrep(hull)]


def _profile_on_points(n, den, verts, cells, planes):
    """A profile from homogeneous vertices, over one common denominator.

    ``verts`` are (point (X.., W), V) with value V / (den W), ``cells``
    polygons of such points and ``planes`` integer rows over den; the
    vertices come out sorted by point.
    """
    scale = lcm(*(p[-1] for p, _ in verts))

    def lift(p):
        s = den * (scale // p[-1])
        return tuple(x * s for x in p[:-1])

    return ConcaveProfile(
        n, den * scale,
        sorted(lift(p) + (v * (scale // p[-1]),) for p, v in verts),
        [tuple(lift(p) for p in poly) for poly in cells],
        [tuple(x * scale for x in r) for r in planes])


def _min_at(planes, p):
    """den W q(p) at a homogeneous point p (X.., W), q the min of the
    planes, integer rows over den."""
    return min(sum(map(mul, r, p)) for r in planes)


def _degenerate_profile_2d(den, pts, planes) -> ConcaveProfile:
    """Min-of-planes profile on a segment or point domain: no cells.

    ``pts`` are distinct collinear integer points, sorted, so the first
    and last are the segment endpoints; they and the ``planes`` rows are
    over den.  Hypograph vertices sit at the endpoints and at plane
    crossings; that is all ``to_max_affine`` needs.
    """
    if len(pts) == 1:
        p = pts[0] + (den,)
        v = _min_at(planes, p)
        return ConcaveProfile(2, den * den, ((p[0] * den, p[1] * den, v),),
                              (), ((0, 0, v),))
    p, r = pts[0], pts[-1]
    d = (r[0] - p[0], r[1] - p[1])
    # plane j along p + s d, times den^2: A_j s + B_j
    lines = [(g0 * d[0] + g1 * d[1], g0 * p[0] + g1 * p[1] + c * den)
             for g0, g1, c in planes]
    svals = {(0, 1), (1, 1)}
    for (a0, b0), (a1, b1) in combinations(lines, 2):
        if a0 != a1:
            s = _canon((b1 - b0, a0 - a1))
            if 0 < s[0] < s[1]:
                svals.add(s)
    verts = []
    for sn, sd in svals:
        y = (p[0] * sd + sn * d[0], p[1] * sd + sn * d[1], den * sd)
        verts.append((y, _min_at(planes, y)))
    return _profile_on_points(2, den, verts, (), planes)


def min_profile(planes, domain_vertices, extra_hrep, n) -> ConcaveProfile:
    """Profile of min over affine planes restricted to a polytope.

    ``domain_vertices`` describe the starting polytope (interval endpoints
    for n = 1, CCW polygon for n = 2); ``extra_hrep`` are additional
    halfplanes cutting it down.  Returns the linearity cells of the
    pointwise minimum.
    """
    den, rows = _int_rows([tuple(_rational(x) for x in g) + (_rational(c),)
                           for g, c in planes])
    return _min_profile(n, den, rows,
                        [_hom_point(p) for p in domain_vertices],
                        [_hom_halfplane(a, b) for a, b in extra_hrep])


def _min_profile(n, den, planes, domain, cuts) -> ConcaveProfile:
    """``min_profile`` on integers.

    ``planes`` are integer rows over den, ``domain`` homogeneous integer
    points and ``cuts`` integer rows (a.., b) meaning <a, y> <= b.
    """
    planes = list(dict.fromkeys(planes))
    if n == 1:
        scale, xs = _common(domain)
        lo, hi = _canon((min(xs)[0], scale)), _canon((max(xs)[0], scale))
        for a, b in cuts:
            got = _clip_interval(lo, hi, a, b)
            if got is None:
                raise EnvelopeError("empty domain")
            lo, hi = got
        if lo == hi:
            # single admissible slope; the profile is one hypograph point
            v = _min_at(planes, lo)
            return ConcaveProfile(1, den * lo[1], ((lo[0] * den, v),), (),
                                  ((0, v),))
        cells = []
        vertices = {}
        active = []
        for idx, (g, c) in enumerate(planes):
            clo, chi = lo, hi
            for jdx, (g2, c2) in enumerate(planes):
                if jdx == idx:
                    continue
                got = _clip_interval(clo, chi, g - g2, c2 - c)
                if got is None:
                    break
                clo, chi = got
            else:
                if clo != chi:
                    cells.append((clo, chi))
                    active.append((g, c))
                    for x in (clo, chi):
                        vertices[x] = _min_at(planes, x)
        if not cells:
            raise EnvelopeError("empty domain")
        return _profile_on_points(1, den, vertices.items(), cells, active)
    if n == 2:
        base = _clip_region(tuple(domain), cuts)
        if not base:
            raise EnvelopeError("empty domain")
        scale, distinct = _common(set(base))
        distinct.sort()
        if len(distinct) < 3 or _shoelace2(hull2d(distinct)) == 0:
            return _degenerate_profile_2d(
                den * scale, [(x * den, y * den) for x, y in distinct],
                [tuple(x * scale for x in r) for r in planes])
        cells = []
        vertices = {}
        active = []
        for idx, (g0, g1, c) in enumerate(planes):
            poly = _clip_region(base, [
                (g0 - h0, g1 - h1, c2 - c)
                for jdx, (h0, h1, c2) in enumerate(planes) if jdx != idx])
            if not poly:
                continue
            cells.append(poly)
            active.append((g0, g1, c))
            for p in poly:
                vertices[p] = _min_at(planes, p)
        if not cells:
            raise EnvelopeError("empty domain")
        return _profile_on_points(2, den, vertices.items(), cells, active)
    raise PLError("min profiles implemented for n <= 2")


def envelope_constrained(funcs, P: Polytope) -> MaxAffine:
    """Largest convex minorant of min(funcs) with gradients in P.

    Computed on the conjugate side: the profile of the minorant is the
    pointwise min of the individual profiles restricted to P intersected
    with the conjugate domains; conjugating back gives the envelope.
    Raises EnvelopeError when no finite minorant exists (empty domain).
    """
    funcs = list(funcs)
    if not funcs:
        raise PLError("envelope of an empty family")
    n = funcs[0].n
    if any(f.n != n for f in funcs):
        raise PLError("dimension mismatch in envelope")
    return _envelope([conjugate(f) for f in funcs], P)


def _envelope(profiles, P: Polytope) -> MaxAffine:
    """``envelope_constrained`` of the functions with these profiles."""
    den = lcm(*(pr._den for pr in profiles))
    planes = [tuple(x * (den // pr._den) for x in r)
              for pr in profiles for r in pr._planes]
    cuts = [_hom_halfplane(a, b) for a, b in P.hrep]
    for pr in profiles:
        # <N, D y> <= R on the domain points y of a profile over D
        cuts.extend(tuple(x * pr._den for x in normal) + (rhs,)
                    for normal, rhs, _ in _domain_hrep(pr))
    return _min_profile(profiles[0].n, den, planes,
                        [_hom_point(p) for p in P.vertices],
                        cuts).to_max_affine()


# ---------------------------------------------------------------------------
# Marginal minimization over the leading variable (Fourier-Motzkin).
# ---------------------------------------------------------------------------


def marginal_min(F: MaxAffine, tau=0) -> MaxAffine:
    """inf over t in [0, 1] of (F(t, v) - t*tau), as a function of v.

    The epigraph of the objective is projected by eliminating t exactly;
    rows with positive and negative t-coefficients pair up, by the
    positive integer multipliers -rn_t and rp_t, and the rest pass
    through.  Redundant pieces are pruned afterwards by ``prune``, so v
    has at most two coordinates.
    """
    tau = _rational(tau)
    n = F.n - 1
    if n < 0:
        raise PLError("marginal_min needs a leading variable")
    # rows: (a_t, a_v..., a_z, rhs) meaning a_t t + <a_v, v> + a_z z <= rhs,
    # each piece's row scaled by F's denominator times tau's
    den, tn, td = F._den, tau.numerator, tau.denominator
    rows = [(r[0] * td - tn * den,) + tuple(x * td for x in r[1:-1])
            + (-den * td, -r[-1] * td) for r in F._rows]
    zero_v = (0,) * n
    rows.append((-1,) + zero_v + (0, 0))  # t >= 0
    rows.append((1,) + zero_v + (0, 1))   # t <= 1
    pos = [r for r in rows if r[0] > 0]
    neg = [r for r in rows if r[0] < 0]
    projected = [r[1:] for r in rows if r[0] == 0]
    for rp in pos:
        for rn in neg:
            projected.append(tuple(a * -rn[0] + b * rp[0]
                                   for a, b in zip(rp[1:], rn[1:])))
    pieces = []
    for row in projected:
        a_v, a_z, rhs = row[:-2], row[-2], row[-1]
        if a_z == 0:
            if any(a_v) or rhs < 0:
                raise PLError("internal error: marginal is not finite")
            continue
        # a_z < 0 always (pieces contribute -den td each): the piece is
        # (a_v / -a_z, -rhs / -a_z), here in lowest terms
        g = gcd(a_z, rhs, *a_v)
        pieces.append((-a_z // g, tuple(x // g for x in a_v + (-rhs,))))
    if not pieces:
        raise PLError("internal error: empty marginal")
    scale = lcm(*(gamma for gamma, _ in pieces))
    return prune(MaxAffine._from_ints(n, scale, [
        tuple(x * (scale // gamma) for x in r) for gamma, r in pieces]))


# ---------------------------------------------------------------------------
# Exact integration of piecewise-linear data.
# ---------------------------------------------------------------------------


def _h_complete(values, p: int) -> Fraction:
    """Complete homogeneous symmetric polynomial h_p of the values."""
    total = Fraction(0)
    for combo in combinations_with_replacement(values, p):
        prod = Fraction(1)
        for x in combo:
            prod *= x
        total += prod
    return total


def _integrate_affine_power_triangle(tri, values, p: int) -> Fraction:
    area2 = abs(
        (tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1])
        - (tri[1][1] - tri[0][1]) * (tri[2][0] - tri[0][0])
    )
    area = Fraction(area2, 2)
    if p == 0:
        return area
    return area * _h_complete(values, p) / comb(2 + p, p)


def _integrate_affine_power_interval(a, b, va, vb, p: int) -> Fraction:
    length = abs(b - a)
    if p == 0:
        return length
    return length * _h_complete((va, vb), p) / (p + 1)


def integrate_cell_affine(cell_vertices, affine, n, p: int = 1) -> Fraction:
    """Integral of affine(y)^p over an interval (n=1) or polygon (n=2)."""
    if n == 1:
        a, b = cell_vertices[0][0], cell_vertices[-1][0]
        return _integrate_affine_power_interval(a, b, affine((a,)), affine((b,)), p)
    poly = list(cell_vertices)
    total = Fraction(0)
    for i in range(1, len(poly) - 1):
        tri = (poly[0], poly[i], poly[i + 1])
        total += _integrate_affine_power_triangle(
            tri, tuple(affine(v) for v in tri), p
        )
    return total


def integrate_profile(prof: ConcaveProfile) -> Fraction:
    """Integral of the profile over its own (full-dimensional) domain.

    Computed on the profile's integers: with every point and plane over
    D, a cell's plane takes the value V / D^2 at a vertex P / D, so an
    interval [P0, P1] contributes (P1 - P0) (V0 + V1) / (2 D^3) and a fan
    triangle of doubled area A / D^2 contributes A (V0 + V1 + V2) / (6 D^4).
    """
    if not prof._cells:
        raise PLError("profile has no full-dimensional cells to integrate")
    den = prof._den
    total = 0
    for poly, plane in zip(prof._cells, prof._planes):
        v = [sum(map(mul, plane, p)) + plane[-1] * den for p in poly]
        if prof.n == 1:
            total += (poly[-1][0] - poly[0][0]) * (v[0] + v[-1])
            continue
        (x0, y0) = poly[0]
        for i in range(1, len(poly) - 1):
            (x1, y1), (x2, y2) = poly[i], poly[i + 1]
            area2 = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
            total += area2 * (v[0] + v[i] + v[i + 1])
    return Fraction(total, 2 * den ** 3 if prof.n == 1 else 6 * den ** 4)


def _overlay(p0: ConcaveProfile, p1: ConcaveProfile):
    """Common refinement of two cell subdivisions of the same domain."""
    if p0.n != p1.n:
        raise PLError("profile dimension mismatch")
    out = []
    cells0, cells1 = p0.cells, p1.cells
    if p0.n == 1:
        for c0 in cells0:
            lo0, hi0 = c0.vertices[0][0], c0.vertices[-1][0]
            for c1 in cells1:
                lo = max(lo0, c1.vertices[0][0])
                hi = min(hi0, c1.vertices[-1][0])
                if lo < hi:
                    out.append((((lo,), (hi,)), c0, c1))
        return out
    # the edges of p1's cells, as rows over its denominator
    den0, den1 = p0._den, p1._den
    cuts1 = [[(a0 * den1, a1 * den1, b) for (a0, a1), b in polygon_hrep(poly)]
             for poly in p1._cells]
    for poly, c0 in zip(p0._cells, cells0):
        poly = tuple(_canon(p + (den0,)) for p in poly)
        for cuts, c1 in zip(cuts1, cells1):
            region = _clip_region(poly, cuts)
            if region:
                out.append((_fraction_points(region), c0, c1))
    return out


def overlay_vertices(p0: ConcaveProfile, p1: ConcaveProfile):
    """Vertices of the common refinement of two cell subdivisions."""
    pts = set()
    for region, _, _ in _overlay(p0, p1):
        pts.update(region)
    return tuple(sorted(pts))


def integrate_difference(p0: ConcaveProfile, p1: ConcaveProfile) -> Fraction:
    """Exact integral of (q0 - q1) over the common domain."""
    total = Fraction(0)
    for region, c0, c1 in _overlay(p0, p1):
        diff = lambda y, a=c0, b=c1: a.affine(y) - b.affine(y)
        total += integrate_cell_affine(region, diff, p0.n)
    return total


def _halfspace_part(region, a, b):
    """The part of a rational interval or polygon where <a, y> <= b.

    Returned in Fractions, or () when it is empty or lower-dimensional.
    """
    *a, b = _hom_halfplane(a, b)
    if len(a) == 1:
        got = _clip_interval(_hom_point(region[0]), _hom_point(region[-1]),
                             a[0], b)
        if got is None or got[0] == got[1]:
            return ()
        return _fraction_points(got)
    return _fraction_points(_clip_region(
        tuple(_hom_point(y) for y in region), [(*a, b)]))


def integrate_abs_difference(p0, p1, p: int = 1) -> Fraction:
    """Exact integral of |q0 - q1|^p over the common domain."""
    total = Fraction(0)
    n = p0.n
    for region, c0, c1 in _overlay(p0, p1):
        dg = tuple(a - b for a, b in zip(c0.grad, c1.grad))
        dc = c0.offset - c1.offset
        diff = lambda y, g=dg, c=dc: sum(gi * yi for gi, yi in zip(g, y)) + c
        neg_diff = lambda y, f=diff: -f(y)
        plus = _halfspace_part(region, tuple(-x for x in dg), dc)
        minus = _halfspace_part(region, dg, -dc)
        if plus:
            total += integrate_cell_affine(plus, diff, n, p)
        if minus:
            total += integrate_cell_affine(minus, neg_diff, n, p)
    return total


def max_abs_difference(p0: ConcaveProfile, p1: ConcaveProfile) -> Fraction:
    """Exact sup of |q0 - q1| over the common domain (PL, so at vertices)."""
    best = Fraction(0)
    for region, c0, c1 in _overlay(p0, p1):
        for v in region:
            best = max(best, abs(c0.affine(v) - c1.affine(v)))
    return best
