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
the upper hull of the lifted points is gift-wrapped across edges on
integers (one common denominator for the gradients, one for the offsets),
so a profile of m points with F facets costs O(m F) sign tests.  Functions
that need a profile the caller already holds have private variants that
take it (``_le_witness``, ``_compare``, ``_mix_witness``, ``_envelope``).
A profile is read at the lattice points of a dilation k (the sup-norm
weights k q(a/k) of a toric metric) on integers, by
``ConcaveProfile.lattice_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm
from operator import mul

from .field import format_fraction, parse_fraction


class PLError(ValueError):
    pass


class EnvelopeError(PLError):
    """No finite convex minorant with the requested slope constraint."""


def _frac_point(p):
    return tuple(x if type(x) is Fraction else Fraction(x) for x in p)


# ---------------------------------------------------------------------------
# Max-affine functions.
# ---------------------------------------------------------------------------


class MaxAffine:
    """max of affine pieces; pieces with equal gradient keep the best offset."""

    __slots__ = ("n", "pieces")

    def __init__(self, n: int, pieces):
        best: dict[tuple, Fraction] = {}
        for g, c in pieces:
            g = _frac_point(g)
            if len(g) != n:
                raise PLError(f"piece gradient has length {len(g)}, expected {n}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if g not in best or c > best[g]:
                best[g] = c
        if not best:
            raise PLError("a max-affine function needs at least one piece")
        self.n = n
        self.pieces = tuple(sorted(best.items()))

    def __call__(self, v):
        v = _frac_point(v)
        return max(sum(g[i] * v[i] for i in range(self.n)) + c
                   for g, c in self.pieces)

    def __eq__(self, other):
        if not isinstance(other, MaxAffine):
            return NotImplemented
        _require_same_n(self, other)
        return (le_witness(self, other) is None
                and le_witness(other, self) is None)

    __hash__ = None

    def __repr__(self):
        return f"MaxAffine(n={self.n}, {len(self.pieces)} pieces)"

    def scaled(self, k) -> "MaxAffine":
        """(k * f) for k > 0: pieces scale as (k g, k c)."""
        k = Fraction(k)
        if k <= 0:
            raise PLError("scaling factor must be positive")
        return MaxAffine(self.n, [(tuple(k * x for x in g), k * c)
                                  for g, c in self.pieces])

    def shifted(self, c) -> "MaxAffine":
        c = Fraction(c)
        return MaxAffine(self.n, [(g, off + c) for g, off in self.pieces])

    def plus(self, other: "MaxAffine") -> "MaxAffine":
        """Pointwise sum (pairwise piece sums)."""
        if self.n != other.n:
            raise PLError("dimension mismatch in sum")
        return MaxAffine(self.n, [
            (tuple(a + b for a, b in zip(g0, g1)), c0 + c1)
            for g0, c0 in self.pieces for g1, c1 in other.pieces
        ])

    def max_with(self, *others) -> "MaxAffine":
        pieces = list(self.pieces)
        for o in others:
            if o.n != self.n:
                raise PLError("dimension mismatch in max")
            pieces.extend(o.pieces)
        return MaxAffine(self.n, pieces)

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


def _walk(f: MaxAffine, g, planes, hrep):
    """First point where f > g, or None, given the profile q of g.

    q is the min of ``planes`` on the polytope ``hrep``; ``g`` is only
    evaluated.  A piece <a, v> + c lies below g iff c <= q(a), with q taken
    as -inf off its domain (Rockafellar, Convex Analysis, section 12).
    """
    for a, c in f.pieces:
        out = next(((nu, b) for nu, b in hrep if _dot(nu, a) > b), None)
        if out is not None:
            # <grad, s nu> <= s b on g's domain: f outgrows g along nu
            nu, b = out
            top = g(tuple(Fraction(0) for _ in a))
            s = max(Fraction(1), (top - c) / (_dot(nu, a) - b) + 1)
            return tuple(s * x for x in nu)
        qa = min(_dot(w, a) + beta for w, beta in planes)
        if c > qa:
            # g(-w) = beta for a plane (w, beta) of q active at a
            w = next(w for w, beta in planes if _dot(w, a) + beta == qa)
            return tuple(-x for x in w)
    return None


def le_witness(f: MaxAffine, g: MaxAffine):
    """None if f <= g everywhere, else a point where f > g (n <= 2)."""
    return _le_witness(f, g, conjugate(g))


def _le_witness(f: MaxAffine, g: MaxAffine, q: ConcaveProfile):
    """``le_witness(f, g)`` given q = conjugate(g)."""
    return _walk(f, g, q.planes, domain_hrep(q))


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

    planes = [(w, h(tuple(-x for x in w))) for w in dict.fromkeys(slopes)]
    pts = {tuple(lam * x + (1 - lam) * y for x, y in zip(p, r))
           for p in q0.domain_points() for r in q1.domain_points()}
    return _walk(f, h, planes, _hull_hrep(f.n, sorted(pts)))


def _edge_directions(q: ConcaveProfile):
    """Edge directions (dy, dz) of the hypograph of q (n = 2).

    Each is scaled to a leading 1, so parallel edges appear once.
    """
    if q.cells:
        dirs = [(b[0] - a[0], b[1] - a[1], cell.affine(b) - cell.affine(a))
                for cell in q.cells
                for a, b in zip(cell.vertices, cell.vertices[1:]
                                + cell.vertices[:1])]
    else:
        dirs = [(b[0] - a[0], b[1] - a[1], zb - za)
                for (a, za), (b, zb) in zip(q.vertices, q.vertices[1:])]
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


def _shoelace2(poly) -> Fraction:
    """Twice the signed area."""
    s = Fraction(0)
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return s


def _orient_ccw(poly):
    return tuple(reversed(poly)) if _shoelace2(poly) < 0 else tuple(poly)


def clip_polygon(poly, a, b):
    """Intersect a convex polygon with the halfplane <a, y> <= b."""
    if not poly:
        return ()
    out = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        fp = a[0] * p[0] + a[1] * p[1] - b
        fq = a[0] * q[0] + a[1] * q[1] - b
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            s = fp / (fp - fq)
            out.append((p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1])))
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
    for a, b in halfplanes:
        poly = clip_polygon(poly, a, b)
        if len(poly) < 3 or _shoelace2(poly) == 0:
            return ()
    return _orient_ccw(poly)


def _clip_interval(lo, hi, a, b):
    """Intersect [lo, hi] with a*y <= b (scalars); None if empty."""
    if a > 0:
        hi = min(hi, b / a)
    elif a < 0:
        lo = max(lo, b / a)
    elif b < 0:
        return None
    if lo > hi:
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


@dataclass(frozen=True)
class ConcaveProfile:
    """A concave PL function on a polytope domain.

    ``value(y) = min over planes`` is valid on the domain only.  ``cells``
    are the full-dimensional linearity regions (empty when the domain is
    lower-dimensional, e.g. for conjugates of functions whose gradients are
    collinear).  ``vertices`` are the hypograph vertices with their values.
    """

    n: int
    vertices: tuple           # ((point, value), ...)
    cells: tuple
    planes: tuple             # ((grad, offset), ...), q = min over them

    def value(self, y):
        y = _frac_point(y)
        return min(sum(g[i] * y[i] for i in range(self.n)) + c
                   for g, c in self.planes)

    def lattice_values(self, k: int, points):
        """``k * value(a / k)`` for each integer point a, on integers.

        k q(a/k) is the min over the planes (w, c) of <w, a> + k c.  All
        gradients and offsets are scaled by one common denominator D, so
        each value is one ``Fraction(min of integer sums, D)``.
        """
        den = lcm(*(x.denominator for g, c in self.planes for x in g + (c,)))
        planes = [(tuple(x.numerator * (den // x.denominator) for x in g),
                   k * c.numerator * (den // c.denominator))
                  for g, c in self.planes]
        return tuple(
            Fraction(min(sum(map(mul, g, a)) + c for g, c in planes), den)
            for a in points)

    def domain_points(self):
        return tuple(p for p, _ in self.vertices)

    def to_max_affine(self) -> MaxAffine:
        """Conjugate back: sup over the domain of <y, v> + q(y)."""
        return MaxAffine(self.n, [(p, val) for p, val in self.vertices])

    def shifted(self, c) -> "ConcaveProfile":
        """The profile of f + c, for q the profile of f: q + c."""
        c = Fraction(c)
        return ConcaveProfile(
            self.n, tuple((p, val + c) for p, val in self.vertices),
            tuple(Cell(cell.vertices, cell.grad, cell.offset + c)
                  for cell in self.cells),
            tuple((g, off + c) for g, off in self.planes))


def _upper_hull_1d(points):
    """Upper concave chain of (y, value) pairs, y strictly increasing."""
    pts = sorted(points)
    chain = []
    for p in pts:
        while len(chain) >= 2:
            (x0, z0), (x1, z1) = chain[-2], chain[-1]
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
    pts = list(f.pieces)  # already deduped by gradient with max offset
    if len(pts) == 1:
        g, c = pts[0]
        zero = tuple(Fraction(0) for _ in range(f.n))
        return ConcaveProfile(f.n, ((g, c),), (), ((zero, c),))
    if f.n == 1:
        chain = _upper_hull_1d([(g[0], c) for g, c in pts])
        vertices = tuple(((x,), z) for x, z in chain)
        cells = []
        planes = []
        for (x0, z0), (x1, z1) in zip(chain, chain[1:]):
            slope = (z1 - z0) / (x1 - x0)
            off = z0 - slope * x0
            cells.append(Cell(((x0,), (x1,)), (slope,), off))
            planes.append(((slope,), off))
        return ConcaveProfile(1, vertices, tuple(cells), tuple(planes))
    return _conjugate_2d(pts)


def _affine_rank_2d(gradients):
    g0 = gradients[0]
    dirs = [(g[0] - g0[0], g[1] - g0[1]) for g in gradients[1:]]
    nonzero = [d for d in dirs if d != (Fraction(0), Fraction(0))]
    if not nonzero:
        return 0, None
    d0 = nonzero[0]
    for d in nonzero[1:]:
        if d0[0] * d[1] - d0[1] * d[0] != 0:
            return 2, None
    return 1, d0


def _conjugate_2d(pts):
    """Upper hull of the lifted points, one cell per facet.

    Facets come in the order of the lexicographically smallest index
    triple of non-collinear points on them, so ``planes`` (whose first
    active entry is the witness ``le_witness`` returns) does not depend on
    how the hull is searched.
    """
    gradients = [g for g, _ in pts]
    rank, direction = _affine_rank_2d(gradients)
    if rank == 1:
        return _conjugate_2d_on_line(pts, direction)
    # scale once: gradients by one common denominator, offsets by another;
    # both are positive, so every orientation sign survives
    dg = lcm(*(x.denominator for g in gradients for x in g))
    dc = lcm(*(c.denominator for _, c in pts))
    lifted = [(g[0].numerator * (dg // g[0].denominator),
               g[1].numerator * (dg // g[1].denominator),
               c.numerator * (dc // c.denominator)) for g, c in pts]
    cells, planes, vertices = [], [], []
    for _, poly, (nx, ny, nz), d in sorted(_upper_facets(lifted)):
        # n . (dg*g, dc*c) = d on the facet's plane
        w = (Fraction(-nx * dg, nz * dc), Fraction(-ny * dg, nz * dc))
        beta = Fraction(d, nz * dc)
        cells.append(Cell(tuple(gradients[i] for i in poly), w, beta))
        planes.append((w, beta))
        vertices.extend(poly)
    verts = tuple(pts[i] for i in sorted(set(vertices)))
    return ConcaveProfile(2, verts, tuple(cells), tuple(planes))


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


def _conjugate_2d_on_line(pts, direction):
    """Gradients lie on a line g0 + s * direction: reduce to dimension one."""
    g0 = pts[0][0]
    k = 0 if direction[0] != 0 else 1
    params = []
    for g, c in pts:
        s = (g[k] - g0[k]) / direction[k]
        if (g0[0] + s * direction[0], g0[1] + s * direction[1]) != g:
            raise PLError("internal error: gradient off the detected line")
        params.append((s, c))
    chain = _upper_hull_1d(params)
    vertices = tuple(
        ((g0[0] + s * direction[0], g0[1] + s * direction[1]), z)
        for s, z in chain
    )
    planes = []
    for (s0, z0), (s1, z1) in zip(chain, chain[1:]):
        sigma = (z1 - z0) / (s1 - s0)
        beta = z0 - sigma * s0
        # affine extension constant across the line: s(y) = (y_k - g0_k)/d_k
        grad = tuple(sigma / direction[k] if i == k else Fraction(0)
                     for i in range(2))
        off = beta - sigma * g0[k] / direction[k]
        planes.append((grad, off))
    return ConcaveProfile(2, vertices, (), tuple(planes))


# ---------------------------------------------------------------------------
# min-profiles and constrained envelopes.
# ---------------------------------------------------------------------------


def domain_hrep(profile: ConcaveProfile):
    """Halfplane description of a profile domain (hull of its points)."""
    return _hull_hrep(profile.n, profile.domain_points())


def _hull_hrep(n: int, pts):
    """Halfplane description of the convex hull of points (n <= 2)."""
    if n == 1:
        xs = [p[0] for p in pts]
        return [((Fraction(-1),), -min(xs)), ((Fraction(1),), max(xs))]
    hull = hull2d(pts)
    if len(hull) < 3:
        # segment or point: describe by equality as two opposite halfplanes
        out = []
        if len(hull) == 2:
            p, q = hull
            d = (q[0] - p[0], q[1] - p[1])
            normal = (d[1], -d[0])
            rhs = normal[0] * p[0] + normal[1] * p[1]
            out.append((normal, rhs))
            out.append(((-normal[0], -normal[1]), -rhs))
            # clamp along the segment
            out.append(((-d[0], -d[1]), -(d[0] * p[0] + d[1] * p[1])))
            out.append(((d[0], d[1]), d[0] * q[0] + d[1] * q[1]))
        else:
            p = hull[0]
            for a in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
                rhs = a[0] * p[0] + a[1] * p[1]
                out.append((a, rhs))
                out.append(((-a[0], -a[1]), -rhs))
        return out
    return polygon_hrep(hull)


def _degenerate_profile_2d(pts, planes) -> ConcaveProfile:
    """Min-of-planes profile on a segment or point domain: no cells.

    ``pts`` are distinct collinear points, lexicographically sorted, so the
    first and last are the segment endpoints.  Hypograph vertices sit at the
    endpoints and at plane crossings; that is all ``to_max_affine`` needs.
    """

    def q(y):
        return min(g[0] * y[0] + g[1] * y[1] + c for g, c in planes)

    if len(pts) == 1:
        p = pts[0]
        zero = (Fraction(0), Fraction(0))
        return ConcaveProfile(2, ((p, q(p)),), (), ((zero, q(p)),))
    p, r = pts[0], pts[-1]
    d = (r[0] - p[0], r[1] - p[1])
    lines = [(g[0] * d[0] + g[1] * d[1],
              g[0] * p[0] + g[1] * p[1] + c) for g, c in planes]
    svals = {Fraction(0), Fraction(1)}
    for (a0, b0), (a1, b1) in combinations(lines, 2):
        if a0 != a1:
            s = (b1 - b0) / (a0 - a1)
            if 0 < s < 1:
                svals.add(s)
    vertices = []
    for s in sorted(svals):
        y = (p[0] + s * d[0], p[1] + s * d[1])
        vertices.append((y, q(y)))
    return ConcaveProfile(2, tuple(vertices), (), tuple(planes))


def min_profile(planes, domain_vertices, extra_hrep, n) -> ConcaveProfile:
    """Profile of min over affine planes restricted to a polytope.

    ``domain_vertices`` describe the starting polytope (interval endpoints
    for n = 1, CCW polygon for n = 2); ``extra_hrep`` are additional
    halfplanes cutting it down.  Returns the linearity cells of the
    pointwise minimum.
    """
    planes = list(dict.fromkeys(
        (tuple(Fraction(x) for x in g), Fraction(c)) for g, c in planes
    ))
    if n == 1:
        lo = min(p[0] for p in domain_vertices)
        hi = max(p[0] for p in domain_vertices)
        for a, b in extra_hrep:
            got = _clip_interval(lo, hi, a[0], b)
            if got is None:
                raise EnvelopeError("empty domain")
            lo, hi = got
        if lo == hi:
            # single admissible slope; the profile is one hypograph point
            val = min(g[0] * lo + c for g, c in planes)
            return ConcaveProfile(1, (((lo,), val),), (),
                                  (((Fraction(0),), val),))
        cells = []
        vertices = {}
        active = []
        for idx, (g, c) in enumerate(planes):
            clo, chi = lo, hi
            ok = True
            for jdx, (g2, c2) in enumerate(planes):
                if jdx == idx:
                    continue
                got = _clip_interval(clo, chi, g[0] - g2[0], c2 - c)
                if got is None:
                    ok = False
                    break
                clo, chi = got
            if not ok or clo == chi:
                continue
            cells.append(Cell(((clo,), (chi,)), g, c))
            active.append((g, c))
            for x in (clo, chi):
                vertices[(x,)] = min(p[0] * x + pc for p, pc in planes)
        if not cells:
            raise EnvelopeError("empty domain")
        return ConcaveProfile(1, tuple(sorted(vertices.items())),
                              tuple(cells), tuple(active))
    if n == 2:
        base = _clip_region(tuple(domain_vertices), extra_hrep)
        if not base:
            raise EnvelopeError("empty domain")
        distinct = tuple(sorted(set(base)))
        if len(distinct) < 3 or _shoelace2(hull2d(distinct)) == 0:
            return _degenerate_profile_2d(distinct, planes)
        cells = []
        vertices = {}
        active = []
        for idx, (g, c) in enumerate(planes):
            cuts = []
            for jdx, (g2, c2) in enumerate(planes):
                if jdx == idx:
                    continue
                cuts.append(((g[0] - g2[0], g[1] - g2[1]), c2 - c))
            poly = _clip_region(base, cuts)
            if not poly:
                continue
            cells.append(Cell(poly, g, c))
            active.append((g, c))
            for p in poly:
                vertices[p] = min(
                    q[0] * p[0] + q[1] * p[1] + qc for q, qc in planes
                )
        if not cells:
            raise EnvelopeError("empty domain")
        return ConcaveProfile(2, tuple(sorted(vertices.items())),
                              tuple(cells), tuple(active))
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
    planes = [pl for pr in profiles for pl in pr.planes]
    hreps = list(P.hrep)
    for pr in profiles:
        hreps.extend(domain_hrep(pr))
    return min_profile(planes, P.vertices, hreps,
                       profiles[0].n).to_max_affine()


# ---------------------------------------------------------------------------
# Marginal minimization over the leading variable (Fourier-Motzkin).
# ---------------------------------------------------------------------------


def marginal_min(F: MaxAffine, tau=0) -> MaxAffine:
    """inf over t in [0, 1] of (F(t, v) - t*tau), as a function of v.

    The epigraph of the objective is projected by eliminating t exactly;
    rows with positive and negative t-coefficients pair up, the rest pass
    through.  Redundant pieces are pruned afterwards by ``prune``, so v
    has at most two coordinates.
    """
    tau = Fraction(tau)
    n = F.n - 1
    if n < 0:
        raise PLError("marginal_min needs a leading variable")
    # rows: (a_t, a_v..., a_z, rhs) meaning a_t t + <a_v, v> + a_z z <= rhs
    rows = []
    for g, c in F.pieces:
        rows.append((g[0] - tau,) + g[1:] + (Fraction(-1), -c))
    zero_v = tuple(Fraction(0) for _ in range(n))
    rows.append((Fraction(-1),) + zero_v + (Fraction(0), Fraction(0)))  # t >= 0
    rows.append((Fraction(1),) + zero_v + (Fraction(0), Fraction(1)))   # t <= 1
    pos = [r for r in rows if r[0] > 0]
    neg = [r for r in rows if r[0] < 0]
    zer = [r for r in rows if r[0] == 0]
    projected = list(zer)
    for rp in pos:
        for rn in neg:
            scale_p = 1 / rp[0]
            scale_n = 1 / (-rn[0])
            combined = tuple(
                a * scale_p + b * scale_n for a, b in zip(rp[1:], rn[1:])
            )
            projected.append((Fraction(0),) + combined)
    pieces = []
    for row in projected:
        a_v, a_z, rhs = row[1:-2], row[-2], row[-1]
        if a_z == 0:
            if any(a_v) or rhs < 0:
                raise PLError("internal error: marginal is not finite")
            continue
        # a_z < 0 always (pieces contribute -1 each)
        gamma = -a_z
        pieces.append((tuple(x / gamma for x in a_v), -rhs / gamma))
    if not pieces:
        raise PLError("internal error: empty marginal")
    return prune(MaxAffine(n, pieces))


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
    """Integral of the profile over its own (full-dimensional) domain."""
    if not prof.cells:
        raise PLError("profile has no full-dimensional cells to integrate")
    return sum(
        integrate_cell_affine(c.vertices, c.affine, prof.n) for c in prof.cells
    )


def _overlay(p0: ConcaveProfile, p1: ConcaveProfile):
    """Common refinement of two cell subdivisions of the same domain."""
    if p0.n != p1.n:
        raise PLError("profile dimension mismatch")
    out = []
    if p0.n == 1:
        for c0 in p0.cells:
            lo0, hi0 = c0.vertices[0][0], c0.vertices[-1][0]
            for c1 in p1.cells:
                lo = max(lo0, c1.vertices[0][0])
                hi = min(hi0, c1.vertices[-1][0])
                if lo < hi:
                    out.append((((lo,), (hi,)), c0, c1))
        return out
    for c0 in p0.cells:
        for c1 in p1.cells:
            region = _clip_region(c0.vertices, polygon_hrep(c1.vertices))
            if region:
                out.append((region, c0, c1))
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


def integrate_abs_difference(p0, p1, p: int = 1) -> Fraction:
    """Exact integral of |q0 - q1|^p over the common domain."""
    total = Fraction(0)
    n = p0.n
    for region, c0, c1 in _overlay(p0, p1):
        dg = tuple(a - b for a, b in zip(c0.grad, c1.grad))
        dc = c0.offset - c1.offset
        diff = lambda y, g=dg, c=dc: sum(gi * yi for gi, yi in zip(g, y)) + c
        neg_diff = lambda y, f=diff: -f(y)
        if n == 1:
            lo, hi = region[0][0], region[-1][0]
            plus = _clip_interval(lo, hi, -dg[0], dc)
            minus = _clip_interval(lo, hi, dg[0], -dc)
            if plus is not None and plus[0] < plus[1]:
                total += integrate_cell_affine(
                    ((plus[0],), (plus[1],)), diff, 1, p
                )
            if minus is not None and minus[0] < minus[1]:
                total += integrate_cell_affine(
                    ((minus[0],), (minus[1],)), neg_diff, 1, p
                )
        else:
            plus = _clip_region(region, [((-dg[0], -dg[1]), dc)])
            minus = _clip_region(region, [((dg[0], dg[1]), -dc)])
            if plus:
                total += integrate_cell_affine(plus, diff, 2, p)
            if minus:
                total += integrate_cell_affine(minus, neg_diff, 2, p)
    return total


def max_abs_difference(p0: ConcaveProfile, p1: ConcaveProfile) -> Fraction:
    """Exact sup of |q0 - q1| over the common domain (PL, so at vertices)."""
    best = Fraction(0)
    for region, c0, c1 in _overlay(p0, p1):
        for v in region:
            best = max(best, abs(c0.affine(v) - c1.affine(v)))
    return best
