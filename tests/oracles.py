"""Independent reference computations for the test suite.

Everything in this file is written against plain ``Fraction`` arithmetic and
shares no code with the library under test: rational functions in t reduce
by Euclid over Q, rank counting, RREF, inverses, determinants and span
intersections run their own elimination loops over Fraction, concave
envelopes (and with them redundant max-affine pieces) go through explicit
convex combinations, the 2-D conjugate enumerates every triple of lifted
points and ``upper_planes`` every (n + 1)-tuple (the paths that the
library's gift-wrapped hull replaced), marginal
minimization enumerates crossing parameters, and integrals use closed-form
antiderivatives.  When a test compares a library value against an oracle
value, the only shared dependency is the stdlib.  Norm values over Q
come from coordinates under a Fraction inverse (``norm_values``).  The
elimination loops are written once for any field: given ``RatFunc``
entries they run on the library's rational-function operators, the field
loop that geonorm.linalg's integer-polynomial path replaced, and those
operators are themselves checked against Euclid reduction over Q.
``codiagonalize_filtrations`` is the filtration split that geonorm.norms
replaced with its weighted-pivot kernel (``geonorm.linalg.smith``); it
picks complements intersection by intersection with this file's own span
intersections and rank tests, and the kernel's basis, put in filtration
form, must equal its result tuple for tuple.  ``filtration_form_rref``
puts a common basis in that form by this file's Fraction RREFs, one per
meet and one over the stacked rows, where geonorm.norms eliminates each
meet over Z and keeps rows by an incremental integer echelon.  The exceptions below are
each a path the library replaced, kept as a differential reference and
composed from the library's own primitives.
``legendre_segment_per_t`` is the per-t Legendre construction that
geonorm.segments replaced.  ``rooftop_family`` (with ``_shifted_min`` and
``_crossings``) reads the rooftop P(phi0, phi1 - tau) of every critical
tau off the library's integer overlay, as min(q0, q1 - tau), crossing
the edges that ``overlay_edges`` reads off the cells' tight rows (the
adjacency test the library's overlay no longer runs), and
``legendre_via_rooftops`` takes the sup of that family shifted by t tau,
where geonorm.segments prunes one piece per overlay vertex, valued
(1 - t) q0 + t q1 there.  ``profile_key`` reads a profile with no order
of its cells or of their vertices, which two routes to one P^2 or P^3
profile may list differently, as ``ConcaveProfile.__eq__`` now does on
its own key.  ``level_segment_via_geodesic`` is the
quantized level segment as the FS image of the norm geodesic between two
sup-norm ``DiagNorm``s, and ``maximal_segment_via_geodesic`` and
``level_chain_via_geodesic`` build the maximal segment and the per-level
rows of ``diagnostics`` on it, where geonorm.segments interpolates the
integer lattice values of the two profiles.  ``overlay`` is the common
refinement of two profiles' cells in Fractions, from their ``Cell`` views
clipped by this file's polygon clipping, where geonorm.plconvex keeps the
cells as homogeneous integer points; ``integrate_abs_difference_fraction``
(with ``integrate_cell_affine`` and ``_halfspace_part``),
``max_abs_difference_fraction``, ``overlay_vertices_fraction`` and
``critical_taus_fraction`` read it where the library reads that integer
overlay, and ``integrate_difference`` and ``energy_limit_overlay``
integrate q0 - q1 over it, where geonorm.toric integrates each profile on
its own and subtracts.  ``lp_le_witness`` is the comparison that
geonorm.plconvex replaced: one exact simplex (``tests/linprog.py``, which
no library module calls) per piece, where the library tests each piece
against the conjugate; ``nonredundant_lp`` keeps a piece when one such
simplex finds a point where it alone is the max, where the library keeps
the vertices of the upper hull.  ``conjugate_2d_wrap`` is the inline
planar gift-wrap, on integer rows with its plane algebra written out, that
geonorm.plconvex replaced with the wrap it runs in every dimension; it
returns a library profile to compare byte for byte.  ``chain_scanning``
is the planar monotone chain that found the points of each edge by a
pass over every point, where the library keeps the points its chain
pops with a zero turn; ``conjugate_echelon`` is the conjugate that ran an
echelon over the gradients on every call for their rank and over each
facet's points for its sort key, where the library reads the rank off
the domain wrap and the key off the first indices of a facet.
``conjugate_line_by_wrap`` is the P^1 conjugate through that wrap and
its n-dimensional assembly, where the library reads the profile
straight off the upper chain of the sorted rows.
``supnorm_weights_fraction`` reads sup-norm
weights as ``k * q.value(a / k)`` in Fractions, where geonorm.toric reads
them on one common denominator.  ``coordinate_values`` and
``verifies_in_field`` read norm values from coordinates under a field
inverse over Q and Q(t), where geonorm.norms (``evaluate``, ``==`` and the
check of every codiagonalization) reads zero patterns (over Q) and orders
at t = 0 (over Q(t)) from integer and integer-polynomial dot products.
``codiagonalize_lattices_field`` is the t-adic lattice branch with its
Smith loop in ``RatFunc`` arithmetic, for integer weights only, where
geonorm.linalg.smith runs it on Z[t] rows with one denominator per row and
takes rational weights as pivot offsets.
``smith_eliminating`` is that kernel as it read X = M0^{-1} M1 from one
fraction-free elimination of [M0 | M1] and returned its common basis as
field vectors, run on the library's ring records, where
geonorm.linalg.smith multiplies the inverse rows of M0 that a norm caches
with the columns of M1 and keeps the basis as ``(den, numerators)``
columns; ``row_values`` reads such rows or columns as ``Fraction``s or
``RatFunc``s.  ``smith_unit_ball_columns`` is the Q(t) kernel route that
shifted each basis vector s of weight w to t^(-floor(w)) s, a basis of
the unit ball (``kernel_columns``, ``shift_rows``), and n0's inverse to
match, and passed the fractional parts of the weights as offsets, where
geonorm.norms runs the kernel on the bases as they are, with the full
weights, and scales its outputs once.
``join_inverting``, ``geodesic_base_inverting``,
``sym_power_norm_inverting`` and ``tensor_norm_inverting`` build their
norms with the public ``DiagNorm`` constructor, which inverts the basis,
where geonorm.norms hands each result an inverse derived from the kernel's
row operations, a cached inverse or functoriality; and
``kernel_basis_closing_rref`` reads the kernel's common basis M0 P^{-1}
from this file's RREF of [P^T | M0^T], where geonorm.linalg.smith applies
the inverse of each row operation to the columns of M0.
``det_norm_determinant`` takes the norm on the top exterior power from
this file's determinant of the basis, where geonorm.norms reads ord_t det
from the basis record: 0 over Q with no determinant, and over Q(t) one
determinant per basis, shared by the norms on it.
``VectorNorm``, with ``vector_join`` and ``vector_slice``, reads a Q(t)
norm off its ``RatFunc`` basis vectors, cleared on each read, with ord_t
det from ``geonorm.linalg.determinant``, where geonorm.norms keeps every
basis as Z[t] columns, the kernel's in lowest terms, and reads ord_t det
from a Bareiss loop on their numerators.
``quotient_norm_exchange`` is the exchange loop of the quotient norm,
which solves in each intermediate basis by this file's field inverse,
where geonorm.norms eliminates on coordinates read through the norm's
cached inverse.
``generate_degree_one``, ``check_submultiplicative``, ``graded_geodesic``
and ``asymptotic_stats`` are the ``Fraction`` loops that geonorm.graded
replaced with integer numerators over one common denominator; they read
weights through ``degree_weights``, build norms with the public
``GradedNorm`` constructor, and share only the degree-one input check.
``integrate_cells`` integrates a profile's ``Fraction`` cell views by
trapezoids and triangles, where geonorm.plconvex.integrate_profile sums
on the profile's integers.
``upper_hull_1d_fraction`` (with the conjugates built on it,
``conjugate_1d_chain`` and ``conjugate_on_line``), ``min_profile_fraction``
(with ``clip_polygon_fraction``), ``marginal_min_fm`` and
``walk_fraction`` are the ``Fraction`` kernels that geonorm.plconvex
replaced with integer rows over one denominator and homogeneous integer
points; they take and return plain ``Fraction`` tuples, and the walk is
handed the public ``Fraction`` views of a library profile.
``min_profile`` (with ``_min_profile``, ``_degenerate_profile_2d`` and
their helpers) is the integer clipper of intervals and polygons, for
n <= 2, that geonorm.plconvex replaced with vertex enumeration by double
description; it is composed from the clipping primitives
(``clip_polygon``, ``polygon_hrep``, ``_clip_region``, ``_clip_interval``)
that the library held until its overlays went the same way, and returns
a library profile.  ``_overlay`` (an ``_Overlay`` of clipped cells),
``_overlay_integral`` and ``integrate_profile`` (with ``_fan_sum``) are
the integer overlay and the fan integrals, for n <= 2, that
geonorm.plconvex replaced with one vertex enumeration per overlay and
pulling triangulations in every dimension.  ``hypograph_vertices`` finds
the vertices of a min of planes on a polytope by brute force, solving
every (n + 1)-subset of the rows by cofactors, where the library adds
one row at a time to a cone.  ``cell_integral_sympy`` integrates an
affine function over a cell of R^3 with sympy's ``polytope_integrate``,
on the facets of a brute-force hull (``hull_faces_3d``).
``mix_witness_minkowski`` is the mix witness, for n <= 2, that
geonorm.plconvex replaced with ``le_witness`` against the mix of the two
functions' pruned pieces: it reads the planes of the mix's profile off
the facet slopes of the two hypographs and, on R^2, off pairs of their
edges, on the Minkowski sum of the two domains.
``independent_sorted_echelon`` and ``extends_echelon_stepwise`` are the
two integer echelons, geonorm.plconvex's (rows sorted by pivot) and
geonorm.norms' (rows in insertion order, divided by their gcd at every
step), that geonorm.linalg._extend_echelon replaced with one.
``detect_non_psh_all_triples`` mixes every triple of a path's samples,
where geonorm.segments mixes the consecutive ones.
``rooftop_by_prune`` is the rooftop route that geonorm.toric replaced: it
prunes the envelope's pieces by a second conjugate and integrates that
profile with ``plconvex.integrate_profile``, where geonorm.toric keeps
the pieces as they are and integrates the cells that the envelope's own
vertex enumeration found.
``per_degree_by_points`` is the per-level energy and d1 sum that reads
every lattice point's weights off the pair's weight table, where
geonorm.toric sums each level on P^1 in closed form over the merged
cells of the two profiles.  ``maximal_over_chain`` is the maximal segment
as the pruned max of every level segment of the chain, where
geonorm.segments prunes the top level's segment alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd, lcm, prod
from operator import mul, sub

from geonorm import linalg, plconvex
from geonorm.field import INF, TADIC, RatFunc, format_fraction
from geonorm.graded import GradedError, GradedNorm, _degree_one_table
from geonorm.norms import (
    DiagNorm,
    NormError,
    NormPair,
    codiagonalize,
    distance,
    sym_monomials,
)
from geonorm.plconvex import (
    ConcaveProfile,
    EnvelopeError,
    MaxAffine,
    PLError,
    _canon,
    _conjugate_wrap,
    _envelope,
    _facets,
    _flat_facets,
    _hull_rows,
    _independent,
    _int_rows,
    _mix_witness,
    _overlay as _overlay_integer,
    _overlay_taus,
    _pruned,
    _rational,
    compare,
    conjugate,
    moment_simplex,
    prune,
)
from geonorm.geodesics import geodesic
from geonorm.segments import (
    _legendre_recover,
    _pointwise_max,
    fs_segment,
    quantization_levels,
    tau_critical_set,
)
from geonorm.toric import (
    ToricError,
    ToricMetric,
    envelope_P,
    fs_from_norm,
    moment_volume,
    section_ring,
    supnorm,
)

from linprog import minimize_max_affine


# ---------------------------------------------------------------------------
# Rational linear algebra (self-contained).
# ---------------------------------------------------------------------------


def rank(rows) -> int:
    """Row rank of a matrix of Fractions, by plain Gaussian elimination."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def intersection_dim(U, V) -> int:
    """dim(span U r span V) via dim U + dim V - dim(U + V)."""
    if not U or not V:
        return 0
    return rank(U) + rank(V) - rank(list(U) + list(V))


# ---------------------------------------------------------------------------
# Field-arithmetic elimination: the slow paths that geonorm.linalg's integer
# and integer-polynomial paths replaced.  Every pivot step divides a row by
# its pivot through the entries' own operators: Fraction over Q, RatFunc
# over Q(t).
# ---------------------------------------------------------------------------


def rref_field(rows):
    """Reduced row echelon form by Gauss-Jordan in the field."""
    R = [list(r) for r in rows]
    if not R:
        return [], []
    pivots = []
    r = 0
    for c in range(len(R[0])):
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


def invert_field(A):
    """Inverse from the RREF of [A | I]; None when A is singular.

    I is built from the entries' own zero and one, so the same loop inverts
    matrices of ``Fraction`` and of ``RatFunc``.
    """
    d = len(A)
    zero = A[0][0] - A[0][0]
    one = zero + 1
    aug = [list(A[i]) + [one if i == j else zero for j in range(d)]
           for i in range(d)]
    reduced, pivots = rref_field(aug)
    if pivots[:d] != list(range(d)) or len(reduced) < d:
        return None
    return tuple(tuple(row[d:]) for row in reduced)


def determinant_field(A):
    """Determinant by Gaussian elimination in the field."""
    d = len(A)
    rows = [list(r) for r in A]
    det = Fraction(1)
    for col in range(d):
        pr = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != col:
            rows[col], rows[pr] = rows[pr], rows[col]
            det = -det
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, d):
            factor = rows[r][col] / pivot
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def det_norm_determinant(n: DiagNorm) -> DiagNorm:
    """The norm on the top exterior power as geonorm.norms read it before
    its basis records: the sum of the weights minus the valuation of this
    file's determinant of the basis."""
    total = sum(n.weights, Fraction(0))
    total -= n.field.valuation(determinant_field(n.basis))
    return DiagNorm.standard(n.field, (total,))


def kernel_field(rows):
    """Basis of the right null space, read off the RREF's free columns."""
    ncols = len(rows[0])
    R, pivots = rref_field(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -R[r][free]
        basis.append(tuple(vec))
    return basis


def intersect_spans_kernel(U, V):
    """RREF basis of span U r span V: solve sum a_i U_i = sum b_j V_j."""
    if not U or not V:
        return []
    dim = len(U[0])
    rows = [[u[c] for u in U] + [-v[c] for v in V] for c in range(dim)]
    meet = []
    for k in kernel_field(rows):
        vec = tuple(sum((a * u[c] for a, u in zip(k, U)), Fraction(0))
                    for c in range(dim))
        if any(vec):
            meet.append(vec)
    return rref_field(meet)[0]


def extend_independent_rank(current, candidates):
    """Candidates that raise the rank of current + picked, one rref each."""
    picked = []
    base = list(current)
    r = len(rref_field(base)[0])
    for v in candidates:
        if len(rref_field(base + picked + [v])[0]) > r + len(picked):
            picked.append(v)
    return picked


def codiagonalize_filtrations(n0: DiagNorm, n1: DiagNorm):
    """The filtration split of two norms over Q, as geonorm.norms ran it.

    For the jumps s of n0 and t of n1 in decreasing (s, t) order, the
    vectors of F0^s r F1^t that are independent of the adjacent
    intersections F0^{s'} r F1^t and F0^s r F1^{t'} (s' and t' the next
    larger jumps) and of the basis picked so far join the basis, with
    weights (s, t).  geonorm.norms intersects nothing: it reads each
    F0^s r F1^t off the common basis of its weighted-pivot kernel.
    """
    d = n0.dim
    jumps0 = sorted(set(n0.weights), reverse=True)
    jumps1 = sorted(set(n1.weights), reverse=True)

    def step(norm, s):
        return [vec for vec, w in zip(norm.basis, norm.weights) if w >= s]

    def intersection(i, j):
        # out-of-range index means {0}
        if i < 0 or j < 0:
            return []
        return intersect_spans_kernel(step(n0, jumps0[i]), step(n1, jumps1[j]))

    basis, w0, w1 = [], [], []
    for i, s in enumerate(jumps0):
        for j, t in enumerate(jumps1):
            W = intersection(i, j)
            if not W:
                continue
            below = intersection(i - 1, j) + intersection(i, j - 1) + basis
            for vec in extend_independent_rank(below, W):
                basis.append(vec)
                w0.append(s)
                w1.append(t)
    if len(basis) != d:
        raise NormError("internal error: filtration splitting lost dimensions")
    return tuple(basis), tuple(w0), tuple(w1)


def filtration_form_rref(basis, w0, w1):
    """A common basis over Q with weights (a_i, b_i) in the canonical form
    of the filtration split, by stacked RREFs, as geonorm.norms built it.

    For each pair (s, t) that occurs, in decreasing order, the RREF rows of
    F0^s r F1^t = span{c_i : a_i >= s, b_i >= t} are stacked, with weights
    (s, t); the rows at the pivot columns of one RREF of the stack (the
    stacked rows as columns) are the basis.  geonorm.norms eliminates each
    meet once over Z and keeps a row iff it extends an integer echelon of
    the rows kept before it.
    """
    stacked = []
    for s, t in sorted(set(zip(w0, w1)), reverse=True):
        meet = [vec for vec, x, y in zip(basis, w0, w1) if x >= s and y >= t]
        stacked += [(row, s, t) for row in rref_field(meet)[0]]
    _, pivots = rref_field(list(zip(*(row for row, _, _ in stacked))))
    basis, w0, w1 = zip(*(stacked[k] for k in pivots))
    return basis, w0, w1


def trivial_spectrum(basis0, weights0, basis1, weights1):
    """Relative spectrum of two diagonal norms over trivially valued Q.

    Counts multiplicities through filtration dimensions only: with
    F_i(s) = span of basis vectors of weight >= s, the number of spectrum
    entries equal to a - b is the mixed second difference of
    dim(F_0(a) r F_1(b)) over the two weight grids.  No common basis is
    ever constructed.
    """
    lv0 = sorted(set(weights0), reverse=True)
    lv1 = sorted(set(weights1), reverse=True)

    def cut(basis, weights, levels, i):
        if i < 0:
            return []
        s = levels[i]
        return [v for v, w in zip(basis, weights) if w >= s]

    def meet(i, j):
        u = cut(basis0, weights0, lv0, i)
        v = cut(basis1, weights1, lv1, j)
        return intersection_dim(u, v)

    out = []
    for i, a in enumerate(lv0):
        for j, b in enumerate(lv1):
            count = (meet(i, j) - meet(i - 1, j)
                     - meet(i, j - 1) + meet(i - 1, j - 1))
            out.extend([a - b] * count)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Legendre segment rebuilt at every t: one rooftop envelope per critical
# shift and per time, the path that geonorm.segments replaced with one
# rooftop family per pair (``rooftop_family`` below).
# ---------------------------------------------------------------------------


def legendre_segment_per_t(phi0, phi1, t):
    """sup over tau of (P(phi0, phi1 - tau) + t*tau), envelopes built at t."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ToricError(f"segment time {t} outside [0, 1]")
    pots = []
    for tau in tau_critical_set(phi0, phi1):
        roof = envelope_P(phi0, phi1.shifted(-tau))
        pots.append(roof.potential.shifted(t * tau))
    pot = prune(pots[0].max_with(*pots[1:]))
    return ToricMetric(phi0.n, phi0.m, pot, "limit")


# ---------------------------------------------------------------------------
# Quantized level segments through the norm geodesic of two sup-norms: the
# path that geonorm.segments replaced with the weight interpolation of the
# two profiles' integer lattice values.
# ---------------------------------------------------------------------------


def level_segment_via_geodesic(ring, k, n0, n1):
    """The level-k FS segment of the geodesic between sup-norms n0, n1."""
    geo = geodesic(n0, n1)
    return fs_segment(ring, k, geo.weights0, geo.weights1)


def _geodesic_levels(phi0, phi1, kmax):
    """(k, n0, n1, segment) per level of the chain, n0, n1 the sup-norms."""
    ring = section_ring(phi0.n, phi0.m)
    out = []
    for k in quantization_levels(kmax):
        n0, n1 = supnorm(k, phi0), supnorm(k, phi1)
        out.append((k, n0, n1, level_segment_via_geodesic(ring, k, n0, n1)))
    return out


def _max_at(phi0, segs, t):
    pots = [seg.eval(t).potential for seg in segs]
    return ToricMetric(phi0.n, phi0.m, prune(pots[0].max_with(*pots[1:])),
                       "limit")


def maximal_segment_via_geodesic(phi0, phi1, t, kmax):
    """Pointwise max at t of the geodesic level segments of the chain."""
    segs = [seg for _, _, _, seg in _geodesic_levels(phi0, phi1, kmax)]
    return _max_at(phi0, segs, t)


def level_chain_via_geodesic(phi0, phi1, kmax, ts):
    """``(d1_geodesic_per_level, endpoint_recovery)`` of ``diagnostics``:
    d1 of the two sup-norms by ``norms.distance``, d1 along the segment on
    ``Fraction`` weights, recovery by the public ``compare``."""
    ts = [Fraction(t) for t in ts]
    levels = _geodesic_levels(phi0, phi1, kmax)
    per_level = []
    for k, n0, n1, seg in levels:
        d_ends = distance(n0, n1, 1)
        ws = {s: [(1 - s) * a + s * b
                  for a, b in zip(seg.weights0, seg.weights1)] for s in ts}
        ok = all(
            Fraction(sum(abs(x - y) for x, y in zip(ws[s], ws[u])),
                     len(ws[s])) == (u - s) * d_ends
            for s, u in itertools.combinations(ts, 2))
        per_level.append({"k": k, "d1_endpoints": str(d_ends),
                          "geodesic_exact": ok})
    segs = [seg for _, _, _, seg in levels]
    recovery = {}
    for label, t, phi in (("start", 0, phi0), ("end", 1, phi1)):
        rel = compare(_max_at(phi0, segs, t).potential, phi.potential).relation
        recovery[label] = {"recovered": rel == "eq", "relation": rel}
    return per_level, recovery


def maximal_over_chain(pair, t, kmax):
    """``(phi, q)``: the pointwise max at t of the level segments of every
    level of the chain up to kmax, pruned, and its profile, as
    geonorm.segments built the maximal segment of a ``SegmentPair``."""
    segs = [pair._level(k) for k in quantization_levels(kmax)]
    return _pointwise_max(pair.phi0.n, pair.phi0.m,
                          [seg.eval(Fraction(t)).potential for seg in segs])


# ---------------------------------------------------------------------------
# Per-level energy and d1 sums over every lattice point: the path that
# geonorm.toric replaced on P^1 with closed-form sums over merged cells.
# ---------------------------------------------------------------------------


def per_degree_by_points(pair, kmax, term):
    """((k, (k h0(k))^-1 sum_a term(beta0_a - beta1_a)), ...) for k <= kmax,
    read point by point off the weight table of a ``MetricPair`` as
    ``MetricPair._per_degree`` read it on every n."""
    h0 = section_ring(pair.phi0.n, pair.phi0.m).h0
    per_k = []
    for k in range(1, kmax + 1):
        den, b0, b1 = pair._weights(k)
        total = sum(term(x - y) for x, y in zip(b0, b1))
        per_k.append((k, Fraction(total, k * h0(k) * den)))
    return tuple(per_k)


# ---------------------------------------------------------------------------
# Overlays of two profiles' cells in Fractions: the path that
# geonorm.plconvex replaced with integer cells over one denominator (and,
# for energies, geonorm.toric with one integral per profile).
# ---------------------------------------------------------------------------


def _require_plane(n, what):
    if n > 2:
        raise PLError(f"{what} implemented for n <= 2")


def _polygon_hrep_fraction(poly):
    """Outward halfplanes ((a0, a1), b) of a convex polygon, either way
    round."""
    if _shoelace2_fraction(poly) < 0:
        poly = tuple(reversed(poly))
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        normal = (q[1] - p[1], p[0] - q[0])
        out.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return out


def overlay(p0, p1):
    """Common refinement of two profiles' cells: ``(region, c0, c1)`` for
    each pair of cells meeting in a full-dimensional region, the region's
    points in Fractions and c0, c1 the profiles' ``Cell`` views."""
    if p0.n != p1.n:
        raise PLError("profile dimension mismatch")
    _require_plane(p0.n, "overlays")
    out = []
    for c0 in p0.cells:
        for c1 in p1.cells:
            if p0.n == 1:
                lo = max(c0.vertices[0][0], c1.vertices[0][0])
                hi = min(c0.vertices[-1][0], c1.vertices[-1][0])
                region = ((lo,), (hi,)) if lo < hi else ()
            else:
                region = _clip_region_fraction(
                    c0.vertices, _polygon_hrep_fraction(c1.vertices))
            if region:
                out.append((region, c0, c1))
    return out


def overlay_vertices_fraction(p0, p1):
    """The sorted vertices of ``overlay(p0, p1)``."""
    return tuple(sorted({y for region, _, _ in overlay(p0, p1)
                         for y in region}))


def critical_taus_fraction(p0, p1):
    """q1 - q0 at the overlay's vertices, on the cells' affine views."""
    return tuple(sorted({c1.affine(y) - c0.affine(y)
                         for region, c0, c1 in overlay(p0, p1)
                         for y in region}))


def _halfspace_part(region, a, b):
    """The part of an interval or polygon of Fraction points where
    <a, y> <= b, or () when it is empty or lower-dimensional."""
    _require_plane(len(a), "_halfspace_part")
    a, b = tuple(map(Fraction, a)), Fraction(b)
    if len(a) == 1:
        got = _clip_interval_fraction(region[0][0], region[-1][0], a[0], b)
        if got is None or got[0] == got[1]:
            return ()
        return ((got[0],), (got[1],))
    return _clip_region_fraction(tuple(region), [(a, b)])


def _h_complete(values, p):
    """Complete homogeneous symmetric polynomial h_p of the values."""
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(values, p):
        total += math.prod(combo, start=Fraction(1))
    return total


def _integrate_affine_power_triangle(tri, values, p):
    area2 = abs((tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1])
                - (tri[1][1] - tri[0][1]) * (tri[2][0] - tri[0][0]))
    return Fraction(area2, 2) * _h_complete(values, p) / math.comb(2 + p, p)


def _integrate_affine_power_interval(a, b, va, vb, p):
    return abs(b - a) * _h_complete((va, vb), p) / (p + 1)


def integrate_cell_affine(cell_vertices, affine, n, p=1):
    """Integral of affine(y)^p over an interval (n=1) or polygon (n=2)."""
    _require_plane(n, "integrate_cell_affine")
    if n == 1:
        a, b = cell_vertices[0][0], cell_vertices[-1][0]
        return _integrate_affine_power_interval(
            a, b, affine((a,)), affine((b,)), p)
    poly = list(cell_vertices)
    total = Fraction(0)
    for i in range(1, len(poly) - 1):
        tri = (poly[0], poly[i], poly[i + 1])
        total += _integrate_affine_power_triangle(
            tri, tuple(affine(v) for v in tri), p)
    return total


def integrate_abs_difference_fraction(p0, p1, p=1):
    """Integral of |q0 - q1|^p: each overlay region split by the sign of
    the difference of its two affine views."""
    total = Fraction(0)
    for region, c0, c1 in overlay(p0, p1):
        dg = tuple(a - b for a, b in zip(c0.grad, c1.grad))
        dc = c0.offset - c1.offset

        def diff(y, g=dg, c=dc):
            return sum(gi * yi for gi, yi in zip(g, y)) + c

        plus = _halfspace_part(region, tuple(-x for x in dg), dc)
        minus = _halfspace_part(region, dg, -dc)
        if plus:
            total += integrate_cell_affine(plus, diff, p0.n, p)
        if minus:
            total += integrate_cell_affine(minus, lambda y: -diff(y),
                                           p0.n, p)
    return total


def max_abs_difference_fraction(p0, p1):
    """sup |q0 - q1| over the overlay's vertices."""
    return max((abs(c0.affine(y) - c1.affine(y))
                for region, c0, c1 in overlay(p0, p1) for y in region),
               default=Fraction(0))


def integrate_difference(p0, p1) -> Fraction:
    """Exact integral of (q0 - q1) over the common domain."""
    total = Fraction(0)
    for region, c0, c1 in overlay(p0, p1):
        diff = lambda y, a=c0, b=c1: a.affine(y) - b.affine(y)
        total += integrate_cell_affine(region, diff, p0.n)
    return total


def energy_limit_overlay(phi0, phi1) -> Fraction:
    """vol(m Delta)^-1 * integral of (q0 - q1), one overlay per pair."""
    return (integrate_difference(phi0.profile(), phi1.profile())
            / moment_volume(phi0.n, phi0.m))


# ---------------------------------------------------------------------------
# Sup-norm weights and norm values: the Fraction paths that geonorm.toric
# and geonorm.norms replaced with integer ones.
# ---------------------------------------------------------------------------


def supnorm_weights_fraction(q, k, points):
    """k * q(a/k) for each lattice point a, one Fraction plane min each."""
    return tuple(k * q.value(tuple(Fraction(x, k) for x in a))
                 for a in points)


def norm_values(basis, weights, vectors):
    """-log norms over trivially valued Q, None for the zero vector.

    The coordinates of v are inv(B) v for the matrix B with the basis as
    columns; the value is the least weight over the nonzero coordinates.
    """
    d = len(basis)
    inv = invert_field([[Fraction(basis[c][r]) for c in range(d)]
                        for r in range(d)])
    out = []
    for v in vectors:
        coords = [sum(a * Fraction(b) for a, b in zip(row, v)) for row in inv]
        nonzero = [w for x, w in zip(coords, weights) if x != 0]
        out.append(min(nonzero) if nonzero else None)
    return tuple(out)


def coordinate_values(n: DiagNorm, vectors):
    """-log norms over either field, INF for the zero vector: the least
    valuation plus weight over the nonzero coordinates, with coordinates
    taken under this file's field inverse of n's basis."""
    d, field = n.dim, n.field
    inv = invert_field([[n.basis[c][r] for c in range(d)] for r in range(d)])
    out = []
    for v in vectors:
        coords = [sum((a * b for a, b in zip(row, v)), field.zero)
                  for row in inv]
        out.append(min((field.valuation(x) + w
                        for x, w in zip(coords, n.weights) if x), default=INF))
    return tuple(out)


def verifies_in_field(n0, n1, result):
    """Whether n0, n1 take the claimed weights on the claimed common basis,
    by ``coordinate_values``."""
    basis, w0, w1 = result
    return (coordinate_values(n0, basis) == tuple(w0)
            and coordinate_values(n1, basis) == tuple(w1))


# ---------------------------------------------------------------------------
# Smith normal form in the field: the lattice branch of codiagonalize as it
# ran before geonorm.linalg.smith moved its row operations to Z[t] rows; and
# that kernel as it ran before it read X through a cached inverse.
# ---------------------------------------------------------------------------


def codiagonalize_lattices_field(n0: DiagNorm, n1: DiagNorm):
    """The Smith loop in RatFunc arithmetic, as geonorm.norms ran it."""
    if any(w.denominator != 1 for w in n0.weights + n1.weights):
        raise NormError(
            "t-adic codiagonalization requires integer weights "
            "(the value group is Z)"
        )
    field = TADIC
    d = n0.dim

    def lattice_columns(n: DiagNorm):
        # unit ball = R-span of t^{-w_i} s_i
        return [
            tuple(field.of(x).shifted(-int(w)) for x in vec)
            for vec, w in zip(n.basis, n.weights)
        ]

    L0 = lattice_columns(n0)  # list of column vectors
    L1 = lattice_columns(n1)
    # change of basis M = M0^{-1} M1, whose columns express L1 in terms of
    # L0 (the columns of M0): the right half of the RREF of [M0 | M1]
    reduced, _ = linalg.rref([
        tuple(L0[c][r] for c in range(d)) + tuple(L1[c][r] for c in range(d))
        for r in range(d)
    ])
    A = [list(row[d:]) for row in reduced]
    P = [list(row) for row in linalg.identity(field, d)]  # accumulates row ops

    def row_op(dst, src, factor):
        A[dst] = [a - factor * b for a, b in zip(A[dst], A[src])]
        P[dst] = [a - factor * b for a, b in zip(P[dst], P[src])]

    exponents = []
    for k in range(d):
        # min-valuation pivot in the trailing submatrix, smallest (i, j) tie
        best = None
        for i in range(k, d):
            for j in range(k, d):
                val = field.valuation(A[i][j])
                if val is INF:
                    continue
                if best is None or val < best[0]:
                    best = (val, i, j)
        if best is None:
            raise NormError("internal error: singular change-of-basis matrix")
        _, pi, pj = best
        A[k], A[pi] = A[pi], A[k]
        P[k], P[pi] = P[pi], P[k]
        for row in A:
            row[k], row[pj] = row[pj], row[k]
        pivot = A[k][k]
        for i in range(k + 1, d):
            if A[i][k]:
                row_op(i, k, A[i][k] / pivot)
        for j in range(k + 1, d):
            if A[k][j]:
                factor = A[k][j] / pivot
                for row in A:
                    row[j] = row[j] - factor * row[k]
        exponents.append(int(field.valuation(pivot)))

    # common basis: the columns of C = M0 P^{-1}, i.e. the rows of C^T,
    # which solves P^T C^T = M0^T: the right half of the RREF of [P^T | M0^T]
    reduced, _ = linalg.rref([
        tuple(P[r][c] for r in range(d)) + L0[c] for c in range(d)
    ])
    basis = tuple(row[d:] for row in reduced)
    w0 = tuple(Fraction(0) for _ in range(d))
    w1 = tuple(Fraction(-e) for e in exponents)
    return basis, w0, w1


def smith_eliminating(M0, M1, a, b):
    """``(C, P, w0, w1)`` of the weighted-pivot Smith loop on X = M0^{-1} M1
    for matrices M0, M1 of field elements (as rows) and rational offsets,
    with X read from one fraction-free elimination of [M0 | M1] and C
    returned as field vectors, as geonorm.linalg.smith ran it on the
    library's ring records."""
    d = len(M0)
    ring = linalg._Z if linalg._is_rational(list(M0) + list(M1)) else linalg._ZT
    if ring is linalg._Z:
        def times(x, den):
            return x.numerator * (den // x.denominator)
    else:
        def times(x, den):
            return linalg._times(RatFunc.of(x), den)
    order, zero, mul = ring.order, ring.zero, ring.mul
    E, pivots, c = linalg._eliminate(
        ring, [tuple(x) + tuple(y) for x, y in zip(M0, M1)])
    if pivots != list(range(d)):
        raise linalg.SingularMatrixError("matrix is singular")
    # row i of X is E[i][d + j] c_i / (E[i][i] c_{d+j}); over the common
    # multiple L of the c_{d+j} its denominator is E[i][i] L
    L = functools.reduce(ring.lcm, c[d:])
    shifts = [ring.exact_div(L, x) for x in c[d:]]
    dens, R = [], []
    for i, row in enumerate(E):
        den, *polys = ring.primitive(
            [mul(row[i], L)]
            + [mul(mul(x, c[i]), s) for x, s in zip(row[d:], shifts)])
        dens.append(den)
        R.append(polys + [den if j == i else zero for j in range(d)])
    cdens = list(c[:d])
    cols = [[times(x, den) for x in col] for col, den in zip(zip(*M0), cdens)]
    D = math.lcm(*(x.denominator for x in a), *(x.denominator for x in b))
    A = [x.numerator * (D // x.denominator) for x in a]
    B = [x.numerator * (D // x.denominator) for x in b]
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
            raise linalg.SingularMatrixError("matrix is singular")
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
                p, q = ring.primitive([prow[k], R[i][k]])
                # column k += mu column i, mu = q pden / (p dens[i])
                f, g = mul(mul(p, dens[i]), cdens[i]), mul(mul(q, pden), cden)
                cden, *ck = ring.primitive(
                    [mul(cden, f)]
                    + [ring.add(mul(x, f), mul(g, y))
                       for x, y in zip(ck, cols[i])])
                dens[i], R[i] = linalg._smith_row_op(ring, dens[i], R[i],
                                                     prow, k, p, q)
        cols[k], cdens[k] = ck, cden
        prow[k + 1:d] = [zero] * (d - k - 1)
        w0.append(Fraction(A[k], D))
        w1.append(Fraction(A[k] - key, D))
    C = tuple(tuple(ring.element(x, den) for x in col)
              for col, den in zip(cols, cdens))
    P = tuple((den, tuple(row[d:])) for den, row in zip(dens, R))
    return C, P, tuple(w0), tuple(w1)


def shift_rows(rows, powers):
    """Row j of a Q(t) matrix of ``(den, numerators)`` rows times
    t^powers[j]: the numerators move up by powers[j] - m for the least
    power m, and the denominators by -m when m < 0, so equal denominators
    stay equal."""
    m = min(min(powers), 0)
    out = []
    for (den, nums), k in zip(rows, powers):
        if m:
            den = (0,) * -m + den
        if k - m:
            nums = tuple((0,) * (k - m) + x if x else x for x in nums)
        out.append((den, nums))
    return tuple(out)


def kernel_columns(n: DiagNorm):
    """``(cols, floors)`` of a Q(t) norm: the columns t^(-f_i) s_i of its
    basis, a basis of the unit ball, and the floors f_i of its weights."""
    floors = [x // n._den for x in n._nums]
    return shift_rows(n._rec.rows, [-f for f in floors]), floors


def smith_unit_ball_columns(n0: DiagNorm, n1: DiagNorm):
    """``(C, inverse, w0, w1)`` of two Q(t) norms as geonorm.norms read
    them before the kernel ran on the bases as they are: ``linalg.smith``
    on the unit-ball columns (``kernel_columns``) with the fractional
    parts of the weights as offsets, through n0's inverse times
    diag(t^floor(w)); C and the inverse P M0^{-1} as field entries, the
    weights as ``Fraction``s."""
    D = math.lcm(n0._den, n1._den)
    (cols0, floors), (cols1, _) = kernel_columns(n0), kernel_columns(n1)
    inv0 = shift_rows(n0._inverse(), floors)
    a, b = ([x * (D // n._den) % D for x in n._nums] for n in (n0, n1))
    C, P, w0, w1 = linalg.smith(TADIC, inv0, cols0, cols1, a, b, D)
    return (row_values(TADIC, C),
            row_values(TADIC, linalg.mul_rows(TADIC, P, inv0)),
            *(tuple(Fraction(x, D) for x in w) for w in (w0, w1)))


def row_values(field, rows):
    """The field entries of a matrix of ``(den, numerators)`` rows."""
    make = RatFunc if field is TADIC else Fraction
    return tuple(tuple(make(x, den) for x in nums) for den, nums in rows)


# ---------------------------------------------------------------------------
# Norms that invert their bases: the paths that geonorm.norms and
# geonorm.geodesics replaced with inverses derived from data they hold (the
# kernel's row operations, cached inverses, functoriality).
# ---------------------------------------------------------------------------


def kernel_basis_closing_rref(M0, P):
    """The columns of M0 P^{-1} for a matrix M0 (as rows) and field rows P,
    as geonorm.norms read them before linalg.smith returned them: the rows
    of C^T solve P^T C^T = M0^T, the right half of the RREF of
    [P^T | M0^T]."""
    d = len(M0)
    reduced, _ = rref_field([
        tuple(P[r][c] for r in range(d)) + tuple(M0[r][c] for r in range(d))
        for c in range(d)
    ])
    return tuple(tuple(row[d:]) for row in reduced)


def join_inverting(n0: DiagNorm, n1: DiagNorm) -> DiagNorm:
    """The join built on the common basis by ``DiagNorm``, which inverts it."""
    basis, w0, w1 = codiagonalize(n0, n1)
    return DiagNorm(n0.field, basis, tuple(min(a, b) for a, b in zip(w0, w1)))


def geodesic_base_inverting(n0: DiagNorm, n1: DiagNorm) -> DiagNorm:
    """The norm of a geodesic's common basis at t = 0, built by inverting."""
    basis, w0, _ = codiagonalize(n0, n1)
    return DiagNorm(n0.field, basis, w0)


def sym_power_norm_inverting(n: DiagNorm, m: int) -> DiagNorm:
    """Sym^m with the basis built in dicts of field elements and inverted."""
    field = n.field
    d = n.dim
    index = {e: i for i, e in enumerate(sym_monomials(d, m))}
    basis = []
    weights = []
    for combo in itertools.combinations_with_replacement(range(d), m):
        poly = {(0,) * d: field.one}
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
        col = [field.zero] * len(index)
        for expo, coeff in poly.items():
            col[index[expo]] = coeff
        basis.append(tuple(col))
        weights.append(sum((n.weights[i] for i in combo), Fraction(0)))
    return DiagNorm(field, tuple(basis), tuple(weights))


def tensor_norm_inverting(n0: DiagNorm, n1: DiagNorm) -> DiagNorm:
    """The tensor product norm on the product basis, built by inverting."""
    basis = [tuple(a * b for a in vec0 for b in vec1)
             for vec0 in n0.basis for vec1 in n1.basis]
    weights = [w0 + w1 for w0 in n0.weights for w1 in n1.weights]
    return DiagNorm(n0.field, tuple(basis), tuple(weights))


# ---------------------------------------------------------------------------
# The Q(t) basis record as geonorm.norms held it before it kept primitive
# Z[t] columns: the basis as RatFunc vectors, cleared on each read.
# ---------------------------------------------------------------------------


class VectorNorm:
    """A Q(t) norm read the way geonorm.norms read its ``RatFunc`` vectors
    before a basis record kept primitive Z[t] columns.

    Each read clears the basis vectors again (``linalg._poly_cleared``),
    the inverse is ``linalg.inverse_rows`` of the field entries, values
    are orders of coordinates (``linalg.coordinate_orders``), the basis is
    standard iff it equals the identity vectors, ord_t det is the valuation
    of ``linalg.determinant``, and Sym^m multiplies the vectors in the
    field.  ``vector_join`` and ``vector_slice`` take the kernel's common
    basis as the ``RatFunc`` view of its columns as the kernel gives them,
    before they are put in lowest terms.
    """

    def __init__(self, basis, weights):
        self.basis = tuple(tuple(TADIC.of(x) for x in vec) for vec in basis)
        self.weights = tuple(Fraction(w) for w in weights)
        self._inv = linalg.inverse_rows(TADIC, tuple(zip(*self.basis)))

    def values(self, vectors):
        orders = linalg.coordinate_orders(
            self._inv, [linalg._poly_cleared(v) for v in vectors])
        return tuple(min((o + w for o, w in zip(ords, self.weights)
                          if o is not INF), default=INF) for ords in orders)

    def evaluate(self, v):
        return self.values([v])[0]

    def __eq__(self, other):
        vecs = self.basis + other.basis
        return self.values(vecs) == other.values(vecs)

    def is_standard_basis(self):
        return self.basis == linalg.identity(TADIC, len(self.basis))

    def det_norm(self):
        total = sum(self.weights, Fraction(0))
        total -= TADIC.valuation(linalg.determinant(self.basis))
        return VectorNorm(((TADIC.one,),), (total,))

    def sym_power_norm(self, m):
        d = len(self.basis)
        index = {e: i for i, e in enumerate(sym_monomials(d, m))}
        basis, weights = [], []
        for combo in itertools.combinations_with_replacement(range(d), m):
            poly = {(0,) * d: TADIC.one}
            for i in combo:
                nxt = {}
                for expo, coeff in poly.items():
                    for r, c in enumerate(self.basis[i]):
                        if c:
                            e2 = expo[:r] + (expo[r] + 1,) + expo[r + 1:]
                            nxt[e2] = nxt.get(e2, TADIC.zero) + coeff * c
                poly = nxt
            col = [TADIC.zero] * len(index)
            for expo, coeff in poly.items():
                col[index[expo]] = coeff
            basis.append(tuple(col))
            weights.append(sum((self.weights[i] for i in combo), Fraction(0)))
        return VectorNorm(basis, weights)

    def to_json(self):
        return {"field": TADIC.name, "dim": len(self.basis),
                "basis": [[TADIC.to_json(x) for x in vec] for vec in self.basis],
                "weights": [format_fraction(w) for w in self.weights]}


def _kernel_vectors(n0: DiagNorm, n1: DiagNorm):
    """The common basis of two Q(t) norms as ``RatFunc`` vectors read off
    the columns the pair computes, and its weights as ``Fraction``s."""
    pair = NormPair(n0, n1)
    cols, w0, w1 = pair._common()
    return (row_values(TADIC, cols),
            *(tuple(Fraction(x, pair._den) for x in w) for w in (w0, w1)))


def vector_join(n0: DiagNorm, n1: DiagNorm) -> VectorNorm:
    """The join on the kernel's common basis, as ``RatFunc`` vectors."""
    basis, w0, w1 = _kernel_vectors(n0, n1)
    return VectorNorm(basis, map(min, w0, w1))


def vector_slice(n0: DiagNorm, n1: DiagNorm, t) -> VectorNorm:
    """The geodesic slice at t on the kernel's common basis, as ``RatFunc``
    vectors."""
    basis, w0, w1 = _kernel_vectors(n0, n1)
    return VectorNorm(basis, ((1 - t) * a + t * b for a, b in zip(w0, w1)))


# ---------------------------------------------------------------------------
# Comparison by linear programming: minimize g - (piece of f) over R^n for
# each piece, the path that geonorm.plconvex replaced with a test of each
# piece against the conjugate profile of g.
# ---------------------------------------------------------------------------


def lp_le_witness(f, g):
    """None if f <= g everywhere, else a point where f > g (any n)."""
    for gf, cf in f.pieces:
        diff = [(tuple(a - b for a, b in zip(gg, gf)), cg - cf)
                for gg, cg in g.pieces]
        res = minimize_max_affine(f.n, diff)
        if res.status == "optimal":
            if res.value < 0:
                return res.point
            continue
        # unbounded below: march along the ray past the exact threshold
        p0, ray = res.point, res.ray
        T = Fraction(1)
        for dg, dc in diff:
            a = sum(x * y for x, y in zip(dg, p0)) + dc
            b = sum(x * y for x, y in zip(dg, ray))
            # b < 0 along a descent ray; need a + b T < 0
            if a >= 0:
                T = max(T, a / (-b) + 1)
        return tuple(x + T * r for x, r in zip(p0, ray))
    return None


# ---------------------------------------------------------------------------
# Rational functions in t: reduction by Euclid over Fraction, the slow path
# that geonorm.field's integer remainder sequence replaced.  Polynomials are
# coefficient tuples, constant term first.
# ---------------------------------------------------------------------------


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _content(ints) -> int:
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    return g


def poly_gcd_euclid(a, b):
    """Primitive gcd over Z (sign unnormalized), by Euclid over Q."""
    fa = _strip(Fraction(x) for x in a)
    fb = _strip(Fraction(x) for x in b)
    while fb:
        r = list(fa)
        while len(r) >= len(fb):
            q = r[-1] / fb[-1]
            shift = len(r) - len(fb)
            for i, c in enumerate(fb):
                r[shift + i] -= q * c
            r = _strip(r)
        fa, fb = fb, r
    if not fa:
        return ()
    lcm = 1
    for c in fa:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in fa]
    g = _content(ints)
    return tuple(x // g for x in ints)


def poly_exact_div_fraction(a, b):
    """a / b over Q; ValueError unless the quotient is an integer polynomial."""
    fa = [Fraction(x) for x in a]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = fa[k + len(b) - 1] / b[-1]
        out[k] = q
        for i, c in enumerate(b):
            fa[k + i] -= q * c
    if any(fa):
        raise ValueError("inexact polynomial division")
    if any(c.denominator != 1 for c in out):
        raise ValueError("non-integer quotient in exact division")
    return tuple(_strip(int(c) for c in out))


def reduced_ratfunc(num, den):
    """Canonical (num, den) of num/den: coprime, content-free, and the
    lowest-order nonzero coefficient of den positive; the zero function is
    ((), (1,))."""
    num, den = tuple(_strip(num)), tuple(_strip(den))
    if not num:
        return (), (1,)
    g = poly_gcd_euclid(num, den)
    num = poly_exact_div_fraction(num, g)
    den = poly_exact_div_fraction(den, g)
    c = math.gcd(_content(num), _content(den))
    sign = -1 if next(x for x in den if x) < 0 else 1
    return (tuple(sign * x // c for x in num),
            tuple(sign * x // c for x in den))


# ---------------------------------------------------------------------------
# Concave closures by explicit convex combinations (dimension <= 2).
# ---------------------------------------------------------------------------


def concave_value_1d(points, y):
    """Concave-closure value at y of finitely many (x, value) pairs.

    Maximizes over single points and two-point combinations; by Caratheodory
    that is exhaustive on a line.  Returns None when y is outside the hull.
    """
    y = Fraction(y)
    best = None
    for (x, v) in points:
        if x == y and (best is None or v > best):
            best = v
    for (x0, v0), (x1, v1) in itertools.combinations(points, 2):
        if x0 == x1:
            continue
        lam = (y - x0) / (x1 - x0)
        if 0 <= lam <= 1:
            cand = (1 - lam) * v0 + lam * v1
            if best is None or cand > best:
                best = cand
    return best


def concave_value_2d(points, y):
    """Concave-closure value at y in the plane: points, segments, triangles."""
    y = tuple(Fraction(c) for c in y)
    best = None

    def consider(val):
        nonlocal best
        if best is None or val > best:
            best = val

    for (x, v) in points:
        if tuple(x) == y:
            consider(v)
    for (x0, v0), (x1, v1) in itertools.combinations(points, 2):
        dx = (x1[0] - x0[0], x1[1] - x0[1])
        dy = (y[0] - x0[0], y[1] - x0[1])
        if dx[0] * dy[1] != dx[1] * dy[0]:
            continue
        if dx[0] != 0:
            lam = dy[0] / dx[0]
        elif dx[1] != 0:
            lam = dy[1] / dx[1]
        else:
            continue
        if 0 <= lam <= 1:
            consider((1 - lam) * v0 + lam * v1)
    for (x0, v0), (x1, v1), (x2, v2) in itertools.combinations(points, 3):
        # barycentric coordinates by Cramer's rule
        det = ((x1[0] - x0[0]) * (x2[1] - x0[1])
               - (x2[0] - x0[0]) * (x1[1] - x0[1]))
        if det == 0:
            continue
        l1 = ((y[0] - x0[0]) * (x2[1] - x0[1])
              - (x2[0] - x0[0]) * (y[1] - x0[1])) / det
        l2 = ((x1[0] - x0[0]) * (y[1] - x0[1])
              - (y[0] - x0[0]) * (x1[1] - x0[1])) / det
        l0 = 1 - l1 - l2
        if l0 >= 0 and l1 >= 0 and l2 >= 0:
            consider(l0 * v0 + l1 * v1 + l2 * v2)
    return best


def concave_value(points, y):
    if isinstance(y, (int, Fraction)) or len(y) == 1:
        coord = y if isinstance(y, (int, Fraction)) else y[0]
        pts = [(x[0] if not isinstance(x, (int, Fraction)) else x, v)
               for x, v in points]
        return concave_value_1d(pts, coord)
    return concave_value_2d(points, y)


def _hull_ccw(points):
    """Convex hull vertices, counterclockwise from the smallest point,
    collinear points dropped (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def turns_left(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) > 0

    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and not turns_left(chain[-2], chain[-1], p):
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return tuple(chains[0] + chains[1])


def conjugate_2d_triples(pieces):
    """Upper concave envelope of lifted points (g, c), g in the plane.

    The enumeration that geonorm.plconvex's gift-wrapped hull replaced:
    every triple of pieces with affinely independent gradients spans a
    plane, which is an upper facet when no lifted point lies above it.
    ``pieces`` are (g, c) with distinct gradients, in the order the
    library sorts them.  Returns ``(vertices, cells, planes)`` in the
    library's layout: ``((g, q(g)), ...)`` sorted, ``((polygon, w, beta),
    ...)`` and ``((w, beta), ...)``, facets in the order their first triple
    comes up; None when no three gradients are affinely independent.
    """
    found = {}
    for (g1, c1), (g2, c2), (g3, c3) in itertools.combinations(pieces, 3):
        det = ((g2[0] - g1[0]) * (g3[1] - g1[1])
               - (g2[1] - g1[1]) * (g3[0] - g1[0]))
        if det == 0:
            continue
        # solve <w, g> + beta = c on the triple
        w1 = ((c2 - c1) * (g3[1] - g1[1]) - (c3 - c1) * (g2[1] - g1[1])) / det
        w2 = ((c3 - c1) * (g2[0] - g1[0]) - (c2 - c1) * (g3[0] - g1[0])) / det
        beta = c1 - w1 * g1[0] - w2 * g1[1]
        if (w1, w2, beta) not in found and all(
                w1 * g[0] + w2 * g[1] + beta >= c for g, c in pieces):
            found[(w1, w2, beta)] = True
    if not found:
        return None
    vertices, cells, planes = {}, [], []
    for w1, w2, beta in found:
        poly = _hull_ccw([g for g, c in pieces
                          if w1 * g[0] + w2 * g[1] + beta == c])
        cells.append((poly, (w1, w2), beta))
        planes.append(((w1, w2), beta))
        for p in poly:
            vertices[p] = w1 * p[0] + w2 * p[1] + beta
    return tuple(sorted(vertices.items())), tuple(cells), tuple(planes)


def conjugate_2d_wrap(den, rows):
    """``conjugate`` of integer rows (G_1, G_2, C) over den whose gradients
    span the plane: the inline planar wrap that geonorm.plconvex replaced
    with its gift-wrap of every dimension.

    The upper hull of the lifted rows, one cell per facet, with its plane
    algebra inline.  Facets come in the order of the lexicographically
    smallest index triple of non-collinear points on them.
    """
    facets = sorted(_upper_facets_2d(rows))
    # n . (G, C) = d on a facet: q = <-(nx, ny) / nz, y> + d / (nz den)
    scale = math.lcm(*(normal[2] for _, _, normal, _ in facets))
    cells, planes, on = [], [], set()
    for _, poly, (nx, ny, nz), d in facets:
        q = scale // nz
        planes.append((-nx * den * q, -ny * den * q, d * q))
        cells.append(tuple((rows[i][0] * scale, rows[i][1] * scale)
                           for i in poly))
        on.update(poly)
    verts = [tuple(x * scale for x in rows[i]) for i in sorted(on)]
    return ConcaveProfile(2, den * scale, verts, cells, planes)


def _ccw_indices(pts):
    """Indices of the hull vertices of distinct points of the plane,
    counterclockwise from the smallest, collinear points dropped."""
    order = sorted(range(len(pts)), key=pts.__getitem__)
    out = []
    for seq in (order, order[::-1]):
        chain = []
        for i in seq:
            x, y = pts[i]
            while len(chain) > 1:
                (ox, oy), (ax, ay) = pts[chain[-2]], pts[chain[-1]]
                if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                    break
                chain.pop()
            chain.append(i)
        out += chain[:-1]
    return out


def _upper_facets_2d(lifted):
    """Facets of the upper hull of integer points (x, y, z), gift-wrapped.

    The (x, y) are distinct, sorted and span the plane.  Each facet is
    ``(key, poly, normal, d)``: the points on it are those with
    ``normal . p == d`` (normal[2] > 0), ``poly`` indexes its vertices
    counterclockwise, and ``key`` is the lexicographically smallest index
    triple of points on it whose (x, y) are not collinear.  The wrap
    starts at the first edge of the lifted boundary chain from point 0
    and crosses each edge once.
    """
    xy = [(x, y) for x, y, _ in lifted]
    # point 0 is the lexicographically smallest, so a hull vertex; its
    # lifted boundary chain runs along the first hull edge, first towards
    # the point of largest lifted slope from point 0 (any of them on a tie:
    # they span one line, the axis the wrap turns about)
    x0, y0, z0 = lifted[0]
    hx, hy = xy[_ccw_indices(xy)[1]]
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
        poly = [on[i] for i in _ccw_indices([xy[i] for i in on])]
        (px, py), (qx, qy) = xy[on[0]], xy[on[1]]
        third = next(i for i in on[2:] if (qx - px) * (xy[i][1] - py)
                     != (qy - py) * (xy[i][0] - px))
        facets.append(((on[0], on[1], third), poly, normal, d))
        for e in zip(poly, poly[1:] + poly[:1]):
            done.add(e)
            todo.append(e[::-1])
    return facets


# ---------------------------------------------------------------------------
# Hull edges found by a pass over every point, and conjugate facets ordered
# by echelon: the paths that geonorm.plconvex replaced with the points its
# monotone chain pops and the rank that its domain wrap gives.
# ---------------------------------------------------------------------------


def _half_dropping(pts, seq):
    """Andrew's monotone chain through points of the plane taken in the
    order ``seq`` of indices: the lower chain for increasing points, the
    upper one for decreasing, collinear points dropped."""
    chain = []
    for i in seq:
        x, y = pts[i]
        while len(chain) > 1:
            (ox, oy), (ax, ay) = pts[chain[-2]], pts[chain[-1]]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            chain.pop()
        chain.append(i)
    return chain


def chain_scanning(pts, sign):
    """``plconvex._facets`` at d = 2 as it found the points of each edge:
    the edges of the monotone chain, each with one pass over all m points
    for those on its line (k m tests for k edges).  A list in the library's
    layout, ``_flat_facets`` for flat points."""
    order = sorted(range(len(pts)), key=pts.__getitem__)
    edges = []
    for seq in ((order, order[::-1]) if not sign
                else (order[::-1],) if sign > 0 else (order,)):
        chain = _half_dropping(pts, seq)
        edges += zip(chain, chain[1:])
    if not sign and len(edges) < 3:
        return _flat_facets(pts)
    out = []
    for a, b in edges:
        (ax, ay), (bx, by) = pts[a], pts[b]
        nx, ny = by - ay, ax - bx
        if sign and sign * ny <= 0:
            continue
        c = nx * ax + ny * ay
        out.append(((nx, ny), c, 1,
                    tuple([i for i, (x, y) in enumerate(pts)
                           if nx * x + ny * y == c]),
                    (a, b) if a < b else (b, a)))
    return out


def conjugate_echelon(f):
    """``plconvex.conjugate`` as it read the rank of the gradients off an
    echelon (``_independent``) on every call, wrapped the upper facets
    without a domain given (at d = 2 by ``chain_scanning``) and sorted
    them by the echelon's first affinely independent (r + 1)-tuple of
    each facet's indices.  Returns a library profile, with no domain rows
    kept."""
    n, den, rows = f.n, f._den, f._rows
    _, piv = _independent([g[:-1] for g in rows], range(len(rows)), n)
    r = len(piv)
    pts = rows if r == n else [tuple(g[k] for k in piv) + (g[-1],)
                               for g in rows]
    facets = (chain_scanning(pts, 1) if len(pts[0]) == 2
              else list(_facets(pts, 1)))
    if len(facets) > 1:
        facets.sort(key=lambda facet: facet[3] if len(facet[3]) == r + 1
                    else tuple(_independent(pts, facet[3], r)[0]))
    scale = math.lcm(*[facet[0][-1] for facet in facets])
    planes = []
    for N, c, _, _, _ in facets:
        s = scale // N[-1]
        ds = -den * s
        if r == n:
            grad = [x * ds for x in N]
        else:
            grad = [0] * (n + 1)
            for k, x in zip(piv, N):
                grad[k] = x * ds
        grad[-1] = c * s
        planes.append(grad)
    on = sorted({i for facet in facets for i in facet[4]})
    flat = itertools.chain.from_iterable
    g = math.gcd(math.gcd(den, *flat(map(rows.__getitem__, on))) * scale,
                 *flat(planes))
    verts = {i: tuple([x * scale // g for x in rows[i]]) for i in on}
    cells = () if r < n else [tuple([verts[i][:-1] for i in facet[4]])
                              for facet in facets]
    return ConcaveProfile._lowest(
        n, den * scale // g, list(verts.values()), cells,
        [tuple([x // g for x in p]) for p in planes])


def conjugate_line_by_wrap(f):
    """``plconvex.conjugate`` on R^1 as it ran the general route: the
    upper chain from ``_facets`` (at d = 2) or the max (for one piece),
    assembled by ``_conjugate_wrap``.  Returns a library profile, with no
    domain rows kept."""
    return _conjugate_wrap(1, f._den, f._rows,
                           (0,) if len(f._rows) > 1 else ())


def _solve_fraction(rows):
    """The solution of a square Fraction system [A | b], or None if A is
    singular (Gauss-Jordan with row swaps)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def upper_planes(pieces):
    """Planes (w, beta) of the upper concave envelope of lifted points
    (g, c), g in R^n, by brute force over (n + 1)-tuples.

    Every (n + 1)-tuple of pieces with affinely independent gradients
    spans a plane <w, g> + beta = c, which is an upper facet when no
    lifted point lies above it.  ``pieces`` are (g, c) with distinct
    gradients in the library's order; planes come in the order their
    first tuple comes up, each with the indices of the pieces on it.
    None when no n + 1 gradients are affinely independent.
    """
    n = len(pieces[0][0])
    found = {}
    for tup in itertools.combinations(pieces, n + 1):
        sol = _solve_fraction([list(g) + [Fraction(1), c] for g, c in tup])
        if sol is None:
            continue
        w, beta = tuple(sol[:n]), sol[n]
        if w + (beta,) not in found and all(
                sum(x * y for x, y in zip(w, g)) + beta >= c
                for g, c in pieces):
            found[w + (beta,)] = tuple(
                i for i, (g, c) in enumerate(pieces)
                if sum(x * y for x, y in zip(w, g)) + beta == c)
    if not found:
        return None
    return tuple(((k[:n], k[n]), on) for k, on in found.items())


def nonredundant_lp(pieces):
    """The pieces (g, c) that alone attain the max somewhere, by one exact
    LP each: piece i is kept iff min over v of max_{j != i} of
    (piece_j - piece_i)(v) is below 0 (or unbounded below)."""
    n = len(pieces[0][0])
    out = []
    for i, (g, c) in enumerate(pieces):
        rest = [(tuple(a - b for a, b in zip(h, g)), d - c)
                for j, (h, d) in enumerate(pieces) if j != i]
        if not rest:
            out.append((g, c))
            continue
        res = minimize_max_affine(n, rest)
        if res.status != "optimal" or res.value < 0:
            out.append((g, c))
    return out


def nonredundant_pieces(pieces):
    """Pieces (g, c) of a max-affine function that alone attain its max somewhere.

    ``pieces`` have distinct gradients.  By Farkas, a piece is redundant
    exactly when some convex combination of the other pieces has gradient g
    and offset at least c, that is when the concave closure of the other
    lifted points reaches c at g.
    """
    out = []
    for i, (g, c) in enumerate(pieces):
        best = concave_value(pieces[:i] + pieces[i + 1:], g)
        if best is None or best < c:
            out.append((g, c))
    return out


# ---------------------------------------------------------------------------
# Discrete double conjugation on a one-dimensional grid.
# ---------------------------------------------------------------------------


def grid_envelope_1d(f, slope_lo, slope_hi, v,
                     radius=Fraction(10), step=Fraction(1, 4)):
    """Largest convex minorant with slopes in [slope_lo, slope_hi], at v.

    Discrete double Legendre transform: conjugate over a sample grid of
    width ``radius`` and spacing ``step``, slopes on the same spacing.
    Exact at grid points whenever the input's breakpoints and admissible
    slopes lie on the grid and the radius clears every crossing.
    """
    slope_lo, slope_hi = Fraction(slope_lo), Fraction(slope_hi)
    v = Fraction(v)
    samples = []
    x = -radius
    while x <= radius:
        samples.append(x)
        x += step
    slopes = []
    y = slope_lo
    while y <= slope_hi:
        slopes.append(y)
        y += step
    if slopes[-1] != slope_hi:
        slopes.append(slope_hi)
    best = None
    for s in slopes:
        conj = max(s * x - f(x) for x in samples)
        cand = s * v - conj
        if best is None or cand > best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# Exact minimization over the segment parameter.
# ---------------------------------------------------------------------------


def min_over_t(pieces, v, tau=0):
    """min over t in [0,1] of max_i(gt_i*t + <gv_i, v> + c_i) - tau*t.

    ``pieces`` is a list of (gt, gv, c) with gt, c Fractions and gv a tuple.
    The objective is convex piecewise linear in t, so the minimum sits at an
    endpoint or at a crossing of two affine forms; all candidates are
    enumerated exactly.
    """
    tau = Fraction(tau)
    v = tuple(Fraction(c) for c in v)
    lines = []
    for gt, gv, c in pieces:
        off = Fraction(c) + sum(Fraction(g) * x for g, x in zip(gv, v))
        lines.append((Fraction(gt) - tau, off))

    def val(t):
        return max(a * t + b for a, b in lines)

    candidates = {Fraction(0), Fraction(1)}
    for (a0, b0), (a1, b1) in itertools.combinations(lines, 2):
        if a0 == a1:
            continue
        t = (b1 - b0) / (a0 - a1)
        if 0 < t < 1:
            candidates.add(t)
    return min(val(t) for t in candidates)


# ---------------------------------------------------------------------------
# Exact integrals of piecewise linear data.
# ---------------------------------------------------------------------------


def trapezoid(samples):
    """Integral of a function affine between consecutive (x, value) samples."""
    total = Fraction(0)
    pts = sorted((Fraction(x), Fraction(v)) for x, v in samples)
    for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
        total += (x1 - x0) * (v0 + v1) / 2
    return total


def triangle_area(p0, p1, p2):
    return abs((p1[0] - p0[0]) * (p2[1] - p0[1])
               - (p2[0] - p0[0]) * (p1[1] - p0[1])) / 2


def triangles_integral(triangles, func):
    """Integral of ``func`` over a union of triangles, assuming it is affine
    on each one (average of vertex values times area)."""
    total = Fraction(0)
    for tri in triangles:
        vals = [func(p) for p in tri]
        total += triangle_area(*tri) * sum(vals) / 3
    return total


def integrate_cells(cells, n):
    """Integral over ``(polygon, grad, offset)`` cells of their affine
    functions: trapezoids on intervals, fan triangles in the plane."""
    total = Fraction(0)
    for poly, grad, off in cells:
        def f(y, grad=grad, off=off):
            return sum(g * x for g, x in zip(grad, y)) + off

        if n == 1:
            total += trapezoid([(p[0], f(p)) for p in poly])
        else:
            total += triangles_integral(
                [(poly[0], poly[i], poly[i + 1])
                 for i in range(1, len(poly) - 1)], f)
    return total


def abs_power_integral_1d(alpha, beta, a, b, p):
    """Exact integral of |alpha + beta*y|**p over [a, b], integer p >= 1.

    Uses the global antiderivative B(s) = sign(s)|s|**(p+1)/(p+1) of |s|**p
    after the substitution s = alpha + beta*y.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    a, b = Fraction(a), Fraction(b)
    if beta == 0:
        return abs(alpha) ** p * (b - a)

    def anti(s):
        mag = abs(s) ** (p + 1)
        return mag if s >= 0 else -mag

    return (anti(alpha + beta * b) - anti(alpha + beta * a)) / (beta * (p + 1))


# ---------------------------------------------------------------------------
# Brute-force graded and quotient computations.
# ---------------------------------------------------------------------------


def max_decomposition_weight(weights_by_point, a, k):
    """Max of sum of degree-one weights over k-fold decompositions of a.

    ``weights_by_point`` maps degree-one lattice points (tuples) to weights;
    exhaustive recursion, intended for tiny instances only.
    """
    points = list(weights_by_point)

    def rec(target, slots):
        if slots == 0:
            return Fraction(0) if all(c == 0 for c in target) else None
        best = None
        for pt in points:
            rest = tuple(t - c for t, c in zip(target, pt))
            if any(c < 0 for c in rest):
                continue
            sub = rec(rest, slots - 1)
            if sub is None:
                continue
            cand = weights_by_point[pt] + sub
            if best is None or cand > best:
                best = cand
        return best

    return rec(tuple(a), k)


def coset_sup(norm_eval, v, subspace, coeff_range=3):
    """Quotient-norm oracle: sup of evaluate(v + w) over small-coefficient
    combinations w of the subspace vectors (on the -log scale the quotient
    norm is the supremum over coset representatives)."""
    dims = len(subspace)
    best = None
    span = [Fraction(i) for i in range(-coeff_range, coeff_range + 1)]
    for coeffs in itertools.product(span, repeat=dims):
        w = list(v)
        for c, vec in zip(coeffs, subspace):
            for i, x in enumerate(vec):
                w[i] = w[i] + c * x
        val = norm_eval(w)
        if best is None or val > best:
            best = val
    return best



def quotient_norm_exchange(n: DiagNorm, spanning):
    """``(qnorm, project)`` by the exchange loop that geonorm.norms replaced
    with a forward elimination on coordinates read through n's cached
    inverse.  Each RREF row of W is solved in the current basis by a field
    inverse of that basis; its components along the W vectors already
    swapped in are dropped, and the rest replaces the basis vector at the
    first column least in v(coordinate) + weight.  ``project`` solves in the
    final basis and keeps the columns not swapped out."""
    field, d = n.field, n.dim
    spanning = [tuple(field.of(x) for x in vec) for vec in spanning]
    W, _ = rref_field([v for v in spanning if any(v)])
    if not W:
        raise NormError("quotient by the zero subspace is the norm itself")
    if len(W) >= d:
        raise NormError("quotient by the full space is zero-dimensional")

    def solve(vecs, v):
        inv = invert_field([[vecs[c][r] for c in range(d)] for r in range(d)])
        return [sum((a * b for a, b in zip(row, v)), field.zero)
                for row in inv]

    vecs, weights, swapped = list(n.basis), list(n.weights), []
    for w in W:
        coords = solve(vecs, w)
        for p in swapped:
            coords[p] = field.zero
        best = None
        for p, a in enumerate(coords):
            if p in swapped or not a:
                continue
            cand = field.valuation(a) + weights[p]
            if best is None or cand < best[0]:
                best = (cand, p)
        value, p_star = best
        vecs[p_star] = tuple(
            sum((coords[c] * vecs[c][r] for c in range(d) if coords[c]),
                field.zero)
            for r in range(d))
        weights[p_star] = value
        swapped.append(p_star)
    remaining = [p for p in range(d) if p not in swapped]
    qnorm = DiagNorm.standard(field, tuple(weights[p] for p in remaining))
    final = list(vecs)

    def project(v):
        coords = solve(final, tuple(field.of(x) for x in v))
        return tuple(coords[p] for p in remaining)

    return qnorm, project

# ---------------------------------------------------------------------------
# Graded norms in Fraction arithmetic: the loops geonorm.graded replaced.
# ---------------------------------------------------------------------------


def generate_degree_one(ring, degree_one, kmax):
    """Max-plus convolution powers of the degree-one weights, in Fractions."""
    if kmax < 1:
        raise GradedError("kmax must be at least 1")
    w1 = _degree_one_table(ring, degree_one)
    tables = [w1]
    b1 = ring.basis(1)
    for k in range(2, kmax + 1):
        prev = tables[-1]
        table = {}
        for b, wb in prev.items():
            for a in b1:
                c = tuple(x + y for x, y in zip(a, b))
                w = wb + w1[a]
                if c not in table or w > table[c]:
                    table[c] = w
        tables.append(table)
    return GradedNorm(ring, tables)


def check_submultiplicative(gn, kmax=None):
    """None if superadditive up to kmax, else the first violation (k,l,a,b)."""
    K = gn.kmax if kmax is None else min(kmax, gn.kmax)
    ring = gn.ring
    for k in range(1, K):
        wk = gn.degree_weights(k)
        for l in range(1, K - k + 1):
            wl = gn.degree_weights(l)
            wkl = gn.degree_weights(k + l)
            for a in ring.basis(k):
                wa = wk[a]
                for b in ring.basis(l):
                    c = tuple(x + y for x, y in zip(a, b))
                    if wkl[c] < wa + wl[b]:
                        return (k, l, a, b)
    return None


def graded_geodesic(gn0, gn1, t):
    """Degreewise weight interpolation (1-t)*w0 + t*w1, in Fractions."""
    if gn0.ring != gn1.ring:
        raise GradedError("graded norms live on different rings")
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise NormError(f"geodesic time {t} outside [0, 1]")
    K = min(gn0.kmax, gn1.kmax)
    tables = []
    for k in range(1, K + 1):
        w0 = gn0.degree_weights(k)
        w1 = gn1.degree_weights(k)
        tables.append({a: (1 - t) * w0[a] + t * w1[a] for a in w0})
    return GradedNorm(gn0.ring, tables)


def asymptotic_stats(gn0, gn1, p, kmax=None, oracle_limit=None):
    """Per-degree p-th moments of the rescaled spectrum, in Fractions."""
    if gn0.ring != gn1.ring:
        raise GradedError("graded norms live on different rings")
    K = min(gn0.kmax, gn1.kmax)
    if kmax is not None:
        K = min(K, kmax)
    values = []
    for k in range(1, K + 1):
        w0 = gn0.degree_weights(k)
        w1 = gn1.degree_weights(k)
        lam = [w0[a] - w1[a] for a in gn0.ring.basis(k)]
        if p == math.inf:
            val = max(abs(x) for x in lam) / k
        else:
            if not isinstance(p, int) or p < 1:
                raise GradedError("p must be an integer >= 1 or inf")
            val = Fraction(sum(abs(x / k) ** p for x in lam), len(lam))
        values.append((k, val))
    return values, oracle_limit


# ---------------------------------------------------------------------------
# The Fraction kernels of geonorm.plconvex that integer rows over one
# denominator replaced: the 1-D upper chain (and the conjugates built on
# it), min-profiles with Sutherland-Hodgman clipping, Fourier-Motzkin
# marginals and the comparison walk.  Profiles come back as plain tuples
# in the library's layout: ``vertices`` ((point, value), ...), ``cells``
# ((polygon, grad, offset), ...) and ``planes`` ((grad, offset), ...).
# ---------------------------------------------------------------------------


class EmptyDomain(Exception):
    """The Fraction min-profile found no full-dimensional cell."""


def upper_hull_1d_fraction(points):
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


def conjugate_1d_chain(pieces):
    """(vertices, cells, planes) of the profile of 1-D pieces (g, c).

    ``pieces`` have distinct gradients, at least two of them.
    """
    chain = upper_hull_1d_fraction([(g[0], c) for g, c in pieces])
    vertices = tuple(((x,), z) for x, z in chain)
    cells, planes = [], []
    for (x0, z0), (x1, z1) in zip(chain, chain[1:]):
        slope = (z1 - z0) / (x1 - x0)
        off = z0 - slope * x0
        cells.append((((x0,), (x1,)), (slope,), off))
        planes.append(((slope,), off))
    return vertices, tuple(cells), tuple(planes)


def conjugate_on_line(pieces):
    """(vertices, planes) of the profile of 2-D pieces whose gradients lie
    on one line, in the library's order (``pieces`` sorted, distinct)."""
    g0 = pieces[0][0]
    direction = next((g[0] - g0[0], g[1] - g0[1]) for g, _ in pieces[1:]
                     if g != g0)
    k = 0 if direction[0] != 0 else 1
    params = []
    for g, c in pieces:
        s = (g[k] - g0[k]) / direction[k]
        assert (g0[0] + s * direction[0], g0[1] + s * direction[1]) == g
        params.append((s, c))
    chain = upper_hull_1d_fraction(params)
    vertices = tuple(
        ((g0[0] + s * direction[0], g0[1] + s * direction[1]), z)
        for s, z in chain)
    planes = []
    for (s0, z0), (s1, z1) in zip(chain, chain[1:]):
        sigma = (z1 - z0) / (s1 - s0)
        beta = z0 - sigma * s0
        grad = tuple(sigma / direction[k] if i == k else Fraction(0)
                     for i in range(2))
        planes.append((grad, beta - sigma * g0[k] / direction[k]))
    return vertices, tuple(planes)


def _shoelace2_fraction(poly):
    s = Fraction(0)
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return s


def clip_polygon_fraction(poly, a, b):
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
    dedup = []
    for pt in out:
        if not dedup or pt != dedup[-1]:
            dedup.append(pt)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


def _clip_region_fraction(poly, halfplanes):
    for a, b in halfplanes:
        poly = clip_polygon_fraction(poly, a, b)
        if len(poly) < 3 or _shoelace2_fraction(poly) == 0:
            return ()
    return tuple(reversed(poly)) if _shoelace2_fraction(poly) < 0 else tuple(poly)


def _clip_interval_fraction(lo, hi, a, b):
    if a > 0:
        hi = min(hi, b / a)
    elif a < 0:
        lo = max(lo, b / a)
    elif b < 0:
        return None
    if lo > hi:
        return None
    return lo, hi


def _degenerate_profile_2d_fraction(pts, planes):
    def q(y):
        return min(g[0] * y[0] + g[1] * y[1] + c for g, c in planes)

    if len(pts) == 1:
        p = pts[0]
        return ((p, q(p)),), (), (((Fraction(0), Fraction(0)), q(p)),)
    p, r = pts[0], pts[-1]
    d = (r[0] - p[0], r[1] - p[1])
    lines = [(g[0] * d[0] + g[1] * d[1],
              g[0] * p[0] + g[1] * p[1] + c) for g, c in planes]
    svals = {Fraction(0), Fraction(1)}
    for (a0, b0), (a1, b1) in itertools.combinations(lines, 2):
        if a0 != a1:
            s = (b1 - b0) / (a0 - a1)
            if 0 < s < 1:
                svals.add(s)
    vertices = []
    for s in sorted(svals):
        y = (p[0] + s * d[0], p[1] + s * d[1])
        vertices.append((y, q(y)))
    return tuple(vertices), (), tuple(planes)


def min_profile_fraction(planes, domain_vertices, extra_hrep, n):
    """(vertices, cells, planes) of min over planes on a polytope.

    Raises ``EmptyDomain`` where the library raises ``EnvelopeError``.
    """
    planes = list(dict.fromkeys(
        (tuple(Fraction(x) for x in g), Fraction(c)) for g, c in planes))
    if n == 1:
        lo = min(Fraction(p[0]) for p in domain_vertices)
        hi = max(Fraction(p[0]) for p in domain_vertices)
        for a, b in extra_hrep:
            got = _clip_interval_fraction(lo, hi, a[0], b)
            if got is None:
                raise EmptyDomain
            lo, hi = got
        if lo == hi:
            val = min(g[0] * lo + c for g, c in planes)
            return (((lo,), val),), (), (((Fraction(0),), val),)
        cells, vertices = [], {}
        for idx, (g, c) in enumerate(planes):
            clo, chi = lo, hi
            for jdx, (g2, c2) in enumerate(planes):
                if jdx != idx:
                    got = _clip_interval_fraction(clo, chi, g[0] - g2[0],
                                                  c2 - c)
                    if got is None:
                        break
                    clo, chi = got
            else:
                if clo != chi:
                    cells.append((((clo,), (chi,)), g, c))
                    for x in (clo, chi):
                        vertices[(x,)] = min(p[0] * x + pc
                                             for p, pc in planes)
        if not cells:
            raise EmptyDomain
        return (tuple(sorted(vertices.items())), tuple(cells),
                tuple((g, c) for _, g, c in cells))
    domain = tuple(tuple(Fraction(x) for x in p) for p in domain_vertices)
    base = _clip_region_fraction(domain, extra_hrep)
    if not base:
        raise EmptyDomain
    distinct = tuple(sorted(set(base)))
    if len(distinct) < 3 or _shoelace2_fraction(_hull_ccw(distinct)) == 0:
        return _degenerate_profile_2d_fraction(distinct, planes)
    cells, vertices = [], {}
    for idx, (g, c) in enumerate(planes):
        cuts = [((g[0] - g2[0], g[1] - g2[1]), c2 - c)
                for jdx, (g2, c2) in enumerate(planes) if jdx != idx]
        poly = _clip_region_fraction(base, cuts)
        if poly:
            cells.append((poly, g, c))
            for p in poly:
                vertices[p] = min(q[0] * p[0] + q[1] * p[1] + qc
                                  for q, qc in planes)
    if not cells:
        raise EmptyDomain
    return (tuple(sorted(vertices.items())), tuple(cells),
            tuple((g, c) for _, g, c in cells))


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot3(u, v):
    return sum(a * b for a, b in zip(u, v))


def hull_faces_3d(pts):
    """The facets of the hull of full-dimensional points of R^3 by brute
    force: every triple of points spans a plane, kept when every point
    lies on one side of it.  Each facet lists its point indices around it
    counterclockwise seen from outside, so that the first three give the
    outward normal, found by wrapping the facet's points in its plane."""
    faces = {}
    for i, j, k in combinations(range(len(pts)), 3):
        p = pts[i]
        N = _cross3(tuple(a - b for a, b in zip(pts[j], p)),
                    tuple(a - b for a, b in zip(pts[k], p)))
        if not any(N):
            continue
        side = [_dot3(N, tuple(a - b for a, b in zip(q, p))) for q in pts]
        if all(x >= 0 for x in side):
            N = tuple(-x for x in N)
        elif not all(x <= 0 for x in side):
            continue
        faces.setdefault(tuple(i for i, x in enumerate(side) if not x), N)
    out = []
    for on, N in faces.items():
        ring = [on[0]]
        while len(ring) < len(on):
            cur = pts[ring[-1]]
            for q in on:
                if q in ring:
                    continue
                e = tuple(a - b for a, b in zip(pts[q], cur))
                if all(_dot3(N, _cross3(e, tuple(a - b for a, b in
                                                zip(pts[r], cur)))) >= 0
                       for r in on if r != q):
                    ring.append(q)
                    break
        out.append(ring)
    return out


def cell_integral_sympy(vertices, grad, offset):
    """The integral of <grad, y> + offset over the hull of points of R^3
    by sympy's ``polytope_integrate``, one homogeneous part at a time (it
    gives nan on x + 2y + 3 over the unit tetrahedron)."""
    from sympy import Rational, symbols
    from sympy.integrals.intpoly import polytope_integrate

    x = symbols("x y z")
    poly = [[tuple(Rational(c.numerator, c.denominator) for c in v)
             for v in vertices]] + hull_faces_3d(vertices)
    total = Fraction(0)
    for part, scale in ((sum(Rational(g.numerator, g.denominator) * xi
                             for g, xi in zip(grad, x)), 1),
                        (Rational(1), offset)):
        if part != 0:
            got = polytope_integrate(poly, part)
            total += Fraction(int(got.p), int(got.q)) * scale
    return total


def _det_cofactor(m):
    """Determinant of a square integer matrix by cofactor expansion along
    its first row."""
    if not m:
        return 1
    return sum((-1) ** j * x * _det_cofactor([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]) if x)


def hypograph_vertices(planes, hrep):
    """The vertices (y, z) of {z <= <w, y> + b for each plane (w, b),
    <a, y> <= b for each halfspace (a, b)} in R^n x R, sorted, by brute
    force: every (n + 1)-subset of the rows taken as equalities, solved
    by cofactors (Cramer's rule) where its matrix is invertible, and the
    solution kept when it satisfies every row."""
    rows = [tuple(-x for x in w) + (1, b) for w, b in planes]
    rows += [tuple(a) + (0, b) for a, b in hrep]
    ints = []
    for r in dict.fromkeys(tuple(map(Fraction, r)) for r in rows):
        den = math.lcm(*(x.denominator for x in r))
        ints.append(tuple(int(x * den) for x in r))
    k = len(ints[0]) - 1
    found = set()
    for sub in itertools.combinations(ints, k):
        A = [r[:-1] for r in sub]
        D = _det_cofactor(A)
        if not D:
            continue
        # x_i = det(A with column i replaced by b) / D; test on D x
        X = [_det_cofactor([a[:i] + (r[-1],) + a[i + 1:]
                            for a, r in zip(A, sub)]) for i in range(k)]
        if D < 0:
            D, X = -D, [-x for x in X]
        if all(sum(a * x for a, x in zip(r, X)) <= r[-1] * D for r in ints):
            found.add(tuple(Fraction(x, D) for x in X))
    return sorted((x[:-1], x[-1]) for x in found)


# ---------------------------------------------------------------------------
# The integer clipping primitives (n <= 2) that geonorm.plconvex replaced
# with vertex enumeration by double description, as it held them: a
# polygon of homogeneous integer points (X, Y, W) clipped by integer
# halfplanes, and an interval of points (X, W).
# ---------------------------------------------------------------------------


def _common(points):
    """(L, integer points over L) of homogeneous points, L the lcm of the W."""
    den = lcm(*(p[-1] for p in points))
    return den, [tuple(x * (den // p[-1]) for x in p[:-1]) for p in points]


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
# The integer min-profile clipper (n <= 2) that geonorm.plconvex replaced
# with vertex enumeration by double description; composed from the
# clipping primitives above.
# ---------------------------------------------------------------------------


def _hom_halfplane(a, b):
    """<a, y> <= b with rational a, b as the integer row (a_1.., b)."""
    return _int_rows([tuple(_rational(x) for x in a) + (_rational(b),)])[1][0]


def _hom_point(p):
    """The homogeneous integer point of a rational point."""
    w, xs = _int_rows([tuple(_rational(x) for x in p)])
    return xs[0] + (w,)



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
        if len(_independent(distinct, range(len(distinct)), 2)[1]) < 2:
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


# ---------------------------------------------------------------------------
# The integer overlay (n <= 2) and the fan integrals that geonorm.plconvex
# replaced with one vertex enumeration per overlay and pulling
# triangulations in every dimension: cells clipped by the primitives
# above, split by the sign of q0 - q1 with ``clip_polygon`` or
# ``_clip_interval``, and summed over fan triangles.
# ---------------------------------------------------------------------------


def integrate_profile(prof: ConcaveProfile) -> Fraction:
    """Integral of the profile over its own (full-dimensional) domain.

    Computed on the profile's integers: with every point and plane over
    D, a cell's plane takes the value V / D^2 at a vertex P / D, so an
    interval [P0, P1] contributes (P1 - P0) (V0 + V1) / (2 D^3) and a fan
    triangle of doubled area A / D^2 contributes A (V0 + V1 + V2) / (6 D^4).
    """
    _require_plane(prof.n, "integrate_profile")
    if not prof._cells:
        raise PLError("profile has no full-dimensional cells to integrate")
    den = prof._den
    total = 0
    for poly, plane in zip(prof._cells, prof._planes):
        v = [sum(map(mul, plane, p)) + plane[-1] * den for p in poly]
        total += _fan_sum(poly, v, 1)
    return Fraction(total, 2 * den ** 3 if prof.n == 1 else 6 * den ** 4)


def _h(values, p: int) -> int:
    """The complete homogeneous symmetric polynomial h_p of integers."""
    if p == 1:
        return sum(values)
    return sum(map(prod, combinations_with_replacement(values, p)))


def _fan_sum(pts, v, p: int) -> int:
    """(P1 - P0) h_p(V0, V1) for an interval [P0, P1], and the sum of
    A h_p(V0, Vi, Vi+1) over the fan triangles of a polygon from its first
    vertex, A the doubled area: integer points with integer values v."""
    if len(pts[0]) == 1:
        return (pts[-1][0] - pts[0][0]) * _h(v, p)
    total = 0
    (x0, y0) = pts[0]
    for i in range(1, len(pts) - 1):
        (x1, y1), (x2, y2) = pts[i], pts[i + 1]
        area2 = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        total += area2 * _h((v[0], v[i], v[i + 1]), p)
    return total


class _Overlay:
    """The common refinement of the cells of two profiles q0 and q1.

    Held on integers over D, the lcm of the two profiles' denominators.
    ``cells`` are ``(poly, r0, r1)``: ``poly`` holds homogeneous integer
    points (an interval (lo, hi) of points (X, W) for n = 1, a
    counterclockwise polygon of points (X, Y, W) for n = 2), and r0, r1
    are the integer rows (W.., B) over D of the planes of q0 and q1 on it.
    ``verts`` maps each vertex P of a cell to (V0, V1), the values
    q_i(P) = V_i / (D W).  Two profiles whose domains share no
    full-dimensional region have no common cell.
    """

    __slots__ = ("n", "den", "cells", "verts")

    def __init__(self, n: int, den: int, cells):
        verts = {}
        for poly, r0, r1 in cells:
            for P in poly:
                if P not in verts:
                    verts[P] = (sum(map(mul, r0, P)), sum(map(mul, r1, P)))
        self.n, self.den, self.cells, self.verts = n, den, cells, verts


def _overlay(q0: ConcaveProfile, q1: ConcaveProfile) -> _Overlay:
    """The common refinement of two profiles' cells, for n <= 2.

    Intervals meet on their integer ends over D; each polygon of q0 is
    clipped by the edges of each polygon of q1 (``_clip_region``).
    """
    if q0.n != q1.n:
        raise PLError("profile dimension mismatch")
    n = q0.n
    _require_plane(n, "overlays")
    d0, d1 = q0._den, q1._den
    den = lcm(d0, d1)
    s0, s1 = den // d0, den // d1
    rows0 = [tuple(x * s0 for x in r) for r in q0._planes]
    rows1 = [tuple(x * s1 for x in r) for r in q1._planes]
    cells = []
    if n == 1:
        for poly0, r0 in zip(q0._cells, rows0):
            for poly1, r1 in zip(q1._cells, rows1):
                lo = max(poly0[0][0] * s0, poly1[0][0] * s1)
                hi = min(poly0[-1][0] * s0, poly1[-1][0] * s1)
                if lo < hi:
                    cells.append(((_canon((lo, den)), _canon((hi, den))),
                                  r0, r1))
        return _Overlay(1, den, cells)
    # the edges of q1's cells, as rows over its denominator
    cuts1 = [[(a0 * d1, a1 * d1, b) for (a0, a1), b in polygon_hrep(poly)]
             for poly in q1._cells]
    for poly, r0 in zip(q0._cells, rows0):
        poly = tuple(_canon(p + (d0,)) for p in poly)
        for cuts, r1 in zip(cuts1, rows1):
            region = _clip_region(poly, cuts)
            if region:
                cells.append((region, r0, r1))
    return _Overlay(2, den, cells)


def overlay_vertices(p0: ConcaveProfile, p1: ConcaveProfile):
    """Vertices of the common refinement of two cell subdivisions."""
    return tuple(sorted(tuple(Fraction(x, P[-1]) for x in P[:-1])
                        for P in _overlay(p0, p1).verts))


def integrate_abs_difference(p0, p1, p: int = 1) -> Fraction:
    """Exact integral of |q0 - q1|^p over the common domain, p an int >= 1.

    Computed on the integers of the two profiles' overlay
    (``_overlay_integral``).
    """
    if type(p) is not int or p < 1:
        raise PLError(f"the power p must be an integer >= 1, got {p!r}")
    return _overlay_integral(_overlay(p0, p1), p)


def _overlay_integral(ov: _Overlay, p: int) -> Fraction:
    """Integral of |q0 - q1|^p over the cells of an overlay, p >= 1.

    A cell where the difference row d = r0 - r1 changes sign is split into
    the two halves where it is >= 0 and <= 0 (``clip_polygon`` or
    ``_clip_interval`` on d and on -d), so that |q0 - q1| is affine on each
    piece.  The pieces are put over the lcm L of their points' W, where a
    vertex P / L takes |q0 - q1| = V / (D L) with V = |<d, (P, L)>|.  An
    affine function's p-th power integrates over a simplex of dimension e
    to its volume times h_p of its vertex values over C(p + e, e), so an
    interval [P0, P1] contributes (P1 - P0) h_p(V0, V1) / ((p + 1) L (D L)^p)
    and a fan triangle of doubled area A / L^2 contributes
    A h_p(V0, V1, V2) / (2 C(p + 2, 2) L^2 (D L)^p): one ``Fraction`` of
    the integer sum.
    """
    n = ov.n
    pieces = []
    for poly, r0, r1 in ov.cells:
        d = tuple(map(sub, r0, r1))
        signs = [sum(map(mul, d, P)) for P in poly]
        if not any(signs):
            continue
        if min(signs) < 0 < max(signs):
            # <d, (y, 1)> >= 0 where <-d_y, y> <= d_c, and <= 0 on the rest
            if n == 1:
                lo, hi = poly
                halves = (_clip_interval(lo, hi, -d[0], d[1]),
                          _clip_interval(lo, hi, d[0], -d[1]))
            else:
                halves = (clip_polygon(poly, (-d[0], -d[1]), d[2]),
                          clip_polygon(poly, (d[0], d[1]), -d[2]))
            pieces.extend((half, d) for half in halves if half)
        else:
            pieces.append((poly, d))
    if not pieces:
        return Fraction(0)
    L = lcm(*(P[-1] for poly, _ in pieces for P in poly))
    total = 0
    for poly, d in pieces:
        pts = [tuple(x * (L // P[-1]) for x in P[:-1]) for P in poly]
        total += _fan_sum(
            pts, [abs(sum(map(mul, d, X)) + d[-1] * L) for X in pts], p)
    scale = (p + 1) * L if n == 1 else 2 * comb(p + 2, 2) * L * L
    return Fraction(total, scale * (ov.den * L) ** p)


def marginal_min_fm(n, pieces, tau=0, keep=None):
    """inf over t in [0, 1] of F(t, v) - t tau, by Fourier-Motzkin on
    Fractions: the pieces of F are (g, c) with g = (g_t, g_v...) of length
    n + 1.  Returns the nonredundant pieces, sorted, over R^n, as ``keep``
    finds them (by default ``nonredundant_pieces``, for n <= 2)."""
    tau = Fraction(tau)
    rows = [(g[0] - tau,) + tuple(g[1:]) + (Fraction(-1), -c)
            for g, c in pieces]
    zero_v = tuple(Fraction(0) for _ in range(n))
    rows.append((Fraction(-1),) + zero_v + (Fraction(0), Fraction(0)))
    rows.append((Fraction(1),) + zero_v + (Fraction(0), Fraction(1)))
    projected = [r for r in rows if r[0] == 0]
    for rp in (r for r in rows if r[0] > 0):
        for rn in (r for r in rows if r[0] < 0):
            projected.append((Fraction(0),) + tuple(
                a / rp[0] + b / -rn[0] for a, b in zip(rp[1:], rn[1:])))
    best = {}
    for row in projected:
        a_v, a_z, rhs = row[1:-2], row[-2], row[-1]
        if a_z == 0:
            assert not any(a_v) and rhs >= 0
            continue
        g, c = tuple(x / -a_z for x in a_v), rhs / a_z
        if g not in best or c > best[g]:
            best[g] = c
    return tuple((keep or nonredundant_pieces)(sorted(best.items())))


def walk_fraction(f_pieces, g, planes, hrep):
    """First point where f > g, or None, given g's profile as Fraction
    ``planes`` on the polytope ``hrep`` (``(normal, rhs)`` halfplanes)."""
    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    for a, c in f_pieces:
        out = next(((nu, b) for nu, b in hrep if dot(nu, a) > b), None)
        if out is not None:
            nu, b = out
            top = g(tuple(Fraction(0) for _ in a))
            s = max(Fraction(1), (top - c) / (dot(nu, a) - b) + 1)
            return tuple(s * x for x in nu)
        qa = min(dot(w, a) + beta for w, beta in planes)
        if c > qa:
            w = next(w for w, beta in planes if dot(w, a) + beta == qa)
            return tuple(-x for x in w)
    return None


# ---------------------------------------------------------------------------
# The mix witness by Minkowski slopes (n <= 2): the route that
# geonorm.plconvex replaced with le_witness against the mix of the two
# functions' pruned pieces.
# ---------------------------------------------------------------------------


def mix_witness_minkowski(f, g0, g1, lam):
    """``le_witness(f, lam*g0 + (1-lam)*g1)``, 0 <= lam <= 1, n <= 2, with
    the mix's profile never built.

    The hypograph of q_h is lam*hyp(q0) + (1-lam)*hyp(q1), and each facet
    of a Minkowski sum has the slope of a facet of a summand or is spanned
    by an edge of each.  Every slope w gives a plane <w, y> + h(-w) >= q_h
    that touches it (Fenchel-Young), so q_h is the min of those planes on
    the sum of the two domains, whose rows are ``_hull_rows`` of the sums
    of domain points.
    """
    _require_plane(f.n, "mix_witness")
    lam = Fraction(lam)
    q0, q1 = conjugate(g0), conjugate(g1)
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
    hden, pts = _int_rows({
        tuple(lam * x + (1 - lam) * y for x, y in zip(p, r))
        for p in q0.domain_points() for r in q1.domain_points()})
    hrep = [(tuple(Fraction(x, hden ** e) for x in N),
             Fraction(R, hden ** (e + 1)))
            for N, R, e in _hull_rows(sorted(pts))]
    return walk_fraction(f.pieces, h, planes, hrep)


def _edge_directions(q):
    """Edge directions (dy, dz) of the hypograph of a profile on R^2, each
    scaled to a leading 1, so parallel edges appear once."""
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


# ---------------------------------------------------------------------------
# The two integer echelons that geonorm.linalg._extend_echelon replaced:
# geonorm.plconvex's, rows kept sorted by pivot and divided by their gcd
# once, and geonorm.norms', rows in insertion order and divided by their
# gcd after every step.
# ---------------------------------------------------------------------------


def independent_sorted_echelon(pts, idxs, rank):
    """The first ``rank + 1`` of ``idxs``, in order, whose points are
    affinely independent (fewer if they span less), and the pivot
    coordinates of the span of the points taken.

    A fraction-free echelon of the differences from the first point, its
    rows kept sorted by pivot.  The pivots are the leading columns of the
    span's reduced echelon form, so they do not depend on the order.
    """
    idxs = iter(idxs)
    first = next(idxs)
    p0, kept, rows = pts[first], [first], []
    for i in idxs:
        if len(rows) == rank:
            break
        v = list(map(sub, pts[i], p0))
        for k, r in rows:
            if v[k]:
                a, b = r[k], v[k]
                v = [x * a - y * b for x, y in zip(v, r)]
        for k, x in enumerate(v):
            if x:
                g = gcd(*v)
                rows.append((k, [x // g for x in v]))
                rows.sort()
                kept.append(i)
                break
    return kept, [k for k, _ in rows]


def extends_echelon_stepwise(echelon, row):
    """Whether an integer row is independent of the rows of ``echelon``, a
    list of ``(pivot, row)`` with each row zero at the pivots before it;
    if so its reduced form joins the echelon."""
    for p, e in echelon:
        a = row[p]
        if a:
            row = linalg._primitive([e[p] * x - a * y for x, y in zip(row, e)])
    p = next((j for j, x in enumerate(row) if x), None)
    if p is None:
        return False
    echelon.append((p, row))
    return True


# ---------------------------------------------------------------------------
# The psh check over every triple of samples: the route that
# geonorm.segments replaced with the consecutive triples alone.
# ---------------------------------------------------------------------------


def detect_non_psh_all_triples(ring, k, samples):
    """``segments.detect_non_psh`` as it mixed each of the C(s, 3) triples
    of the s samples, in lexicographic order, each chord end conjugated
    once."""
    metrics = [(t, fs_from_norm(ring, k, w)) for t, w in samples]
    metrics.sort(key=lambda tv: tv[0])
    for (t, _), (u, _) in zip(metrics, metrics[1:]):
        if t == u:
            raise ToricError(f"path samples repeat t = {t}")
    profile = functools.cache(lambda i: metrics[i][1].profile())
    for i0, i1, i2 in itertools.combinations(range(len(metrics)), 3):
        (t0, p0), (t1, p1), (t2, p2) = metrics[i0], metrics[i1], metrics[i2]
        lam = (t2 - t1) / (t2 - t0)
        point = _mix_witness(p1.potential, lam, profile(i0), profile(i2))
        if point is not None:
            rhs = lam * p0.potential(point) + (1 - lam) * p2.potential(point)
            return {
                "t0": str(t0), "t1": str(t1), "t2": str(t2),
                "point": [str(c) for c in point],
                "lhs": str(p1.potential(point)),
                "rhs": str(rhs),
            }
    return None


# ---------------------------------------------------------------------------
# The Legendre slice through the rooftop family: the route that
# geonorm.segments replaced with one prune of the interpolated overlay.
# ---------------------------------------------------------------------------


def rooftop_family(ov):
    """(tau, P(phi0, phi1 - tau).potential) per critical tau; free of t.

    Read off the overlay ov of the profiles q0, q1 of phi0, phi1.  The
    profile of phi1 - tau is q1 - tau, so that of the rooftop is
    min(q0, q1 - tau) on the common domain of q0 and q1 (which the moment
    simplex holds).  Its hypograph vertices come with their values from
    the overlay's vertices and the points of its edges where
    q1 - q0 = tau (``_shifted_min``), and pruning their pieces
    gives the canonical rows that ``toric._rooftop`` builds from an
    envelope.  The family is empty, and the sup over it undefined, when
    the two profiles share no full-dimensional cell: then no tau is
    critical.
    """
    taus = _overlay_taus(ov)
    if not taus:
        raise ToricError(
            "no critical shift tau: the gradient hulls of the two metrics "
            "do not overlap in a full-dimensional region")
    return tuple((tau, prune(_shifted_min(ov, tau))) for tau in taus)


def _shifted_min(ov: _Overlay, tau) -> MaxAffine:
    """The max-affine function whose profile is min(q0, q1 - tau) on the
    overlay's domain, unpruned.

    That min is concave and affine on each half of a cell where
    q1 - tau - q0 keeps its sign, so its hypograph vertices are overlay
    vertices or points strictly inside an edge where q1 - q0 = tau
    (``_crossings``).  Each such point y with its value z gives the piece
    <y, v> + z, whose max is the conjugate of the min.  For tau = S / T the
    values at a vertex P are over D T W: q0 is A = T V0 and
    q1 - tau - q0 is F = T (V1 - V0) - S D W.
    """
    S, T = tau.numerator, tau.denominator
    dt = ov.den * T
    vals = {P: (v0 * T, (v1 - v0) * T - S * ov.den * P[-1])
            for P, (v0, v1) in ov.verts.items()}
    pts = [P + (a + min(f, 0),) for P, (a, f) in vals.items()]
    pts += _crossings(overlay_edges(ov), vals)
    L = lcm(*(P[-2] for P in pts))
    return MaxAffine._from_ints(ov.n, dt * L, [
        tuple(x * (L // P[-2]) * dt for x in P[:-2]) + (P[-1] * (L // P[-2]),)
        for P in pts])


def overlay_edges(ov):
    """The edges of the cells of an overlay of ``plconvex._overlay``, each
    once: two vertices of a cell span an edge when no third one is tight
    at every row tight at both (an interval's two ends always do)."""
    edges = {}
    for pts, masks, _, _ in ov.cells:
        idx = range(len(pts))
        for a, c in combinations(idx, 2):
            common = masks[a] & masks[c]
            if not any(masks[i] & common == common for i in idx
                       if i != a and i != c):
                edges[(pts[a], pts[c])] = None
    return tuple(edges)


def _crossings(edges, vals):
    """The points strictly inside ``edges`` where q1 - tau - q0 changes
    sign, as rows (X.., W, A) with W > 0 and A = q0 there over D T W.

    ``vals`` maps each vertex to its (A, F) of ``_shifted_min``.  Both are
    linear in the homogeneous point along an edge, so the crossing of the
    edge PQ is F_P Q - F_Q P, and A follows the same combination.
    """
    out = []
    for P, Q in edges:
        (ap, fp), (aq, fq) = vals[P], vals[Q]
        if (fp < 0 < fq) or (fq < 0 < fp):
            row = [fp * u - fq * v for u, v in zip(Q + (aq,), P + (ap,))]
            g = gcd(*row) if row[-2] > 0 else -gcd(*row)
            out.append(tuple(x // g for x in row))
    return out


def legendre_via_rooftops(phi0, phi1, t):
    """``(phi_t, q)``: the Legendre slice at t as the sup over the rooftop
    family of its members shifted by t tau, and its profile."""
    family = rooftop_family(
        _overlay_integer(phi0.profile(), phi1.profile()))
    return _legendre_recover(phi0.n, phi0.m, family, t)


def profile_key(q):
    """A profile's data with no order: n, the denominator, the sorted
    vertex rows and the sorted (sorted cell vertices, plane) pairs.

    Two routes to one P^2 or P^3 profile may list its cells, and the
    vertices of a cell, in other orders.  ``ConcaveProfile.__eq__`` reads
    no order either, from sorted planes and cells kept apart, where this
    key pairs each cell with its plane.
    """
    return (q.n, q._den, tuple(sorted(q._verts)),
            tuple(sorted((tuple(sorted(cell)), plane)
                         for cell, plane in zip(q._cells, q._planes))))


# ---------------------------------------------------------------------------
# The rooftop pruned by a second conjugate: the route that geonorm.toric
# replaced with the cells of the envelope's vertex enumeration.
# ---------------------------------------------------------------------------


def rooftop_by_prune(n, m, q0, q1):
    """``(P, q, I)``: the rooftop potential of two metrics on O(m) over
    P^n with profiles q0 and q1, pruned by conjugating the envelope's
    pieces, the profile q of that conjugate, and the integral I of q over
    its domain, which d1's envelope route reads as vol(m Delta) E(P) (0 on
    a domain of lower dimension, a point of the line)."""
    pot, q = _pruned(_envelope([q0, q1], moment_simplex(n, m))[0])
    return pot, q, plconvex.integrate_profile(q) if q.cells else 0
