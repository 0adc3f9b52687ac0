"""Seeded verification suites behind the ``suite`` command.

Each suite is a list of named checks over randomly generated instances.
Checks are deterministic for a fixed seed: every check derives its own
``random.Random`` stream from (seed, check name), so reordering or
skipping checks never shifts another check's instances.

Suite names group the checks by subject:

* ``norms``     - norm spaces and geodesics between them
* ``graded``    - graded norms, quantization operators, convergence
* ``kiselman``  - the minimum principle and Legendre duality
* ``theoremB``  - maximal segments, their extremal properties, and the
                  planted negative controls
* ``all``       - everything above, in that order

A check returns a row ``{"suite", "check", "status", "exact", "detail"}``
with ``status`` one of ``"pass"`` / ``"fail"``.  ``exact`` is True when
the check asserts exact rational identities and False for the two
convergence-rate checks, which compare exact rationals against a
percentage threshold.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from .field import INF, TADIC, TRIVIAL, RatFunc
from . import linalg
from .norms import (
    DiagNorm,
    det_norm,
    distance,
    join,
    spectrum,
    sym_power_norm,
    volume,
)
from .geodesics import geodesic
from .graded import (
    GradedNorm,
    SectionRing,
    check_submultiplicative,
    generate_degree_one,
    graded_geodesic,
    lattice_points,
    serialize_counterexample,
)
from .plconvex import MaxAffine
from .toric import (
    ToricMetric,
    compare_metrics,
    d1_metric,
    energy,
    energy_limit,
    fs_from_norm,
    reference,
    section_ring,
    supnorm,
)
from .segments import (
    detect_non_psh,
    diagnostics,
    duality_tau_set,
    fs_segment,
    kiselman_dual,
    legendre_segment,
    maximal_segment,
    planted_non_psh_path,
    quantized_segment,
    segment_from_dual,
)

SUITE_NAMES = ("norms", "graded", "kiselman", "theoremB")

T_SET = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1),
)


# ---------------------------------------------------------------------------
# random instance generators


def _rng_for(seed, check):
    return random.Random(f"{seed}:{check}")


def _random_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3, 4)))


def _random_invertible(rng, field, dim, tadic_powers=False):
    """Random invertible matrix with small entries, as a tuple of rows."""
    while True:
        rows = []
        for _ in range(dim):
            row = []
            for _ in range(dim):
                c = field.of(Fraction(rng.randint(-3, 3)))
                if tadic_powers and rng.random() < 0.25:
                    c = c * RatFunc.t_power(rng.randint(0, 2))
                row.append(c)
            rows.append(tuple(row))
        try:
            linalg.invert(field, tuple(rows))
        except linalg.SingularMatrixError:
            continue
        return tuple(rows)


def _random_norm(rng, field, dim, standard=False, integer_weights=False):
    if integer_weights:
        weights = tuple(Fraction(rng.randint(-6, 6)) for _ in range(dim))
    else:
        weights = tuple(_random_fraction(rng) for _ in range(dim))
    if standard:
        return DiagNorm.standard(field, weights)
    basis = _random_invertible(rng, field, dim, tadic_powers=field is TADIC)
    return DiagNorm(field, basis, weights)


def _random_vector(rng, field, dim):
    while True:
        vec = tuple(field.of(Fraction(rng.randint(-4, 4))) for _ in range(dim))
        if any(not field.is_zero(c) for c in vec):
            return vec


# ---------------------------------------------------------------------------
# norm suite: spectra, distances, volumes


def _filtration_spectrum_oracle(n0, n1):
    """Relative spectrum of two trivially valued norms, without a common basis.

    Works from dimension counts alone: over the trivially valued field the
    unit-ball filtration of each norm is a flag of subspaces, and the
    number of common-basis vectors with weight pair (>= a, >= b) equals
    dim(F0_a cap F1_b) where F_c is the span of the defining basis vectors
    of weight >= c.  Inclusion-exclusion over the finite weight grid then
    recovers the pair multiset, hence the spectrum, with no reference to
    any codiagonalization.
    """
    lev0 = sorted(set(n0.weights), reverse=True)
    lev1 = sorted(set(n1.weights), reverse=True)

    def dim_meet(i, j):
        # dim(F0_{lev0[i]} cap F1_{lev1[j]}) = |s0| + |s1| - rank(s0 + s1),
        # since each cut is a subset of a basis; out-of-range index means
        # the cut is above every weight, so the flag piece is zero
        if i < 0 or j < 0:
            return 0
        s0 = tuple(v for v, w in zip(n0.basis, n0.weights) if w >= lev0[i])
        s1 = tuple(v for v, w in zip(n1.basis, n1.weights) if w >= lev1[j])
        return len(s0) + len(s1) - len(linalg.rref(s0 + s1)[0])

    diffs = []
    for i, a in enumerate(lev0):
        for j, b in enumerate(lev1):
            count = (dim_meet(i, j) - dim_meet(i - 1, j)
                     - dim_meet(i, j - 1) + dim_meet(i - 1, j - 1))
            diffs.extend([a - b] * count)
    return tuple(sorted(diffs))


def _transport(norm, matrix):
    """The image norm under the invertible map sending x to matrix*x."""
    new_basis = tuple(linalg.mat_vec(matrix, vec) for vec in norm.basis)
    return DiagNorm(norm.field, new_basis, norm.weights)


def _check_spectrum_basis_independence(seed):
    rng = _rng_for(seed, "spectrum-basis-independence")
    failures = []
    for trial in range(200):
        tadic = trial % 5 == 4
        field = TADIC if tadic else TRIVIAL
        dim = rng.randint(2, 4)
        n0 = _random_norm(rng, field, dim, integer_weights=tadic)
        n1 = _random_norm(rng, field, dim, integer_weights=tadic)
        spec = spectrum(n0, n1)
        t = _random_invertible(rng, field, dim, tadic_powers=tadic)
        if spectrum(_transport(n0, t), _transport(n1, t)) != spec:
            failures.append(("transport", trial))
            continue
        if not tadic and _filtration_spectrum_oracle(n0, n1) != spec:
            failures.append(("oracle", trial))
    detail = "200 pairs, dim <= 4, transport invariance + filtration-count oracle"
    return _row("norms", "spectrum-basis-independence", not failures, True, detail, failures)


def _check_d1_triangle(seed):
    rng = _rng_for(seed, "d1-triangle")
    failures = []
    for trial in range(200):
        tadic = trial % 5 == 4
        field = TADIC if tadic else TRIVIAL
        dim = rng.randint(2, 4)
        norms = [_random_norm(rng, field, dim, integer_weights=tadic) for _ in range(3)]
        d01 = distance(norms[0], norms[1], 1)
        d12 = distance(norms[1], norms[2], 1)
        d02 = distance(norms[0], norms[2], 1)
        if d02 > d01 + d12:
            failures.append(trial)
    return _row("norms", "d1-triangle", not failures, True, "200 triples", failures)


def _check_d1_join(seed):
    rng = _rng_for(seed, "d1-join-identity")
    failures = []
    for trial in range(100):
        field = TRIVIAL
        dim = rng.randint(2, 4)
        n0 = _random_norm(rng, field, dim)
        n1 = _random_norm(rng, field, dim)
        j = join(n0, n1)
        lhs = dim * distance(n0, n1, 1)
        rhs = volume(n0, j) + volume(n1, j)
        if lhs != rhs:
            failures.append(trial)
    return _row("norms", "d1-join-identity", not failures, True,
                "d * d1(n0,n1) = vol(n0,join) + vol(n1,join), 100 pairs", failures)


def _check_volume_cocycle(seed):
    rng = _rng_for(seed, "volume-cocycle")
    failures = []
    for trial in range(100):
        tadic = trial % 5 == 4
        field = TADIC if tadic else TRIVIAL
        dim = rng.randint(2, 4)
        n0, n1, n2 = (
            _random_norm(rng, field, dim, integer_weights=tadic) for _ in range(3)
        )
        if volume(n0, n1) + volume(n1, n0) != 0:
            failures.append(("antisym", trial))
        if volume(n0, n1) + volume(n1, n2) + volume(n2, n0) != 0:
            failures.append(("cocycle", trial))
    return _row("norms", "volume-cocycle", not failures, True,
                "antisymmetry + cocycle, 100 triples", failures)


# ---------------------------------------------------------------------------
# geodesic suite


def _geodesic_pair(rng, allow_tadic=True):
    tadic = allow_tadic and rng.random() < 0.2
    field = TADIC if tadic else TRIVIAL
    dim = rng.randint(2, 4)
    n0 = _random_norm(rng, field, dim, integer_weights=tadic)
    n1 = _random_norm(rng, field, dim, integer_weights=tadic)
    return geodesic(n0, n1), n0, n1


def _is_concave_on_triples(values_by_t):
    """Exact concavity of t -> value over every triple of sample points."""
    items = sorted(values_by_t.items())
    for (t0, v0), (t1, v1), (t2, v2) in itertools.combinations(items, 3):
        # t1 = lam*t0 + (1-lam)*t2 with lam = (t2-t1)/(t2-t0)
        lam = (t2 - t1) / (t2 - t0)
        if v1 < lam * v0 + (1 - lam) * v2:
            return False
    return True


def _check_geodesic_log_convexity(seed):
    rng = _rng_for(seed, "geodesic-log-convexity")
    failures = []
    for trial in range(100):
        geo, n0, n1 = _geodesic_pair(rng)
        vec = _random_vector(rng, n0.field, n0.dim)
        vals = {t: geo.at(t).evaluate(vec) for t in T_SET}
        if any(v is INF for v in vals.values()):
            continue
        # -log of the norm is concave in t, i.e. the norm is log-convex
        if not _is_concave_on_triples(vals):
            failures.append(trial)
    return _row("norms", "geodesic-log-convexity", not failures, True,
                "100 instances, all t-triples from the 7-point grid", failures)


def _check_geodesic_endpoint_monotonicity(seed):
    rng = _rng_for(seed, "geodesic-endpoint-monotonicity")
    failures = []
    for trial in range(100):
        tadic = trial % 5 == 4
        field = TADIC if tadic else TRIVIAL
        dim = rng.randint(2, 4)
        n0 = _random_norm(rng, field, dim, integer_weights=tadic)
        bump = tuple(Fraction(rng.randint(0, 4)) for _ in range(dim))
        n1 = DiagNorm(field, n0.basis, tuple(w + b for w, b in zip(n0.weights, bump)))
        geo = geodesic(n0, n1)
        ts = sorted(T_SET)
        for ta, tb in zip(ts, ts[1:]):
            wa = geo.at(ta).weights
            wb = geo.at(tb).weights
            if not all(x <= y for x, y in zip(wa, wb)):
                failures.append(trial)
                break
    return _row("norms", "geodesic-endpoint-monotonicity", not failures, True,
                "comparable endpoints stay ordered along t, 100 instances", failures)


def _check_geodesic_determinant(seed):
    rng = _rng_for(seed, "geodesic-determinant")
    failures = []
    for trial in range(100):
        geo, n0, n1 = _geodesic_pair(rng)
        det_geo = geodesic(det_norm(n0), det_norm(n1))
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            if det_norm(geo.at(t)) != det_geo.at(t):
                failures.append((trial, str(t)))
                break
    return _row("norms", "geodesic-determinant", not failures, True,
                "det of the geodesic equals the geodesic of the dets, 100 instances",
                failures)


def _check_geodesic_affine_volume(seed):
    rng = _rng_for(seed, "geodesic-affine-volume")
    failures = []
    for trial in range(100):
        geo, n0, n1 = _geodesic_pair(rng)
        # geo.start is n0 rewritten in the common basis, so the distance
        # computations below stay on the shared-basis fast path
        total = volume(geo.start, geo.end)
        vols = {}
        trivial = n0.field is TRIVIAL
        third = _random_norm(rng, n0.field, n0.dim) if trivial else None
        for t in T_SET:
            nt = geo.at(t)
            if volume(geo.start, nt) != t * total:
                failures.append((trial, "endpoint", str(t)))
                break
            if trivial:
                vols[t] = volume(third, nt)
        else:
            if trivial:
                base = vols[Fraction(0)]
                slope = vols[Fraction(1)] - base
                if any(vols[t] != base + t * slope for t in T_SET):
                    failures.append((trial, "third-norm"))
    return _row("norms", "geodesic-affine-volume", not failures, True,
                "vol(n0, n_t) = t vol(n0, n1) and vol(m, n_t) affine, 100 instances",
                failures)


def _check_geodesic_distance_convexity(seed, p, name):
    rng = _rng_for(seed, name)
    failures = []
    for trial in range(100):
        geo, n0, n1 = _geodesic_pair(rng, allow_tadic=False)
        third = _random_norm(rng, n0.field, n0.dim)
        vals = {}
        for t in T_SET:
            d = distance(third, geo.at(t), p)
            if p not in (1, math.inf):
                d = Fraction(d)
            vals[t] = d
        # convexity = concavity of the negative
        if not _is_concave_on_triples({t: -v for t, v in vals.items()}):
            failures.append(trial)
    label = "d_inf" if p == math.inf else f"d_{p}"
    return _row("norms", name, not failures, True,
                f"t -> {label}(m, n_t) convex on all t-triples, 100 instances",
                failures)


def _check_geodesic_sym_power(seed):
    rng = _rng_for(seed, "geodesic-sym-power")
    failures = []
    for trial in range(100):
        tadic = trial % 5 == 4
        field = TADIC if tadic else TRIVIAL
        dim = rng.randint(2, 3)
        n0 = _random_norm(rng, field, dim, integer_weights=tadic)
        n1 = _random_norm(rng, field, dim, integer_weights=tadic)
        geo = geodesic(n0, n1)
        sym_geo = geodesic(sym_power_norm(geo.start, 2), sym_power_norm(geo.end, 2))
        for t in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
            if sym_power_norm(geo.at(t), 2) != sym_geo.at(t):
                failures.append((trial, str(t)))
                break
    return _row("norms", "geodesic-sym-power", not failures, True,
                "Sym^2 of the geodesic equals the geodesic of the Sym^2, 100 instances",
                failures)


# ---------------------------------------------------------------------------
# graded suite


def _random_degree_one_graded(rng, n, m, kmax):
    ring = SectionRing(n, m)
    table = {
        a: _random_fraction(rng, span=4) for a in lattice_points(n, m)
    }
    return generate_degree_one(ring, table, kmax)


def _check_graded_geodesic_submult(seed, n, m_list, kmax, pairs, check):
    rng = _rng_for(seed, check)
    failures = []
    for trial in range(pairs):
        m = m_list[trial % len(m_list)]
        gn0 = _random_degree_one_graded(rng, n, m, kmax)
        gn1 = _random_degree_one_graded(rng, n, m, kmax)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            violation = check_submultiplicative(graded_geodesic(gn0, gn1, t))
            if violation is not None:
                failures.append((trial, str(t), serialize_counterexample(violation)))
                break
    detail = f"P^{n}, m in {m_list}, K = {kmax}, {pairs} pairs, t in {{1/4, 1/2, 3/4}}"
    return _row("graded", check, not failures, True, detail, failures)


def _check_graded_dp_linearity(seed):
    rng = _rng_for(seed, "graded-dp-linearity")
    failures = []
    for trial in range(10):
        n, m, kmax = ((1, 2, 6) if trial % 2 == 0 else (2, 1, 4))
        gn0 = _random_degree_one_graded(rng, n, m, kmax)
        gn1 = _random_degree_one_graded(rng, n, m, kmax)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            gt = graded_geodesic(gn0, gn1, t)
            for k in range(1, kmax + 1):
                a = gn0.norm_at(k)
                b = gn1.norm_at(k)
                c = gt.norm_at(k)
                for p in (1, 2, math.inf):
                    full = distance(a, b, p)
                    left = distance(a, c, p)
                    right = distance(c, b, p)
                    scale_l = t if p == math.inf else t**p
                    scale_r = (1 - t) if p == math.inf else (1 - t) ** p
                    if left != scale_l * full or right != scale_r * full:
                        failures.append((trial, k, str(t), str(p)))
    return _row("graded", "graded-dp-linearity", not failures, True,
                "per-degree d_p along the geodesic scales exactly like |t - s|^p",
                failures)


def _lattice_concavity_oracle(n, m, k, weights):
    """Brute-force test that lattice weights equal their concave closure.

    Checks every rational convex combination of pairs (and triples when
    n = 2) of lattice points landing on a lattice point.  The search grid of
    ``_combination_hits`` is exhaustive only up to lattice width 4.
    """
    if k * m > 4:
        raise ValueError(
            f"lattice concavity oracle needs lattice width k*m <= 4, got {k * m}")
    pts = lattice_points(n, k * m)
    pts_set = set(pts)
    vals = dict(zip(pts, weights))
    for combo_size in (2, 3) if n == 2 else (2,):
        for combo in itertools.combinations(pts, combo_size):
            for a, coeffs in _combination_hits(combo, pts_set):
                bound = sum(c * vals[b] for c, b in zip(coeffs, combo))
                if vals[a] < bound:
                    return False
    return True


def _combination_hits(combo, pts_set):
    """Lattice points that are rational convex combinations of ``combo``.

    Returns pairs (point, barycentric coefficients), enumerated over a
    denominator-12 coefficient grid.  For lattice points in a dilated
    simplex of lattice width <= 4 every barycentric denominator divides
    the 2x2 minors of the point differences, all of size <= 4, so the
    grid is exhaustive.
    """
    hits = []
    den = 12
    if len(combo) == 2:
        b, c = combo
        for i in range(den + 1):
            lam = Fraction(i, den)
            pt = tuple(lam * x + (1 - lam) * y for x, y in zip(b, c))
            if all(q.denominator == 1 for q in pt):
                key = tuple(int(q) for q in pt)
                if key in pts_set:
                    hits.append((key, (lam, 1 - lam)))
    else:
        b, c, d = combo
        for i in range(den + 1):
            for j in range(den + 1 - i):
                lam, mu = Fraction(i, den), Fraction(j, den)
                nu = 1 - lam - mu
                pt = tuple(
                    lam * x + mu * y + nu * z for x, y, z in zip(b, c, d)
                )
                if all(q.denominator == 1 for q in pt):
                    key = tuple(int(q) for q in pt)
                    if key in pts_set:
                        hits.append((key, (lam, mu, nu)))
    return hits


def _random_fs_instance(rng, arena=None):
    if arena is None:
        arena = rng.choice(((1, 1), (1, 2), (2, 1)))
    n, m = arena
    k = rng.choice((1, 2)) if n == 1 else 1
    pts = lattice_points(n, k * m)
    weights = {a: _random_fraction(rng, span=4) for a in pts}
    ring = section_ring(n, m)
    return ring, k, weights, fs_from_norm(ring, k, weights)


def _check_fs_supnorm_roundtrip(seed):
    rng = _rng_for(seed, "fs-supnorm-roundtrip")
    failures = []
    closed_seen = unclosed_seen = 0
    for trial in range(100):
        ring, k, weights, phi = _random_fs_instance(rng)
        closed_weights = supnorm(k, phi)
        back = fs_from_norm(ring, k, closed_weights)
        rel = compare_metrics(back, phi).relation
        if rel not in ("eq", "le"):
            failures.append((trial, "order", rel))
            continue
        pts = lattice_points(ring.n, k * ring.m)
        raw = tuple(weights[a] for a in pts)
        equal = raw == closed_weights.weights
        oracle = _lattice_concavity_oracle(ring.n, ring.m, k, raw)
        if equal != oracle:
            failures.append((trial, "equality-criterion", equal, oracle))
        if oracle:
            closed_seen += 1
        else:
            unclosed_seen += 1
    ok = not failures and closed_seen > 0 and unclosed_seen > 0
    detail = (
        "fs(sup(phi)) <= phi with weight equality iff concave-closed; "
        f"100 instances ({closed_seen} closed, {unclosed_seen} not)"
    )
    return _row("graded", "fs-supnorm-roundtrip", ok, True, detail, failures)


def _check_supnorm_idempotence(seed):
    rng = _rng_for(seed, "supnorm-idempotence")
    failures = []
    for trial in range(100):
        ring, k, _, phi = _random_fs_instance(rng)
        once = supnorm(k, phi)
        twice = supnorm(k, fs_from_norm(ring, k, once))
        if once != twice:
            failures.append(trial)
    return _row("graded", "supnorm-idempotence", not failures, True,
                "supnorm . fs . supnorm = supnorm, 100 instances", failures)


# frozen convergence instances: boundary-defect-free pairs, so the per-k
# gap decays quadratically and the late/early gap ratio is tiny.
# 1-dim pair: q0 through (0,1),(1/3,6),(1/2,25/4),(1,1); q1 = 12*min(y,1-y)
_CONV_P1 = {
    "pot0": ((  (Fraction(0),), Fraction(1)),
             ((Fraction(1, 3),), Fraction(6)),
             ((Fraction(1, 2),), Fraction(25, 4)),
             ((Fraction(1),), Fraction(1))),
    "pot1": (((Fraction(0),), Fraction(0)),
             ((Fraction(1, 2),), Fraction(6)),
             ((Fraction(1),), Fraction(0))),
    "limit": Fraction(1),
    "gap2": Fraction(1, 4),
    "gap40": Fraction(3, 3280),
}

# 2-dim pair: profiles are functions of u = y1 + y2 with breakpoints
# (0, 1/3, 1/2, 1); q1 = 4*min(u, 1-u), q0 = q1 + delta with delta values
# (1/4, 1/2, 1/4, 1/6) chosen so the boundary defect vanishes.
_CONV_P2_Q0 = (Fraction(1, 4), Fraction(11, 6), Fraction(9, 4), Fraction(1, 6))
_CONV_P2_Q1 = (Fraction(0), Fraction(4, 3), Fraction(2), Fraction(0))
_CONV_P2 = {
    "limit": Fraction(1, 4),
    "gap2": Fraction(1, 24),
    "gap12": Fraction(1, 1638),
}


def _conv_metric_p1(pieces):
    return ToricMetric(1, 1, MaxAffine(1, pieces))


def _conv_metric_p2(values):
    breakpoints = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    pieces = []
    for b, v in zip(breakpoints, values):
        if b == 0:
            pieces.append(((Fraction(0), Fraction(0)), v))
        else:
            pieces.append(((b, Fraction(0)), v))
            pieces.append(((Fraction(0), b), v))
    return ToricMetric(2, 1, MaxAffine(2, pieces))


def convergence_pair_p1():
    """The frozen 1-dim convergence instance (boundary-defect-free)."""
    return _conv_metric_p1(_CONV_P1["pot0"]), _conv_metric_p1(_CONV_P1["pot1"])


def convergence_pair_p2():
    """The frozen 2-dim convergence instance (boundary-defect-free)."""
    return _conv_metric_p2(_CONV_P2_Q0), _conv_metric_p2(_CONV_P2_Q1)


def _check_convergence(seed, arena):
    if arena == 1:
        phi0, phi1 = convergence_pair_p1()
        kmax, frozen = 40, _CONV_P1
        gap_key, k_late = "gap40", 40
        check = "energy-d1-convergence-P1"
    else:
        phi0, phi1 = convergence_pair_p2()
        kmax, frozen = 12, _CONV_P2
        gap_key, k_late = "gap12", 12
        check = "energy-d1-convergence-P2"
    failures = []
    e = energy(phi0, phi1, kmax=kmax)
    d = d1_metric(phi0, phi1, kmax=kmax)
    for label, res in (("E", e), ("d1", d)):
        if res.limit != frozen["limit"]:
            failures.append((label, "limit", str(res.limit)))
        g_early, g_late = res.gap(2), res.gap(k_late)
        if g_early != frozen["gap2"] or g_late != frozen[gap_key]:
            failures.append((label, "frozen-gaps", str(g_early), str(g_late)))
        if not (g_early > 0 and g_late * 20 <= g_early):
            failures.append((label, "rate", str(g_late / g_early)))
    if arena == 1 and e.gap(40) * 10 > e.gap(4):
        failures.append(("E", "k40-vs-k4"))
    ratio = (frozen[gap_key] / frozen["gap2"]) * 100
    detail = (
        f"gap at k = {k_late} is {float(ratio):.2f}% of the k = 2 gap "
        f"(threshold 5%), limits and gaps pinned exactly"
    )
    return _row("graded", check, not failures, False, detail, failures)


def _check_d1_two_routes(seed):
    rng = _rng_for(seed, "d1-two-routes")
    failures = []
    for trial in range(50):
        arena = (2, 1) if trial % 5 == 4 else (1, rng.choice((1, 2)))
        ring, k, _, phi0 = _random_fs_instance(rng, arena)
        _, _, _, phi1 = _random_fs_instance(rng, arena)
        try:
            res = d1_metric(phi0, phi1, kmax=2)
        except Exception as exc:  # noqa: BLE001 - report, never crash the suite
            failures.append((trial, repr(exc)))
            continue
        if res.limit < 0:
            failures.append((trial, "negative"))
        equal = compare_metrics(phi0, phi1).relation == "eq"
        if (res.limit == 0) != equal:
            failures.append((trial, "separation"))
    return _row("graded", "d1-two-routes", not failures, True,
                "supnorm route and envelope route agree; d1 separates points; 50 pairs",
                failures)


# ---------------------------------------------------------------------------
# kiselman suite


def _random_segment(rng, arena=None):
    if arena is None:
        arena = rng.choice(((1, 1), (1, 2), (2, 1)))
    n, m = arena
    ring = section_ring(n, m)
    k = rng.choice((1, 2)) if n == 1 else 1
    pts = lattice_points(n, k * m)
    w0 = {a: _random_fraction(rng, span=4) for a in pts}
    w1 = {a: _random_fraction(rng, span=4) for a in pts}
    return fs_segment(ring, k, w0, w1)


def _check_marginal_gradient_constraint(seed):
    rng = _rng_for(seed, "marginal-gradient-constraint")
    failures = []
    for trial in range(50):
        seg = _random_segment(rng)
        taus = duality_tau_set(seg)
        extra = (min(taus) - 1, max(taus) + 1) if taus else (Fraction(0),)
        m = seg.ring.m
        for tau in tuple(taus) + tuple(extra):
            try:
                dual = kiselman_dual(seg, tau)
            except Exception as exc:  # noqa: BLE001 - constraint failure shows here
                failures.append((trial, str(tau), repr(exc)))
                continue
            for g in dual.potential.gradients():
                if any(c < 0 for c in g) or sum(g) > m:
                    failures.append((trial, str(tau), "gradient", [str(c) for c in g]))
    return _row("kiselman", "marginal-gradient-constraint", not failures, True,
                "inf_t (phi_t - t tau) keeps gradients in m*Delta, 50 segments",
                failures)


def _check_duality_roundtrip(seed):
    rng = _rng_for(seed, "legendre-duality-roundtrip")
    failures = []
    for trial in range(20):
        seg = _random_segment(rng)
        for t in T_SET:
            recovered = segment_from_dual(seg, t)
            if compare_metrics(recovered, seg.eval(t)).relation != "eq":
                failures.append((trial, str(t)))
                break
    return _row("kiselman", "legendre-duality-roundtrip", not failures, True,
                "sup_tau (dual_tau + t tau) recovers the segment at all 7 t, 20 segments",
                failures)


def _check_kiselman_worked_case(seed):
    ring = section_ring(1, 1)
    seg = fs_segment(ring, 1, {(0,): 0, (1,): 0}, {(0,): 1, (1,): 0})
    # potential along the segment is max(t, v)
    dual = kiselman_dual(seg, Fraction(1))
    expected = ToricMetric(1, 1, MaxAffine(1, (((Fraction(0),), Fraction(0)),
                                               ((Fraction(1),), Fraction(-1)))))
    ok = compare_metrics(dual, expected).relation == "eq"
    return _row("kiselman", "kiselman-worked-case", ok, True,
                "inf_t max(t, v) - t at tau = 1 equals max(0, v - 1)", [])


# ---------------------------------------------------------------------------
# theorem B suite


def _random_metric_pair_p1(rng, level=2, m=1):
    ring = section_ring(1, m)
    pts = lattice_points(1, level * m)
    w0 = {a: _random_fraction(rng, span=4) for a in pts}
    w1 = {a: _random_fraction(rng, span=4) for a in pts}
    return fs_from_norm(ring, level, w0), fs_from_norm(ring, level, w1)


def _check_maximum_principle(seed):
    rng = _rng_for(seed, "maximum-principle")
    failures = []
    for trial in range(30):
        m = rng.choice((1, 2))
        phi0, phi1 = _random_metric_pair_p1(rng, level=2, m=m)
        k = rng.choice((1, 2, 4))
        ring = section_ring(1, m)
        pts = lattice_points(1, k * m)
        top0 = supnorm(k, phi0)
        top1 = supnorm(k, phi1)
        # competitor endpoints dominated by the endpoints of the segment
        drop = lambda: Fraction(rng.randint(0, 3))  # noqa: E731
        w0 = {a: top0.weights[i] - drop() for i, a in enumerate(pts)}
        w1 = {a: top1.weights[i] - drop() for i, a in enumerate(pts)}
        competitor = fs_segment(ring, k, w0, w1)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            rel = compare_metrics(
                competitor.eval(t), maximal_segment(phi0, phi1, t, kmax=4)
            ).relation
            if rel not in ("le", "eq"):
                failures.append((trial, str(t), rel))
                break
    return _row("theoremB", "maximum-principle", not failures, True,
                "30 dominated competitor segments stay below the maximal segment",
                failures)


def _check_legendre_equals_quantized(seed):
    rng = _rng_for(seed, "legendre-equals-quantized")
    failures = []
    for trial in range(20):
        m = rng.choice((1, 2))
        phi0, phi1 = _random_metric_pair_p1(rng, level=2, m=m)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
            lhs = legendre_segment(phi0, phi1, t)
            rhs = maximal_segment(phi0, phi1, t, kmax=8)
            if compare_metrics(lhs, rhs).relation != "eq":
                failures.append((trial, str(t)))
                break
    return _row("theoremB", "legendre-equals-quantized", not failures, True,
                "Legendre construction matches the stabilized quantized segment, "
                "20 level-2 pairs", failures)


def _check_energy_affine(seed):
    rng = _rng_for(seed, "energy-affine")
    failures = []
    sample = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for trial in range(5):
        m = rng.choice((1, 2))
        phi0, phi1 = _random_metric_pair_p1(rng, level=2, m=m)
        ref = reference(1, m)
        vals = {
            t: energy_limit(maximal_segment(phi0, phi1, t, kmax=4), ref)
            for t in sample
        }
        base = vals[Fraction(0)]
        slope = vals[Fraction(1)] - base
        if any(vals[t] != base + t * slope for t in sample):
            failures.append((trial, {str(t): str(v) for t, v in vals.items()}))
    return _row("theoremB", "energy-affine", not failures, True,
                "E(maximal(t), ref) exactly collinear at 5 sample points, 5 pairs",
                failures)


def _check_d1_geodesicity(seed):
    rng = _rng_for(seed, "d1-geodesicity-per-level")
    failures = []
    for trial in range(5):
        m = rng.choice((1, 2))
        phi0, phi1 = _random_metric_pair_p1(rng, level=2, m=m)
        report = diagnostics(phi0, phi1, kmax=4)
        for level in report["d1_geodesic_per_level"]:
            if not level["geodesic_exact"]:
                failures.append((trial, level["k"]))
        if not report["energy_affine_exact"]:
            failures.append((trial, "energy"))
    return _row("theoremB", "d1-geodesicity-per-level", not failures, True,
                "d1(eval(s), eval(t)) = |t - s| d1(endpoints) at every level, 5 pairs",
                failures)


def _check_degree_one_stabilization(seed):
    rng = _rng_for(seed, "degree-one-stabilization")
    failures = []
    arenas = ((1, 1), (1, 2), (2, 1))
    for trial in range(9):
        n, m = arenas[trial % 3]
        ring = section_ring(n, m)
        pts = lattice_points(n, m)
        w0 = {a: _random_fraction(rng, span=4) for a in pts}
        w1 = {a: _random_fraction(rng, span=4) for a in pts}
        phi0 = fs_from_norm(ring, 1, w0)
        phi1 = fs_from_norm(ring, 1, w1)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            base = quantized_segment(phi0, phi1, 1, t)
            for k in (2, 3, 4):
                rel = compare_metrics(quantized_segment(phi0, phi1, k, t), base).relation
                if rel != "eq":
                    failures.append((trial, k, str(t), rel))
    return _row("theoremB", "degree-one-stabilization", not failures, True,
                "degree-1 endpoints: level-k quantized segment equals level 1 "
                "for k <= 4, on P^1 (m <= 2) and P^2", failures)


def planted_submultiplicativity_violation():
    """A graded norm that fails submultiplicativity at (1, 1, x0, x0)."""
    ring = SectionRing(1, 1)
    weights = (
        {(0,): Fraction(0), (1,): Fraction(0)},
        {(0,): Fraction(-1), (1,): Fraction(0), (2,): Fraction(0)},
    )
    return GradedNorm(ring, weights)


def _check_planted_submultiplicative(seed):
    violation = check_submultiplicative(planted_submultiplicativity_violation())
    expected = {"k": 1, "l": 1, "a": [0], "b": [0]}
    ok = violation is not None and serialize_counterexample(violation) == expected
    detail = "planted violation detected with counterexample " + json.dumps(expected)
    return _row("theoremB", "planted-submultiplicative-violation", ok, True,
                detail, [] if ok else [violation])


def _check_planted_non_psh(seed):
    ring, k, samples = planted_non_psh_path()
    witness = detect_non_psh(ring, k, samples)
    # the genuine segment through the same endpoints must NOT be flagged
    honest = (
        (Fraction(0), samples[0][1]),
        (Fraction(1, 2), {(0,): Fraction(0), (1,): Fraction(-1)}),
        (Fraction(1), samples[2][1]),
    )
    clean = detect_non_psh(ring, k, honest)
    ok = witness is not None and clean is None
    detail = "planted bulge detected with witness " + json.dumps(witness or {})
    return _row("theoremB", "planted-non-psh-segment", ok, True, detail,
                [] if ok else [witness, clean])


# ---------------------------------------------------------------------------
# suite assembly


def _row(suite, check, ok, exact, detail, failures):
    if failures:
        detail = f"{detail}; first failures: {failures[:3]!r}"
    return {
        "suite": suite,
        "check": check,
        "status": "pass" if ok else "fail",
        "exact": exact,
        "detail": detail,
    }


_NORM_CHECKS = (
    _check_spectrum_basis_independence,
    _check_d1_triangle,
    _check_d1_join,
    _check_volume_cocycle,
    _check_geodesic_log_convexity,
    _check_geodesic_endpoint_monotonicity,
    _check_geodesic_determinant,
    _check_geodesic_affine_volume,
    lambda seed: _check_geodesic_distance_convexity(seed, 1, "geodesic-d1-convexity"),
    lambda seed: _check_geodesic_distance_convexity(
        seed, math.inf, "geodesic-dinf-convexity"
    ),
    _check_geodesic_sym_power,
)

_GRADED_CHECKS = (
    lambda seed: _check_graded_geodesic_submult(
        seed, 1, (1, 2), 10, 20, "graded-geodesic-submultiplicative-P1"
    ),
    lambda seed: _check_graded_geodesic_submult(
        seed, 2, (1,), 6, 10, "graded-geodesic-submultiplicative-P2"
    ),
    _check_graded_dp_linearity,
    _check_fs_supnorm_roundtrip,
    _check_supnorm_idempotence,
    lambda seed: _check_convergence(seed, 1),
    lambda seed: _check_convergence(seed, 2),
    _check_d1_two_routes,
)

_KISELMAN_CHECKS = (
    _check_marginal_gradient_constraint,
    _check_duality_roundtrip,
    _check_kiselman_worked_case,
)

_THEOREMB_CHECKS = (
    _check_maximum_principle,
    _check_legendre_equals_quantized,
    _check_energy_affine,
    _check_d1_geodesicity,
    _check_degree_one_stabilization,
    _check_planted_submultiplicative,
    _check_planted_non_psh,
)

_SUITES = {
    "norms": _NORM_CHECKS,
    "graded": _GRADED_CHECKS,
    "kiselman": _KISELMAN_CHECKS,
    "theoremB": _THEOREMB_CHECKS,
}


def run_suite(name, seed=0):
    """Run one suite (or ``"all"``) and return the list of check rows."""
    if name == "all":
        rows = []
        for suite in SUITE_NAMES:
            rows.extend(run_suite(suite, seed=seed))
        return rows
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {('all',) + SUITE_NAMES}"
        )
    return [check(seed) for check in _SUITES[name]]
