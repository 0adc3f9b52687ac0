"""Seeded verification suites behind the ``suite`` command.

Each suite is a tuple of named checks over randomly generated instances,
and each check yields one row.  Checks are deterministic for a fixed
seed: every check derives its own ``random.Random`` stream from (seed,
check name), so reordering or skipping checks never shifts another
check's instances, and no two checks of all the suites share a name.

Most checks are ``Check`` records: a trial count, a draw of one trial's
inputs from the stream, and a verification that yields that trial's
failure entries.  One runner turns a record into its row.  The checks
whose row is not "pass iff no trial failed" stay plain ``seed -> row``
functions: ``fs-supnorm-roundtrip`` (it also needs closed and unclosed
instances, and counts them in its detail), ``kiselman-worked-case`` and
the two planted controls (one fixed instance each, and a failing row
lists no trial).

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
# check records and their rows


def _rng_for(seed, check):
    return random.Random(f"{seed}:{check}")


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


@dataclass(frozen=True)
class Check:
    """A randomized check: ``trials`` trials on one stream, one row.

    ``instance(rng, trial)`` draws one trial's inputs as a tuple, and
    ``verify(trial, *inputs)`` yields that trial's failure entries.  No
    draw depends on an earlier trial's outcome, so trial ``i`` sees the
    same inputs whatever the verifications before it found.  The row
    passes when no trial yields an entry, and a failing row's detail
    ends with the reprs of the first three entries.
    """

    suite: str
    name: str
    trials: int
    instance: Callable
    verify: Callable
    detail: str
    exact: bool = True

    def __call__(self, seed):
        """The row of this check at ``seed``."""
        rng = _rng_for(seed, self.name)
        failures = []
        for trial in range(self.trials):
            failures.extend(self.verify(trial, *self.instance(rng, trial)))
        return _row(self.suite, self.name, not failures, self.exact,
                    self.detail, failures)


# ---------------------------------------------------------------------------
# random instance generators


def _random_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3, 4)))


def _random_weights(rng, n, d):
    """Random weights in [-4, 4] on the lattice points of d*Delta in R^n."""
    return {a: _random_fraction(rng, span=4) for a in lattice_points(n, d)}


def _field(trial):
    """Every fifth trial of a norms check runs over Q(t), the others over Q."""
    return TADIC if trial % 5 == 4 else TRIVIAL


def _random_invertible(rng, field, dim):
    """Random invertible matrix with small entries, as a tuple of rows.

    Over Q(t) about a quarter of the entries are multiplied by t or t^2.
    """
    while True:
        rows = []
        for _ in range(dim):
            row = []
            for _ in range(dim):
                c = field.of(Fraction(rng.randint(-3, 3)))
                if field is TADIC and rng.random() < 0.25:
                    c = c * RatFunc.t_power(rng.randint(0, 2))
                row.append(c)
            rows.append(tuple(row))
        if not field.is_zero(linalg.determinant(rows)):
            return tuple(rows)


def _random_norm(rng, field, dim):
    if field is TADIC:
        weights = tuple(Fraction(rng.randint(-6, 6)) for _ in range(dim))
    else:
        weights = tuple(_random_fraction(rng) for _ in range(dim))
    return DiagNorm(field, _random_invertible(rng, field, dim), weights)


def _random_norms(rng, field, count, max_dim=4):
    """``count`` random norms over ``field`` on one space of dim 2..max_dim."""
    dim = rng.randint(2, max_dim)
    return tuple(_random_norm(rng, field, dim) for _ in range(count))


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


def _spectrum_instance(rng, trial):
    field = _field(trial)
    n0, n1 = _random_norms(rng, field, 2)
    return n0, n1, _random_invertible(rng, field, n0.dim)


def _spectrum_basis_independence(trial, n0, n1, t):
    spec = spectrum(n0, n1)
    if spectrum(_transport(n0, t), _transport(n1, t)) != spec:
        yield ("transport", trial)
    elif n0.field is TRIVIAL and _filtration_spectrum_oracle(n0, n1) != spec:
        yield ("oracle", trial)


def _d1_triangle(trial, n0, n1, n2):
    if distance(n0, n2, 1) > distance(n0, n1, 1) + distance(n1, n2, 1):
        yield trial


def _d1_join_identity(trial, n0, n1):
    j = join(n0, n1)
    if n0.dim * distance(n0, n1, 1) != volume(n0, j) + volume(n1, j):
        yield trial


def _volume_cocycle(trial, n0, n1, n2):
    if volume(n0, n1) + volume(n1, n0) != 0:
        yield ("antisym", trial)
    if volume(n0, n1) + volume(n1, n2) + volume(n2, n0) != 0:
        yield ("cocycle", trial)


# ---------------------------------------------------------------------------
# geodesic suite


def _geodesic_pair(rng, allow_tadic=True):
    # the Q(t) draw comes from the stream only when Q(t) is allowed
    tadic = allow_tadic and rng.random() < 0.2
    n0, n1 = _random_norms(rng, TADIC if tadic else TRIVIAL, 2)
    return geodesic(n0, n1), n0, n1


def _is_concave_on_triples(values_by_t):
    """Exact concavity of t -> value over every triple of sample points.

    With the times sorted, the consecutive triples suffice: each says that
    the slope of the samples does not rise, and then no triple lies above
    its chord."""
    items = sorted(values_by_t.items())
    for (t0, v0), (t1, v1), (t2, v2) in zip(items, items[1:], items[2:]):
        # t1 = lam*t0 + (1-lam)*t2 with lam = (t2-t1)/(t2-t0)
        lam = (t2 - t1) / (t2 - t0)
        if v1 < lam * v0 + (1 - lam) * v2:
            return False
    return True


def _log_convexity_instance(rng, trial):
    geo, n0, _ = _geodesic_pair(rng)
    return geo, _random_vector(rng, n0.field, n0.dim)


def _geodesic_log_convexity(trial, geo, vec):
    vals = {t: geo.at(t).evaluate(vec) for t in T_SET}
    # -log of the norm is concave in t, i.e. the norm is log-convex
    if not any(v is INF for v in vals.values()) and not _is_concave_on_triples(vals):
        yield trial


def _monotonicity_instance(rng, trial):
    (n0,) = _random_norms(rng, _field(trial), 1)
    bump = tuple(Fraction(rng.randint(0, 4)) for _ in range(n0.dim))
    weights = tuple(w + b for w, b in zip(n0.weights, bump))
    return n0, DiagNorm(n0.field, n0.basis, weights)


def _geodesic_endpoint_monotonicity(trial, n0, n1):
    geo = geodesic(n0, n1)
    for ta, tb in zip(T_SET, T_SET[1:]):
        if not all(x <= y for x, y in zip(geo.at(ta).weights, geo.at(tb).weights)):
            yield trial
            return


def _geodesic_determinant(trial, geo, n0, n1):
    det_geo = geodesic(det_norm(n0), det_norm(n1))
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
        if det_norm(geo.at(t)) != det_geo.at(t):
            yield (trial, str(t))
            return


def _affine_volume_instance(rng, trial):
    geo, n0, _ = _geodesic_pair(rng)
    # over Q a third norm m, for the affineness of vol(m, n_t)
    third = _random_norm(rng, n0.field, n0.dim) if n0.field is TRIVIAL else None
    return geo, third


def _geodesic_affine_volume(trial, geo, third):
    # geo.start is n0 rewritten in the common basis, so the distance
    # computations below stay on the shared-basis fast path
    total = volume(geo.start, geo.end)
    vols = {}
    for t in T_SET:
        nt = geo.at(t)
        if volume(geo.start, nt) != t * total:
            yield (trial, "endpoint", str(t))
            return
        if third is not None:
            vols[t] = volume(third, nt)
    if third is not None:
        base = vols[Fraction(0)]
        slope = vols[Fraction(1)] - base
        if any(vols[t] != base + t * slope for t in T_SET):
            yield (trial, "third-norm")


def _distance_convexity(name, p):
    """t -> d_p(m, n_t) is convex along Q geodesics, for p in {1, inf}."""

    def instance(rng, trial):
        geo, n0, _ = _geodesic_pair(rng, allow_tadic=False)
        return geo, _random_norm(rng, n0.field, n0.dim)

    def verify(trial, geo, third):
        # convexity = concavity of the negative
        if not _is_concave_on_triples(
                {t: -distance(third, geo.at(t), p) for t in T_SET}):
            yield trial

    label = "d_inf" if p == math.inf else f"d_{p}"
    return Check("norms", name, 100, instance, verify,
                 f"t -> {label}(m, n_t) convex on all t-triples, 100 instances")


def _geodesic_sym_power(trial, n0, n1):
    geo = geodesic(n0, n1)
    sym_geo = geodesic(sym_power_norm(geo.start, 2), sym_power_norm(geo.end, 2))
    for t in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
        if sym_power_norm(geo.at(t), 2) != sym_geo.at(t):
            yield (trial, str(t))
            return


# ---------------------------------------------------------------------------
# graded suite


def _random_degree_one_pair(rng, n, m, kmax):
    """Two graded norms generated from random degree-one weights."""
    ring = SectionRing(n, m)
    return tuple(generate_degree_one(ring, _random_weights(rng, n, m), kmax)
                 for _ in range(2))


def _graded_submultiplicativity(name, n, m_list, kmax, pairs):
    """Graded geodesics between degree-one-generated norms on P^n."""

    def instance(rng, trial):
        return _random_degree_one_pair(rng, n, m_list[trial % len(m_list)], kmax)

    detail = f"P^{n}, m in {m_list}, K = {kmax}, {pairs} pairs, t in {{1/4, 1/2, 3/4}}"
    return Check("graded", name, pairs, instance,
                 _graded_geodesic_submultiplicative, detail)


def _graded_geodesic_submultiplicative(trial, gn0, gn1):
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        violation = check_submultiplicative(graded_geodesic(gn0, gn1, t))
        if violation is not None:
            yield (trial, str(t), serialize_counterexample(violation))
            return


def _dp_linearity_instance(rng, trial):
    n, m, kmax = (1, 2, 6) if trial % 2 == 0 else (2, 1, 4)
    return _random_degree_one_pair(rng, n, m, kmax)


def _graded_dp_linearity(trial, gn0, gn1):
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
        gt = graded_geodesic(gn0, gn1, t)
        for k in range(1, gn0.kmax + 1):
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
                    yield (trial, k, str(t), str(p))


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
    weights = _random_weights(rng, n, k * m)
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


def _supnorm_idempotence(trial, ring, k, weights, phi):
    once = supnorm(k, phi)
    if once != supnorm(k, fs_from_norm(ring, k, once)):
        yield trial


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


def _convergence(name, pair, k_late, frozen):
    """Energy and d1 of a frozen pair: limits, gaps and the decay rate.

    One trial on the frozen pair; the rate compares exact rationals with
    a percentage threshold, so the row is not exact.
    """
    gap_late = frozen[f"gap{k_late}"]

    def verify(trial, phi0, phi1):
        e = energy(phi0, phi1, kmax=k_late)
        d = d1_metric(phi0, phi1, kmax=k_late)
        for label, res in (("E", e), ("d1", d)):
            if res.limit != frozen["limit"]:
                yield (label, "limit", str(res.limit))
            g_early, g_late = res.gap(2), res.gap(k_late)
            if g_early != frozen["gap2"] or g_late != gap_late:
                yield (label, "frozen-gaps", str(g_early), str(g_late))
            if not (g_early > 0 and g_late * 20 <= g_early):
                yield (label, "rate", str(g_late / g_early))
        # on P^1 the energy gap also drops tenfold from k = 4 to k = 40
        if k_late == 40 and e.gap(40) * 10 > e.gap(4):
            yield ("E", "k40-vs-k4")

    ratio = (gap_late / frozen["gap2"]) * 100
    detail = (
        f"gap at k = {k_late} is {float(ratio):.2f}% of the k = 2 gap "
        f"(threshold 5%), limits and gaps pinned exactly"
    )
    return Check("graded", name, 1, lambda rng, trial: pair(), verify, detail,
                 exact=False)


def _two_routes_instance(rng, trial):
    arena = (2, 1) if trial % 5 == 4 else (1, rng.choice((1, 2)))
    return _random_fs_instance(rng, arena)[3], _random_fs_instance(rng, arena)[3]


def _d1_two_routes(trial, phi0, phi1):
    try:
        res = d1_metric(phi0, phi1, kmax=2)
    except Exception as exc:  # noqa: BLE001 - report, never crash the suite
        yield (trial, repr(exc))
        return
    if res.limit < 0:
        yield (trial, "negative")
    equal = compare_metrics(phi0, phi1).relation == "eq"
    if (res.limit == 0) != equal:
        yield (trial, "separation")


# ---------------------------------------------------------------------------
# kiselman suite


def _random_segment(rng, trial):
    n, m = rng.choice(((1, 1), (1, 2), (2, 1)))
    ring = section_ring(n, m)
    k = rng.choice((1, 2)) if n == 1 else 1
    w0 = _random_weights(rng, n, k * m)
    w1 = _random_weights(rng, n, k * m)
    return (fs_segment(ring, k, w0, w1),)


def _marginal_gradient_constraint(trial, seg):
    taus = duality_tau_set(seg)
    extra = (min(taus) - 1, max(taus) + 1) if taus else (Fraction(0),)
    m = seg.ring.m
    for tau in tuple(taus) + tuple(extra):
        try:
            dual = kiselman_dual(seg, tau)
        except Exception as exc:  # noqa: BLE001 - constraint failure shows here
            yield (trial, str(tau), repr(exc))
            continue
        for g in dual.potential.gradients():
            if any(c < 0 for c in g) or sum(g) > m:
                yield (trial, str(tau), "gradient", [str(c) for c in g])


def _legendre_duality_roundtrip(trial, seg):
    for t in T_SET:
        recovered = segment_from_dual(seg, t)
        if compare_metrics(recovered, seg.eval(t)).relation != "eq":
            yield (trial, str(t))
            return


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


def _random_fs_pair(rng, n, m, k):
    """Two level-k Fubini-Study metrics of random weights on P^n for O(m)."""
    ring = section_ring(n, m)
    return tuple(fs_from_norm(ring, k, _random_weights(rng, n, k * m))
                 for _ in range(2))


def _random_metric_pair_p1(rng, trial):
    """Two level-2 metrics on P^1 for O(m), with m drawn from {1, 2}."""
    return _random_fs_pair(rng, 1, rng.choice((1, 2)), 2)


def _maximum_principle_instance(rng, trial):
    phi0, phi1 = _random_metric_pair_p1(rng, trial)
    m = phi0.m
    k = rng.choice((1, 2, 4))
    pts = lattice_points(1, k * m)
    top0 = supnorm(k, phi0)
    top1 = supnorm(k, phi1)
    # competitor endpoints dominated by the endpoints of the segment
    w0 = {a: w - Fraction(rng.randint(0, 3)) for a, w in zip(pts, top0.weights)}
    w1 = {a: w - Fraction(rng.randint(0, 3)) for a, w in zip(pts, top1.weights)}
    return phi0, phi1, fs_segment(section_ring(1, m), k, w0, w1)


def _maximum_principle(trial, phi0, phi1, competitor):
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        rel = compare_metrics(
            competitor.eval(t), maximal_segment(phi0, phi1, t, kmax=4)
        ).relation
        if rel not in ("le", "eq"):
            yield (trial, str(t), rel)
            return


def _legendre_equals_quantized(trial, phi0, phi1):
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
        lhs = legendre_segment(phi0, phi1, t)
        rhs = maximal_segment(phi0, phi1, t, kmax=8)
        if compare_metrics(lhs, rhs).relation != "eq":
            yield (trial, str(t))
            return


def _energy_affine(trial, phi0, phi1):
    sample = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    ref = reference(1, phi0.m)
    vals = {
        t: energy_limit(maximal_segment(phi0, phi1, t, kmax=4), ref)
        for t in sample
    }
    base = vals[Fraction(0)]
    slope = vals[Fraction(1)] - base
    if any(vals[t] != base + t * slope for t in sample):
        yield (trial, {str(t): str(v) for t, v in vals.items()})


def _d1_geodesicity_per_level(trial, phi0, phi1):
    report = diagnostics(phi0, phi1, kmax=4)
    for level in report["d1_geodesic_per_level"]:
        if not level["geodesic_exact"]:
            yield (trial, level["k"])
    if not report["energy_affine_exact"]:
        yield (trial, "energy")


def _degree_one_instance(rng, trial):
    n, m = ((1, 1), (1, 2), (2, 1))[trial % 3]
    return _random_fs_pair(rng, n, m, 1)


def _degree_one_stabilization(trial, phi0, phi1):
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        base = quantized_segment(phi0, phi1, 1, t)
        for k in (2, 3, 4):
            rel = compare_metrics(quantized_segment(phi0, phi1, k, t), base).relation
            if rel != "eq":
                yield (trial, k, str(t), rel)


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
# suite assembly: each entry is a Check or a plain seed -> row function


_SUITES = {
    "norms": (
        Check("norms", "spectrum-basis-independence", 200, _spectrum_instance,
              _spectrum_basis_independence,
              "200 pairs, dim <= 4, transport invariance + filtration-count oracle"),
        Check("norms", "d1-triangle", 200,
              lambda rng, trial: _random_norms(rng, _field(trial), 3),
              _d1_triangle, "200 triples"),
        Check("norms", "d1-join-identity", 100,
              lambda rng, trial: _random_norms(rng, TRIVIAL, 2),
              _d1_join_identity,
              "d * d1(n0,n1) = vol(n0,join) + vol(n1,join), 100 pairs"),
        Check("norms", "volume-cocycle", 100,
              lambda rng, trial: _random_norms(rng, _field(trial), 3),
              _volume_cocycle, "antisymmetry + cocycle, 100 triples"),
        Check("norms", "geodesic-log-convexity", 100, _log_convexity_instance,
              _geodesic_log_convexity,
              "100 instances, all t-triples from the 7-point grid"),
        Check("norms", "geodesic-endpoint-monotonicity", 100,
              _monotonicity_instance, _geodesic_endpoint_monotonicity,
              "comparable endpoints stay ordered along t, 100 instances"),
        Check("norms", "geodesic-determinant", 100,
              lambda rng, trial: _geodesic_pair(rng), _geodesic_determinant,
              "det of the geodesic equals the geodesic of the dets, 100 instances"),
        Check("norms", "geodesic-affine-volume", 100, _affine_volume_instance,
              _geodesic_affine_volume,
              "vol(n0, n_t) = t vol(n0, n1) and vol(m, n_t) affine, 100 instances"),
        _distance_convexity("geodesic-d1-convexity", 1),
        _distance_convexity("geodesic-dinf-convexity", math.inf),
        Check("norms", "geodesic-sym-power", 100,
              lambda rng, trial: _random_norms(rng, _field(trial), 2, max_dim=3),
              _geodesic_sym_power,
              "Sym^2 of the geodesic equals the geodesic of the Sym^2, 100 instances"),
    ),
    "graded": (
        _graded_submultiplicativity("graded-geodesic-submultiplicative-P1",
                                    1, (1, 2), 10, 20),
        _graded_submultiplicativity("graded-geodesic-submultiplicative-P2",
                                    2, (1,), 6, 10),
        Check("graded", "graded-dp-linearity", 10, _dp_linearity_instance,
              _graded_dp_linearity,
              "per-degree d_p along the geodesic scales exactly like |t - s|^p"),
        _check_fs_supnorm_roundtrip,
        Check("graded", "supnorm-idempotence", 100,
              lambda rng, trial: _random_fs_instance(rng), _supnorm_idempotence,
              "supnorm . fs . supnorm = supnorm, 100 instances"),
        _convergence("energy-d1-convergence-P1", convergence_pair_p1, 40, _CONV_P1),
        _convergence("energy-d1-convergence-P2", convergence_pair_p2, 12, _CONV_P2),
        Check("graded", "d1-two-routes", 50, _two_routes_instance, _d1_two_routes,
              "supnorm route and envelope route agree; d1 separates points; 50 pairs"),
    ),
    "kiselman": (
        Check("kiselman", "marginal-gradient-constraint", 50, _random_segment,
              _marginal_gradient_constraint,
              "inf_t (phi_t - t tau) keeps gradients in m*Delta, 50 segments"),
        Check("kiselman", "legendre-duality-roundtrip", 20, _random_segment,
              _legendre_duality_roundtrip,
              "sup_tau (dual_tau + t tau) recovers the segment at all 7 t, 20 segments"),
        _check_kiselman_worked_case,
    ),
    "theoremB": (
        Check("theoremB", "maximum-principle", 30, _maximum_principle_instance,
              _maximum_principle,
              "30 dominated competitor segments stay below the maximal segment"),
        Check("theoremB", "legendre-equals-quantized", 20, _random_metric_pair_p1,
              _legendre_equals_quantized,
              "Legendre construction matches the stabilized quantized segment, "
              "20 level-2 pairs"),
        Check("theoremB", "energy-affine", 5, _random_metric_pair_p1, _energy_affine,
              "E(maximal(t), ref) exactly collinear at 5 sample points, 5 pairs"),
        Check("theoremB", "d1-geodesicity-per-level", 5, _random_metric_pair_p1,
              _d1_geodesicity_per_level,
              "d1(eval(s), eval(t)) = |t - s| d1(endpoints) at every level, 5 pairs"),
        Check("theoremB", "degree-one-stabilization", 9, _degree_one_instance,
              _degree_one_stabilization,
              "degree-1 endpoints: level-k quantized segment equals level 1 "
              "for k <= 4, on P^1 (m <= 2) and P^2"),
        _check_planted_submultiplicative,
        _check_planted_non_psh,
    ),
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
