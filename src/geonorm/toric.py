"""Continuous psh toric metrics on O(m) over P^n, in skeleton coordinates.

A metric is a convex PL potential u(v) with gradients in the dilated
simplex m*Delta_n.  A monomial-diagonal degree-k norm with weights beta_a
corresponds to u(v) = k^-1 max_a(<a, v> + beta_a); conversely the degree-k
sup-norm of a metric reads the concave conjugate profile q = -u* at the
lattice points: beta_a = k*q(a/k).  Monge-Ampere energy and the d1 distance
are computed both per degree (exact norm sums) and in the limit (exact
integrals of conjugate profiles over m*Delta).

In the limit the energy is a functional of one metric: a metric with full
support has its profile defined on all of m*Delta, so
E(phi0, phi1) = E(phi0) - E(phi1) with E(phi) = vol^-1 * integral of q_phi
(``_energy``), one integral per profile and no overlay of two cell
subdivisions.  The overlay (``plconvex._overlay``, on integers) is kept
for |q0 - q1| and its sup, and on P^1 for the per-degree tables; the
Legendre slices of ``geonorm.segments`` read it too: the slice at t
interpolates (1 - t) q0 + t q1 at its vertices.  The rooftop
P(phi0, phi1) stays on the envelope (``plconvex._envelope``), for
``envelope_P`` and the second route of ``d1_metric``, which so shares no
overlay with the first; the two routes share only the simplex sums of
``plconvex._integral``.

A metric's profile is computed on demand and never stored on the metric.
The functions of a metric pair read one record of the pair
(``MetricPair``), which conjugates each metric once and hands the profile
to the helpers that need it (the weight table of each degree, ``_rooftop``
for envelopes, ``_energy`` for integrals), overlays the two profiles
once, and integrates E(phi0) and E(phi1) once.  A public
function builds a throwaway record; a caller that keeps one (``geonorm
run`` does, per pair of metric names) shares it among its calls.  A
rooftop comes with the cells of its profile, which the envelope's vertex
enumeration found (``plconvex._envelope``), and E(P) integrates them
(``plconvex._homogeneous_integral``): the rooftop is neither pruned nor
conjugated.

The toric side runs on integers.  A potential is a ``MaxAffine`` held as
integer rows over one denominator, and a profile keeps one denominator D
for all of its data (see ``geonorm.plconvex``); the ``Fraction`` pieces,
planes and cells are views built when read.  FS metrics are built from
integer weight numerators (``_fs_metric``), and the gradient checks of
``ToricMetric`` read the integer rows.  Sup-norm weights are read off the
profile's integer planes: k q(a/k) is the min over the planes (W, B) / D
of (<W, a> + k B) / D (``ConcaveProfile.lattice_values``).  A pair's
weight table at k (``MetricPair._weights``) holds both metrics' weights
as integers B0, B1 over the lcm of the profiles' denominators: the level
segments of ``geonorm.segments`` join B0 and B1, and on P^n, n >= 2,
energies sum B0 - B1 and d1 sums |B0 - B1|.  On P^1 those sums read no
weight: each level sums in closed form over the integer ranges of the
cells of the pair's overlay (``plconvex._overlay_line_sum``), so this
module reads no profile's cells or planes.  E(phi) integrates the
profile's integers (``plconvex.integrate_profile``).
Graded norms read one metric's weights (``_supweights``); only
``supnorm`` wraps them in a standard-basis norm, which costs O(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .field import TRIVIAL, format_decimal, format_fraction
from .graded import GradedError, GradedNorm, SectionRing, _ring_dims
from .norms import DiagNorm
from .plconvex import (
    Comparison,
    ConcaveProfile,
    MaxAffine,
    _envelope,
    _homogeneous_integral,
    _overlay,
    _overlay_integral,
    _overlay_line_sum,
    _overlay_sup,
    compare,
    conjugate,
    integrate_profile,
    moment_simplex,
)


class ToricError(ValueError):
    pass


_rings: dict = {}


def section_ring(n: int, m: int) -> SectionRing:
    """The shared section ring of O(m) over P^n; n and m must be ints, since
    (1, 2.0) == (1, 2) would file a float ring under the int key."""
    if type(n) is not int or type(m) is not int:
        raise ToricError(
            f"a section ring needs integer n and m, got n = {n!r}, m = {m!r}")
    if (n, m) not in _rings:
        _rings[(n, m)] = SectionRing(n, m)
    return _rings[(n, m)]


@dataclass(frozen=True)
class ToricMetric:
    n: int
    m: int
    potential: MaxAffine
    provenance: str = "fs(1)"

    def __post_init__(self):
        if self.potential.n != self.n:
            raise ToricError("potential dimension does not match n")
        f = self.potential
        top = self.m * f._den   # sum(g) <= m, times den
        for r in f._rows:
            g = r[:-1]
            if any(x < 0 for x in g) or sum(g) > top:
                g = tuple(Fraction(x, f._den) for x in g)
                raise ToricError(
                    f"piece gradient {g} falls outside {self.m}*Delta")

    def has_full_support(self) -> bool:
        """Gradient hull contains every vertex of m*Delta.

        Since all gradients lie inside the simplex, a simplex vertex lies in
        their hull iff it is itself a gradient.
        """
        f = self.potential
        grads = {r[:-1] for r in f._rows}
        m = self.m * f._den   # m e_i, over the potential's den
        return (0,) * self.n in grads and all(
            tuple(m if j == i else 0 for j in range(self.n)) in grads
            for i in range(self.n))

    def profile(self) -> ConcaveProfile:
        """Concave conjugate q = -u* on the gradient hull, computed anew."""
        return conjugate(self.potential)

    def shifted(self, c) -> "ToricMetric":
        return ToricMetric(self.n, self.m, self.potential.shifted(c),
                           self.provenance)

    def __eq__(self, other):
        if not isinstance(other, ToricMetric):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m):
            return False
        return self.potential == other.potential

    __hash__ = None

    def to_json(self):
        return {"n": self.n, "m": self.m,
                "potential": self.potential.to_json(),
                "provenance": self.provenance}

    @classmethod
    def from_json(cls, obj) -> "ToricMetric":
        n, m = _ring_dims(obj, "metric")
        return cls(n, m, MaxAffine.from_json(obj["potential"]),
                   obj.get("provenance", "fs(1)"))


def _require_same_bundle(phi0: ToricMetric, phi1: ToricMetric):
    if (phi0.n, phi0.m) != (phi1.n, phi1.m):
        raise ToricError("metrics live on different line bundles")


def compare_metrics(phi0: ToricMetric, phi1: ToricMetric) -> Comparison:
    _require_same_bundle(phi0, phi1)
    return compare(phi0.potential, phi1.potential)


def fs_from_norm(ring: SectionRing, k: int, source) -> ToricMetric:
    """Level-k Fubini-Study metric of a monomial-diagonal norm.

    Weights may be a DiagNorm in the degree-k monomial basis or a mapping
    from lattice points; all h0(k) monomials must be present.
    """
    _require_kmax(k, "level k")
    basis = ring.basis(k)
    if isinstance(source, DiagNorm):
        if source.dim != len(basis) or not source.is_standard_basis():
            raise ToricError(
                f"norm must be monomial-diagonal of dimension {len(basis)}")
        # the norm's integer weights, in basis order, in lowest terms
        return _fs_metric(ring, k, source._den, source._nums)
    table = {tuple(a): Fraction(w) for a, w in dict(source).items()}
    if set(table) != set(basis):
        raise ToricError("weights must cover the degree-k basis exactly")
    weights = [table[a] for a in basis]
    den = lcm(*(w.denominator for w in weights))
    return _fs_metric(ring, k, den, [w.numerator * (den // w.denominator)
                                     for w in weights])


def _fs_metric(ring: SectionRing, k: int, den: int, numerators) -> ToricMetric:
    """The level-k FS metric of the weights ``numerators / den``.

    The weights are aligned with ``ring.basis(k)``; the pieces (a / k,
    w_a / k) are integer rows over k den.
    """
    rows = [tuple(x * den for x in a) + (w,)
            for a, w in zip(ring.basis(k), numerators)]
    pot = MaxAffine._from_ints(ring.n, k * den, rows)
    return ToricMetric(ring.n, ring.m, pot, f"fs({k})")


def reference(n: int, m: int) -> ToricMetric:
    """The trivial-weight FS metric: u = max over lattice points of <a, v>."""
    ring = section_ring(n, m)
    return fs_from_norm(ring, 1, {a: 0 for a in ring.basis(1)})


def supnorm(k: int, phi: ToricMetric) -> DiagNorm:
    """Degree-k sup-norm of a metric: weights k*q(a/k) on the lattice.

    The conjugate scales as (k u)*(a) = k u*(a/k), so one profile of the
    defining potential serves every degree.
    """
    _require_kmax(k, "level k")
    return DiagNorm.standard(TRIVIAL, _supweights(k, phi, _full_profile(phi)))


def _full_profile(phi: ToricMetric) -> ConcaveProfile:
    """phi.profile(), for a metric that must carry the full moment simplex."""
    _require_full_support(phi)
    return phi.profile()


def _require_full_support(phi: ToricMetric):
    if not phi.has_full_support():
        raise ToricError(
            "metric potential must carry the full moment simplex "
            "(every vertex of m*Delta among its gradients)")


def _supweights(k: int, phi: ToricMetric, q: ConcaveProfile) -> tuple:
    """The weights of ``supnorm(k, phi)``, in ``ring.basis(k)`` order, read
    off q = ``_full_profile(phi)``."""
    return q.lattice_values(k, section_ring(phi.n, phi.m).basis(k))


def sup_graded(phi: ToricMetric, kmax: int) -> GradedNorm:
    """The graded norm k -> supnorm(k, phi), degrees 1..kmax."""
    ring = section_ring(phi.n, phi.m)
    _require_kmax(kmax, error=GradedError)  # before any support check
    q = _full_profile(phi)
    return GradedNorm(ring, [
        dict(zip(ring.basis(k), _supweights(k, phi, q)))
        for k in range(1, kmax + 1)])


def envelope_P(phi0: ToricMetric, phi1: ToricMetric) -> ToricMetric:
    """Rooftop envelope: the largest psh metric below both inputs."""
    _require_same_bundle(phi0, phi1)
    return MetricPair(phi0, phi1)._rooftop()[0]


def _rooftop(n: int, m: int, q0, q1):
    """``(P, den, faces)``: P = ``envelope_P`` of two metrics on O(m) over
    P^n with profiles q0, q1, and the cells of P's profile as
    ``plconvex._envelope`` found them, plane rows over den."""
    pot, den, faces = _envelope([q0, q1], moment_simplex(n, m))
    return ToricMetric(n, m, pot, "envelope"), den, faces


def moment_volume(n: int, m: int) -> Fraction:
    return Fraction(m ** n, factorial(n))


@dataclass(frozen=True)
class ConvergenceResult:
    """Per-degree exact values plus the exact integral limit, or None
    where no limit is known."""

    per_k: tuple          # ((k, Fraction), ...)
    limit: Fraction | None

    def gap(self, k: int) -> Fraction:
        for kk, v in self.per_k:
            if kk == k:
                return abs(v - self.limit)
        raise KeyError(k)

    def rows(self):
        """CSV-ready rows: k, exact value, decimal rendering, limit (empty
        when unknown)."""
        limit = "" if self.limit is None else format_fraction(self.limit)
        return [{"k": k, "exact_value": format_fraction(v),
                 "decimal_value": format_decimal(v), "oracle_limit": limit}
                for k, v in self.per_k]


def _require_pair(phi0, phi1):
    _require_same_bundle(phi0, phi1)
    for phi in (phi0, phi1):
        _require_full_support(phi)


def _require_kmax(kmax: int, name: str = "kmax", error=ToricError):
    """The per-degree tables, the levels and their chains, and the graded
    sup-norms need an int kmax >= 1; a bool or a float is refused, since
    ``range`` would take True for 1 and a chain would round 2.5 down."""
    if type(kmax) is not int:
        raise error(f"{name} must be an int, got {kmax!r}")
    if kmax < 1:
        raise error(f"{name} must be at least 1, got {kmax}")


def energy(phi0: ToricMetric, phi1: ToricMetric, kmax: int = 8) -> ConvergenceResult:
    """Monge-Ampere energy: per-k relative volumes and the integral limit.

    Per degree: (k h0(k))^-1 sum_a (beta0_a - beta1_a) over sup-norm
    weights.  Limit: E(phi0) - E(phi1), where E(phi) = vol(m Delta)^-1 *
    integral of q over m Delta.  Increasing in the first argument;
    antisymmetric; <= 0 when phi0 <= phi1.
    """
    return MetricPair(phi0, phi1).energy(kmax)


def energy_limit(phi0: ToricMetric, phi1: ToricMetric) -> Fraction:
    """E(phi0) - E(phi1), the limit of ``energy(phi0, phi1)``."""
    return MetricPair(phi0, phi1).energy_limit()


def _energy(phi: ToricMetric, q: ConcaveProfile) -> Fraction:
    """E(phi) = vol(m Delta)^-1 * integral of q over its domain.

    The domain is m Delta when phi has full support, which the callers
    check (``_require_pair``); then E(phi0, phi1) = E(phi0) - E(phi1).
    """
    return integrate_profile(q) / moment_volume(phi.n, phi.m)


def d1_metric(phi0: ToricMetric, phi1: ToricMetric, kmax: int = 8) -> ConvergenceResult:
    """d1 distance: per-k normalized norm distances and the integral limit.

    The limit is computed two ways and asserted equal: directly as
    vol^-1 * integral |q0 - q1| over the overlay of the two cell
    subdivisions, summed on its integers (``plconvex._overlay_integral``),
    and through the rooftop envelope P = P(phi0, phi1), built by
    ``plconvex._envelope``, as
    E(phi0, P) + E(phi1, P) = E(phi0) + E(phi1) - 2 E(P), with E(P)
    integrated on the cells that the envelope found.
    """
    return MetricPair(phi0, phi1).d1(kmax)


def d_infinity_limit(phi0: ToricMetric, phi1: ToricMetric) -> Fraction:
    """sup |q0 - q1| over the moment simplex (the d_infinity limit)."""
    return MetricPair(phi0, phi1).d_infinity()


class MetricPair:
    """Two toric metrics, and what the functions of the pair share.

    The record is filled on first use, and every entry is computed once:
    the profiles q0 and q1, the energies E(phi0) and E(phi1), the weight
    table at each k (``_weights``, which the level segments read, and on
    P^n, n >= 2, the energy and d1 tables), the overlay of q0 and q1
    (whose cells the energy and d1 tables sum on P^1, which ``d1``
    integrates, ``d_infinity`` reads the sup of, and ``SegmentPair``
    reads its critical shifts and its Legendre slices off, interpolating
    (1 - t) q0 + t q1 at the overlay's vertices) and the rooftop
    P(phi0, phi1) with the cells of its profile, which serves
    ``envelope_P`` and the envelope route of ``d1``.  Nothing is stored
    on the metrics.  The public functions of a pair (``energy``,
    ``d1_metric``, ...) build a throwaway record, so each call checks its
    inputs and conjugates each metric once; a caller that keeps one record
    (one ``geonorm run`` keeps one per pair of metric names) conjugates
    each metric of the pair once for all of its tasks.
    ``segments.SegmentPair`` adds the segments between the two metrics.
    The checks run in each method, in the order of the public function it
    serves.
    """

    __slots__ = ("phi0", "phi1", "_q", "_e", "_w", "_roof", "_ov")

    def __init__(self, phi0: ToricMetric, phi1: ToricMetric):
        self.phi0, self.phi1 = phi0, phi1
        self._q, self._e, self._w = [None, None], [None, None], {}
        self._roof = self._ov = None

    def _profile(self, i: int) -> ConcaveProfile:
        """The profile of metric i, conjugated once."""
        if self._q[i] is None:
            self._q[i] = (self.phi0, self.phi1)[i].profile()
        return self._q[i]

    @property
    def q0(self) -> ConcaveProfile:
        return self._profile(0)

    @property
    def q1(self) -> ConcaveProfile:
        return self._profile(1)

    def _full_profiles(self):
        """``(q0, q1)``, each read once its metric is found to carry the
        full moment simplex, as ``_full_profile`` reads it."""
        _require_full_support(self.phi0)
        q0 = self.q0
        _require_full_support(self.phi1)
        return q0, self.q1

    def _energy(self, i: int) -> Fraction:
        """E(phi_i), integrated once."""
        if self._e[i] is None:
            self._e[i] = _energy((self.phi0, self.phi1)[i], self._profile(i))
        return self._e[i]

    def _overlay(self):
        """The overlay of q0 and q1 (``plconvex._overlay``), built once."""
        if self._ov is None:
            self._ov = _overlay(self.q0, self.q1)
        return self._ov

    def _rooftop(self):
        """``(P, den, faces)``: the rooftop P(phi0, phi1) and its cells
        (``_rooftop``)."""
        if self._roof is None:
            self._roof = _rooftop(self.phi0.n, self.phi0.m, self.q0, self.q1)
        return self._roof

    def _weights(self, k: int):
        """``(D, B0, B1)``: the degree-k sup-norm weights of both metrics,
        in ``ring.basis(k)`` order, as integer numerators over D, the lcm
        of the profiles' denominators; read off q0 and q1 once per k, for
        the level segments and the tables above P^1."""
        if k not in self._w:
            basis = section_ring(self.phi0.n, self.phi0.m).basis(k)
            qs = self.q0, self.q1
            den = lcm(*(q._den for q in qs))
            self._w[k] = (den, *(
                [x * (den // q._den) for x in q._lattice_numerators(k, basis)]
                for q in qs))
        return self._w[k]

    def _per_degree(self, kmax, term):
        """((k, (k h0(k))^-1 sum_a term(beta0_a - beta1_a)), ...) for k <= kmax.

        The beta are the degree-k sup-norm weights B0 / D and B1 / D of
        the two metrics, D the lcm of the profiles' denominators, and
        ``term`` (the identity or ``abs``) commutes with the positive
        factor 1 / D.  On P^1 each level sums the cells of the pair's
        overlay, over the same D (``plconvex._overlay_line_sum``); above,
        B0 - B1 point by point (``_weights``).
        """
        n, m = self.phi0.n, self.phi0.m
        den = lcm(self.q0._den, self.q1._den)
        if n == 1:
            level = lambda k: _overlay_line_sum(self._overlay(), m, k, term)
        else:
            level = lambda k: sum(term(x - y)
                                  for x, y in zip(*self._weights(k)[1:]))
        h0 = section_ring(n, m).h0
        return tuple((k, Fraction(level(k), k * h0(k) * den))
                     for k in range(1, kmax + 1))

    def energy(self, kmax: int = 8) -> ConvergenceResult:
        """``energy(phi0, phi1, kmax)`` of the pair."""
        _require_kmax(kmax)
        _require_pair(self.phi0, self.phi1)
        per_k = self._per_degree(kmax, lambda d: d)
        return ConvergenceResult(per_k, self._energy(0) - self._energy(1))

    def energy_limit(self) -> Fraction:
        """``energy_limit(phi0, phi1)`` of the pair."""
        # checked before the profiles are conjugated and integrated
        _require_pair(self.phi0, self.phi1)
        return self._energy(0) - self._energy(1)

    def d1(self, kmax: int = 8) -> ConvergenceResult:
        """``d1_metric(phi0, phi1, kmax)`` of the pair."""
        _require_kmax(kmax)
        phi0, phi1 = self.phi0, self.phi1
        _require_pair(phi0, phi1)
        per_k = self._per_degree(kmax, abs)
        direct = (_overlay_integral(self._overlay(), 1)
                  / moment_volume(phi0.n, phi0.m))
        roof, den, faces = self._rooftop()
        _require_pair(phi0, roof)  # E(P) integrates over P's own domain
        via_envelope = self._energy(0) + self._energy(1) - 2 * (
            _homogeneous_integral(faces, phi0.n, 1, den)
            / moment_volume(phi0.n, phi0.m))
        if direct != via_envelope:
            raise ToricError(
                f"d1 routes disagree: integral {direct} vs envelope "
                f"{via_envelope}")
        return ConvergenceResult(per_k, direct)

    def d_infinity(self) -> Fraction:
        """``d_infinity_limit(phi0, phi1)`` of the pair."""
        _require_pair(self.phi0, self.phi1)
        return _overlay_sup(self._overlay())
