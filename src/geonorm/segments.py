"""Segments of toric metrics: Fubini-Study, quantized, maximal, Legendre.

A level-k FS segment interpolates monomial weights linearly in t; its joint
potential is convex in (t, v), which is the psh condition in this arena.
The quantized segment at level k is the FS_k image of the norm geodesic of
the two degree-k sup-norms.  Toric sup-norms are diagonal in the one
monomial basis, so that geodesic keeps the basis and interpolates the
weights: a level segment is the weight interpolation of the two sup-norms,
read as integers off the two profiles (``toric.MetricPair._weights``),
and no norm is built.  The route through ``DiagNorm`` and ``geodesic``
is kept as the test oracle.  The maximal segment is the pointwise max
over the divisibility chain 1, 2, 4, ..., K of levels, which is the
level-K segment alone: level k's pieces (a / k, (1 - t) q0(a / k)
+ t q1(a / k)) come back at level 2k as the pieces at 2a.  So its top
level is built and pruned, and no other.  The Legendre segment, the sup
over tau of the rooftops P(phi0, phi1 - tau) + t tau, has the profile
(1 - t) q0 + t q1 in closed form: at each point the sup is attained at
tau = q1 - q0.  That mix is affine on each cell of the integer overlay of
q0 and q1, so the slice at t is the max of one piece per overlay vertex,
pruned once (``plconvex._interpolated``); no rooftop is built.  The
round trip ``segment_from_dual`` feeds the unpruned Fourier-Motzkin rows
of every Kiselman dual inf over t of (phi_t - t tau) of a level segment,
each gradient checked in m Delta, into one sup over tau of the duals
shifted by t tau, pruned once: one conjugate.  Sampled metric paths are
checked for convexity in t, the psh condition, by ``detect_non_psh``.

The functions of a metric pair read one record of the pair
(``SegmentPair``, a ``toric.MetricPair``), filled on first use, so each
input metric is conjugated once: the weight table of each level (one
read of the sup-norm weights of both metrics, which the level segment
and, above P^1, the energy and d1 tables share), the overlay of the two
profiles (whose vertices give the critical shifts and the pieces of
every Legendre slice) and the endpoint comparisons read the same two
profiles.  The record also holds the Legendre slice at each t, the level
segment at each k and the diagnostics report at each chain of levels.  A
public function builds a throwaway record; ``geonorm run`` keeps one per
pair of metric names, so its tasks on one pair build each of these once.  A
metric built by pruning (a Legendre slice, a maximal segment) comes
with the profile pruning computed, and is not conjugated again.  An
``FSSegment`` holds its weights as integer numerators over one
denominator and evaluates on them; its ``Fraction`` weights are views.

Every segment time is read by ``field.read_time`` and every level and
kmax by ``field.read_count``, with ``ToricError``, before anything is
built; a weight table given as a mapping by ``graded._basis_weights``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from .field import (_rational, cleared, json_list, lowest_terms,
                    parse_fraction, read_count, read_time)
from .graded import (GradedError, SectionRing, _basis_weights,
                     _over_one_den, _ring_dims)
from .plconvex import (
    MaxAffine,
    _compare,
    _interpolated,
    _marginal_rows,
    _mix_witness,
    _overlay_taus,
    _pruned,
    marginal_min,
)
from .toric import (
    MetricPair,
    ToricError,
    ToricMetric,
    _energy,
    _fs_metric,
    _require_in_simplex,
    _require_pair,
    _require_same_bundle,
    fs_from_norm,
    reference,
    section_ring,
)


@dataclass(frozen=True)
class FSSegment:
    """Level-k segment with linearly interpolating monomial weights.

    The weights are held as integer numerators over one denominator, in
    lowest terms and aligned with ``ring.basis(k)``; ``weights0`` and
    ``weights1`` are their ``Fraction`` views.
    """

    ring: SectionRing
    k: int
    _den: int
    _b0: tuple
    _b1: tuple

    @classmethod
    def build(cls, ring: SectionRing, k: int, w0, w1) -> "FSSegment":
        read_count(k, "level k", ToricError)
        h0 = ring.h0(k)

        def align(w):
            if isinstance(w, dict):
                return _basis_weights(ring, k, w, ToricError)
            w = tuple(map(_rational, w))
            if len(w) != h0:
                raise ToricError(f"expected {h0} weights, got {len(w)}")
            return cleared(w)

        den, rows = _over_one_den([align(w0), align(w1)])
        return cls(ring, k, den, *rows)

    @classmethod
    def _from_ints(cls, ring: SectionRing, k: int, den: int, b0,
                   b1) -> "FSSegment":
        """The segment with weights b0 / den and b1 / den, den > 0 (tuples),
        put in lowest terms."""
        return cls(ring, k, *lowest_terms(den, b0, b1))

    @property
    def weights0(self) -> tuple:
        return tuple(Fraction(x, self._den) for x in self._b0)

    @property
    def weights1(self) -> tuple:
        return tuple(Fraction(x, self._den) for x in self._b1)

    def eval(self, t) -> ToricMetric:
        t = read_time(t, "segment time", ToricError)
        # (1 - t) w0 + t w1 with t = tn / td, over td den
        tn, td = t.numerator, t.denominator
        return _fs_metric(self.ring, self.k, td * self._den,
                          [(td - tn) * x + tn * y
                           for x, y in zip(self._b0, self._b1)])

    @property
    def start(self) -> ToricMetric:
        return self.eval(0)

    @property
    def end(self) -> ToricMetric:
        return self.eval(1)

    def joint_potential(self) -> MaxAffine:
        """The segment as one convex PL function of (t, v)."""
        # pieces ((w1 - w0) / k, a / k; w0 / k) as integer rows over k den
        den = self._den
        rows = [(y - x,) + tuple(c * den for c in a) + (x,)
                for a, x, y in zip(self.ring.basis(self.k), self._b0,
                                   self._b1)]
        return MaxAffine._from_ints(1 + self.ring.n, self.k * den, rows)

    def to_json(self):
        return {
            "ring": {"n": self.ring.n, "m": self.ring.m},
            "k": self.k,
            "weights0": [str(w) for w in self.weights0],
            "weights1": [str(w) for w in self.weights1],
        }

    @classmethod
    def from_json(cls, obj) -> "FSSegment":
        ring = section_ring(*_ring_dims(obj["ring"], "ring"))
        w0, w1 = ([parse_fraction(x) for x in json_list(obj[key], key)]
                  for key in ("weights0", "weights1"))
        k = read_count(obj["k"], "k", GradedError)
        return cls.build(ring, k, w0, w1)


def fs_segment(ring: SectionRing, k: int, w0, w1) -> FSSegment:
    return FSSegment.build(ring, k, w0, w1)


def quantized_level(phi0: ToricMetric, phi1: ToricMetric, k: int) -> FSSegment:
    """The level-k FS segment induced by the sup-norm geodesic."""
    return SegmentPair(phi0, phi1).quantized_level(k)


def quantized_segment(phi0: ToricMetric, phi1: ToricMetric, k: int, t) -> ToricMetric:
    return quantized_level(phi0, phi1, k).eval(t)


def quantization_levels(kmax: int):
    """The divisibility chain 1, 2, 4, ... capped at kmax."""
    levels = []
    k = 1
    while k <= kmax:
        levels.append(k)
        k *= 2
    return tuple(levels)


def maximal_segment(phi0: ToricMetric, phi1: ToricMetric, t, kmax: int = 8) -> ToricMetric:
    """Pointwise max of quantized segments along the level chain: the
    segment of its top level, which holds every lower level's pieces."""
    return SegmentPair(phi0, phi1).maximal(t, kmax)


def tau_critical_set(phi0: ToricMetric, phi1: ToricMetric):
    """Shift values where the rooftop P(phi0, phi1 - tau) changes shape.

    The inner sup over tau of t*tau + min(q0, q1 - tau) at a point y is
    attained at tau = q1(y) - q0(y); over the whole simplex the relevant
    values are those at the vertices of the profile overlay, read there
    on integers.
    """
    return SegmentPair(phi0, phi1).critical_taus()


def legendre_segment(phi0: ToricMetric, phi1: ToricMetric, t) -> ToricMetric:
    """sup over tau of (P(phi0, phi1 - tau) + t*tau), exactly.

    Its conjugate profile is (1-t) q0 + t q1, so the segment is d1-geodesic
    and has affine energy by construction.  The slice is built from that
    profile on the overlay of q0 and q1: one piece per overlay vertex,
    pruned once.  ``ToricError`` when the overlay has no vertex, so that
    no tau is critical.
    """
    return SegmentPair(phi0, phi1).legendre(t)


def kiselman_dual(seg: FSSegment, tau) -> ToricMetric:
    """inf over t of (phi_t - t*tau), by pruned Fourier-Motzkin elimination.

    The minimum principle says the result is again psh; here that means
    the marginal's gradients land in m*Delta, which the ToricMetric
    constructor checks exactly.
    """
    pot = marginal_min(seg.joint_potential(), tau)
    return ToricMetric(seg.ring.n, seg.ring.m, pot, "envelope")


def duality_tau_set(seg: FSSegment):
    """t-slopes of the joint potential: where the Legendre sup is attained."""
    kden = seg.k * seg._den
    taus = {Fraction(y - x, kden) for x, y in zip(seg._b0, seg._b1)}
    return tuple(sorted(taus))


def segment_from_dual(seg: FSSegment, t) -> ToricMetric:
    """Legendre recovery: sup over tau in ``duality_tau_set`` of
    (kiselman_dual + t*tau), t read first.  The duals' unpruned
    Fourier-Motzkin rows (``plconvex._marginal_rows`` of the one joint
    potential), each gradient checked in m*Delta (the minimum principle),
    are shifted onto one denominator and pruned once."""
    t = read_time(t, "segment time", ToricError)  # before the duals are built
    n, m, joint = seg.ring.n, seg.ring.m, seg.joint_potential()
    duals = []
    for tau in duality_tau_set(seg):
        den, rows = _marginal_rows(joint, tau)
        _require_in_simplex(m, den, rows)
        duals.append((den, rows, t * tau))
    # one denominator for every dual and every shift
    top = lcm(*(x for den, _, c in duals for x in (den, c.denominator)))
    rows = []
    for den, dual, c in duals:
        s, off = top // den, c.numerator * (top // c.denominator)
        rows += [tuple(x * s for x in r[:-1]) + (r[-1] * s + off,)
                 for r in dual]
    pot, _ = _pruned(MaxAffine._from_ints(n, top, rows))
    return ToricMetric(n, m, pot, "limit")


def planted_non_psh_path():
    """Sampled level-1 metric path that bulges above the chord at t = 1/2.

    Returns ``(ring, k, samples)``, the input of ``detect_non_psh``.  The
    endpoint potentials are max(0, v) and max(0, v - 2); the midpoint
    weight at the constant monomial is pushed up by 1/2, breaking convexity
    of t -> phi_t at the sampled triple (0, 1/2, 1).
    """
    ring = section_ring(1, 1)
    samples = (
        (Fraction(0), {(0,): Fraction(0), (1,): Fraction(0)}),
        (Fraction(1, 2), {(0,): Fraction(1, 2), (1,): Fraction(-1)}),
        (Fraction(1), {(0,): Fraction(0), (1,): Fraction(-2)}),
    )
    return ring, 1, samples


def detect_non_psh(ring: SectionRing, k: int, samples):
    """First consecutive sampled triple violating convexity in t, or None.

    ``samples`` are ``(t, weights)`` pairs of level-k FS metrics, weights
    keyed by the degree-k lattice points.  Returns ``{"t0", "t1", "t2",
    "point", "lhs", "rhs"}`` where lhs is the middle potential at the
    witness point and rhs the chord value.  Sampled values convex on
    consecutive triples are convex, so only those are mixed.  Two samples
    at one t raise ``ToricError``: the samples are then no function of t.
    """
    read_count(k, "level k", ToricError)
    metrics = [(t, fs_from_norm(ring, k, w)) for t, w in samples]
    metrics.sort(key=lambda tv: tv[0])
    for (t, _), (u, _) in zip(metrics, metrics[1:]):
        if t == u:
            raise ToricError(f"path samples repeat t = {t}")
    # each chord end is conjugated once, when a triple first needs it
    profile = functools.cache(lambda i: metrics[i][1].profile())
    for i in range(len(metrics) - 2):
        (t0, p0), (t1, p1), (t2, p2) = metrics[i:i + 3]
        lam = (t2 - t1) / (t2 - t0)
        point = _mix_witness(p1.potential, lam, profile(i), profile(i + 2))
        if point is not None:
            rhs = lam * p0.potential(point) + (1 - lam) * p2.potential(point)
            return {
                "t0": str(t0), "t1": str(t1), "t2": str(t2),
                "point": [str(c) for c in point],
                "lhs": str(p1.potential(point)),
                "rhs": str(rhs),
            }
    return None


_TS = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)


def diagnostics(phi0: ToricMetric, phi1: ToricMetric, kmax: int = 8, ts=_TS):
    """Exact checks behind the maximal-segment theorems, as a report dict.

    Covers per-level d1 geodesicity of the sup-norm geodesics, affineness
    of the energy along the Legendre segment (against the reference
    metric, E(phi_t) - E(ref) with the reference integrated once), and
    endpoint recovery gaps of the quantized maximal segment.  Each time
    is checked to lie in [0, 1] before anything is built.
    """
    return SegmentPair(phi0, phi1).diagnostics(kmax, ts)


class SegmentPair(MetricPair):
    """A ``toric.MetricPair`` with the segments between its two metrics.

    Besides the profiles, energies, weight tables, overlay and rooftop of
    the pair, the record holds, each filled on first use: the level-k
    segment at each k, built from the pair's weight table at k (a maximal
    segment reads the top level of its chain, the diagnostics every
    level), the Legendre slice at each t with its profile, interpolated
    on the pair's overlay (the one ``d1`` and ``d_infinity`` read) and
    pruned once, and the diagnostics report at each chain of levels and
    set of times.  The public functions of this module build a throwaway
    record; ``geonorm run`` and ``segments verify`` keep one per ordered
    pair of metric names, so a report serves the ``diagnostics`` task and
    ``verify theoremB`` alike.  A metric built by pruning (a slice, a
    maximal segment) comes with the profile pruning computed, so no
    derived metric is conjugated again.
    """

    __slots__ = ("_levels", "_slices", "_reports")

    def __init__(self, phi0: ToricMetric, phi1: ToricMetric):
        super().__init__(phi0, phi1)
        self._levels, self._slices, self._reports = {}, {}, {}

    def _level(self, k: int) -> FSSegment:
        """The level-k segment, built once from the weight table at k."""
        if k not in self._levels:
            ring = section_ring(self.phi0.n, self.phi0.m)
            self._levels[k] = FSSegment._from_ints(ring, k, *self._weights(k))
        return self._levels[k]

    def _slice(self, t):
        """``(phi_t, q)``: the Legendre slice at t in [0, 1], a checked
        Fraction, and its profile, built once from the overlay's vertices
        with one prune."""
        if t not in self._slices:
            ov = self._overlay()
            if not ov.verts:
                raise ToricError(
                    "no critical shift tau: the gradient hulls of the two "
                    "metrics do not overlap in a full-dimensional region")
            pot, q = _pruned(_interpolated(ov, t))
            self._slices[t] = (
                ToricMetric(self.phi0.n, self.phi0.m, pot, "limit"), q)
        return self._slices[t]

    def quantized_level(self, k: int) -> FSSegment:
        """``quantized_level(phi0, phi1, k)`` of the pair."""
        read_count(k, "level k", ToricError)
        _require_same_bundle(self.phi0, self.phi1)
        self._full_profiles()
        return self._level(k)

    def maximal(self, t, kmax: int = 8) -> ToricMetric:
        """``maximal_segment(phi0, phi1, t, kmax)`` of the pair."""
        read_count(kmax, "kmax", ToricError)
        levels = quantization_levels(kmax)
        _require_same_bundle(self.phi0, self.phi1)
        self._full_profiles()
        t = read_time(t, "segment time", ToricError)  # before any level
        return self._maximal(levels, t)[0]

    def _maximal(self, levels, t):
        """``(phi, q)``: the max at time t of the level segments of a chain,
        the top level's segment pruned, and its profile."""
        pot, q = _pruned(self._level(levels[-1]).eval(t).potential)
        return ToricMetric(self.phi0.n, self.phi0.m, pot, "limit"), q

    def critical_taus(self):
        """``tau_critical_set(phi0, phi1)`` of the pair."""
        _require_same_bundle(self.phi0, self.phi1)
        return _overlay_taus(self._overlay())

    def legendre(self, t) -> ToricMetric:
        """``legendre_segment(phi0, phi1, t)`` of the pair."""
        _require_same_bundle(self.phi0, self.phi1)
        t = read_time(t, "segment time", ToricError)  # before the overlay
        return self._slice(t)[0]

    def diagnostics(self, kmax: int = 8, ts=_TS):
        """``diagnostics(phi0, phi1, kmax, ts)`` of the pair.

        The report depends on kmax only through its chain of levels, so it
        is built once per chain and times, and the same dict is returned.
        """
        # before anything is built
        ts = tuple(read_time(t, "segment time", ToricError) for t in ts)
        read_count(kmax, "kmax", ToricError)
        key = (quantization_levels(kmax), ts)
        if key not in self._reports:
            self._reports[key] = self._report(*key)
        return self._reports[key]

    def _report(self, levels, ts):
        """The ``diagnostics`` report for a chain of levels and the times
        ts."""
        phi0, phi1 = self.phi0, self.phi1
        _require_same_bundle(phi0, phi1)
        q0, q1 = self._full_profiles()
        self._slice(Fraction(0))  # no critical tau fails before any level
        ref = reference(phi0.n, phi0.m)
        e_ref = _energy(ref, ref.profile())
        report = {"levels": list(levels), "ts": [str(t) for t in ts]}

        # the times as S / T, so that the weights at s are integers over T den
        T, S = cleared(ts)
        per_level = []
        for k in levels:
            seg = self._level(k)
            # d1 of the two sup-norms: the mean |w0 - w1|, here over den
            d_sum = sum(abs(x - y) for x, y in zip(seg._b0, seg._b1))
            d_ends = Fraction(d_sum, len(seg._b0) * seg._den)
            ws = [[T * x + s * (y - x) for x, y in zip(seg._b0, seg._b1)]
                  for s in S]
            # d1(w_s, w_s') == (s' - s) d1(w0, w1), both sides times T den h0(k)
            ok = all(
                sum(abs(x - y) for x, y in zip(ws[i], ws[j]))
                == (S[j] - S[i]) * d_sum
                for i, j in itertools.combinations(range(len(S)), 2))
            per_level.append({"k": k, "d1_endpoints": str(d_ends),
                              "geodesic_exact": ok})
        report["d1_geodesic_per_level"] = per_level

        energy_at = {}
        for t in dict.fromkeys((Fraction(0), Fraction(1)) + ts):
            got, q = self._slice(t)
            _require_pair(got, ref)
            energy_at[t] = _energy(got, q) - e_ref
        e0, e1 = energy_at[0], energy_at[1]
        resid = {t: energy_at[t] - ((1 - t) * e0 + t * e1) for t in ts}
        report["energy_along_segment"] = [
            {"t": str(t), "energy": str(energy_at[t]), "residual": str(resid[t])}
            for t in ts]
        report["energy_affine_exact"] = not any(resid.values())

        gaps = {}
        for label, t, phi, q in (("start", 0, phi0, q0), ("end", 1, phi1, q1)):
            got, qg = self._maximal(levels, t)
            rel = _compare(got.potential, phi.potential, qg, q).relation
            gaps[label] = {"recovered": rel == "eq", "relation": rel}
        report["endpoint_recovery"] = gaps
        return report
