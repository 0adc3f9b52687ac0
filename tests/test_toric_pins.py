"""Pinned outputs of the toric kernel on seeded metric pairs.

Each digest is the sha256 of ``json.dumps(..., sort_keys=True)`` of one
kind of output over the same seeded cases: pairs of level-1 to level-3
Fubini-Study metrics on O(m) over P^1 and P^2, m in {1, 2}, three pairs
per arena, plus degenerate inputs (gradients on a line, envelopes whose
domain is one point on the line, a segment or a point in the plane).
Rooftop envelopes, energies, d1 and d_infinity limits and Legendre
slices are pinned on five seeded pairs of level-2 metrics on O(1) over
P^3 too.
Profiles are pinned through their public views, so the order of
``vertices``, ``cells`` and ``planes`` is pinned too.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import oracles
from geonorm import plconvex
from geonorm.graded import lattice_points
from geonorm.plconvex import (
    EnvelopeError,
    MaxAffine,
    conjugate,
    envelope_constrained,
    integrate_abs_difference,
    integrate_profile,
)
from geonorm.segments import (
    SegmentPair,
    diagnostics,
    duality_tau_set,
    fs_segment,
    kiselman_dual,
    legendre_segment,
    maximal_segment,
    quantization_levels,
    quantized_level,
    segment_from_dual,
)
from geonorm.toric import (
    d1_metric,
    d_infinity_limit,
    energy,
    envelope_P,
    fs_from_norm,
    section_ring,
)

F = Fraction
ARENAS = [(n, m, level) for n in (1, 2) for m in (1, 2) for level in (1, 2, 3)]


def _weights(rng, n, d):
    return {a: F(rng.randint(-8, 8), rng.choice((1, 2, 3)))
            for a in lattice_points(n, d)}


def _cases():
    """(n, m, level, w0, w1, t, kmax) for three seeded pairs per arena."""
    out = []
    for n, m, level in ARENAS:
        for i in range(3):
            rng = random.Random(f"toric-pins:{n}:{m}:{level}:{i}")
            w0, w1 = _weights(rng, n, level * m), _weights(rng, n, level * m)
            t = rng.choice((F(0), F(1, 4), F(1, 3), F(1, 2), F(1)))
            kmax = rng.choice((1, 2, 4) if n == 2 else (1, 4, 8))
            out.append((n, m, level, w0, w1, t, kmax))
    return out


CASES = _cases()

# five seeded pairs of level-2 metrics on O(1) over P^3, for envelopes
P3_CASES = [(3, 1, 2, *(_weights(rng, 3, 2) for _ in range(2)))
            for rng in (random.Random(f"toric-pins:p3:{i}") for i in range(5))]


def _pair(case):
    n, m, level, w0, w1 = case[:5]
    ring = section_ring(n, m)
    return ring, fs_from_norm(ring, level, w0), fs_from_norm(ring, level, w1)


def _pts(ps):
    return [[str(x) for x in p] for p in ps]


def _profile(q):
    return {
        "n": q.n,
        "vertices": [[[str(x) for x in p], str(v)] for p, v in q.vertices],
        "cells": [[_pts(c.vertices), [str(x) for x in c.grad], str(c.offset)]
                  for c in q.cells],
        "planes": [[[str(x) for x in w], str(b)] for w, b in q.planes],
    }


def _rows(res):
    return [[[k, str(v)] for k, v in res.per_k], str(res.limit)]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _rooftop_min_profile(q0, q1, n, m):
    """The rooftop's profile, from the integer clipper of the oracles."""
    P = plconvex.moment_simplex(n, m)
    hreps = list(P.hrep)
    for q in (q0, q1):
        hreps.extend(plconvex.domain_hrep(q))
    return oracles.min_profile(list(q0.planes + q1.planes), P.vertices,
                               hreps, n)


def _degenerate_inputs():
    """(functions, n, m, domain) with a degenerate conjugate or rooftop.

    ``domain`` is a segment or point in the plane for ``min_profile`` with
    no cutting halfplanes, the only way to reach a profile on a degenerate
    2-D domain: the rooftop of two functions whose gradient hulls meet in
    a segment or a point has an empty full-dimensional domain and raises.
    """
    rng = random.Random("toric-pins:degenerate")

    def offsets(grads):
        return [(g, F(rng.randint(-6, 6), rng.choice((1, 2, 3))))
                for g in grads]

    segment = ((F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1)))
    out = []
    for _ in range(3):
        # gradient hulls [0, 1] and [1, 2]: the rooftop lives on {1}
        out.append(([MaxAffine(1, offsets([(0,), (F(1, 2),), (1,)])),
                     MaxAffine(1, offsets([(1,), (2,)]))], 1, 2, None))
        # triangles sharing an edge
        out.append(([MaxAffine(2, offsets([(0, 0), (1, 0), (0, 1)])),
                     MaxAffine(2, offsets([(1, 0), (0, 1), (1, 1),
                                           (F(1, 2), F(1, 2))]))], 2, 2,
                    segment))
        # triangles sharing a vertex
        out.append(([MaxAffine(2, offsets([(0, 0), (1, 0), (0, 1)])),
                     MaxAffine(2, offsets([(1, 0), (2, 0), (1, 1)]))], 2, 2,
                    segment[:1]))
        # gradients on one line in the plane (a rank-1 conjugate)
        out.append(([MaxAffine(2, offsets([(0, 0), (F(1, 2), F(1, 4)),
                                           (1, F(1, 2)), (2, 1)])),
                     MaxAffine(2, offsets([(0, 1), (1, 1), (2, 1)]))], 2, 2,
                    segment[::2]))
    return out


DEGENERATE = _degenerate_inputs()

# recorded from the Fraction kernels that integer rows over one
# denominator replaced: every public value stays byte for byte
PINNED = {
    "conjugate": (
        "ea5df7be4f14c0c862cfa2a4a1e641d0d8a39d8deaa29e307474ec28803a9ad0"),
    "envelope_P": (
        "ed600b1ff5b923b364a7e962005b752565cc1ba1bd9c33ccbe1ae25f7addd025"),
    "kiselman_dual": (
        "fbe13862171f56f37b3350887f14393ee733df3f84d57edebfdaaa7719c55722"),
    "maximal_segment": (
        "1d7a2de32ed3d5c5c3f68d84c87d11d9a1f23b1c839c5c9a5dff0dd404397400"),
    "quantized_level": (
        "d57cfa67e621e2f64f33fe4be762084a7ceec777db5dafb03bca24985e5428fd"),
    "diagnostics": (
        "8a6191fd317b82bd35c1d0a0f2b0b9ae3529bfbb69ae38baff7e2c7dd90445f1"),
    "legendre_segment": (
        "34a841c853f03969e92acf3df63c762193079ff015959d8d691940f9f976ac1d"),
    "segment_from_dual": (
        "c3d8f9130e1cbd0838a8bcd14324c7592b68868aa2acd0b4566489e8387703e7"),
    "energy": (
        "a809780d6fc6d51f5f549aca269fbec6d043a05f47d62d3d762ee824d5e4eb5a"),
    "d1_metric": (
        "e9be9185b4ee8b0223671b526195053e4270f701d0f43e06983f6903f94a7820"),
    # checked against the brute-force vertex oracle below
    "envelope_P_p3": (
        "8d8cd2bfc7cb65c13f306182a418eaf901f46459524c017f29c7f3b2df2c8386"),
    # the profile integrals are checked against sympy below, and d1 checks
    # its overlay integral against E(phi0) + E(phi1) - 2 E(P) as it runs
    "energy_p3": (
        "3a51f8571824bf7010ef271b163cb3af1c267bd93b23f20572aa142ee0a2c60b"),
    "d1_metric_p3": (
        "4c30ec25a57c27ec136157b361c02955537d66652229568dd10570b1868855dd"),
    "d_infinity_p3": (
        "44d589ca076a5895eca54a9ba4040cbf6b4a95ac8032239ee4575c35d024dbf4"),
    "legendre_segment_p3": (
        "6b17552dde33a633a34bc86e9503bdc4d74a863805680bed5b8356056746b066"),
    "degenerate": (
        "767770e43354e379a7c40c7558b0e9e9f952495d94241a5990f08965a8e1c2e7"),
}


def _p3_outputs(kind):
    out = []
    for case in P3_CASES:
        _, phi0, phi1 = _pair(case)
        if kind == "envelope_P_p3":
            out.append(envelope_P(phi0, phi1).to_json())
        elif kind == "energy_p3":
            out.append(_rows(energy(phi0, phi1, 2)))
        elif kind == "d1_metric_p3":
            out.append(_rows(d1_metric(phi0, phi1, 2)))
        elif kind == "d_infinity_p3":
            out.append(str(d_infinity_limit(phi0, phi1)))
        elif kind == "legendre_segment_p3":
            out.append(legendre_segment(phi0, phi1, F(1, 3)).to_json())
    return out


def _outputs(kind):
    if kind.endswith("_p3"):
        return _p3_outputs(kind)
    out = []
    for case in CASES:
        n, m, level, w0, w1, t, kmax = case
        ring, phi0, phi1 = _pair(case)
        if kind == "conjugate":
            for phi in (phi0, phi1):
                q = conjugate(phi.potential)
                out.append([_profile(q), q.to_max_affine().to_json()])
        elif kind == "envelope_P":
            out.append(envelope_P(phi0, phi1).to_json())
            out.append(_profile(_rooftop_min_profile(
                conjugate(phi0.potential), conjugate(phi1.potential), n, m)))
        elif kind == "kiselman_dual":
            seg = fs_segment(ring, level, w0, w1)
            taus = duality_tau_set(seg)
            for tau in dict.fromkeys((taus[0], taus[len(taus) // 2],
                                      taus[-1])):
                out.append(kiselman_dual(seg, tau).to_json())
        elif kind == "maximal_segment":
            out.append(maximal_segment(phi0, phi1, t, kmax).to_json())
        elif kind == "quantized_level":
            for k in quantization_levels(kmax):
                out.append(quantized_level(phi0, phi1, k).to_json())
        elif kind == "diagnostics":
            out.append(diagnostics(phi0, phi1, kmax))
        elif kind == "legendre_segment":
            out.append(legendre_segment(phi0, phi1, t).to_json())
        elif kind == "segment_from_dual":
            seg = fs_segment(ring, level, w0, w1)
            out.append(segment_from_dual(seg, t).to_json())
        elif kind == "energy":
            out.append(_rows(energy(phi0, phi1, kmax)))
        elif kind == "d1_metric":
            out.append(_rows(d1_metric(phi0, phi1, kmax)))
    return out


def test_p3_envelopes_match_vertex_oracle() -> None:
    # full support: the rooftop's region is m Delta itself
    for case in P3_CASES:
        _, phi0, phi1 = _pair(case)
        q0, q1 = conjugate(phi0.potential), conjugate(phi1.potential)
        vertices = oracles.hypograph_vertices(
            q0.planes + q1.planes, plconvex.moment_simplex(3, 1).hrep)
        assert envelope_P(phi0, phi1).potential.pieces == MaxAffine(
            3, vertices).pieces


def test_p3_profile_integrals_match_sympy() -> None:
    # each cell's integral from sympy's polytope_integrate, on the facets
    # of a brute-force hull
    for case in P3_CASES:
        _, phi0, phi1 = _pair(case)
        for q in (phi0.profile(), phi1.profile(),
                  envelope_P(phi0, phi1).profile()):
            assert integrate_profile(q) == sum(
                oracles.cell_integral_sympy(c.vertices, c.grad, c.offset)
                for c in q.cells)


def test_p3_overlays_agree_with_the_profiles() -> None:
    # the overlay's integral of |q0 - q1| is int q0 + int q1 - 2 int P,
    # the Legendre slice at t has the profile (1 - t) q0 + t q1, and the
    # sup of |q0 - q1| is reached at an overlay vertex; the profile that
    # pruning the slice computed is the conjugate of the slice and the
    # rooftop route's, up to the order of cells and of their vertices
    t = F(1, 3)
    for case in P3_CASES:
        _, phi0, phi1 = _pair(case)
        q0, q1 = phi0.profile(), phi1.profile()
        roof = envelope_P(phi0, phi1).profile()
        assert integrate_abs_difference(q0, q1) == (
            integrate_profile(q0) + integrate_profile(q1)
            - 2 * integrate_profile(roof))
        ql = legendre_segment(phi0, phi1, t).profile()
        assert oracles.profile_key(SegmentPair(phi0, phi1)._slice(t)[1]) == (
            oracles.profile_key(ql)) == oracles.profile_key(
                oracles.legendre_via_rooftops(phi0, phi1, t)[1])
        points = plconvex.overlay_vertices(q0, q1) + tuple(
            tuple(F(x, 2) for x in a) for a in lattice_points(3, 2))
        gaps = [abs(q0.value(y) - q1.value(y)) for y in points]
        assert d_infinity_limit(phi0, phi1) == max(gaps)
        for y in points:
            assert ql.value(y) == (1 - t) * q0.value(y) + t * q1.value(y)


def _degenerate_outputs():
    out = []
    for funcs, n, m, domain in DEGENERATE:
        qs = [conjugate(f) for f in funcs]
        out.append([_profile(q) for q in qs])
        out.append([q.to_max_affine().to_json() for q in qs])
        try:
            out.append(_profile(_rooftop_min_profile(qs[0], qs[1], n, m)))
            out.append(envelope_constrained(
                funcs, plconvex.moment_simplex(n, m)).to_json())
        except EnvelopeError as exc:
            out.append(f"EnvelopeError: {exc}")
        if domain is not None:
            out.append(_profile(oracles.min_profile(
                list(qs[0].planes + qs[1].planes), domain, [], n)))
    return out


@pytest.mark.parametrize("kind", [k for k in PINNED if k != "degenerate"])
def test_toric_outputs_pinned(kind) -> None:
    assert _digest(_outputs(kind)) == PINNED[kind]


def test_degenerate_outputs_pinned() -> None:
    # the cases reach the one-point interval, the segment and point domains
    # of the plane, and the conjugate of gradients on a line
    shapes = []
    for funcs, n, m, domain in DEGENERATE:
        q0, q1 = (conjugate(f) for f in funcs)
        if domain is None:
            roof = _rooftop_min_profile(q0, q1, n, m)
            shapes.append(("interval", len(roof.vertices), len(roof.cells)))
        else:
            with pytest.raises(EnvelopeError, match="empty domain"):
                _rooftop_min_profile(q0, q1, n, m)
            got = oracles.min_profile(list(q0.planes + q1.planes), domain,
                                      [], n)
            shapes.append(("plane", len(domain), len(got.cells)))
        shapes.append(("line", len(q1.cells)))
    assert ("interval", 1, 0) in shapes
    assert {("plane", 3, 0), ("plane", 2, 0), ("plane", 1, 0),
            ("line", 0)} <= set(shapes)
    assert _digest(_degenerate_outputs()) == PINNED["degenerate"]
