"""Exact symmetries of the Legendre and maximal slices.

S_{n+1} permutes the barycentric coordinates (m - sum(y), y_1, ..., y_n)
of m Delta.  Each permutation is a unimodular affine map of Z^n onto
itself that keeps m Delta, and it acts on a metric by moving the gradient
of each piece and keeping its constant.  Both slices commute with that
action, and a Legendre slice shifts with its ends:
legendre(phi0 + c0, phi1 + c1, t) = legendre(phi0, phi1, t)
+ (1 - t) c0 + t c1.
"""

import itertools
import random
from fractions import Fraction

import pytest

from geonorm.plconvex import MaxAffine
from geonorm.segments import legendre_segment, maximal_segment
from geonorm.toric import ToricMetric, fs_from_norm, section_ring

F = Fraction

# (n, m, kmax) of the seeded level-2 pairs, three per arena
_ARENAS = ((1, 1, 8), (1, 2, 8), (2, 1, 4), (3, 1, 4))
_TS = (F(0), F(1, 4), F(1, 3), F(2, 3), F(1))


def _pair(n, m, i):
    rng = random.Random(f"symmetry:{n}:{m}:{i}")
    ring = section_ring(n, m)
    basis = ring.basis(2)
    return rng, tuple(
        fs_from_norm(ring, 2, {a: F(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                               for a in basis})
        for _ in range(2))


def _image(perm, phi):
    """phi under the permutation perm of the barycentric coordinates."""
    m = phi.m

    def move(g):
        bary = (m - sum(g),) + tuple(g)
        return tuple(bary[i] for i in perm)[1:]

    pieces = [(move(g), c) for g, c in phi.potential.pieces]
    return ToricMetric(phi.n, m, MaxAffine(phi.n, pieces), phi.provenance)


@pytest.mark.parametrize("n, m, kmax", _ARENAS)
def test_slices_commute_with_the_simplex_permutations(n, m, kmax) -> None:
    for i in range(3):
        rng, (phi0, phi1) = _pair(n, m, i)
        t = rng.choice(_TS)
        legendre = legendre_segment(phi0, phi1, t)
        maximal = maximal_segment(phi0, phi1, t, kmax)
        for perm in itertools.permutations(range(n + 1)):
            if perm == tuple(range(n + 1)):
                continue
            img0, img1 = _image(perm, phi0), _image(perm, phi1)
            assert legendre_segment(img0, img1, t).to_json() == (
                _image(perm, legendre).to_json())
            assert maximal_segment(img0, img1, t, kmax).to_json() == (
                _image(perm, maximal).to_json())


@pytest.mark.parametrize("n, m", [arena[:2] for arena in _ARENAS])
def test_legendre_slices_shift_with_their_ends(n, m) -> None:
    for i in range(3):
        rng, (phi0, phi1) = _pair(n, m, i)
        c0 = F(rng.randint(-9, 9), rng.choice((1, 2, 5)))
        c1 = c0 + F(rng.randint(1, 9), rng.choice((1, 3, 4)))
        for t in _TS:
            got = legendre_segment(phi0.shifted(c0), phi1.shifted(c1), t)
            want = legendre_segment(phi0, phi1, t).shifted(
                (1 - t) * c0 + t * c1)
            assert got.to_json() == want.to_json()
