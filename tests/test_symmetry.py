"""Exact symmetries of the toric operations on a metric pair.

S_{n+1} permutes the barycentric coordinates (m - sum(y), y_1, ..., y_n)
of m Delta.  Each permutation is a unimodular affine map of Z^n onto
itself that keeps m Delta, and it acts on a metric by moving the gradient
of each piece and keeping its constant.  Both slices commute with that
action, and the energy and d1 tables, their limits, the d_infinity
limit and the relation of a comparison are invariant under it.  A
Legendre slice shifts with its ends:
legendre(phi0 + c0, phi1 + c1, t) = legendre(phi0, phi1, t)
+ (1 - t) c0 + t c1; the energy shifts with its first metric, d1 is
blind to a common shift, and a metric lies at d1 and d_infinity distance
|c| from its shift by c, at every level.

Below the toric layer, ``conjugate`` commutes with every unimodular
affine map T(y) = A y + b of the gradients: the function whose pieces
(g, c) move to (T g, c) has the profile q o T^-1, and the same integral.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from geonorm.plconvex import (
    ConcaveProfile,
    MaxAffine,
    conjugate,
    integrate_profile,
)
from geonorm.segments import legendre_segment, maximal_segment
from geonorm.toric import (
    MetricPair,
    ToricMetric,
    compare_metrics,
    fs_from_norm,
    section_ring,
)

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


def _perms(n):
    """Every non-identity permutation of n + 1 coordinates."""
    return [p for p in itertools.permutations(range(n + 1))
            if p != tuple(range(n + 1))]


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
        for perm in _perms(n):
            img0, img1 = _image(perm, phi0), _image(perm, phi1)
            assert legendre_segment(img0, img1, t).to_json() == (
                _image(perm, legendre).to_json())
            assert maximal_segment(img0, img1, t, kmax).to_json() == (
                _image(perm, maximal).to_json())


def _tables(phi0, phi1, kmax=3):
    """The energy and d1 tables to kmax with their limits, and the
    d_infinity limit, of one pair record."""
    pair = MetricPair(phi0, phi1)
    return pair.energy(kmax), pair.d1(kmax), pair.d_infinity()


@pytest.mark.parametrize("n, m", [arena[:2] for arena in _ARENAS])
def test_tables_are_invariant_under_the_simplex_permutations(n, m) -> None:
    # on P^1 the one permutation is the reflection a -> k m - a, which
    # swaps the open and the closed end of each half-open cell that the
    # level sums count; those run to kmax 60
    kmax = 60 if n == 1 else 3
    for i in range(3):
        _, (phi0, phi1) = _pair(n, m, i)
        want = _tables(phi0, phi1, kmax)
        for perm in _perms(n):
            assert _tables(_image(perm, phi0), _image(perm, phi1),
                           kmax) == want


def _pulled(perm, m, v):
    """A^T v, for the linear part A of the map g -> A g + b by which perm
    moves gradients: the image of a metric at v is the metric at A^T v
    plus <b, v>, so two images differ at v as the metrics at A^T v."""
    n = len(v)

    def move(g):
        bary = (m - sum(g),) + tuple(g)
        return tuple(bary[i] for i in perm)[1:]

    origin = move((0,) * n)
    return tuple(sum((x - o) * c for x, o, c in zip(
        move(tuple(int(i == j) for i in range(n))), origin, v))
        for j in range(n))


@pytest.mark.parametrize("n, m", [arena[:2] for arena in _ARENAS])
def test_comparisons_are_invariant_under_the_simplex_permutations(
        n, m) -> None:
    # the relation is kept, and each witness of the images, pulled back,
    # is a witness of the metrics; the witness itself is no equivariant
    # choice, so only its validity is checked
    for i in range(3):
        _, (phi0, phi1) = _pair(n, m, i)
        want = compare_metrics(phi0, phi1)
        for perm in _perms(n):
            got = compare_metrics(_image(perm, phi0), _image(perm, phi1))
            assert got.relation == want.relation
            for w, sign in ((got.witness_first_gt, 1),
                            (got.witness_second_gt, -1)):
                if w is None:
                    continue
                x = _pulled(perm, m, w)
                assert sign * (phi0.potential(x) - phi1.potential(x)) > 0


# a shift over 3, so that a profile and its shift may have different
# denominators
_C = F(1, 3)


@pytest.mark.parametrize("n, m", [arena[:2] for arena in _ARENAS])
def test_tables_shift_exactly(n, m) -> None:
    for i in range(3):
        _, (phi0, phi1) = _pair(n, m, i)
        energy, d1, _ = _tables(phi0, phi1)
        up = phi0.shifted(_C)
        got = MetricPair(up, phi1).energy(3)
        assert got.per_k == tuple((k, e + _C) for k, e in energy.per_k)
        assert got.limit == energy.limit + _C
        assert MetricPair(up, phi1.shifted(_C)).d1(3) == d1
        _, d1, d_inf = _tables(phi0, up)
        assert d1.per_k == tuple((k, _C) for k in (1, 2, 3))
        assert (d1.limit, d_inf) == (_C, _C)


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


# -- GL_n(Z) maps at the kernel level -----------------------------------------


def _affine(A, b, y):
    return tuple(sum(a * x for a, x in zip(row, y)) + c
                 for row, c in zip(A, b))


def _inverse(A):
    """The inverse of a unimodular integer matrix of size 1 or 2."""
    if len(A) == 1:
        return A
    (a, b), (c, d) = A
    det = a * d - b * c
    return ((d * det, -b * det), (-c * det, a * det))


def _moved_profile(q, A, b):
    """q o T^-1 for T(y) = A y + b, from q's Fraction views: vertices and
    cells move by T, and a plane (w, beta) becomes (A^-T w, beta -
    <A^-T w, b>); put on integers over their common denominator."""
    inv = _inverse(A)
    planes = []
    for w, beta in q.planes:
        u = tuple(sum(inv[i][j] * w[i] for i in range(q.n))
                  for j in range(q.n))
        planes.append(u + (beta - sum(x * y for x, y in zip(u, b)),))
    verts = [_affine(A, b, y) + (z,) for y, z in q.vertices]
    cells = [tuple(_affine(A, b, p) for p in c.vertices) for c in q.cells]
    den = lcm(*(x.denominator for r in verts + planes for x in r))

    def ints(r):
        return tuple(int(x * den) for x in r)

    return ConcaveProfile(q.n, den, list(map(ints, verts)),
                          [tuple(map(ints, c)) for c in cells],
                          list(map(ints, planes)))


def _check_equivariant(n, pieces, A, b):
    q = conjugate(MaxAffine(n, pieces))
    got = conjugate(MaxAffine(n, [(_affine(A, b, g), c) for g, c in pieces]))
    want = _moved_profile(q, A, b)
    if q._cells:
        assert oracles.profile_key(got) == oracles.profile_key(want)
        assert integrate_profile(got) == integrate_profile(q)
    else:
        # the planes of a lower-dimensional domain are one choice of many
        # (and with them the denominator): only the vertices are the data
        assert sorted(got.vertices) == sorted(want.vertices)


_SMALL = st.integers(-4, 4)
_SHIFT = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3)))


@st.composite
def _pieces(draw, n):
    """Pieces on R^n (n = 1, 2) with small gradients over 1, 2 or 3, on a
    grid or, on R^2, on one line, and offsets free or on one affine
    function less 0 or 1, so collinear runs and ties come often."""
    den = draw(st.sampled_from((1, 2, 3)))
    if n == 2 and draw(st.booleans()):
        step = draw(st.tuples(_SMALL, _SMALL).filter(any))
        grads = {(j * step[0], j * step[1])
                 for j in draw(st.lists(_SMALL, min_size=1, max_size=5))}
    else:
        grads = set(draw(st.lists(st.tuples(*[_SMALL] * n), min_size=1,
                                  max_size=8)))
    w, w0 = draw(st.tuples(*[_SMALL] * n)), draw(_SMALL)
    tied = draw(st.booleans())
    pieces = []
    for g in sorted(grads):
        g = tuple(F(x, den) for x in g)
        c = (sum(x * y for x, y in zip(w, g)) + w0
             - draw(st.sampled_from((0, 0, 1))) if tied
             else F(draw(_SMALL), den))
        pieces.append((g, c))
    return pieces


@settings(max_examples=150)
@given(_pieces(1), _SHIFT, st.booleans())
def test_line_conjugate_commutes_with_reflections_and_translations(
        pieces, s, reflect) -> None:
    # y -> s - y reverses the direction of the upper chain, so a tie rule
    # that read that direction would show
    _check_equivariant(1, pieces, ((-1,),) if reflect else ((1,),), (s,))


@settings(max_examples=100)
@given(_pieces(2), st.sampled_from((((1, 1), (0, 1)), ((0, 1), (1, 0)))),
       st.tuples(_SHIFT, _SHIFT))
def test_plane_conjugate_commutes_with_elementary_unimodular_maps(
        pieces, A, b) -> None:
    # a shear and a swap of coordinates, with a translation
    _check_equivariant(2, pieces, A, b)
