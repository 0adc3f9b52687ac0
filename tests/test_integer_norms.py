"""Norms on integers against the ``Fraction`` routes they replaced.

A norm holds its weights as integer numerators over one denominator, and
over Q its basis as integer columns; every op computes on those integers.
Each op on random Q and Q(t) norms must give what the ``Fraction`` routes
of ``tests/oracles.py`` give: values by a field inverse, the spectrum by
filtration dimensions (Q) or the t-adic Smith loop in ``RatFunc``s (Q(t),
integer weights), and the join, geodesic slices, Sym^2 and det norms by
constructors that invert their bases.  A guard checks that the ops on two
Q norms never read a basis as ``Fraction``s or clear it again.  Over Q(t)
a basis record holds Z[t] columns, the kernel's in lowest terms: each op
must read what the ``RatFunc`` vectors of ``oracles.VectorNorm`` give,
and the ops build no ``RatFunc`` until a basis is read.
"""

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import oracles
from geonorm import linalg
from geonorm.field import INF, TADIC, TRIVIAL, RatFunc
from geonorm.geodesics import geodesic
from geonorm.norms import (
    DiagNorm,
    NormError,
    codiagonalize,
    det_norm,
    distance,
    join,
    spectrum,
    sym_power_norm,
    volume,
)

F = Fraction

# weights over mixed denominators (6 and 35 share no factor), negative
# ones, and ties: a norm draws its weights from at most three levels
_WEIGHT = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 5, 6, 35)))
_Q_ENTRY = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
# c or c t: light entries keep the Q(t) inverting oracles fast in dim 5
_QT_ENTRY = st.builds(lambda c, k: RatFunc.of(c) * RatFunc.t_power(k),
                      st.integers(-2, 2), st.integers(0, 1))


@st.composite
def _norm_pairs(draw):
    """Two norms of one field and one dimension in 1..5: on the standard
    basis, on one shared random basis, or on two random bases, with tied
    rational weights (integer ones over Q(t) half of the time, which the
    t-adic Smith oracle needs)."""
    field = draw(st.sampled_from((TRIVIAL, TADIC)))
    d = draw(st.integers(1, 5))
    entry = _Q_ENTRY if field is TRIVIAL else _QT_ENTRY
    integral = field is TADIC and draw(st.booleans())

    def weights():
        levels = draw(st.lists(_WEIGHT, min_size=1, max_size=3))
        if integral:
            levels = [F(math.floor(w)) for w in levels]
        return tuple(draw(st.sampled_from(levels)) for _ in range(d))

    def basis():
        rows = tuple(tuple(draw(entry) for _ in range(d)) for _ in range(d))
        assume(oracles.invert_field(rows) is not None)
        return rows

    shape = draw(st.sampled_from(("standard", "shared", "own")))
    if shape == "standard":
        return (DiagNorm.standard(field, weights()),
                DiagNorm.standard(field, weights()))
    b0 = basis()
    b1 = b0 if shape == "shared" else basis()
    return DiagNorm(field, b0, weights()), DiagNorm(field, b1, weights())


def _values(n, vectors):
    """n's values by the oracles' field inverse, INF for zero."""
    if n.field is TRIVIAL:
        return tuple(INF if x is None else x
                     for x in oracles.norm_values(n.basis, n.weights, vectors))
    return oracles.coordinate_values(n, vectors)


def _assert_same_norm(got, want):
    assert got.weights == want.weights
    assert got.to_json() == want.to_json()
    assert got == want


@settings(max_examples=70)
@given(_norm_pairs(), st.sampled_from((F(0), F(1, 3), F(5, 7), F(1))))
def test_integer_ops_match_fraction_oracles(pair, t) -> None:
    n0, n1 = pair
    field, d = n0.field, n0.dim
    both = n0.basis + n1.basis
    for n in (n0, n1):
        assert tuple(map(n.evaluate, both)) == _values(n, both)
    assert (n0 == n1) == (_values(n0, both) == _values(n1, both))

    result = codiagonalize(n0, n1)
    assert oracles.verifies_in_field(n0, n1, result)
    _, w0, w1 = result
    if field is TRIVIAL:
        lam = oracles.trivial_spectrum(n0.basis, n0.weights, n1.basis,
                                       n1.weights)
    elif all(w.denominator == 1 for w in n0.weights + n1.weights):
        # the Smith loop in RatFunc arithmetic, on the unit lattices
        lattices = oracles.codiagonalize_lattices_field(n0, n1)
        assert oracles.verifies_in_field(n0, n1, lattices)
        lam = tuple(sorted(a - b for a, b in zip(*lattices[1:])))
    else:
        # the weight pairs of any common basis the field oracle verifies
        lam = tuple(sorted(a - b for a, b in zip(w0, w1)))
    assert spectrum(n0, n1) == lam
    assert volume(n0, n1) == sum(lam, F(0))
    for p in (1, 2):
        assert distance(n0, n1, p) == sum(abs(x) ** p for x in lam) / d
    assert distance(n0, n1, math.inf) == max(abs(x) for x in lam)

    _assert_same_norm(join(n0, n1), oracles.join_inverting(n0, n1))
    base = oracles.geodesic_base_inverting(n0, n1)
    geo = geodesic(n0, n1)
    w = tuple((1 - t) * a + t * b for a, b in zip(geo.weights0, geo.weights1))
    _assert_same_norm(geo.at(t), DiagNorm(field, base.basis, w))
    for n in (n0, geo.at(t)):
        _assert_same_norm(det_norm(n), oracles.det_norm_determinant(n))
        if d <= 3:
            _assert_same_norm(sym_power_norm(n, 2),
                              oracles.sym_power_norm_inverting(n, 2))


def _counting(monkeypatch, calls):
    """Count every clearing of a vector over Q (``field.cleared``, as the
    ring's ``clear``) and every ``Fraction`` view of rows."""
    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    cleared = counted("cleared", linalg._Z.clear)
    monkeypatch.setattr(linalg, "_Z", linalg._Z._replace(clear=cleared))
    monkeypatch.setattr(linalg, "row_values",
                        counted("row_values", linalg.row_values))


def test_q_ops_never_clear_or_view_a_basis(monkeypatch) -> None:
    # a Q norm clears its basis once, at construction, and keeps only the
    # integer columns: spectrum, distance, volume, join and the geodesic
    # slices (with == between them) read the columns, never the Fraction
    # view, and clear nothing again
    rng = random.Random("integer columns")
    pairs = []
    while len(pairs) < 30:
        d = rng.randint(1, 5)
        bases = [tuple(tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                             for _ in range(d)) for _ in range(d))
                 for _ in range(2)]
        if rng.random() < 0.25:
            bases[1] = bases[0]
        weights = [[F(rng.randint(-9, 9), rng.choice((1, 2, 6, 35)))
                    for _ in range(d)] for _ in range(2)]
        try:
            pairs.append([DiagNorm(TRIVIAL, b, w)
                          for b, w in zip(bases, weights)])
        except NormError:
            pass
    calls = []
    _counting(monkeypatch, calls)
    for n0, n1 in pairs:
        spectrum(n0, n1)
        volume(n0, n1)
        for p in (1, 2, math.inf):
            distance(n0, n1, p)
        assert join(n0, n1) == join(n1, n0)
        geo = geodesic(n0, n1)
        slices = [geo.start, geo.end, geo.at(F(1, 3)), geo.at(F(2, 5))]
        assert slices[0] == geo.at(0) and slices[1] == geo.at(1)
    assert calls == []


# -- Q(t) basis records on primitive Z[t] columns ----------------------------------

_T = RatFunc.t_power(1)
# (1 + t)(2 - t): a unit of the valuation ring, so scaling a basis vector
# by it, or by its inverse, presents the same norm
_P = RatFunc((2, 1, -1))
# a scale and its valuation
_SCALES = ((TADIC.one, 0), (_P, 0), (1 / _P, 0), (TADIC.of(F(-3, 2)), 0),
           (_T, 1), (1 / _T, -1), (_T / _P, 1))


@st.composite
def _scaled_qt_pairs(draw):
    """Two Q(t) bases of one dimension in 1..3 with their weights, each
    vector scaled by one of ``_SCALES``: both on the identity, the second
    on the first basis rescaled (with each weight moved by its scale's
    valuation, and one weight changed half of the time), or on two random
    bases."""
    d = draw(st.integers(1, 3))

    def scaled(basis):
        scales = [draw(st.sampled_from(_SCALES)) for _ in range(d)]
        return (tuple(tuple(c * x for x in vec)
                      for vec, (c, _) in zip(basis, scales)),
                [k for _, k in scales])

    def weights():
        return [draw(_WEIGHT) for _ in range(d)]

    def basis():
        rows = tuple(tuple(draw(_QT_ENTRY) for _ in range(d)) for _ in range(d))
        assume(oracles.invert_field(rows) is not None)
        return rows

    shape = draw(st.sampled_from(("identity", "rescaled", "own")))
    eye = linalg.identity(TADIC, d)
    b0, _ = scaled(eye if shape == "identity" else basis())
    w0 = weights()
    if shape == "rescaled":
        b1, ks = scaled(b0)
        w1 = [w + k for w, k in zip(w0, ks)]
        if draw(st.booleans()):
            w1[draw(st.integers(0, d - 1))] += F(1, 2)
    else:
        b1, _ = scaled(eye if shape == "identity" else basis())
        w1 = weights()
    return (b0, w0), (b1, w1)


def _assert_matches_vectors(n, ref, vecs):
    assert n.to_json() == ref.to_json()
    assert tuple(map(n.evaluate, vecs)) == ref.values(vecs)
    assert n.is_standard_basis() == ref.is_standard_basis()
    assert det_norm(n).to_json() == ref.det_norm().to_json()
    assert sym_power_norm(n, 2).to_json() == ref.sym_power_norm(2).to_json()


@settings(max_examples=100)
@given(_scaled_qt_pairs(), st.sampled_from((F(0), F(1, 3), F(1))))
def test_qt_columns_match_the_vector_route(pair, t) -> None:
    # every Q(t) record holds (den, numerators) columns over Z[t], the
    # kernel's put in lowest terms; each op must read what the RatFunc
    # vectors, cleared on each read, give
    (b0, w0), (b1, w1) = pair
    n0, n1 = DiagNorm(TADIC, b0, w0), DiagNorm(TADIC, b1, w1)
    ref0, ref1 = oracles.VectorNorm(b0, w0), oracles.VectorNorm(b1, w1)
    vecs = b0 + b1 + (tuple(map(sum, zip(*b0))),
                      (_P,) + (TADIC.zero,) * (n0.dim - 1))
    for n, ref in ((n0, ref0), (n1, ref1)):
        _assert_matches_vectors(n, ref, vecs)
    assert (n0 == n1) == (n1 == n0) == (ref0 == ref1)
    _assert_matches_vectors(join(n0, n1), oracles.vector_join(n0, n1), vecs)
    _assert_matches_vectors(geodesic(n0, n1).at(t),
                            oracles.vector_slice(n0, n1, t), vecs)


def test_qt_records_build_no_field_elements_until_read(monkeypatch) -> None:
    # a Q(t) join, a geodesic slice, and the det and Sym^2 norms of a slice
    # compute on Z[t] columns; RatFuncs are built when a basis is read
    n0 = DiagNorm(TADIC, ((_P, _T), (TADIC.zero, 1 / _P)), (F(0), F(1, 2)))
    n1 = DiagNorm(TADIC, ((TADIC.of(3), TADIC.one), (_T * _T, _P / (1 + _T))),
                  (F(-2), F(1)))
    calls = []
    real_init = RatFunc.__init__
    monkeypatch.setattr(RatFunc, "__init__", lambda self, *args, **kw:
                        calls.append("RatFunc") or real_init(self, *args, **kw))
    for name in ("determinant", "_poly_cleared"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, _name=name, _real=real:
                            calls.append(_name) or _real(*args))
    monkeypatch.setattr(linalg, "_ZT",
                        linalg._ZT._replace(clear=linalg._poly_cleared))
    j = join(n0, n1)
    s = geodesic(n0, n1).at(F(1, 3))
    norms = [j, s, det_norm(s), sym_power_norm(s, 2)]
    assert calls == []
    for n in norms:
        n.basis
    assert set(calls) == {"RatFunc"}
