"""Norms on integers against the ``Fraction`` routes they replaced.

A norm holds its weights as integer numerators over one denominator, and
over Q its basis as integer columns; every op computes on those integers.
Each op on random Q and Q(t) norms must give what the ``Fraction`` routes
of ``tests/oracles.py`` give: values by a field inverse, the spectrum by
filtration dimensions (Q) or the t-adic Smith loop in ``RatFunc``s (Q(t),
integer weights), and the join, geodesic slices, Sym^2 and det norms by
constructors that invert their bases.  A guard checks that the ops on two
Q norms never read a basis as ``Fraction``s or clear it again.
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
    """Count every clearing of a vector over Q (``linalg._cleared``, also
    as the ring's ``clear``) and every ``Fraction`` view of rows."""
    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    cleared = counted("_cleared", linalg._cleared)
    monkeypatch.setattr(linalg, "_cleared", cleared)
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
