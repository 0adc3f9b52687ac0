"""Inverses and basis records handed to constructed norms, against the
inverting oracles.

``join``, the geodesic slices, ``sym_power_norm`` and ``tensor_norm`` give
their results an inverse derived from data the inputs hold; each must
equal the oracle's field inverse of the result's basis entry for entry
(``oracles.invert_field``), and each
result must equal, basis, weights and JSON, the norm the inverting path
builds.  The norms on one basis share one record: ``det_norm`` must equal
the determinant oracle (``oracles.det_norm_determinant``) with no
determinant over Q and one per basis over Q(t), the Sym^m norms of a
geodesic's slices one Sym^m basis, and ``==`` on one basis tuple reads
that basis once.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from geonorm import linalg, norms
from geonorm.field import TADIC, TRIVIAL, RatFunc
from geonorm.geodesics import geodesic
from geonorm.norms import (
    DiagNorm,
    NormError,
    det_norm,
    join,
    sym_power_norm,
    tensor_norm,
)

F = Fraction
_T = RatFunc.t_power

_Q_ENTRY = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
# c t^k for k in [-1, 2], and (c + t) / (1 + t)
_QT_ENTRY = st.one_of(
    st.builds(lambda c, k: RatFunc.of(c) * _T(k), st.integers(-3, 3),
              st.integers(-1, 2)),
    st.builds(lambda c: RatFunc((c, 1), (1, 1)), st.integers(-2, 2)),
)
# c or c t: the entries of the 4-dimensional Q(t) norms whose Sym^3 (a
# 20 x 20 basis) the oracle inverts, which takes up to 20 s with the
# entries above
_QT_LIGHT = st.builds(lambda c, k: RatFunc.of(c) * _T(k), st.integers(-3, 3),
                      st.integers(0, 1))
# rational weights over both fields
_WEIGHT = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))


@st.composite
def _norms(draw, field, d, basis=None, entry=None):
    """A norm of dimension d over ``field``: one in five on the standard
    basis, the rest on a random invertible basis (or the given one)."""
    weights = tuple(draw(_WEIGHT) for _ in range(d))
    if basis is None:
        if draw(st.integers(0, 4)) == 0:
            return DiagNorm.standard(field, weights)
        if entry is None:
            entry = _Q_ENTRY if field is TRIVIAL else _QT_ENTRY
        basis = tuple(tuple(draw(entry) for _ in range(d)) for _ in range(d))
    try:
        return DiagNorm(field, basis, weights)
    except NormError:
        assume(False)


@st.composite
def _pairs(draw, field, dims=(2, 4)):
    """Two norms of one dimension in ``dims``; one pair in five shares its
    basis (the path that hands back n0's own inverse)."""
    d = draw(st.integers(*dims))
    n0 = draw(_norms(field, d))
    shared = draw(st.integers(0, 4)) == 0
    return n0, draw(_norms(field, d, n0.basis if shared else None))


def _assert_hands_its_inverse(n: DiagNorm, inverted=None) -> None:
    """n's inverse equals the field inverse of its basis.  ``inverted`` is
    a norm that ``DiagNorm`` built on the same basis, which stands in for
    that inverse: its cached inverse rows come from an elimination of the
    basis."""
    if inverted is None:
        want = oracles.invert_field(tuple(zip(*n.basis)))
    else:
        assert inverted.basis == n.basis
        want = oracles.row_values(n.field, inverted._inverse())
    assert oracles.row_values(n.field, n._inverse()) == want


def _assert_same_norm(got: DiagNorm, want: DiagNorm) -> None:
    assert got.basis == want.basis
    assert got.weights == want.weights
    assert got.to_json() == want.to_json()


_FIELDS = pytest.mark.parametrize("field", [TRIVIAL, TADIC], ids=["Q", "Q(t)"])


@_FIELDS
@settings(max_examples=40)
@given(data=st.data())
def test_join_matches_inverting_oracle(field, data) -> None:
    n0, n1 = data.draw(_pairs(field))
    got = join(n0, n1)
    _assert_same_norm(got, oracles.join_inverting(n0, n1))
    _assert_hands_its_inverse(got)


@_FIELDS
@settings(max_examples=40)
@given(data=st.data())
def test_geodesic_slices_match_inverting_oracle(field, data) -> None:
    n0, n1 = data.draw(_pairs(field))
    geo = geodesic(n0, n1)
    base = oracles.geodesic_base_inverting(n0, n1)
    for t in (F(0), F(1, 3), F(1)):
        w = tuple((1 - t) * a + t * b
                  for a, b in zip(geo.weights0, geo.weights1))
        got = geo.at(t)
        _assert_same_norm(got, DiagNorm(field, base.basis, w))
        _assert_hands_its_inverse(got)


def _check_sym_power(n, m):
    got = sym_power_norm(n, m)
    want = oracles.sym_power_norm_inverting(n, m)
    _assert_same_norm(got, want)
    _assert_hands_its_inverse(got, want)


@_FIELDS
@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=25)
@given(data=st.data())
def test_sym_power_matches_inverting_oracle(field, m, data) -> None:
    _check_sym_power(data.draw(_norms(field, data.draw(st.integers(2, 3)))), m)


@_FIELDS
@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=5)
@given(data=st.data())
def test_sym_power_of_dimension_4_matches_inverting_oracle(field, m,
                                                          data) -> None:
    entry = _QT_LIGHT if field is TADIC else None
    _check_sym_power(data.draw(_norms(field, 4, entry=entry)), m)


@_FIELDS
@settings(max_examples=25)
@given(data=st.data())
def test_sym_power_of_a_slice_matches_inverting_oracle(field, data) -> None:
    # the slice's inverse comes from the kernel (Q(t)) or an elimination
    # (Q), not straight from an elimination of the input basis
    n0, n1 = data.draw(_pairs(field, dims=(2, 3)))
    _check_sym_power(geodesic(n0, n1).at(F(1, 2)), 2)


@_FIELDS
@settings(max_examples=40)
@given(data=st.data())
def test_tensor_norm_inverse_is_the_kronecker_product(field, data) -> None:
    n0 = data.draw(_norms(field, data.draw(st.integers(1, 3))))
    n1 = data.draw(_norms(field, data.draw(st.integers(1, 3))))
    got = tensor_norm(n0, n1)
    _assert_same_norm(got, oracles.tensor_norm_inverting(n0, n1))
    _assert_hands_its_inverse(got)


@_FIELDS
@settings(max_examples=60)
@given(data=st.data())
def test_kernel_basis_matches_closing_rref(field, data) -> None:
    # linalg.smith builds C = M0 P^{-1} from the inverse row operations;
    # the closing RREF of [P^T | M0^T] solves for it
    n0, n1 = data.draw(_pairs(field))
    cols0, cols1 = n0._rec.rows, n1._rec.rows
    M0 = list(zip(*oracles.row_values(field, cols0)))
    pair = norms.NormPair(n0, n1)
    C, P, _, _ = linalg.smith(field, linalg.inverse_rows(field, M0), cols0,
                              cols1, pair._a, pair._b, pair._den)
    assert oracles.row_values(field, C) == oracles.kernel_basis_closing_rref(
        M0, oracles.row_values(field, P))


# -- the paths that derive an inverse run no elimination -----------------------


def _qt_pair():
    t = _T(1)
    q0 = ((TADIC.one, t), (TADIC.zero, TADIC.of(2)))
    q1 = ((TADIC.of(3), TADIC.one), (t * t, RatFunc((1, 1), (1, 1, 1))))
    return (DiagNorm(TADIC, q0, (F(0), F(1, 2))),
            DiagNorm(TADIC, q1, (F(-2), F(1))))


def test_qt_join_slices_and_sym_power_invert_nothing(monkeypatch) -> None:
    n0, n1 = _qt_pair()
    std = DiagNorm.standard(TADIC, (F(1), F(-1, 3)))
    calls = []
    for name in ("inverse_rows", "inverse_columns", "rref"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, _name=name, _real=real:
                            calls.append(_name) or _real(*args))
    j = join(n0, n1)
    geo = geodesic(n0, std)
    slices = [geo.start, geo.end, geo.at(F(1, 3))]
    powers = [sym_power_norm(n, m) for n in (n0, j, slices[2]) for m in (2, 3)]
    assert calls == []
    monkeypatch.undo()
    for n in [j] + slices + powers:
        _assert_hands_its_inverse(n)


def _counting_inversions(monkeypatch):
    """The arguments of every inversion from now on: of a matrix of field
    elements (``linalg.inverse_rows``) or of a basis record's columns
    (``linalg.inverse_columns``)."""
    calls = []
    for name in ("inverse_rows", "inverse_columns"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, _real=real:
                            calls.append(args) or _real(*args))
    return calls


def test_q_join_inverts_its_basis_on_first_use(monkeypatch) -> None:
    # over Q with different bases the kernel derives no inverse: a join
    # that is only serialized inverts nothing, and evaluating it inverts
    # its basis once
    n0 = DiagNorm(TRIVIAL, ((F(1), F(1)), (F(1), F(2))), (F(0), F(1)))
    n1 = DiagNorm(TRIVIAL, ((F(2), F(-1)), (F(0), F(1))), (F(2), F(-1)))
    want = oracles.join_inverting(n0, n1).to_json()
    calls = _counting_inversions(monkeypatch)
    j = join(n0, n1)
    assert j.to_json() == want
    assert calls == []
    for v in n0.basis + n1.basis:
        assert j.evaluate(v) == min(n0.evaluate(v), n1.evaluate(v))
    assert len(calls) == 1


# -- the basis record: what the norms on one basis share -----------------------


def _q_pair():
    return (DiagNorm(TRIVIAL, ((F(1), F(1)), (F(1), F(2))), (F(0), F(1, 2))),
            DiagNorm(TRIVIAL, ((F(2), F(-1)), (F(0), F(1))), (F(2), F(-1))))


def _pair(field):
    return _qt_pair() if field is TADIC else _q_pair()


def _derived(n0, n1):
    """The norms the library derives from a pair: the join, three geodesic
    slices, and the Sym^2 norms of n0 and of a slice."""
    geo = geodesic(n0, n1)
    mid = geo.at(F(1, 3))
    return [join(n0, n1), geo.start, mid, geo.end, sym_power_norm(n0, 2),
            sym_power_norm(mid, 2)]


def _counting(monkeypatch, module, name):
    """The arguments of every call of ``module.name`` from now on."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


@_FIELDS
@settings(max_examples=50)
@given(data=st.data())
def test_det_norm_matches_determinant_oracle(field, data) -> None:
    n0, n1 = data.draw(_pairs(field, dims=(1, 3)))
    for n in [n0, n1] + _derived(n0, n1):
        got, want = det_norm(n), oracles.det_norm_determinant(n)
        assert got.weights == want.weights
        assert got.to_json() == want.to_json()


def _no_determinant(*args):
    raise AssertionError("a determinant was taken")


def test_q_det_norm_takes_no_determinant(monkeypatch) -> None:
    n0, n1 = _q_pair()
    dims3 = (DiagNorm(TRIVIAL, ((F(1), F(2), F(0)), (F(0), F(1, 2), F(1)),
                                (F(3), F(0), F(1))), (F(1), F(-1, 3), F(2))),
             DiagNorm.standard(TRIVIAL, (F(0), F(5, 2), F(-1))))
    cases = [n0, n1, *dims3] + _derived(n0, n1) + _derived(*dims3)
    want = [oracles.det_norm_determinant(n).weights for n in cases]
    monkeypatch.setattr(linalg, "determinant", _no_determinant)
    monkeypatch.setattr(linalg, "_bareiss", _no_determinant)
    assert [det_norm(n).weights for n in cases] == want


def test_qt_geodesic_slices_take_one_determinant(monkeypatch) -> None:
    geo = geodesic(*_qt_pair())
    slices = [geo.start, geo.end] + [geo.at(t)
                                     for t in (F(1, 4), F(1, 2), F(2, 3))]
    calls = _counting(monkeypatch, linalg, "det_order")
    got = [det_norm(n).weights for n in slices]
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == [oracles.det_norm_determinant(n).weights for n in slices]


@_FIELDS
def test_sym_power_of_slices_builds_one_basis(field, monkeypatch) -> None:
    geo = geodesic(*_pair(field))
    slices = [geo.start, geo.end, geo.at(F(1, 3))]
    built = []
    for m in (2, 3, 2):
        calls = _counting(monkeypatch, norms, "_form_products")
        powers = [sym_power_norm(n, m) for n in slices]
        # one product of the basis vectors and one of the inverse rows, for
        # the first Sym^m of the segment only
        assert len(calls) == (0 if m in built else 2)
        built.append(m)
        monkeypatch.undo()
        assert all(p.basis is powers[0].basis for p in powers)
        for n, got in zip(slices, powers):
            want = oracles.sym_power_norm_inverting(n, m)
            _assert_same_norm(got, want)
            _assert_hands_its_inverse(got, want)


@_FIELDS
def test_eq_on_one_basis_tuple_reads_it_once(field, monkeypatch) -> None:
    geo = geodesic(*_pair(field))
    sym = geodesic(sym_power_norm(geo.start, 2), sym_power_norm(geo.end, 2))
    t = F(1, 3)
    for a, b in ((geo.at(t), geo.at(t)),
                 (sym_power_norm(geo.at(t), 2), sym.at(t)),
                 (DiagNorm.standard(field, (F(1), F(2))),
                  DiagNorm.standard(field, (F(1), F(2))))):
        assert a.basis is b.basis
        seen = []
        real = norms._values
        monkeypatch.setattr(norms, "_values", lambda n, vecs:
                            seen.append(len(vecs)) or real(n, vecs))
        assert a == b
        for i in range(a.dim):
            w = list(b.weights)
            w[i] += F(1, 2)
            assert a != b._reweighted(w)
        monkeypatch.undo()
        assert seen == [a.dim, a.dim] * (1 + a.dim)


def _equal_oracle(a, b):
    """Whether two norms agree on both bases, by this file's field inverse."""
    vecs = a.basis + b.basis
    return (oracles.coordinate_values(a, vecs)
            == oracles.coordinate_values(b, vecs))


def _eq_cases():
    """name -> (a, b, a == b): the equality cases of the norms tests, on
    different basis tuples."""
    t, one, zero = _T(1), TADIC.one, TADIC.zero
    eye = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
    std = DiagNorm.standard(TRIVIAL, (F(0), F(1), F(2)))
    scaled = DiagNorm(TADIC, ((t, zero), (zero, one)), (F(0), F(0)))
    q0 = DiagNorm.standard(TRIVIAL, (F(0), F(1)))
    q1 = DiagNorm(TRIVIAL, ((F(1), F(1)), (F(1), F(0))), (F(0), F(1)))
    n0, n1 = _qt_pair()
    return {
        "Q identity built elsewhere": (DiagNorm(TRIVIAL, eye, std.weights),
                                       std, True),
        "Q identity built elsewhere, other weights": (
            DiagNorm(TRIVIAL, eye, (F(5), F(4), F(3))), std, False),
        "Q join of a cross pair": (join(q0, q1),
                                   DiagNorm.trivial(TRIVIAL, 2), True),
        # equal on the first basis only: e1 + e2 tells them apart
        "Q equal on one basis": (DiagNorm.trivial(TRIVIAL, 2), DiagNorm(
            TRIVIAL, ((F(1), F(0)), (F(1), F(1))), (F(0), F(1))), False),
        "Q(t) equal on one basis": (DiagNorm.trivial(TADIC, 2), DiagNorm(
            TADIC, ((one, zero), (one, one)), (F(0), F(1))), False),
        "Q(t) scaled presentation": (
            scaled, DiagNorm.standard(TADIC, (F(-1), F(0))), True),
        "Q(t) scaled, other weight": (
            scaled, DiagNorm.standard(TADIC, (F(0), F(0))), False),
        "Q(t) geodesic ends": (geodesic(n0, n1).start, n0, True),
        "Q(t) cross pair": (n0, n1, False),
    }


@pytest.mark.parametrize("case", sorted(_eq_cases()))
def test_eq_across_bases_keeps_its_verdicts(case) -> None:
    a, b, equal = _eq_cases()[case]
    assert a.basis is not b.basis
    assert (a == b) is (b == a) is equal is _equal_oracle(a, b)


@_FIELDS
@settings(max_examples=30)
@given(data=st.data())
def test_eq_on_rescaled_bases_matches_oracle(field, data) -> None:
    # scaling s_i by c t^k (c a nonzero rational) and adding k to w_i
    # presents the same norm; a changed weight gives another one
    n = data.draw(_norms(field, data.draw(st.integers(1, 3))))
    ks = [data.draw(st.integers(-1, 1)) if field is TADIC else 0
          for _ in range(n.dim)]
    cs = [data.draw(st.sampled_from((F(1), F(-2), F(3, 2))))
          for _ in range(n.dim)]
    scales = [field.of(c) * _T(k) if field is TADIC else c
              for c, k in zip(cs, ks)]
    basis = tuple(tuple(c * x for x in vec) for vec, c in zip(n.basis, scales))
    same = DiagNorm(field, basis, [w + k for w, k in zip(n.weights, ks)])
    assert n == same and same == n and _equal_oracle(n, same)
    i = data.draw(st.integers(0, n.dim - 1))
    other = same._reweighted([w + (j == i)
                              for j, w in enumerate(same.weights)])
    assert n != other and not _equal_oracle(n, other)
