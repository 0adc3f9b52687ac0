"""Diagonalizable ultrametric norms: codiagonalization, spectra, functors."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from geonorm import linalg, norms
from geonorm.field import INF, TADIC, TRIVIAL, RatFunc
from geonorm.geodesics import geodesic
from geonorm.norms import (
    DiagNorm,
    NormError,
    NormPair,
    codiagonalize,
    det_norm,
    distance,
    join,
    quotient_norm,
    spectrum,
    sym_monomials,
    sym_power_norm,
    tensor_norm,
    volume,
)

F = Fraction


def _std(weights, field=TRIVIAL):
    return DiagNorm.standard(field, tuple(F(w) for w in weights))


_BOTH_FIELDS = pytest.mark.parametrize("field", [TRIVIAL, TADIC],
                                      ids=["Q", "Q(t)"])


def _in_field(field, result, den=1):
    """A result of the norms' internal paths, whose basis is ``(den,
    numerators)`` columns and whose weights are integer numerators over
    ``den``, with the basis as the field vectors ``codiagonalize`` builds
    from it (``linalg.row_values``) and the weights as ``Fraction``s."""
    basis, w0, w1, *rest = result
    return (linalg.row_values(field, basis),
            *(tuple(F(x, den) for x in w) for w in (w0, w1)), *rest)


def _over(den, weights):
    """Rational weights as integer numerators over ``den``."""
    return tuple(int(w * den) for w in weights)


def _cleared(field, vecs):
    return [linalg.ring(field).clear(v) for v in vecs]


def _values(n, vecs):
    """``norms._values`` of field vectors, as rationals (INF kept)."""
    return tuple(x if x is INF else F(x, n._den)
                 for x in norms._values(n, _cleared(n.field, vecs)))


def smith_exponents(n0, n1):
    """Invariant-factor exponents of the two unit lattices (t-adic only)."""
    _, w0, w1 = codiagonalize(n0, n1)
    return tuple(sorted(int(a - b) for a, b in zip(w0, w1)))


def _cross_pair():
    # n0 diagonal in (e1, e2), weights (0, 1); n1 diagonal in (e1+e2, e1),
    # weights (0, 1).  Codiagonalized by (e1, e2) with weights (0,1)/(1,0).
    n0 = _std((0, 1))
    n1 = DiagNorm(TRIVIAL, ((F(1), F(1)), (F(1), F(0))), (F(0), F(1)))
    return n0, n1


# -- evaluation --------------------------------------------------------------


def test_evaluate_trivial_norm() -> None:
    n = DiagNorm.trivial(TRIVIAL, 2)
    assert n.evaluate((F(1), F(5))) == 0
    assert n.evaluate((F(0), F(0))) is INF


def test_evaluate_reads_weights() -> None:
    n = _std((0, 1))
    assert n.evaluate((F(0), F(1))) == 1
    # mixed vector: the smaller of val(a_i) + weight_i wins
    assert n.evaluate((F(1), F(1))) == 0


def test_evaluate_dimension_mismatch() -> None:
    for field in (TRIVIAL, TADIC):
        n = DiagNorm(field, ((1, 1), (0, 1)), (F(0), F(1)))
        for v in ((1,), (1, 0, 0)):
            with pytest.raises(NormError, match=r"length \d, expected 2"):
                n.evaluate(v)


@pytest.mark.parametrize("field", [TRIVIAL, TADIC])
def test_zero_dimensional_norm_rejected(field) -> None:
    with pytest.raises(NormError, match="dimension >= 1"):
        DiagNorm(field, (), ())
    with pytest.raises(NormError, match="dimension >= 1"):
        DiagNorm.from_json({"field": field.name, "dim": 0, "basis": [],
                            "weights": []})


# -- codiagonalization -------------------------------------------------------


def test_codiagonalize_identity_case() -> None:
    n = DiagNorm.trivial(TRIVIAL, 3)
    basis, w0, w1 = codiagonalize(n, n)
    assert w0 == w1 == (F(0),) * 3


def test_codiagonalize_cross_pair() -> None:
    n0, n1 = _cross_pair()
    basis, w0, w1 = codiagonalize(n0, n1)
    # postcondition: the basis diagonalizes both inputs with those weights
    for vec, a, b in zip(basis, w0, w1):
        assert n0.evaluate(vec) == a
        assert n1.evaluate(vec) == b
    assert sorted(zip(w0, w1)) == [(F(0), F(1)), (F(1), F(0))]


def test_codiagonalize_tadic_lattice_pair() -> None:
    # unit lattice vs the lattice spanned by (t*e1, e2): the common basis is
    # (e1, e2) up to order and the second norm evaluates e1 to -1 (e1 is
    # t^(-1) times a unit of that lattice); invariant factors are (0, 1)
    t = RatFunc.t_power(1)
    one, zero = TADIC.one, TADIC.zero
    n0 = DiagNorm.trivial(TADIC, 2)
    n1 = DiagNorm(TADIC, ((t, zero), (zero, one)), (F(0), F(0)))
    assert n1.evaluate((one, zero)) == -1
    basis, w0, w1 = codiagonalize(n0, n1)
    for vec, a, b in zip(basis, w0, w1):
        assert n0.evaluate(vec) == a
        assert n1.evaluate(vec) == b
    assert sorted(w1) == [F(-1), F(0)]
    assert smith_exponents(n0, n1) == (0, 1)
    assert spectrum(n0, n1) == (F(0), F(1))


# -- verification of codiagonalize -------------------------------------------


def _tadic_lattice_pair():
    t = RatFunc.t_power(1)
    one, zero = TADIC.one, TADIC.zero
    return (DiagNorm.trivial(TADIC, 2),
            DiagNorm(TADIC, ((t, zero), (zero, one)), (F(0), F(0))))


def _corrupt_weight(result):
    basis, w0, w1, *inverse = result
    return (basis, (w0[0] + 1,) + tuple(w0[1:]), w1, *inverse)


def _corrupt_vector(result):
    # s_0 -> s_0 + s_1: a weight of s_1 is smaller in one of the two norms
    basis, w0, w1, *inverse = result
    s0 = tuple(a + b for a, b in zip(basis[0], basis[1]))
    return ((s0,) + tuple(basis[1:]), w0, w1, *inverse)


_PATHS = {
    "same_basis": ("_same_basis", lambda: (_std((0, 1)), _std((1, 0)))),
    "filtrations": ("_split", _cross_pair),
    "lattices": ("_split", _tadic_lattice_pair),
}


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("corrupt", [_corrupt_weight, _corrupt_vector])
def test_verification_rejects_corrupted_result(path, corrupt,
                                               monkeypatch) -> None:
    name, pair = _PATHS[path]
    n0, n1 = pair()
    pair = NormPair(n0, n1)
    good = _in_field(n0.field, getattr(pair, name)(), pair._den)
    assert oracles.verifies_in_field(n0, n1, good[:3])
    bad = corrupt(good)
    assert not oracles.verifies_in_field(n0, n1, bad[:3])
    bad = (tuple(_cleared(n0.field, bad[0])),
           *(_over(pair._den, w) for w in bad[1:]))
    monkeypatch.setattr(NormPair, name, lambda self: bad)
    with pytest.raises(NormError, match="failed verification"):
        codiagonalize(n0, n1)


def test_geodesic_of_sup_norms_calls_no_evaluate(monkeypatch) -> None:
    from geonorm.geodesics import geodesic
    from geonorm.suites import convergence_pair_p1, convergence_pair_p2
    from geonorm.toric import supnorm

    calls = []
    real = DiagNorm.evaluate
    monkeypatch.setattr(DiagNorm, "evaluate",
                        lambda self, v: calls.append(v) or real(self, v))
    for phi0, phi1 in (convergence_pair_p1(), convergence_pair_p2()):
        for k in (1, 2, 4, 8):
            n0, n1 = supnorm(k, phi0), supnorm(k, phi1)
            assert n0.is_standard_basis()
            geo = geodesic(n0, n1)
            assert (geo.weights0, geo.weights1) == (n0.weights, n1.weights)
            assert distance(n0, n1, 1) >= 0
    assert calls == []


def test_standard_norms_share_one_identity_basis() -> None:
    a, b = _std((0, 1, 2)), _std((5, 4, 3))
    assert a.basis is b.basis
    assert a.is_standard_basis()
    # an equal basis built elsewhere still passes the full check
    c = DiagNorm(TRIVIAL, tuple(tuple(F(int(i == j)) for j in range(3))
                                for i in range(3)), (F(0), F(1), F(2)))
    assert c.basis is not a.basis and c.is_standard_basis()
    assert c == a and a != b
    assert not _cross_pair()[1].is_standard_basis()


@st.composite
def _rational_norm_pairs(draw):
    """Two norms over Q of one dimension in 1..5, and vectors to evaluate.

    Bases are standard or random with small fractional entries; the second
    norm shares the first one's basis object, an equal copy of it, or has
    its own.  The vectors are both bases, random vectors and zero.
    """
    d = draw(st.integers(1, 5))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
    vector = st.lists(entry, min_size=d, max_size=d).map(tuple)
    weight = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2)))
    weights = st.lists(weight, min_size=d, max_size=d).map(tuple)

    def basis():
        if draw(st.booleans()):
            return None
        rows = tuple(draw(vector) for _ in range(d))
        assume(oracles.invert_field(rows) is not None)
        return rows

    def norm(b, w):
        return DiagNorm.standard(TRIVIAL, w) if b is None else \
            DiagNorm(TRIVIAL, b, w)

    b0 = basis()
    n0 = norm(b0, draw(weights))
    share = draw(st.sampled_from(("same", "copy", "own")))
    if share == "own":
        n1 = norm(basis(), draw(weights))
    else:
        b1 = n0.basis if share == "same" else tuple(map(tuple, n0.basis))
        n1 = DiagNorm(TRIVIAL, b1, draw(weights))
    vecs = (n0.basis + n1.basis + tuple(draw(st.lists(vector, max_size=3)))
            + ((F(0),) * d,))
    return n0, n1, vecs


@settings(max_examples=150)
@given(_rational_norm_pairs())
def test_batched_values_match_fraction_oracle(case) -> None:
    n0, n1, vecs = case
    for n in (n0, n1):
        want = oracles.norm_values(n.basis, n.weights, vecs)
        for got in (_values(n, vecs), tuple(map(n.evaluate, vecs))):
            assert tuple(None if x is INF else x for x in got) == want
    both = n0.basis + n1.basis
    assert (n0 == n1) == (oracles.norm_values(n0.basis, n0.weights, both)
                          == oracles.norm_values(n1.basis, n1.weights, both))
    result = codiagonalize(n0, n1)
    assert oracles.verifies_in_field(n0, n1, result)


@st.composite
def _filtration_pairs(draw, dims=(1, 5)):
    """Two norms over Q of one dimension in ``dims`` (1..5 by default) with
    random, different bases, whose weights take at most three values each,
    so that the filtrations repeat levels."""
    d = draw(st.integers(*dims))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))

    def norm():
        basis = tuple(tuple(draw(entry) for _ in range(d)) for _ in range(d))
        assume(oracles.invert_field(basis) is not None)
        levels = draw(st.lists(st.builds(F, st.integers(-3, 3),
                                         st.sampled_from((1, 2))),
                               min_size=1, max_size=3))
        weights = tuple(draw(st.sampled_from(levels)) for _ in range(d))
        return DiagNorm(TRIVIAL, basis, weights)

    n0, n1 = norm(), norm()
    assume(n0.basis != n1.basis)
    return n0, n1


@settings(max_examples=150)
@given(_filtration_pairs())
def test_filtration_split_matches_extend_independent_oracle(pair) -> None:
    n0, n1 = pair
    assert codiagonalize(n0, n1) == oracles.codiagonalize_filtrations(n0, n1)


@settings(max_examples=100)
@given(_filtration_pairs(dims=(2, 6)))
def test_weighted_pivots_keep_the_filtration_split_over_q(pair) -> None:
    # the kernel's common basis, put in the filtration form, is the basis
    # the filtration split picked, tuple for tuple
    n0, n1 = pair
    pair = NormPair(n0, n1)
    got = _in_field(TRIVIAL, pair._split() + (pair._inverse(),), pair._den)
    assert got == oracles.codiagonalize_filtrations(n0, n1) + (None,)
    result = codiagonalize(n0, n1)
    assert result == got[:3]
    assert all(type(x) is F for vec in result[0] for x in vec)


@st.composite
def _tied_bases(draw):
    """A basis over Q of dimension 1..6 with weight pairs that tie: each
    norm's weights take at most three values."""
    d = draw(st.integers(1, 6))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    basis = tuple(tuple(draw(entry) for _ in range(d)) for _ in range(d))
    assume(oracles.invert_field(basis) is not None)

    def weights():
        levels = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
        return tuple(F(draw(st.sampled_from(levels))) for _ in range(d))

    return basis, weights(), weights()


@settings(max_examples=200)
@given(_tied_bases())
def test_integer_split_matches_stacked_rref_oracle(case) -> None:
    # the integer echelon keeps the rows the pivot columns of the stacked
    # RREF keep, entry for entry, for any basis
    basis, w0, w1 = case
    got = _in_field(TRIVIAL, norms._filtration_form(
        _cleared(TRIVIAL, basis), _over(1, w0), _over(1, w1)))
    assert got == oracles.filtration_form_rref(*case)
    assert all(type(x) is F for vec in got[0] for x in vec)


@settings(max_examples=100)
@given(_filtration_pairs(dims=(1, 6)))
def test_split_of_the_kernel_basis_matches_stacked_rref_oracle(pair) -> None:
    n0, n1 = pair
    pair = NormPair(n0, n1)
    kernel = _in_field(TRIVIAL, pair._kernel_basis(), pair._den)
    assert oracles.verifies_in_field(n0, n1, kernel)
    assert (_in_field(TRIVIAL, pair._split(), pair._den)
            == oracles.filtration_form_rref(*kernel))


@settings(max_examples=100)
@given(st.one_of(_rational_norm_pairs().map(lambda case: case[:2]),
                 _filtration_pairs()))
def test_spectrum_is_sorted_codiagonalize_differences(pair) -> None:
    # spectrum reads the kernel's weights, codiagonalize the split's
    n0, n1 = pair
    _, w0, w1 = codiagonalize(n0, n1)
    assert spectrum(n0, n1) == tuple(sorted(a - b for a, b in zip(w0, w1)))


@pytest.mark.parametrize("pair", [_cross_pair, _tadic_lattice_pair])
@pytest.mark.parametrize("side", [2, 3])
def test_wrong_kernel_weight_fails_spectrum_verification(pair, side,
                                                         monkeypatch) -> None:
    # a kernel that reports one wrong weight is caught by the check of its
    # basis, on the path that skips the filtration form
    real = linalg.smith

    def planted(*args):
        out = list(real(*args))
        out[side] = (out[side][0] + 1,) + tuple(out[side][1:])
        return tuple(out)

    n0, n1 = pair()
    monkeypatch.setattr(linalg, "smith", planted)
    for run in (spectrum, distance, volume):
        with pytest.raises(NormError, match="failed verification"):
            run(n0, n1)


def _random_norm(rng, field, d):
    """A norm on a random basis with rational weights: entries c / q over
    Q, c t^k over Q(t)."""
    while True:
        if field is TRIVIAL:
            basis = [[F(rng.randint(-3, 3), rng.choice((1, 2)))
                      for _ in range(d)] for _ in range(d)]
        else:
            basis = [[TADIC.of(rng.randint(-3, 3))
                      * RatFunc.t_power(rng.randint(-1, 2))
                      for _ in range(d)] for _ in range(d)]
        weights = [F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(d)]
        try:
            return DiagNorm(field, basis, weights)
        except NormError:
            pass


def _random_pairs(rng, field, count):
    pairs = []
    while len(pairs) < count:
        d = rng.randint(2, 4)
        n0, n1 = _random_norm(rng, field, d), _random_norm(rng, field, d)
        if n0.basis != n1.basis:
            pairs.append((n0, n1))
    return pairs


def _with_faulty_inverse(n, rng):
    """n with one numerator of its cached inverse rows off by one."""
    ring = linalg.ring(n.field)
    rows = list(n._inverse())
    i, j = rng.randrange(n.dim), rng.randrange(n.dim)
    den, nums = rows[i]
    rows[i] = (den, nums[:j] + (ring.add(nums[j], ring.one),) + nums[j + 1:])
    return DiagNorm._on(norms._Basis(n.field, n._rec.rows, tuple(rows)),
                        n._den, n._nums)


@_BOTH_FIELDS
def test_fault_in_the_cached_inverse_gives_no_wrong_answer(field) -> None:
    # the kernel reads X = M0^{-1} M1 through n0's cached inverse; with a
    # fault there every op raises or returns the true value, because the
    # basis is checked against n1 through n1's own cache, which the fault
    # leaves intact
    rng = random.Random(f"cache-fault:{field.name}")
    raised = right = 0
    for n0, n1 in _random_pairs(rng, field, 200):
        faulty = _with_faulty_inverse(n0, rng)
        for op in (spectrum, distance, volume, codiagonalize):
            try:
                got = op(faulty, n1)
            except (NormError, linalg.SingularMatrixError):
                raised += 1
                continue
            right += 1
            if op is not codiagonalize or field is TRIVIAL:
                assert got == op(n0, n1)
            else:
                # one of many common bases over Q(t), all with the weights
                # of the kernel's
                assert oracles.verifies_in_field(n0, n1, got)
    assert raised and right


@_BOTH_FIELDS
def test_spectra_between_cached_inverses_eliminate_nothing(field,
                                                          monkeypatch) -> None:
    # the kernel multiplies n0's cached inverse rows instead of eliminating
    pairs = _random_pairs(random.Random(f"no-elimination:{field.name}"), field,
                          20)
    calls = []
    real = linalg._gauss_jordan
    monkeypatch.setattr(linalg, "_gauss_jordan",
                        lambda *args: calls.append(args) or real(*args))
    for n0, n1 in pairs:
        for op in (spectrum, volume, lambda a, b: distance(a, b, math.inf)):
            op(n0, n1)
    assert calls == []


@_BOTH_FIELDS
def test_kernel_builds_no_field_elements_but_its_weights(field,
                                                       monkeypatch) -> None:
    # smith and its columns run on integer and Z[t] rows, and its weights
    # are integer numerators over the pair's denominator: the kernel builds
    # no field element at all, with or without the inverse of its basis
    pairs = _random_pairs(random.Random(f"no-elements:{field.name}"), field, 20)
    built = []
    real_new, real_init = F.__new__, RatFunc.__init__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw:
                        built.append(cls) or real_new(cls, *args, **kw))
    monkeypatch.setattr(RatFunc, "__init__", lambda self, *args, **kw:
                        built.append(RatFunc) or real_init(self, *args, **kw))
    for n0, n1 in pairs:
        pair = NormPair(n0, n1)
        pair._kernel_basis()
        pair._inverse()
    monkeypatch.undo()
    assert built == []


def test_q_ops_run_no_rref_and_one_elimination_per_pair(monkeypatch) -> None:
    # spectrum, distance, volume, join and geodesics over Q make no rref
    # call; the kernel eliminates nothing, and a join then eliminates at
    # most once per distinct weight pair
    rng = random.Random(19)
    pairs = []
    while len(pairs) < 40:
        d = rng.randint(2, 5)
        rows = [tuple(tuple(F(rng.randint(-3, 3), rng.choice((1, 2)))
                            for _ in range(d)) for _ in range(d))
                for _ in range(2)]
        if all(oracles.invert_field(b) is not None for b in rows):
            levels = [F(rng.randint(-4, 4), 2) for _ in range(3)]
            pairs.append([DiagNorm(TRIVIAL, b, [rng.choice(levels)
                                                 for _ in range(d)])
                          for b in rows])
    rrefs, eliminations = [], []
    real_gj = linalg._gauss_jordan
    monkeypatch.setattr(linalg, "rref", lambda *a: rrefs.append(a))
    monkeypatch.setattr(linalg, "_gauss_jordan",
                        lambda *a: eliminations.append(a) or real_gj(*a))
    for n0, n1 in pairs:
        for op in (spectrum, distance, volume):
            op(n0, n1)
        geodesic(n0, n1).at(F(1, 2)).evaluate(n0.basis[0])
        _, w0, w1 = codiagonalize(n0, n1)
        eliminations.clear()
        join(n0, n1)
        assert len(eliminations) <= len(set(zip(w0, w1)))
    assert rrefs == []


# -- spectrum, distance, volume ----------------------------------------------


def test_spectrum_identity() -> None:
    n = _std((0, 3, 5))
    assert spectrum(n, n) == (F(0), F(0), F(0))


def test_spectrum_same_basis() -> None:
    assert spectrum(_std((0, 0)), _std((1, 2))) == (F(-2), F(-1))


def test_spectrum_cross_pair() -> None:
    n0, n1 = _cross_pair()
    assert spectrum(n0, n1) == (F(-1), F(1))


def test_spectrum_matches_filtration_oracle_random() -> None:
    # basis-free dimension counts vs the codiagonalization result
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 3)
        mats = []
        while len(mats) < 2:
            A = [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
            if oracles.rank(A) == d:
                mats.append(tuple(tuple(r) for r in A))
        w0 = tuple(F(rng.randint(-3, 3)) for _ in range(d))
        w1 = tuple(F(rng.randint(-3, 3)) for _ in range(d))
        n0 = DiagNorm(TRIVIAL, mats[0], w0)
        n1 = DiagNorm(TRIVIAL, mats[1], w1)
        expected = oracles.trivial_spectrum(mats[0], w0, mats[1], w1)
        assert spectrum(n0, n1) == expected


def test_distance_examples() -> None:
    n = _std((0, 0))
    m = _std((1, 2))
    assert distance(n, n, 1) == 0
    assert distance(n, m, 1) == F(3, 2)
    assert distance(n, m, math.inf) == 2
    assert distance(n, m, 2) == F(5, 2)


def test_distance_rejects_fractional_p() -> None:
    with pytest.raises(NormError):
        distance(_std((0, 0)), _std((1, 2)), F(3, 2))


@pytest.mark.parametrize("p", [-math.inf, float("nan"), 0, -2, F(3, 2),
                               "two"])
def test_distance_rejects_bad_p(p) -> None:
    with pytest.raises(NormError,
                       match="^p must be a positive integer or inf, got "):
        distance(_std((0, 0)), _std((1, 2)), p)


def test_volume_examples_and_cocycle() -> None:
    assert volume(_std((0, 0)), _std((1, 2))) == -3
    rng = random.Random(23)
    for _ in range(50):
        d = rng.randint(1, 4)
        ws = [tuple(F(rng.randint(-4, 4)) for _ in range(d)) for _ in range(3)]
        a, b, c = (_std(w) for w in ws)
        assert volume(a, b) + volume(b, c) == volume(a, c)


# -- join ---------------------------------------------------------------------


def test_join_idempotent() -> None:
    n = _std((0, 3))
    assert join(n, n) == n


def test_join_same_basis() -> None:
    j = join(_std((0, 3)), _std((2, 1)))
    assert tuple(sorted(j.weights)) == (F(0), F(1))


def test_join_cross_pair_is_trivial_norm() -> None:
    n0, n1 = _cross_pair()
    assert join(n0, n1) == DiagNorm.trivial(TRIVIAL, 2)


def test_join_evaluates_to_pointwise_max_random() -> None:
    # max of norms = min on the -log scale
    rng = random.Random(29)
    for _ in range(50):
        d = rng.randint(1, 3)
        n0 = _std(tuple(rng.randint(-3, 3) for _ in range(d)))
        n1 = _std(tuple(rng.randint(-3, 3) for _ in range(d)))
        j = join(n0, n1)
        for _ in range(10):
            v = tuple(F(rng.randint(-3, 3)) for _ in range(d))
            assert j.evaluate(v) == min(n0.evaluate(v), n1.evaluate(v))


def test_d1_join_identity_random() -> None:
    rng = random.Random(31)
    for _ in range(50):
        d = rng.randint(1, 4)
        n0 = _std(tuple(rng.randint(-4, 4) for _ in range(d)))
        n1 = _std(tuple(rng.randint(-4, 4) for _ in range(d)))
        j = join(n0, n1)
        assert d * distance(n0, n1, 1) == volume(n0, j) + volume(n1, j)


# -- properties over Q(t) -----------------------------------------------------


@st.composite
def _tadic_norms(draw, count):
    """``count`` norms over Q(t) of one dimension, 2 or 3: basis entries in
    [-3, 3], of which a sixth (rounded) carry t or t^2 at random places,
    and integer weights in [-6, 6]."""
    dim = draw(st.sampled_from((2, 3)))
    size = dim * dim
    norms = []
    for _ in range(count):
        entries = draw(st.lists(st.integers(-3, 3), min_size=size,
                                max_size=size))
        places = draw(st.permutations(range(size)))[:round(size / 6)]
        powers = dict.fromkeys(range(size), 0)
        for k in places:
            powers[k] = draw(st.integers(1, 2))
        basis = tuple(
            tuple(TADIC.of(entries[i * dim + j])
                  * RatFunc.t_power(powers[i * dim + j]) for j in range(dim))
            for i in range(dim))
        weights = tuple(F(w) for w in draw(st.lists(
            st.integers(-6, 6), min_size=dim, max_size=dim)))
        try:
            norms.append(DiagNorm(TADIC, basis, weights))
        except NormError:
            assume(False)
    return norms


_TADIC_SETTINGS = settings(max_examples=60)


@_TADIC_SETTINGS
@given(_tadic_norms(3))
def test_volume_cocycle_tadic(norms) -> None:
    a, b, c = norms
    assert volume(a, b) + volume(b, c) == volume(a, c)


@_TADIC_SETTINGS
@given(_tadic_norms(3))
def test_d1_triangle_tadic(norms) -> None:
    a, b, c = norms
    assert distance(a, c, 1) <= distance(a, b, 1) + distance(b, c, 1)


@_TADIC_SETTINGS
@given(_tadic_norms(2))
def test_join_dominates_both_inputs_tadic(norms) -> None:
    # max of norms = min on the -log scale, on each input's basis vectors
    a, b = norms
    j = join(a, b)
    for v in a.basis + b.basis + j.basis:
        assert j.evaluate(v) == min(a.evaluate(v), b.evaluate(v))


_QT_VECTOR_ENTRY = st.one_of(
    st.just(TADIC.zero),
    st.builds(lambda c, k: TADIC.of(c) * RatFunc.t_power(k),
              st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2))),
              st.integers(-2, 2)),
    st.builds(lambda a, k: RatFunc((a, 1), (1, 1)) * RatFunc.t_power(k),
              st.integers(-2, 2), st.integers(-2, 2)),
)


@st.composite
def _tadic_values_case(draw):
    """A Q(t) norm, standard or not, and vectors: both bases, vectors with
    t-power and 1 + t denominators, and zero."""
    n, other = draw(_tadic_norms(2))
    if draw(st.booleans()):
        n = DiagNorm.standard(TADIC, n.weights)
    d = n.dim
    vector = st.lists(_QT_VECTOR_ENTRY, min_size=d, max_size=d).map(tuple)
    vecs = (n.basis + other.basis + tuple(draw(st.lists(vector, max_size=4)))
            + ((TADIC.zero,) * d,))
    return n, other, vecs


@_TADIC_SETTINGS
@given(_tadic_values_case())
def test_batched_values_match_evaluate_tadic(case) -> None:
    n, other, vecs = case
    want = oracles.coordinate_values(n, vecs)
    got = _values(n, vecs)
    assert got == want and got[-1] is INF
    assert tuple(map(n.evaluate, vecs)) == want
    both = n.basis + other.basis
    assert (n == other) == (oracles.coordinate_values(n, both)
                            == oracles.coordinate_values(other, both))
    assert oracles.verifies_in_field(n, other, codiagonalize(n, other))


def _fixed_tadic_pairs():
    t, one, zero = RatFunc.t_power(1), TADIC.one, TADIC.zero
    two, three = TADIC.of(2), TADIC.of(3)
    a = DiagNorm(TADIC, ((one, t, zero), (zero, one, two), (t * t, zero, one)),
                 (F(0), F(1), F(-2)))
    b = DiagNorm(TADIC, ((one, one, zero), (zero, t, one), (three, zero, t)),
                 (F(2), F(0), F(1)))
    c = DiagNorm.standard(TADIC, (F(-1), F(3), F(0)))
    return ((a, b), (b, c), (c, a))


def test_tadic_spectrum_and_join_call_no_evaluate(monkeypatch) -> None:
    pairs = _fixed_tadic_pairs()
    calls = []
    real = DiagNorm.evaluate
    monkeypatch.setattr(DiagNorm, "evaluate",
                        lambda self, v: calls.append(v) or real(self, v))
    for n0, n1 in pairs:
        assert volume(n0, n1) == sum(spectrum(n0, n1))
        j = join(n0, n1)
        assert j.dim == 3 and j == join(n1, n0)
    assert calls == []


def test_lattice_branch_solves_without_inverting(monkeypatch) -> None:
    pairs = _fixed_tadic_pairs()
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("invert", "inverse_rows", "inverse_columns", "rref",
                 "mat_vec", "mat_mul"):
        real = getattr(linalg, name, None)
        monkeypatch.setattr(linalg, name, counted(name, real), raising=False)
    for n0, n1 in pairs:
        pair = NormPair(n0, n1)
        result = _in_field(TADIC, pair._split() + (pair._inverse(),),
                           pair._den)
        assert oracles.verifies_in_field(n0, n1, result[:3])
        assert codiagonalize(n0, n1, inverse=True) == result
    assert calls == []


# -- the Smith loop on Z[t] rows ------------------------------------------------


def _raw_entry(kind, c, k):
    """(num, den) integer coefficient tuples, constant term first:
    0, c t^k, or (c + t) t^k / (1 + t)."""
    if kind == 0 or not c:
        return (), (1,)
    num = (c,) if kind == 1 else (c, 1)
    den = (1,) if kind == 1 else (1, 1)
    if k >= 0:
        return (0,) * k + num, den
    return num, (0,) * -k + den


@st.composite
def _raw_lattice_pairs(draw):
    """Bases of two Q(t) norms as raw (num, den) entries, with integer
    weights in [-4, 4].

    Dimension 1 to 4.  Entries are 0, c t^k or (c + t) t^k / (1 + t) for
    |k| <= 2; a flat basis (constants only) makes every valuation of the
    change of basis tie, so the pivot order rests on the (i, j) tie-break.
    """
    d = draw(st.integers(1, 4))
    out = []
    for _ in range(2):
        flat = draw(st.booleans())
        kinds = st.just(1) if flat else st.sampled_from((0, 1, 1, 1, 2))
        powers = st.just(0) if flat else st.integers(-2, 2)
        entry = st.tuples(kinds, st.integers(-3, 3), powers)
        basis = tuple(tuple(_raw_entry(*draw(entry)) for _ in range(d))
                      for _ in range(d))
        weights = tuple(draw(st.lists(st.integers(-4, 4), min_size=d,
                                      max_size=d)))
        out.append((basis, weights))
    return out


def _lattice_norms(raw):
    norms = []
    for basis, weights in raw:
        try:
            norms.append(DiagNorm(
                TADIC, tuple(tuple(RatFunc(n, e) for n, e in vec)
                             for vec in basis), tuple(map(F, weights))))
        except NormError:
            assume(False)
    return norms


@settings(max_examples=200)
@given(_raw_lattice_pairs())
def test_smith_matches_field_oracle(raw) -> None:
    # basis, weights and so every printed basis entry for entry: the same
    # pivots, row operations and P as the RatFunc loop
    n0, n1 = _lattice_norms(raw)
    got = _in_field(TADIC, NormPair(n0, n1)._split())
    assert got == oracles.codiagonalize_lattices_field(n0, n1)
    if n0.basis != n1.basis:
        result = codiagonalize(n0, n1)
        assert result == got[:3]
        assert all(type(x) is RatFunc for vec in result[0] for x in vec)


@settings(max_examples=120)
@given(_raw_lattice_pairs(), st.sampled_from((1, 2, 3)),
       st.sampled_from((1, 2, 4)))
def test_kernel_outputs_match_the_unit_ball_route(raw, q0, q1) -> None:
    # the kernel runs on the bases as they are, with the full weights, and
    # its outputs are scaled into the unit balls once: C, the inverse
    # derived from P, and both weight lists equal those of the run on the
    # unit-ball columns t^(-floor(w)) s, as field values; the weights are
    # rational, with negative floors
    n0, n1 = _lattice_norms([(basis, [F(w, q) for w in weights])
                             for (basis, weights), q in zip(raw, (q0, q1))])
    pair = NormPair(n0, n1)
    assume(not pair._checked())
    C, _, w0, w1 = pair._smith()
    got = (linalg.row_values(TADIC, C),
           linalg.row_values(TADIC, pair._inverse()),
           *(tuple(F(x, pair._den) for x in w) for w in (w0, w1)))
    assert got == oracles.smith_unit_ball_columns(n0, n1)


@_BOTH_FIELDS
def test_kernel_reads_the_records_as_they_are(field, monkeypatch) -> None:
    # linalg.smith gets n0's cached inverse rows and both records' columns
    # themselves: no shifted copy of either is built
    seen = []
    real = linalg.smith
    monkeypatch.setattr(linalg, "smith", lambda *args: seen.append(args)
                        or real(*args))
    pairs = _random_pairs(random.Random(f"records:{field.name}"), field, 12)
    for n0, n1 in pairs:
        NormPair(n0, n1)._kernel_basis()
    assert len(seen) == len(pairs)
    for (n0, n1), (_, inv0, cols0, cols1, *_) in zip(pairs, seen):
        assert inv0 is n0._inverse()
        assert cols0 is n0._rec.rows and cols1 is n1._rec.rows


def test_smith_breaks_valuation_ties_by_first_index() -> None:
    # every entry of M0^{-1} M1 has valuation 0: the pivots are taken in
    # row-major order, as the field loop takes them
    n0 = DiagNorm(TADIC, ((F(1), F(2)), (F(3), F(1))), (F(0), F(0)))
    n1 = DiagNorm(TADIC, ((F(2), F(1)), (F(1), F(1))), (F(0), F(0)))
    got = _in_field(TADIC, NormPair(n0, n1)._split())
    assert got == oracles.codiagonalize_lattices_field(n0, n1)
    assert codiagonalize(n0, n1) == got[:3]
    assert spectrum(n0, n1) == (F(0), F(0))


def _substitute_t_power(raw, q):
    """The raw pairs with t replaced by t^q in every coefficient tuple."""
    def sub(poly):
        out = [0] * (q * (len(poly) - 1) + 1) if poly else []
        for k, c in enumerate(poly):
            out[q * k] = c
        return tuple(out)

    return [(tuple(tuple((sub(n), sub(e)) for n, e in vec) for vec in basis),
             weights) for basis, weights in raw]


@settings(max_examples=60)
@given(_raw_lattice_pairs(), st.sampled_from((2, 3)))
def test_rational_weights_by_ramified_base_change(raw, q) -> None:
    # u = t^(1/q) generates a totally ramified extension Q(u) of Q(t), with
    # the orthogonal basis 1, u, ..., u^(q-1); orthogonal bases over Q(t)
    # stay orthogonal over Q(u), where ord_u = q ord_t.  So the weights W/q
    # over Q(t) have 1/q times the spectrum of the weights W over
    # Q(u) = Q(t), with t -> t^q in every entry (u -> t)
    n0, n1 = _lattice_norms([(basis, [F(w, q) for w in weights])
                             for basis, weights in raw])
    assert oracles.verifies_in_field(n0, n1, codiagonalize(n0, n1))
    m0, m1 = _lattice_norms(_substitute_t_power(raw, q))
    _, v0, v1 = oracles.codiagonalize_lattices_field(m0, m1)
    assert spectrum(n0, n1) == tuple(sorted(F(a - b, q)
                                            for a, b in zip(v0, v1)))


_QUARTERS = tuple(F(k, 4) for k in range(5))


@settings(max_examples=40)
@given(_raw_lattice_pairs())
def test_tadic_geodesic_is_a_metric_geodesic(raw) -> None:
    # the slices share the common basis; n0 and n1 keep their own, so the
    # distances from them to an interior slice codiagonalize rational
    # weights over Q(t)
    n0, n1 = _lattice_norms(raw)
    geo = geodesic(n0, n1)
    points = ([(s, geo.at(s)) for s in _QUARTERS]
              + [(F(0), n0), (F(1), n1)])
    for p in (1, math.inf):
        total = distance(n0, n1, p)
        for s, a in points:
            for u, b in points:
                assert distance(a, b, p) == abs(u - s) * total


def _ord_t(poly, t):
    coeffs = poly.as_poly(t).all_coeffs()[::-1]
    return next(i for i, c in enumerate(coeffs) if c)


@settings(max_examples=40)
@given(_raw_lattice_pairs())
def test_smith_exponents_match_sympy_invariant_factors(raw) -> None:
    # Smith form over Q[t] (sympy, tests only), localized at t: the
    # invariant factors f_i of D M for M = M0^{-1} M1 and a polynomial D
    # clearing M have t-adic orders ord(f_i) = e_i + ord(D)
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    n0, n1 = _lattice_norms(raw)
    t = sympy.Symbol("t")

    def lattice(basis, weights):
        # columns t^{-w_i} s_i
        d = len(basis)
        return sympy.Matrix(d, d, lambda r, c: sympy.Poly(
            basis[c][r][0][::-1] or [0], t).as_expr()
            / sympy.Poly(basis[c][r][1][::-1], t).as_expr()
            * t ** -weights[c])

    (b0, w0), (b1, w1) = raw
    M = (lattice(b0, w0).inv() * lattice(b1, w1)).applyfunc(sympy.cancel)
    D = sympy.lcm([sympy.fraction(x)[1] for x in M])
    factors = invariant_factors((M * D).applyfunc(sympy.cancel),
                                domain=sympy.QQ[t])
    expected = sorted(_ord_t(f, t) - _ord_t(D, t) for f in factors)
    assert spectrum(n0, n1) == tuple(F(e) for e in expected)


# -- functorial constructions --------------------------------------------------


def test_det_norm_sums_weights() -> None:
    n = _std((1, 2, 3))
    assert det_norm(n).weights == (F(6),)


def test_det_norm_presentation_independent_tadic() -> None:
    # same norm, two diagonalizing presentations; the wedge weight must agree
    t = RatFunc.t_power(1)
    one, zero = TADIC.one, TADIC.zero
    scaled = DiagNorm(TADIC, ((t, zero), (zero, one)), (F(0), F(0)))
    standard = DiagNorm.standard(TADIC, (F(-1), F(0)))
    assert scaled == standard
    assert det_norm(scaled).weights == det_norm(standard).weights == (F(-1),)


def test_sym_power_weights() -> None:
    n = _std((0, 1))
    s = sym_power_norm(n, 2)
    assert sym_monomials(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert tuple(sorted(s.weights)) == (F(0), F(1), F(2))


@pytest.mark.parametrize("m", [0, -1, 1.5, 2.0, F(2), True, "2", None])
def test_sym_power_rejects_bad_m(m) -> None:
    # a non-int or boolean m gets the one-line error that m < 1 gets
    with pytest.raises(NormError, match=r"^symmetric power m must be a "
                                        r"positive integer, got "):
        sym_power_norm(_std((0, 1)), m)


def test_sym_power_cross_basis_agrees_with_evaluation() -> None:
    # sym^2 of the cross pair's second norm: check on squared coordinates
    _, n1 = _cross_pair()
    s = sym_power_norm(n1, 2)
    # (e1+e2)^2 has sym-coordinates (1, 2, 1) in the monomial basis of
    # (x^2, xy, y^2) and weight 0 under the construction
    assert s.evaluate((F(1), F(2), F(1))) == 0


def test_tensor_norm_weights() -> None:
    n = _std((0, 1))
    m = _std((2,))
    tn = tensor_norm(n, m)
    assert tuple(sorted(tn.weights)) == (F(2), F(3))


def test_quotient_of_trivial_norm() -> None:
    n = DiagNorm.trivial(TRIVIAL, 2)
    q, project = quotient_norm(n, [(F(1), F(1))])
    assert q.dim == 1
    img = project((F(1), F(0)))
    assert q.evaluate(img) == 0


def test_quotient_matches_coset_oracle() -> None:
    n = _std((0, 2))
    sub = [(F(1), F(1))]
    q, project = quotient_norm(n, sub)
    for v in ((F(1), F(0)), (F(0), F(1)), (F(2), F(-1))):
        expected = oracles.coset_sup(n.evaluate, list(v), sub)
        assert q.evaluate(project(v)) == expected



@pytest.mark.parametrize("bad", [(F(1), F(1)), (F(1), F(1), F(0), F(5))])
def test_quotient_rejects_spanning_vectors_of_wrong_length(bad) -> None:
    n = _std((0, 1, 2))
    with pytest.raises(NormError, match=rf"length {len(bad)}, expected 3"):
        quotient_norm(n, [(F(1), F(0), F(0)), bad])


_QUOTIENT_ENTRY = {
    TRIVIAL: st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2))),
    # c t^k for k in [-1, 2], and (c + t) / (1 + t)
    TADIC: st.one_of(
        st.builds(lambda c, k: TADIC.of(c) * RatFunc.t_power(k),
                  st.integers(-3, 3), st.integers(-1, 2)),
        st.builds(lambda c: RatFunc((c, 1), (1, 1)), st.integers(-2, 2))),
}


@st.composite
def _quotient_cases(draw, field):
    """A norm of dimension 2..5 over ``field`` (standard basis or random),
    with rational weights; 1 to d - 1 random spanning vectors with a zero
    vector and combinations of them mixed in; and vectors to project,
    the spanning vectors among them."""
    d = draw(st.integers(2, 5))
    entry = _QUOTIENT_ENTRY[field]
    vector = st.lists(entry, min_size=d, max_size=d).map(tuple)
    weights = tuple(draw(st.lists(st.builds(F, st.integers(-4, 4),
                                            st.sampled_from((1, 2, 3))),
                                  min_size=d, max_size=d)))
    if draw(st.booleans()):
        n = DiagNorm.standard(field, weights)
    else:
        try:
            n = DiagNorm(field, tuple(draw(vector) for _ in range(d)), weights)
        except NormError:
            assume(False)
    spanning = [draw(vector) for _ in range(draw(st.integers(1, d - 1)))]
    assume(any(any(v) for v in spanning))
    extra = [(field.zero,) * d]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(spanning)), draw(st.sampled_from(spanning))
        c = draw(entry)
        extra.append(tuple(c * x + y for x, y in zip(a, b)))
    spanning = draw(st.permutations(spanning + extra))
    vecs = spanning + [draw(vector) for _ in range(3)]
    return n, spanning, vecs


@pytest.mark.parametrize("field", [TRIVIAL, TADIC], ids=["Q", "Q(t)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_matches_exchange_oracle(field, data) -> None:
    n, spanning, vecs = data.draw(_quotient_cases(field))
    q, project = quotient_norm(n, spanning)
    want, want_project = oracles.quotient_norm_exchange(n, spanning)
    assert q.is_standard_basis() and q.weights == want.weights
    for v in vecs:
        image = project(v)
        assert image == want_project(v)
        # v is one representative of its coset
        assert q.evaluate(image) >= n.evaluate(v)
    for w in spanning:
        assert not any(project(w))


@settings(max_examples=40)
@given(st.data())
def test_quotient_by_a_line_matches_coset_sup(data) -> None:
    # a line spanned by a vector of entries 0 and +-1 in the standard
    # basis: the best representative of v adds -v_p / u_p u, an integer
    # multiple in [-3, 3] of u, which the oracle's search covers
    d = data.draw(st.integers(2, 4))
    n = _std(data.draw(st.lists(st.builds(F, st.integers(-3, 3),
                                          st.sampled_from((1, 2))),
                                min_size=d, max_size=d)))
    u = tuple(map(F, data.draw(st.lists(st.integers(-1, 1), min_size=d,
                                        max_size=d))))
    assume(any(u))
    v = tuple(map(F, data.draw(st.lists(st.integers(-3, 3), min_size=d,
                                        max_size=d))))
    q, project = quotient_norm(n, [u])
    assert q.evaluate(project(v)) == oracles.coset_sup(n.evaluate, list(v), [u])


def test_quotient_inverts_nothing(monkeypatch) -> None:
    t = RatFunc.t_power(1)
    for field, entry in ((TRIVIAL, F(1, 2)), (TADIC, t)):
        one, zero = field.one, field.zero
        n = DiagNorm(field, ((one, entry, zero), (zero, one, entry),
                             (entry, zero, one)), (F(0), F(1, 2), F(-1)))
        calls = []
        for name in ("inverse_rows", "inverse_columns"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *args, _real=real:
                                calls.append(args) or _real(*args))
        q, project = quotient_norm(n, [(one, zero, one), (zero, entry, one)])
        project((one, one, zero))
        monkeypatch.undo()
        assert calls == []
        assert q.dim == 1

# -- serialization --------------------------------------------------------------


def test_json_round_trip_trivial() -> None:
    n0, n1 = _cross_pair()
    for n in (n0, n1):
        again = DiagNorm.from_json(n.to_json())
        assert again == n


def test_json_round_trip_tadic() -> None:
    t = RatFunc.t_power(1)
    one, zero = TADIC.one, TADIC.zero
    n = DiagNorm(TADIC, ((t, zero), (zero, one)), (F(0), F(-2)))
    assert DiagNorm.from_json(n.to_json()) == n
