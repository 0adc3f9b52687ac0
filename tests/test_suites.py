"""Verification suite runner and planted-failure controls.

The norms suite repeats the randomized spectral checks and takes over a
minute; the acceptance tests run it once.  Here we cover the three fast
suites plus the runner contract.
"""

import random
from fractions import Fraction

import pytest

import oracles
from geonorm import linalg
from geonorm.field import TRIVIAL
from geonorm.graded import GradedNorm
from geonorm.norms import DiagNorm
from geonorm.segments import detect_non_psh, planted_non_psh_path
from geonorm.suites import (
    SUITE_NAMES,
    _filtration_spectrum_oracle,
    _lattice_concavity_oracle,
    check_submultiplicative,
    planted_submultiplicativity_violation,
    run_suite,
    serialize_counterexample,
)

FAST = ("graded", "kiselman", "theoremB")


def test_suite_names() -> None:
    assert SUITE_NAMES == ("norms", "graded", "kiselman", "theoremB")


def test_unknown_suite_rejected() -> None:
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("spectra")


@pytest.mark.parametrize("name", FAST)
def test_fast_suites_pass(name: str) -> None:
    rows = run_suite(name, seed=0)
    assert rows
    for row in rows:
        assert set(row) == {"suite", "check", "status", "exact", "detail"}
        assert row["suite"] == name
        assert isinstance(row["exact"], bool)
        assert row["status"] == "pass", row


def test_suites_deterministic() -> None:
    first = run_suite("graded", seed=0)
    second = run_suite("graded", seed=0)
    assert first == second


def test_all_includes_every_suite() -> None:
    # membership only; running "all" would repeat the slow norms suite
    assert "all" not in SUITE_NAMES
    with pytest.raises(ValueError):
        run_suite("ALL")


def test_planted_submultiplicativity_violation_is_caught() -> None:
    gn = planted_submultiplicativity_violation()
    assert isinstance(gn, GradedNorm)
    violation = check_submultiplicative(gn)
    assert violation == (1, 1, (0,), (0,))
    assert serialize_counterexample(violation) == {
        "k": 1,
        "l": 1,
        "a": [0],
        "b": [0],
    }


def test_planted_non_psh_path_is_caught() -> None:
    ring, k, samples = planted_non_psh_path()
    witness = detect_non_psh(ring, k, samples)
    assert witness == {
        "t0": "0",
        "t1": "1/2",
        "t2": "1",
        "point": ["0"],
        "lhs": "1/2",
        "rhs": "0",
    }


def test_healthy_path_has_no_witness() -> None:
    from fractions import Fraction as F

    ring, k, _ = planted_non_psh_path()
    samples = (
        (F(0), {(0,): F(0), (1,): F(0)}),
        (F(1, 2), {(0,): F(0), (1,): F(-1)}),
        (F(1), {(0,): F(0), (1,): F(-2)}),
    )
    assert detect_non_psh(ring, k, samples) is None


def test_lattice_concavity_oracle_rejects_width_above_4() -> None:
    from fractions import Fraction as F

    # width 4 (k = 2, m = 2 on P^1): five lattice points, a concave row
    assert _lattice_concavity_oracle(1, 2, 2, tuple(map(F, (0, 1, 1, 1, 0))))
    assert not _lattice_concavity_oracle(1, 2, 2, tuple(map(F, (0, 1, 0, 1, 0))))
    # width 5: the denominator-12 grid would miss fifths, so it must refuse
    with pytest.raises(ValueError, match="k\\*m <= 4"):
        _lattice_concavity_oracle(1, 5, 1, tuple(F(0) for _ in range(6)))


def _random_trivial_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        bases = []
        while len(bases) < 2:
            A = [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                 for _ in range(d)]
            if oracles.rank(A) == d:
                bases.append(tuple(tuple(r) for r in A))
        # few distinct weights, so the flags have repeated levels
        w0 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
        w1 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
        yield bases[0], w0, bases[1], w1


def test_filtration_spectrum_oracle_matches_trivial_spectrum() -> None:
    for b0, w0, b1, w1 in _random_trivial_pairs(29, 60):
        got = _filtration_spectrum_oracle(DiagNorm(TRIVIAL, b0, w0),
                                          DiagNorm(TRIVIAL, b1, w1))
        assert got == oracles.trivial_spectrum(b0, w0, b1, w1)


def test_filtration_spectrum_oracle_avoids_intersect_spans(monkeypatch) -> None:
    # codiagonalize relies on the weighted-pivot kernel linalg.smith, so the
    # suite's independent side must not: a fault there could otherwise pass
    # both sides
    def refuse(*args):
        raise AssertionError("the oracle called linalg.smith")

    monkeypatch.setattr(linalg, "smith", refuse)
    for b0, w0, b1, w1 in _random_trivial_pairs(31, 10):
        got = _filtration_spectrum_oracle(DiagNorm(TRIVIAL, b0, w0),
                                          DiagNorm(TRIVIAL, b1, w1))
        assert got == oracles.trivial_spectrum(b0, w0, b1, w1)
