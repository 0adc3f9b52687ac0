"""Acceptance gate: one test (one pass/fail line under -v) per criterion.

All four verification suites run once in the session fixture
``suite_rows`` (see ``conftest.py``); each criterion asserts its slice of
the check rows, and every row belongs to exactly one slice.  Everything
is exact rational arithmetic except the convergence-rate criterion, whose
5% threshold is still compared between exact rationals.
"""

from fractions import Fraction

import pytest

from geonorm.suites import convergence_pair_p1, convergence_pair_p2
from geonorm.toric import d1_metric, energy

CRITERION_1 = (
    "spectrum-basis-independence",
    "d1-triangle",
    "d1-join-identity",
    "volume-cocycle",
)
CRITERION_2 = (
    "geodesic-log-convexity",
    "geodesic-endpoint-monotonicity",
    "geodesic-determinant",
    "geodesic-affine-volume",
    "geodesic-d1-convexity",
    "geodesic-dinf-convexity",
    "geodesic-sym-power",
)
CRITERION_3 = (
    "graded-geodesic-submultiplicative-P1",
    "graded-geodesic-submultiplicative-P2",
    "graded-dp-linearity",
)
CRITERION_4_EXACT = (
    "fs-supnorm-roundtrip",
    "supnorm-idempotence",
    "d1-two-routes",
)
CRITERION_4_RATE = (
    "energy-d1-convergence-P1",
    "energy-d1-convergence-P2",
)
CRITERION_5 = (
    "marginal-gradient-constraint",
    "legendre-duality-roundtrip",
    "kiselman-worked-case",
)
CRITERION_6 = (
    "maximum-principle",
    "legendre-equals-quantized",
    "energy-affine",
    "d1-geodesicity-per-level",
    "degree-one-stabilization",
)
CRITERION_7 = (
    "planted-submultiplicative-violation",
    "planted-non-psh-segment",
)


@pytest.fixture(scope="session")
def rows(suite_rows):
    return {row["check"]: row for row in suite_rows}


def _assert_pass(rows, checks, exact=True):
    missing = [c for c in checks if c not in rows]
    assert not missing, f"suite rows missing: {missing}"
    failing = [rows[c] for c in checks if rows[c]["status"] != "pass"]
    assert not failing, f"failing checks: {failing}"
    if exact:
        inexact = [c for c in checks if not rows[c]["exact"]]
        assert not inexact, f"checks not exact: {inexact}"


def test_criterion_1_norm_space_spectra_and_distances(rows) -> None:
    _assert_pass(rows, CRITERION_1)


def test_criterion_2_norm_geodesics(rows) -> None:
    _assert_pass(rows, CRITERION_2)


def test_criterion_3_graded_geodesics_submultiplicative(rows) -> None:
    _assert_pass(rows, CRITERION_3)


def test_criterion_4_quantization_and_convergence(rows) -> None:
    _assert_pass(rows, CRITERION_4_EXACT)
    _assert_pass(rows, CRITERION_4_RATE, exact=False)
    # the late gap sits below 5% of the k = 2 gap, compared as exact rationals
    threshold = Fraction(5, 100)
    for pair, k_late in ((convergence_pair_p1(), 40),
                         (convergence_pair_p2(), 12)):
        for fn in (energy, d1_metric):
            res = fn(*pair, kmax=k_late)
            assert res.gap(k_late) <= threshold * res.gap(2)


def test_criterion_5_kiselman_minimum_principle(rows) -> None:
    _assert_pass(rows, CRITERION_5)


def test_criterion_6_maximal_segments(rows) -> None:
    _assert_pass(rows, CRITERION_6)


def test_criterion_7_planted_negative_controls(rows) -> None:
    _assert_pass(rows, CRITERION_7)


def test_every_row_named_once_and_asserted(suite_rows) -> None:
    # each check's random stream is derived from its name, so two checks
    # sharing a name would share a stream; and a row no criterion names
    # would go unasserted
    names = [row["check"] for row in suite_rows]
    assert len(names) == len(set(names)), names
    asserted = (CRITERION_1 + CRITERION_2 + CRITERION_3 + CRITERION_4_EXACT
                + CRITERION_4_RATE + CRITERION_5 + CRITERION_6 + CRITERION_7)
    assert len(asserted) == len(set(asserted))
    assert set(names) == set(asserted)
