import sys
from pathlib import Path

import pytest
from hypothesis import settings

# make the sibling oracle module importable from every test file
sys.path.insert(0, str(Path(__file__).resolve().parent))

# every property replays the same examples on every run and machine, with
# no example database and no per-example deadline; tests set only counts
settings.register_profile("geonorm", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("geonorm")


@pytest.fixture(scope="session")
def suite_rows():
    """Every suite's rows at seed 0 in suite order, run once per session."""
    from geonorm.suites import SUITE_NAMES, run_suite

    return [row for name in SUITE_NAMES for row in run_suite(name, seed=0)]


@pytest.fixture
def conjugated(monkeypatch):
    """Every function passed to ``plconvex.conjugate`` during the test.

    The counting wrapper replaces the name in each geonorm module that
    bound it, so calls from toric and segments are seen as well.
    """
    from geonorm import plconvex

    seen = []
    real = plconvex.conjugate

    def counted(f):
        seen.append(f)
        return real(f)

    for name, mod in list(sys.modules.items()):
        if name.startswith("geonorm.") and getattr(mod, "conjugate", None) is real:
            monkeypatch.setattr(mod, "conjugate", counted)
    return seen
