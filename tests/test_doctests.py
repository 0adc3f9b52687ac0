"""The library's docstring examples run with the test suite."""

import doctest
import importlib
import pkgutil

import geonorm


def test_every_module_doctest_passes() -> None:
    modules = [geonorm] + [
        importlib.import_module(f"geonorm.{m.name}")
        for m in pkgutil.iter_modules(geonorm.__path__)]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, f"{module.__name__}: {result}"
        attempted += result.attempted
    assert attempted > 0
