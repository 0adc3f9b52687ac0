"""The benchmark's seed-0 op pools reproduce its committed references.

Every op of each workload's seed-0 pool, built by ``workloads.make_op``,
runs once; its canonical text (``run.canon_text``) must equal the text
that ``perfbench/reference`` stores for its index, and it must pass its
own check.  So the byte-identity that every refactor claims for the
benchmark's results is held by the test suite.  Nothing is timed and no
reference is written; ``perfbench/selftest.py`` runs the benchmark itself
end to end and stays a manual check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module, with its siblings importable while
    the module's tests run."""
    saved = sys.path[:]
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    yield run, run.import_geonorm()
    sys.path[:] = saved


@pytest.mark.parametrize("workload", ["toric-segments", "tadic-norms",
                                      "rational-norms", "cli-run"])
def test_seed_zero_pool_matches_its_reference(bench, workload,
                                              tmp_path) -> None:
    run, workloads = bench
    reference = run.load_reference(workload)
    count = run.POOL_OPS[workload]
    assert len(reference) >= count
    bad = []
    for i in range(count):
        op = workloads.make_op(workload, run.DEFAULT_SEED, i, str(tmp_path))
        result = op.run()
        if (run.canon_text(op, result) != reference[op.index]
                or not op.check(result)):
            bad.append((op.index, op.kind))
        if op.cleanup is not None:
            op.cleanup()
    assert bad == []
