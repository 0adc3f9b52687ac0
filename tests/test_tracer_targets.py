"""The benchmark's traced layers resolve against the library."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names the tracer still lists whose functions left the library; the
# tracer skips a missing name, so its layer reads as a measured zero
GONE = {"linalg.invert", "linalg.intersect_spans", "linalg.extend_independent",
        "linprog.minimize_max_affine", "plconvex.integrate_difference"}


def test_no_traced_layer_disappears_silently() -> None:
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for mod, qual in tracer.TARGETS:
        # resolved as Tracer.install resolves it: a function by name, a
        # class through its own __init__, a method through its class
        module = importlib.import_module(f"geonorm.{mod}")
        head, _, method = qual.partition(".")
        obj = getattr(module, head, None)
        if obj is not None and (method or isinstance(obj, type)):
            obj = obj.__dict__.get(method or "__init__")
        if obj is None:
            missing.add(f"{mod}.{qual}")
    assert missing <= GONE
