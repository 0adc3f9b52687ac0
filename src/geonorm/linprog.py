"""Kept importable only by name: the exact LP oracle is ``tests/linprog.py``.

No library module solves a linear program (``plconvex`` compares on the
conjugate side).  ``perfbench/workloads.py`` still imports this module,
and its tracer reports ``minimize_max_affine`` as 0 calls when the module
does not define it, as before.
"""
