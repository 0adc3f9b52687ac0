"""No module but ``field`` checks a count, a time or an exponent itself.

``field.read_count``, ``field.read_time`` and ``field.read_exponent`` are
the one place where an argument of these kinds is checked.  Each module
of ``src/geonorm`` other than ``field.py`` is parsed with ``ast``, and
each of the forms such a check is written in fails here:

* a chained comparison ``0 <= x <= 1`` (a time);
* a test ``type(x) is int`` or ``type(x) is not int`` (a count);
* a comparison ``x < 1`` or ``x >= 1`` against the literal 1 (a count).

The one exemption is config's ``seed``, which may be any int.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "geonorm"

EXEMPT = {("config.py", "type(task['seed']) is not int")}


def _is_literal(node, value) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value == value)


def _is_check(node: ast.Compare) -> bool:
    ops, left, right = node.ops, node.left, node.comparators
    if len(ops) == 2:
        return (all(isinstance(op, (ast.Lt, ast.LtE)) for op in ops)
                and _is_literal(left, 0) and _is_literal(right[1], 1))
    if isinstance(ops[0], (ast.Is, ast.IsNot)):
        return (isinstance(left, ast.Call)
                and isinstance(left.func, ast.Name) and left.func.id == "type"
                and isinstance(right[0], ast.Name) and right[0].id == "int")
    return isinstance(ops[0], (ast.Lt, ast.GtE)) and _is_literal(right[0], 1)


def _checks(sources):
    """``module:line: text`` of each argument check in ``sources``
    (``{module: source}``) outside ``field.py``, bar the exemption."""
    found = []
    for module, text in sources.items():
        if module == "field.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Compare) and _is_check(node)
                    and (module, ast.unparse(node)) not in EXEMPT):
                found.append((module, node.lineno, ast.unparse(node)))
    return [f"{m}:{line}: {text}" for m, line, text in sorted(found)]


def test_only_field_checks_counts_times_and_exponents() -> None:
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _checks(sources) == []


def test_each_form_of_check_is_found() -> None:
    sources = {
        "a.py": "def f(t, k, p, task):\n"
                "    ok = 0 <= t <= 1 or 0 < t < 1\n"
                "    ok = type(k) is int and type(p) is not int\n"
                "    ok = k < 1 or p >= 1\n"
                "    ok = type(task['seed']) is not int\n"
                "    ok = 1 <= k <= 9 or k < 2 or k > 1 or k < 1.0\n"
                "    ok = type(k) is float or k == 1\n",
        "config.py": "ok = type(task['seed']) is not int\n",
        "field.py": "ok = 0 <= t <= 1 and type(k) is int and k < 1\n",
    }
    assert _checks(sources) == [
        "a.py:2: 0 < t < 1",
        "a.py:2: 0 <= t <= 1",
        "a.py:3: type(k) is int",
        "a.py:3: type(p) is not int",
        "a.py:4: k < 1",
        "a.py:4: p >= 1",
        "a.py:5: type(task['seed']) is not int",
    ]
