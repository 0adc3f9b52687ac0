"""No library module imports a name it never reads.

Each module of ``src/geonorm`` is parsed with ``ast``.  A name bound by a
module-level import must be read somewhere in the module, or listed in
its ``__all__``; ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "geonorm"


def _unread_imports(tree):
    """The names the module-level imports of ``tree`` bind and the module
    never reads, in import order."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_read(path) -> None:
    assert _unread_imports(ast.parse(path.read_text())) == []


def test_an_unread_import_is_found() -> None:
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom math import gcd, lcm as l\n"
                     "__all__ = ['gcd']\n")
    assert _unread_imports(tree) == ["os", "l"]
