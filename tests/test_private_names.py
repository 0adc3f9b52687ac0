"""No private name of the library is defined and never read by it.

Each module of ``src/geonorm`` is parsed with ``ast``.  A private function,
class or module constant (a module-level name with a leading underscore,
dunder names aside), and a private method of a module-level class, must be
read somewhere in ``src/geonorm`` outside its own definition: as a name or
as an attribute.  Names are matched by name alone, so a method counts as
read when any attribute of that name is.  A helper kept only for the tests
fails here; its old route belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "geonorm"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree):
    """``(name, node)`` of each private function, class, module constant
    and method of a module-level class of ``tree``."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                names += [(item.name, item) for item in node.body
                          if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names = [(t.id, node) for t in node.targets
                     if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names = [(node.target.id, node)]
        yield from ((name, n) for name, n in names if _is_private(name))


def _reads(tree):
    """``(name, line)`` of each name read and attribute read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno


def _unread_private_names(sources):
    """``module:name`` of each private name that the modules of
    ``sources`` (``{module: source}``) define and never read outside its
    definition, in module and definition order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {module: list(_reads(tree)) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and (m != module or line not in own)
                       for m, rows in reads.items() for n, line in rows):
                unread.append(f"{module}:{name}")
    return unread


def test_every_private_name_is_read_in_the_library() -> None:
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_an_unread_private_name_is_found() -> None:
    sources = {
        "a.py": "_K = 1\n"
                "def _f():\n    return _f()\n"
                "def _g():\n    return _K\n"
                "class _C:\n"
                "    def _m(self):\n        return self._m()\n"
                "    def _n(self):\n        return 0\n"
                "    def __eq__(self, other):\n        return False\n",
        "b.py": "from a import _g\n"
                "def h(c):\n    return _g(), c._n\n",
    }
    assert _unread_private_names(sources) == ["a.py:_f", "a.py:_C",
                                              "a.py:_m"]
