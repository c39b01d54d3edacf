"""Every name a module under src/bnd imports is used there, every
module-level private helper is read outside its own body, and no module
reads the process environment.

No linter runs on this package, so these stdlib checks stand in for three
lint rules.  Unused imports: a name counts as used when the module reads it
anywhere (annotations included) or lists it in __all__.  Dead private
helpers: a module-level `_name` function or class counts as used when some
other top-level statement of the package reads it, by name, as an
attribute or in an import.  Environment reads: an `environ` or `getenv`
attribute, or either name imported from os, counts as one; a setting read
from the environment is an option that no command-line argument shows.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "bnd"


def _annotations(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a string annotation such as "ClassPoly" reads the names inside it
        for ann in _annotations(node):
            for part in ast.walk(ann):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    inner = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as read\n"
        "from .ring import Ring\n"
        "__all__ = ['Ring']\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return read('dumps')\n"
    )
    assert unused_imports(source) == ["dumps (line 3)", "os (line 2)"]


# -- dead private helpers ----------------------------------------------------


def _reads(node: ast.AST) -> set[str]:
    """Names node reads: loaded names, attribute names and names imported
    from another module."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.ImportFrom):
            names.update(alias.name for alias in part.names)
    return names


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (a leading underscore, not
    a dunder) that no top-level statement of any of the modules reads, other
    than the definition itself; sources maps a module name to its text."""
    defined = []
    reads = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            reads.append((stmt, _reads(stmt)))
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                defined.append((module, stmt))
    return sorted(
        f"{module}:{stmt.name} (line {stmt.lineno})"
        for module, stmt in defined
        if not any(stmt.name in names for other, names in reads if other is not stmt)
    )


def test_no_dead_private_helpers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_private_helpers(sources) == []


def test_dead_helper_check_sees_names():
    sources = {
        "a.py": (
            "def _used(): pass\n"
            "def _recursive(k): return _recursive(k - 1)\n"
            "class _Orphan:\n"
            "    def _method(self): return _Orphan\n"
            "def __getattr__(name): pass\n"
            "def public(): return _used()\n"
        ),
        "b.py": (
            "from .a import _imported\n"
            "import a\n"
            "x = a._by_attribute\n"
        ),
        "c.py": (
            "def _imported(): pass\n"
            "def _by_attribute(): pass\n"
            "def _nowhere(): pass\n"
        ),
    }
    assert dead_private_helpers(sources) == [
        "a.py:_Orphan (line 3)",
        "a.py:_recursive (line 2)",
        "c.py:_nowhere (line 3)",
    ]


# -- environment reads -------------------------------------------------------

ENVIRONMENT_NAMES = ("environ", "getenv")


def environment_reads(source: str) -> list[str]:
    """Where source reads the environment: an environ or getenv attribute
    (os.environ, os.getenv, whatever os is bound to) or an import of either
    from os."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                f"{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in ENVIRONMENT_NAMES
            )
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_environment_read_check_sees_names():
    source = (
        "import os\n"
        "import os as system\n"
        "from os import getenv, path\n"
        "a = os.environ.get('A') or '1'\n"
        "b = system.getenv('B')\n"
        "c = os.path.join('x', 'y')\n"
        "d = {'environ': 1}['environ']\n"
    )
    assert environment_reads(source) == [
        "environ (line 4)",
        "getenv (line 3)",
        "getenv (line 5)",
    ]
