"""Every global name a function in the package looks up must exist, every
name a module imports must be used, and no module imports scipy when it is
imported.

Python resolves a global name only when the function body runs, so an
import left out of a module passes collection and fails at call time.  This
walks each module's symbol table instead of running it.  The converse check
walks each module's syntax tree, annotations included, for imports that a
deletion left behind.  A third walk lists the imports a module runs when it
is imported: scipy.special is imported inside the function that needs it, on
the first Gaussian draw, so that importing the package stays cheap.
"""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

import kronchaos

PACKAGE = Path(kronchaos.__file__).parent
MODULE_GLOBALS = {"__file__", "__name__", "__doc__", "__spec__", "__package__"}
# Imports kept on purpose although the module never reads them.
KEPT_IMPORTS = {
    # bench/test_bench.py patches cli.main_norm_table, so the CLI must bind it
    ("cli.py", "main_norm_table"),
}


def undefined_globals(source: str, filename: str) -> list[tuple[str, str]]:
    """(function, name) pairs for global names no module binding or builtin provides."""
    top = symtable.symtable(source, filename, "exec")
    known = {sym.get_name() for sym in top.get_symbols()
             if sym.is_assigned() or sym.is_imported() or sym.is_namespace()}
    known |= set(dir(builtins)) | MODULE_GLOBALS
    missing = []

    def walk(table):
        for child in table.get_children():
            if child.get_type() == "function":
                missing.extend((child.get_name(), sym.get_name())
                               for sym in child.get_symbols()
                               if sym.is_global() and sym.is_referenced()
                               and sym.get_name() not in known)
            walk(child)

    walk(top)
    return missing


def test_checker_finds_missing_import():
    source = (
        "from os import path\n"
        "def f():\n"
        "    return path, len, absent()\n"
        "class C:\n"
        "    def m(self):\n"
        "        return [gone for _ in path]\n"
    )
    assert undefined_globals(source, "<case>") == [("f", "absent"), ("listcomp", "gone")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_globals_are_defined(module):
    path = PACKAGE / module
    assert undefined_globals(path.read_text(), str(path)) == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports (outside ``from __future__``) but never reads."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Sequence, Iterable as It\n"
        "import numpy as np\n"
        "def f(x: Sequence) -> np.ndarray:\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["os", "It"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_imports_are_used(module):
    # __init__.py is left out: its imports are the package's public names
    unused = unused_imports((PACKAGE / module).read_text())
    assert [name for name in unused if (module, name) not in KEPT_IMPORTS] == []


def module_level_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports a module runs when it is
    imported: every import outside a function body, class bodies and
    ``try``/``if`` blocks included."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module.split(".")[0])
            visit(child)

    visit(ast.parse(source))
    return found


def test_checker_finds_module_level_imports():
    source = (
        "import os.path, numpy as np\n"
        "from scipy.special import ndtri\n"
        "from .errors import ArgumentError\n"
        "try:\n"
        "    import scipy.linalg as sl\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import json\n"
        "    def m(self):\n"
        "        import scipy\n"
        "def f():\n"
        "    import scipy.special\n"
        "    return scipy.special\n"
    )
    assert module_level_imports(source) == ["os", "numpy", "scipy", "scipy", "json"]


def test_checkers_accept_a_function_level_import():
    source = (
        "def f():\n"
        "    import scipy.special\n"
        "\n"
        "    return scipy.special\n"
    )
    assert undefined_globals(source, "<case>") == []
    assert unused_imports(source) == []
    assert module_level_imports(source) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_does_not_import_scipy_when_imported(module):
    assert "scipy" not in module_level_imports((PACKAGE / module).read_text())
