"""No module in ``src/bnl`` imports a name at module level that it never uses,
none names ``scipy.linalg``, none holds an ``assert`` statement, and in
``cli.py`` only ``main`` and ``_Parser.error`` name ``sys.stderr``.

No linter ships with the test dependencies, so these checks read each
module's syntax tree themselves.  A deletion that leaves its imports behind
fails here.  ``from __future__`` imports are exempt.  Commands run on numpy
alone, and loading ``scipy.linalg`` costs every process that does so ~25 MiB;
the syntax check also covers paths that no CLI fixture reaches.  A check
written as ``assert`` vanishes under ``python -O``, so every check raises.
A failed self-check raises where it runs, and ``main`` alone turns it into
one ``bnl:`` line on stderr.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bnl"


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports in ``source`` that no expression reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in used]


def _is_scipy_linalg(module: str) -> bool:
    return (module + ".").startswith("scipy.linalg.")


def scipy_linalg_uses(source: str) -> list[int]:
    """Lines of ``source`` that import ``scipy.linalg`` or read it as an attribute of scipy."""
    tree = ast.parse(source)
    # `import scipy as sp` binds sp, and `import scipy.sparse` binds scipy itself.
    scipy_names = {
        alias.asname or "scipy" for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "scipy" or alias.name.startswith("scipy.") and not alias.asname
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named = any(_is_scipy_linalg(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            named = _is_scipy_linalg(node.module or "") or (
                node.module == "scipy" and any(alias.name == "linalg" for alias in node.names)
            )
        else:
            named = (isinstance(node, ast.Attribute) and node.attr == "linalg"
                     and isinstance(node.value, ast.Name) and node.value.id in scipy_names)
        if named:
            lines.append(node.lineno)
    return lines


def test_check_finds_the_imports_a_deletion_leaves_behind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass\n"
        "from typing import Callable, Iterator, TypeVar\n"
        "def grid(n: int) -> Iterator[float]:\n"
        "    return iter(np.arange(n))\n"
    )
    assert unused_imports(source) == ["os", "dataclass", "Callable", "TypeVar"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_every_way_to_name_scipy_linalg():
    source = (
        "import scipy.sparse\n"
        "import scipy as sp\n"
        "import scipy.linalg\n"
        "import scipy.linalg.lapack as lapack\n"
        "from scipy import linalg\n"
        "from scipy.linalg import expm\n"
        "def f(m):\n"
        "    return scipy.linalg.expm(m), sp.linalg.schur(m), np.linalg.eigh(m), scipy.sparse\n"
    )
    assert sorted(scipy_linalg_uses(source)) == [3, 4, 5, 6, 8, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_names_no_scipy_linalg(path):
    assert scipy_linalg_uses(path.read_text()) == []


def assert_lines(source: str) -> list[int]:
    """Lines of ``source`` that hold an ``assert`` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def stderr_users(source: str) -> list[str]:
    """Qualified names of the functions or classes of ``source`` that name ``sys.stderr``, one per use.

    A use outside any definition is reported as ``<module>``.
    """
    tree = ast.parse(source)
    sys_names = {
        alias.asname or "sys" for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "sys"
    }
    stderr_names = {
        alias.asname or "stderr" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module == "sys" for alias in node.names if alias.name == "stderr"
    }
    users = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id in sys_names
                or isinstance(node, ast.Name) and node.id in stderr_names):
            users.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return users


def test_check_finds_every_assert():
    source = (
        "assert True\n"
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return x\n"
    )
    assert assert_lines(source) == [1, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_holds_no_assert(path):
    assert assert_lines(path.read_text()) == []


def test_check_finds_every_way_to_name_stderr():
    source = (
        "import sys\n"
        "import sys as system\n"
        "from sys import stderr as err, stdout\n"
        "LOG = sys.stderr\n"
        "class Parser:\n"
        "    def error(self, message):\n"
        "        print(message, file=system.stderr)\n"
        "def main():\n"
        "    print('done', file=sys.stdout)\n"
        "    err.write('bnl: failed')\n"
        "def report():\n"
        "    emit = lambda line: print(line, file=sys.stderr)\n"
    )
    assert stderr_users(source) == ["<module>", "Parser.error", "main", "report"]


def test_only_main_and_the_usage_error_write_to_stderr_in_the_cli():
    assert set(stderr_users((SRC / "cli.py").read_text())) <= {"main", "_Parser.error"}
