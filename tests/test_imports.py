"""No module in ``src/bnl`` imports a name at module level that it never uses.

No linter ships with the test dependencies, so this check reads each
module's syntax tree itself.  A deletion that leaves its imports behind
fails here.  ``from __future__`` imports are exempt.
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
