"""No module imports a name it never uses.

A name a module imports and never reads is dead code that hides what the
module depends on.  Every module of `src/`, `tests/` and `demos/` is
scanned by its syntax tree; a package's `__init__.py` imports to
re-export, and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for tree in ("src", "tests", "demos") for path in (ROOT / tree).rglob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]
