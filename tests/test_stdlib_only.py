"""The package imports nothing but the standard library and itself.

Every module of ``src/raagkit`` is parsed, not imported, so an import
guarded by ``try`` or placed inside a function is caught as well.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "raagkit"


def imported_modules(path: Path) -> list[str]:
    """Absolute module names imported anywhere in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    outside = [
        name
        for name in imported_modules(path)
        if name.partition(".")[0] != "raagkit" and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_package_is_found():
    # an empty parameter list above would skip, not fail
    assert (PACKAGE / "__init__.py").is_file()
