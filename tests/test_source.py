"""Static checks on the library source."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "wstable"


def _is_self_check(node):
    """An ``assert`` statement or a hand-raised ``AssertionError``."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    """``python -O`` strips asserts, so no logic may live in one.

    Internal self-checks belong in tests, so the library raises no
    ``AssertionError`` by hand either.
    """
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _is_self_check(node)]
    assert found == []


def test_library_imports_the_standard_library_only():
    """Every import is relative or names a standard-library module."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
