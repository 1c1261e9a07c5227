"""Static checks on the library source."""

import ast
import inspect
import sys
from pathlib import Path

import wstable

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "wstable"


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


def test_every_public_function_is_called_by_a_test():
    """Each function in ``wstable.__all__`` is called in some ``test_*.py``.

    Only a call counts, by bare name or as an attribute: a variable or a
    parameter of the same name does not, and neither do the helper modules
    (oracles, references, dumps) that tests import.  Classes are left out:
    their methods are used through their instances.
    """
    functions = {name for name in wstable.__all__ if inspect.isfunction(getattr(wstable, name))}
    called = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    called.add(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
    assert sorted(functions - called) == []
