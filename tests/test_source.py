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


def test_library_does_not_import_dataclasses():
    """The value classes are plain ``__slots__`` classes.

    ``dataclasses`` pulls in ``inspect`` and ``ast``, which every start-up
    of the command line would pay for.
    """
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "dataclasses"]
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


def test_every_private_helper_is_used():
    """Each module-level ``_name`` function is referenced outside its own ``def``.

    A reference is a ``Name`` bound to the helper, in its own module or in
    one that imports it from there, or an ``Attribute`` ``module._name``.
    An import alone is not one, and neither is a method of the same name.
    The module hooks ``__getattr__`` and ``__dir__`` (PEP 562) are exempt:
    the interpreter calls them.
    """
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(SOURCE.glob("*.py"))}
    helpers = {(stem, node.name) for stem, module in modules.items() for node in module.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and node.name not in ("__getattr__", "__dir__")}
    used = set()
    for stem, module in modules.items():
        scope = {name: (home, name) for home, name in helpers if home == stem}
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                scope.update((alias.asname or alias.name, (node.module, alias.name))
                             for alias in node.names)
        for node in module.body:
            own = (stem, node.name) if isinstance(node, ast.FunctionDef) else None
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and inner.id in scope:
                    ref = scope[inner.id]
                elif isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name):
                    ref = (inner.value.id, inner.attr)
                else:
                    continue
                if ref != own:
                    used.add(ref)
    assert helpers
    assert sorted(helpers - used) == []
