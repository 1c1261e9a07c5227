"""The lazy package namespace, and the modules that start-up loads.

Start-up is checked by counting modules, not by timing: each case runs in a
fresh interpreter (``-S``, so ``site`` preloads nothing) and reports the
modules that its statements added.
"""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import wstable

SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_by(statements):
    """The modules that ``statements`` add to ``sys.modules`` in a fresh interpreter."""
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\nbefore = set(sys.modules)\n"
            f"{statements}\nprint(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return set(out.splitlines()[-1].split())


def test_import_loads_no_submodule():
    added = _loaded_by("import wstable")
    assert "wstable" in added
    assert sorted(m for m in added if m.startswith("wstable.")) == []
    assert "dataclasses" not in added


def test_closure_command_loads_only_what_it_uses():
    added = _loaded_by("from wstable import cli\ncli.main(['closure', 'x1*x2'])")
    assert "wstable.closure" in added
    unused = {"wstable.cone", "wstable.series", "wstable.catalan", "wstable.trees",
              "dataclasses", "json"}
    assert sorted(unused & added) == []


def test_json_output_loads_json():
    added = _loaded_by("from wstable import cli\ncli.main(['closure', 'x1*x2', '--json'])")
    assert "json" in added
    assert "wstable.cone" not in added


def test_each_public_name_is_its_home_module_object():
    for name in wstable.__all__:
        value = getattr(wstable, name)
        assert inspect.isclass(value) or inspect.isfunction(value), name
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("wstable.")
        assert getattr(home, name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wstable import *", namespace)
    assert sorted(set(wstable.__all__) - set(namespace)) == []


def test_dir_lists_every_public_name():
    assert sorted(set(wstable.__all__) - set(dir(wstable))) == []
    assert "__version__" in dir(wstable)


def test_submodules_are_attributes():
    assert wstable.cone is importlib.import_module("wstable.cone")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wstable.no_such_name
    assert not hasattr(wstable, "cli_main")
