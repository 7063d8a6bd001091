"""Every name a clinli module lists in ``__all__`` resolves, every name the
package exports is one its module lists, and no module keeps state in a
global it rebinds."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import clinli

# importing clinli.__main__ would run the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(clinli.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"clinli.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_package_export_is_listed_by_its_module():
    listed = {n for m in MODULES for n in getattr(importlib.import_module(f"clinli.{m}"), "__all__", ())}
    exports = {n for n, v in vars(clinli).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert exports and exports <= listed, sorted(exports - listed)


def test_no_module_rebinds_a_global():
    # run-scoped state lives in objects a run owns, never in module globals
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(clinli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []
