"""Every name a clinli module lists in ``__all__`` resolves, the package root
exports no name and loads no module that is not asked for, no module keeps
state in a global it rebinds, only ``batch_loss`` takes both a
``training`` flag and an ``rng``, and no model kind has a constructor of its
own."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import clinli

MODULES = sorted(m.name for m in pkgutil.iter_modules(clinli.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"clinli.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_the_package_root_exports_no_name():
    # each name has one import path, its module's: clinli.<module>
    assert [n for n, v in vars(clinli).items() if not n.startswith("_") and not isinstance(v, ModuleType)] == []


def test_importing_a_module_loads_only_what_it_imports(run_python):
    # in a fresh interpreter, so that no other test's imports are counted
    code = "import sys, clinli.tensor; print(sorted(m for m in sys.modules if m.split('.')[0] == 'clinli'))"
    proc = run_python("-c", code)
    assert proc.stdout.strip() == "['clinli', 'clinli.errors', 'clinli.tensor']", proc.stderr


def module_nodes():
    """(file name, node) for every AST node of every clinli module."""
    for path in sorted(Path(clinli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_module_rebinds_a_global():
    # run-scoped state lives in objects a run owns, never in module globals
    found = [f"{name}:{node.lineno}" for name, node in module_nodes() if isinstance(node, ast.Global)]
    assert found == []


def test_only_batch_loss_takes_a_training_flag_and_an_rng():
    # below batch_loss dropout runs exactly when a generator is passed; batch_loss keeps
    # the flag because the benchmark's tracer reads it to tell training from evaluation
    allowed = {("compaggr.py", "batch_loss"), ("transformer.py", "batch_loss")}
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in module_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and {"training", "rng"} <= {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
        and (name, node.name) not in allowed
    ]
    assert found == []


def test_no_model_kind_defines_its_own_constructor():
    # PairClassifier.__init__ builds, restores and checks every kind's parameters;
    # a kind declares them in _make_parameters
    from clinli.model import PairClassifier

    for name in MODULES:
        importlib.import_module(f"clinli.{name}")
    kinds, todo = [], [PairClassifier]
    while todo:  # subclasses of subclasses too
        todo = [sub for cls in todo for sub in cls.__subclasses__() if sub.__module__.startswith("clinli.")]
        kinds += todo
    assert kinds
    assert [f"{k.__module__}.{k.__name__}" for k in kinds if "__init__" in vars(k)] == []
