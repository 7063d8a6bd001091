"""Every name a clinli module lists in ``__all__`` resolves, the package root
exports no name and loads no module that is not asked for, no module keeps
state in a global it rebinds, only ``batch_loss`` takes both a
``training`` flag and an ``rng``, no model kind has a constructor of its
own, only the dataset reader names a pair that has no id, and no
prediction path reads a gold label."""

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


def test_only_the_dataset_reader_names_a_pair_without_an_id():
    # load_jsonl names such a pair idx-<n> once; a second module making that name could give one pair two names
    found = [path.name for path in sorted(Path(clinli.__file__).parent.glob("*.py"))
             if "idx-" in path.read_text(encoding="utf-8")]
    assert found == ["data.py"]


def attribute_scopes(attr):
    """(file name, dotted name of the innermost enclosing def or class) for every
    use of the attribute ``attr`` in a clinli module; "" at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                yield scope
            yield from visit(child, scope)

    for path in sorted(Path(clinli.__file__).parent.glob("*.py")):
        for scope in visit(ast.parse(path.read_text(encoding="utf-8")), ""):
            yield path.name, scope


def test_only_validation_io_training_and_grading_read_a_gold_label():
    # a list-wise triple is found by premise alone: were grouping or prediction to read the
    # answer key, a file's gold labels could change its predictions
    allowed = {("data.py", "NLIExample.__post_init__"), ("data.py", "save_jsonl"), ("abbrev.py", "expand_dataset"),
               ("model.py", "PairClassifier._scored"), ("evaluate.py", "_gold_map")}
    assert sorted(set(attribute_scopes("gold_label")) - allowed) == []
