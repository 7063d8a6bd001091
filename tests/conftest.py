"""Shared by the tests under ``tests/``: a test fails when it emits any
warning, such as a numpy ``RuntimeWarning``, a file handle left open or an
object that raises as it is collected, and ``run_python`` runs clinli in a
fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def pytest_collection_modifyitems(items):
    # a leaked handle warns only as it is collected, where no test sees an exception;
    # pytest reports that as an unraisable-exception warning, an error here too
    for item in items:
        if item.path.is_relative_to(TESTS):
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture
def run_python():
    """``run_python(*args, env=None)`` runs ``python *args`` from the repository root
    in ``env`` (default: this process's environment), with this checkout's ``src``
    first on the import path, and returns the finished process."""

    def run(*args, env=None) -> subprocess.CompletedProcess:
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)

    return run
