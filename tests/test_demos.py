"""Smoke test of the demos: each runs as a script, exits 0 and prints no
self-check line that ends in ``: False``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    failed = [line for line in proc.stdout.splitlines() if line.rstrip().endswith(": False")]
    assert not failed, failed
    if path.name == "01_autodiff_basics.py":
        assert "replay reproduces the forward value exactly: True" in proc.stdout
    if path.name == "04_overfit_two_models.py":
        assert len(re.findall(r"^memorized after \d+ epochs$", proc.stdout, re.MULTILINE)) == 2, proc.stdout
