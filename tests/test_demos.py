"""Smoke test of the demos: each runs as a script, exits 0 and prints no
self-check line that ends in ``: False``."""

import re
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(run_python, path):
    proc = run_python(path)
    assert proc.returncode == 0, proc.stderr
    failed = [line for line in proc.stdout.splitlines() if line.rstrip().endswith(": False")]
    assert not failed, failed
    if path.name == "01_autodiff_basics.py":
        assert "replay reproduces the forward value exactly: True" in proc.stdout
    if path.name == "04_overfit_two_models.py":
        assert len(re.findall(r"^memorized after \d+ epochs$", proc.stdout, re.MULTILINE)) == 2, proc.stdout
