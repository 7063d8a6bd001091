"""Smoke test of the quick demos: each runs as a script and exits 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = (
    "01_autodiff_basics.py",
    "02_subword_tokenizer.py",
    "03_attention_walkthrough.py",
    "04_overfit_two_models.py",
    "06_abbreviation_expansion.py",
    "07_listwise_inference.py",
)


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    if name == "01_autodiff_basics.py":
        assert "replay reproduces the forward value exactly: True" in proc.stdout
    if name == "04_overfit_two_models.py":
        assert len(re.findall(r"^memorized after \d+ epochs$", proc.stdout, re.MULTILINE)) == 2, proc.stdout
