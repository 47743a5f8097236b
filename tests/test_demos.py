"""Every demo, and the README's Quick start, runs to completion as a user would start it."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
# a silent NaN or overflow fails a child process too, as it does the in-process tests
PYTHON = [sys.executable, "-W", "error::RuntimeWarning"]


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([*PYTHON, str(demo)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout


def test_readme_quick_start_runs():
    # keeps the documented API honest: a helper the README uses cannot vanish unnoticed
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([*PYTHON, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == 4
