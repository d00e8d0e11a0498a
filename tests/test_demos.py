"""Smoke test: every script under demos/, and the README's quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, tmp_path):
    # TMPDIR keeps any scratch files a script writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    _run(["-c", section.split("```python\n", 1)[1].split("```", 1)[0]], tmp_path)
