"""The shipped demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stabilization_walkthrough_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "stabilization_walkthrough.py")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
