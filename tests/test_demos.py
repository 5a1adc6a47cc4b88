"""The shipped demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WALKTHROUGH = """\
Q[Z/3]: HH dims (3, 0, 0, 0, 0, 0)
Q[Z/3]: HP (even, odd) = (3, 0), certified by vanishing above degree 0, \
read at degrees (2, 3)

dual numbers: HH dims (2, 1, 1, 1, 1, 1)
dual numbers: HP refused (stage 0 has no vanishing certificate within 5)
dual numbers: lifting the class of x obstructs at degree 2; the witness \
cycle in degree 1 is {0: Fraction(1, 1)} and is not a boundary, which \
certifies nonzero homology there
"""


def test_stabilization_walkthrough_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "stabilization_walkthrough.py")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == WALKTHROUGH
