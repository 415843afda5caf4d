"""Every demo prints its committed stdout, byte for byte.

The expected bytes live in `tests/data/demos/<demo>.txt`.  Each demo runs
as a child process from a temp dir, with the absolute `src` of the tree
under test first on its PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_pythonpath

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_matches_golden(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=child_pythonpath())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()
