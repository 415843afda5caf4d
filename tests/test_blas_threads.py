"""The BLAS load rule, each case in a fresh interpreter.

Importing psne_learn before numpy loads OpenBLAS with one thread unless
one of its thread variables is set; a caller's setting, or a numpy loaded
first, keeps its own thread count, and the environment is left as found.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import BLAS_THREAD_VARS, child_pythonpath

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)

PROBE = """
import ctypes, json, os
before = dict(os.environ)
{imports}
libc = ctypes.CDLL(None)
libc.getenv.restype = ctypes.c_char_p
print(json.dumps({{
    "threads": len(os.listdir("/proc/self/task")),
    "environ_kept": dict(os.environ) == before,
    "getenv": {{v: (libc.getenv(v.encode()) or b"").decode() for v in {names!r}}},
}}))
"""


def probe(imports, **blas):
    """Thread count and environment after `imports` in a child whose only
    BLAS thread variables are `blas`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas, PYTHONPATH=child_pythonpath())
    code = PROBE.format(imports=imports, names=BLAS_THREAD_VARS)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_unset_loads_one_thread_and_restores_environment():
    seen = probe("import psne_learn")
    assert seen["threads"] == 1
    assert seen["environ_kept"]
    assert seen["getenv"] == dict.fromkeys(BLAS_THREAD_VARS, "")


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_caller_setting_wins(var):
    seen = probe("import psne_learn", **{var: "2"})
    assert seen["environ_kept"]
    assert seen["getenv"] == {v: "2" if v == var else "" for v in BLAS_THREAD_VARS}
    assert seen["threads"] == probe("import numpy", **{var: "2"})["threads"]


def test_numpy_loaded_first_keeps_its_pool():
    seen = probe("import numpy\nimport psne_learn")
    assert seen["environ_kept"]
    assert seen["threads"] == probe("import numpy")["threads"]
