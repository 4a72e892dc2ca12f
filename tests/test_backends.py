"""Backend selection: plain Python is the only backend, and the
``HAWKESLOB_BACKEND`` variable refuses every other value."""

import os
import subprocess
import sys


def test_env_flag_selects_backend():
    env = dict(os.environ, HAWKESLOB_BACKEND="numpy")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from hawkeslob.backend import BACKEND; print(BACKEND)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["numpy"]


def test_bad_flag_rejected():
    for value in ("fortran", "numba"):
        env = dict(os.environ, HAWKESLOB_BACKEND=value)
        proc = subprocess.run(
            [sys.executable, "-c", "import hawkeslob.backend"],
            env=env, capture_output=True, text=True)
        assert proc.returncode != 0, value
        assert "HAWKESLOB_BACKEND" in proc.stderr, value
