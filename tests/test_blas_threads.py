"""Importing hawkeslob defaults the BLAS thread variables to one thread,
keeps any value the user set, and leaves them alone in a process that
loaded numpy first (its BLAS threads already exist)."""

import os
import subprocess
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _after_import(first="", **preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    code = (f"import os; {first}import hawkeslob; print(' '.join("
            f"os.environ.get(v, 'unset') for v in {BLAS_VARS!r}))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


def test_unset_variables_default_to_one():
    assert _after_import() == ["1", "1", "1"]


def test_user_value_is_kept():
    assert _after_import(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]


def test_left_alone_after_numpy():
    assert _after_import(first="import numpy; ") == ["unset"] * 3
