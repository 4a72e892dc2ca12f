"""Cross-backend parity: the numba and numpy paths share kernel source and
must produce byte-identical simulation output."""

import json
import os
import subprocess
import sys

import pytest

from hawkeslob.backend import BACKEND

_SCENARIO = r"""
import json
import numpy as np
from hawkeslob.backend import BACKEND
from hawkeslob.env import EpisodeConfig, MarketMakingEnv
from hawkeslob.events import Impulse
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import default_kernel_params, KernelParams
from hawkeslob.rng import RandomStream

out = {"backend": BACKEND}

clock = HawkesClock(KernelParams(kind="exponential", mu=[1.0],
                                 alpha=[[0.5]], gamma=[[1.0]]))
times, types = clock.simulate(200.0, RandomStream(5))
out["hawkes_times"] = [repr(t) for t in times[:50]]
out["hawkes_n"] = len(times)

env = MarketMakingEnv(config=EpisodeConfig(horizon=10.0))
obs = env.reset(seed=11)
rows = []
for k in range(env.config.n_steps):
    if k % 9 == 2:
        adm = np.flatnonzero(env.admissible_mask())
        obs, r, done = env.step(1, Impulse(int(adm[0])))
    else:
        obs, r, done = env.step(0)
    rows.append(repr(r.total))
out["rewards"] = rows
out["final_mtm"] = repr(env.mark_to_market())
print(json.dumps(out, sort_keys=True))
"""


def _run(backend: str) -> dict:
    env = dict(os.environ, HAWKESLOB_BACKEND=backend)
    proc = subprocess.run([sys.executable, "-c", _SCENARIO], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.skipif(BACKEND != "numba", reason="numba not available")
def test_backends_bit_identical():
    out_numba = _run("numba")
    out_numpy = _run("numpy")
    assert out_numba["backend"] == "numba"
    assert out_numpy["backend"] == "numpy"
    for key in ("hawkes_times", "hawkes_n", "rewards", "final_mtm"):
        assert out_numba[key] == out_numpy[key], f"{key} diverged"


def test_env_flag_selects_backend():
    env = dict(os.environ, HAWKESLOB_BACKEND="numpy")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from hawkeslob.backend import BACKEND, USE_NUMBA; "
         "print(BACKEND, USE_NUMBA)"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["numpy", "False"]


def test_bad_flag_rejected():
    env = dict(os.environ, HAWKESLOB_BACKEND="fortran")
    proc = subprocess.run(
        [sys.executable, "-c", "import hawkeslob.backend"],
        env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "HAWKESLOB_BACKEND" in proc.stderr


def test_fallback_notice_goes_to_stderr_once():
    env = {k: v for k, v in os.environ.items() if k != "HAWKESLOB_BACKEND"}
    # ``None`` in sys.modules makes ``import numba`` raise ImportError, so
    # the fallback runs whether or not numba is installed.
    code = ("import sys; sys.modules['numba'] = None\n"
            "import hawkeslob.backend, hawkeslob, hawkeslob.cli\n"
            "print(hawkeslob.backend.BACKEND)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "numpy\n"
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "numba" in lines[0] and "'numpy' backend" in lines[0]

    env["HAWKESLOB_BACKEND"] = "numpy"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "numpy\n" and proc.stderr == ""
