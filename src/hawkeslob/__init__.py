"""Hawkes-driven LOB market making: simulator, RL agents, QVI harness."""

import os
import sys

# One BLAS thread unless the user chose otherwise: the nets are 64 wide,
# so threads gain nothing, and they cost 1.5-3x once another core is busy.
# BLAS reads the variables when numpy loads, so this runs before the
# package's first numpy import. A process that loaded numpy first keeps
# its threads, and its environment (which children inherit) is left alone.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .backend import BACKEND
from .book import AgentBookState, BookInitConfig, BookState, FillReport
from .env import (EpisodeConfig, MarketMakingEnv, Observation,
                  RewardBreakdown)
from .events import EventType, Impulse, RESTRICTED_IMPULSES
from .hawkes import HawkesClock
from .intervention import admissible, admissible_mask
from .params import KernelParams, default_kernel_params
from .rng import RandomStream, derive_seed

__version__ = "0.1.0"

__all__ = [
    "AgentBookState", "BACKEND", "BookInitConfig", "BookState",
    "EpisodeConfig", "EventType", "FillReport", "HawkesClock", "Impulse",
    "KernelParams", "MarketMakingEnv", "Observation", "RESTRICTED_IMPULSES",
    "RandomStream", "RewardBreakdown", "admissible", "admissible_mask",
    "default_kernel_params", "derive_seed",
]
