"""The benchmark's workloads, each a closed loop of one agent and one process.

Importing this module imports the program, so ``run.py`` imports it inside
the timed set-up. A workload is built from ``--seed`` and a
``hostspeed.HostSpeed`` that its step clocks mark, and runs *units*: an
episode (``eval-prob``), a one-update training call (``train-ppo``) or a
power-law path (``sim-powerlaw``). Unit ``k`` always gets the same inputs
for the same seed, so a repeated unit must return the same digest.

Operations, as counted in ``attempted``/``failed``: one episode, one PPO
update, one ``HawkesClock.simulate`` call. A *step* is one decision step
(``eval-prob``, ``train-ppo``) or one ``simulate`` call that advances the
clock by one decision interval (``sim-powerlaw``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

import hawkeslob
from hawkeslob import ppo
from hawkeslob.agents import ProbabilisticAgent
from hawkeslob.cli import load_app_config
from hawkeslob.env import MarketMakingEnv
from hawkeslob.hawkes import HawkesClock
from hawkeslob.metrics import config_hash, evaluate_agent
from hawkeslob.params import default_kernel_params
from hawkeslob.rng import RandomStream, derive_seed

SHIPPED_CONFIG = Path(hawkeslob.__file__).parent / "data" / "default_config.json"

# Training episodes are cut from the shipped 300 s to 30 s (300 steps) so a
# one-update unit takes about a second; network and update settings stay.
TRAIN_HORIZON = 30.0
# A power-law path runs until it holds PATH_EVENTS events (capped at
# PATH_MAX_S of simulated time). All of a path's events stay inside the
# 60 s log horizon, so the log-sum cost per event depends on the event
# count, not on how fast a given seed happens to reach it. Short paths,
# many to a unit, keep the run-to-run spread over seeds small.
PATH_EVENTS = 150
PATH_MAX_S = 60.0
PATHS_PER_UNIT = 8
WARMUP_HORIZON = 1.0
# Observed event rate of a unit must lie within this factor of the sum of
# KernelParams.stationary_rates.
RATE_BAND = 2.5


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()[:16]


@dataclasses.dataclass
class Unit:
    """What one unit did; ``error`` is set when an operation or check failed."""

    ops: int = 0
    steps: int = 0
    events: int = 0
    # Host clock at the unit's start and end. From them run.py sets
    # ``seconds`` at the reference speed and ``host_seconds`` as measured,
    # and turns the (start, end) pairs of ``step_ns`` into durations.
    start_ns: int = 0
    end_ns: int = 0
    seconds: float = 0.0
    host_seconds: float = 0.0
    step_ns: list = dataclasses.field(default_factory=list)
    digest: str = ""
    error: str = ""


class StepClock:
    """Records the host clock interval between consecutive ``tick`` calls.

    Ticked on every call of the agent's ``act`` (or of ``ppo.act``), one
    interval is one full decision step: mask, act, env step and loop
    bookkeeping. Ticked after every ``simulate`` call, it is that call.
    Between two intervals it lets ``meter`` (a ``hostspeed.HostSpeed``)
    mark host speed, and leaves the mark out of the next interval.
    """

    def __init__(self, meter):
        self.meter = meter
        self.samples: list = []
        self.last = None

    def tick(self) -> None:
        now = time.perf_counter_ns()
        if self.last is not None:
            self.samples.append((self.last, now))
        self.last = self.meter.tick(now)

    def take(self) -> list:
        out, self.samples, self.last = self.samples, [], None
        return out


class TimedAgent:
    """Thin proxy that hands ``evaluate_agent`` a timestamped ``act``."""

    def __init__(self, agent, meter):
        self.agent = agent
        self.name = agent.name
        self.clock = StepClock(meter)

    def act(self, obs, mask):
        self.clock.tick()
        return self.agent.act(obs, mask)


def timed_policy_act(clock: StepClock):
    """``ppo.act`` with a timestamp, looked up at call time."""
    act = ppo.act

    def timed(*args, **kwargs):
        clock.tick()
        return act(*args, **kwargs)

    return timed


class CountingEnv(MarketMakingEnv):
    """MarketMakingEnv that keeps a tally of simulated exogenous events."""

    events_done = 0

    def reset(self, seed=None):
        self.events_done += self.events_now()
        return super().reset(seed)

    def events_now(self) -> int:
        clock = getattr(self, "_clock", None)
        return 0 if clock is None else clock.n_events

    def events_total(self) -> int:
        return self.events_done + self.events_now()


def _rate_error(kernel, events: int, sim_seconds: float) -> str:
    expected = float(kernel.stationary_rates.sum())
    rate = events / sim_seconds
    if not expected / RATE_BAND <= rate <= expected * RATE_BAND:
        return (f"event rate {rate:.3f}/s outside [{expected / RATE_BAND:.3f},"
                f" {expected * RATE_BAND:.3f}] around the stationary rate")
    return ""


class EvalProb:
    """``hawkeslob eval --agent prob`` on the shipped config, one episode a unit."""

    name = "eval-prob"

    def __init__(self, seed: int, meter):
        self.meter = meter
        app = load_app_config(str(SHIPPED_CONFIG))
        self.app = app
        self.seed = seed
        self.config_hash = config_hash(*app.docs())
        self.env = CountingEnv(app.kernel, app.episode, app.init)
        self.agent = TimedAgent(ProbabilisticAgent(app.prob_agent), meter)
        warm_env = MarketMakingEnv(
            app.kernel, dataclasses.replace(app.episode,
                                            horizon=WARMUP_HORIZON), app.init)
        summary, _ = evaluate_agent(warm_env, self.agent, 1, seed=seed)
        self.agent.clock.take()
        self.warmup_digest = digest(summary.to_dict())

    def unit_seed(self, k: int) -> int:
        return derive_seed(self.seed, 0xBE4C, k)

    def run_unit(self, k: int) -> Unit:
        unit = Unit(ops=1)
        ev0 = self.env.events_total()
        unit.start_ns = time.perf_counter_ns()
        summary, episodes = evaluate_agent(self.env, self.agent, 1,
                                           seed=self.unit_seed(k),
                                           config_docs=self.app.docs())
        unit.end_ns = time.perf_counter_ns()
        unit.step_ns = self.agent.clock.take()
        unit.steps = self.app.episode.n_steps
        unit.events = self.env.events_total() - ev0
        doc = summary.to_dict()
        unit.digest = digest(doc, [dataclasses.asdict(e) for e in episodes])
        if not all(math.isfinite(v) for v in (doc["mean_pnl"],
                                              doc["mean_abs_inventory"])):
            unit.error = f"non-finite result {doc}"
        else:
            unit.error = _rate_error(self.app.kernel, unit.events,
                                     self.app.episode.horizon)
        return unit


class TrainPPO:
    """``ppo.train`` with the shipped trainer settings, one update a unit."""

    name = "train-ppo"

    def __init__(self, seed: int, meter):
        self.meter = meter
        app = load_app_config(str(SHIPPED_CONFIG))
        self.seed = seed
        self.kernel = app.kernel
        self.init = app.init
        self.episode = dataclasses.replace(app.episode, horizon=TRAIN_HORIZON)
        self.trainer = dataclasses.replace(
            app.trainer, total_episodes=app.trainer.episodes_per_update,
            checkpoint_every=0)
        self.config_hash = config_hash(
            self.kernel.to_dict(), self.episode.to_dict(), self.init.to_dict(),
            self.trainer.to_dict())
        self.env = CountingEnv(self.kernel, self.episode, self.init)
        # rollout_episode looks ppo.act up at call time, so timestamping the
        # module attribute times every rollout step.
        self.steps_clock = StepClock(meter)
        ppo.act = timed_policy_act(self.steps_clock)
        # One full-length episode, so the update runs full-size minibatches
        # and BLAS starts its threads here rather than in the first unit.
        warm = ppo.train(self.kernel, self.episode,
                         dataclasses.replace(self.trainer, total_episodes=1),
                         seed=seed, init_config=self.init)
        self.steps_clock.take()
        self.warmup_digest = digest(warm.log_rows)

    def unit_seed(self, k: int) -> int:
        return derive_seed(self.seed, 0x79A1, k)

    def run_unit(self, k: int) -> Unit:
        unit = Unit(ops=1)
        ev0 = self.env.events_total()
        unit.start_ns = time.perf_counter_ns()
        result = ppo.train(self.kernel, self.episode, self.trainer,
                           seed=self.unit_seed(k),
                           init_config=self.init, env=self.env)
        unit.end_ns = time.perf_counter_ns()
        unit.step_ns = self.steps_clock.take()
        n_eps = self.trainer.total_episodes
        unit.steps = self.episode.n_steps * n_eps
        unit.events = self.env.events_total() - ev0
        rows = result.log_rows
        weights = [w for net in (result.nets.decision, result.nets.action,
                                 result.nets.value) for w in net.weights]
        unit.digest = digest(rows, *weights)
        losses = [row[key] for row in rows
                  for key in ("policy_loss", "value_loss", "entropy",
                              "sil_loss", "pnl")]
        if len(rows) != n_eps or not all(math.isfinite(v) for v in losses):
            unit.error = f"bad training log {rows}"
        else:
            unit.error = _rate_error(self.kernel, unit.events,
                                     self.episode.horizon * n_eps)
        return unit


class SimPowerlaw:
    """``HawkesClock.simulate`` on the shipped power-law profile.

    A unit is PATHS_PER_UNIT paths, each from an empty history and
    simulated on the decision grid: one ``simulate`` call per
    ``decision_dt`` of simulated time.
    """

    name = "sim-powerlaw"

    def __init__(self, seed: int, meter):
        self.meter = meter
        app = load_app_config(str(SHIPPED_CONFIG))
        self.seed = seed
        self.kernel = default_kernel_params("powerlaw")
        self.dt = app.episode.decision_dt
        self.config_hash = config_hash(
            self.kernel.to_dict(), {"decision_dt": self.dt,
                                    "path_events": PATH_EVENTS,
                                    "path_max_s": PATH_MAX_S,
                                    "paths_per_unit": PATHS_PER_UNIT})
        times, types = HawkesClock(self.kernel).simulate(
            WARMUP_HORIZON, RandomStream(seed))
        self.warmup_digest = digest(times, types)

    def unit_seed(self, k: int) -> int:
        return derive_seed(self.seed, 0x5A7, k)

    def run_unit(self, k: int) -> Unit:
        unit = Unit()
        steps = StepClock(self.meter)
        parts = []
        unit.start_ns = time.perf_counter_ns()
        steps.tick()
        for path in range(PATHS_PER_UNIT):
            clock = HawkesClock(self.kernel)
            rng = RandomStream(derive_seed(self.unit_seed(k), path))
            n = 0
            while clock.n_events < PATH_EVENTS and n * self.dt < PATH_MAX_S:
                n += 1
                parts.extend(clock.simulate(n * self.dt, rng))
                steps.tick()
            unit.steps += n
        unit.end_ns = time.perf_counter_ns()
        unit.step_ns = steps.take()
        unit.ops = unit.steps
        times = np.concatenate(parts[0::2])
        types = np.concatenate(parts[1::2])
        unit.events = len(times)
        unit.digest = digest(times, types)
        if not np.all(np.isfinite(times)):
            unit.error = "non-finite event times"
        else:
            unit.error = _rate_error(self.kernel, unit.events,
                                     unit.steps * self.dt)
        return unit


WORKLOADS = {w.name: w for w in (EvalProb, TrainPPO, SimPowerlaw)}
