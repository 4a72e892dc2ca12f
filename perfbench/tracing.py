"""Per-layer timers and counters, installed from outside the program.

``Tracer.install`` replaces the functions and methods listed in ``LAYERS``
with wrappers, everywhere the program holds a reference to them (module
attributes, names imported into other modules, class attributes). A timed
wrapper records calls, total time and the time of timed calls nested in
it, so self time is total minus children. A counted wrapper only counts
calls; it is used for functions too small to time without distorting
their callers. Spans stay in memory; nothing is written out.

On the numba backend the ``_kernels`` functions are compiled dispatchers
that call each other inside compiled code, so they are not wrapped and
their metrics are reported as unavailable (``null``).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

TIMED, COUNTED = "timed", "counted"


def _forward_kind(args, kwargs) -> str:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "b1" if np.ndim(x) == 1 or len(x) == 1 else "batch"


# (module, qualified name, mode, optional call classifier). Besides the
# functions the per-layer metrics name, this wraps the children whose time
# must come off a parent's self time (advance_interval under env.step) and
# the spans ppo.update_share is taken from (train, rollout_episode).
LAYERS = [
    ("_kernels", "intensities_at", TIMED, None),
    ("_kernels", "register_event", TIMED, None),
    ("_kernels", "next_event", TIMED, None),
    ("_kernels", "rng_uniform", COUNTED, None),
    ("_kernels", "apply_exogenous", TIMED, None),
    ("_kernels", "apply_impulse", TIMED, None),
    ("_kernels", "history_counts", TIMED, None),
    ("_kernels", "advance_interval", TIMED, None),
    ("hawkes", "HawkesClock.intensities", TIMED, None),
    ("hawkes", "HawkesClock.history_features", TIMED, None),
    ("hawkes", "HawkesClock.simulate", TIMED, None),
    ("intervention", "admissible_mask", TIMED, None),
    ("env", "MarketMakingEnv.step", TIMED, None),
    ("env", "MarketMakingEnv.reset", TIMED, None),
    ("agents", "ProbabilisticAgent.act", TIMED, None),
    ("metrics", "run_episode", TIMED, None),
    ("metrics", "detect_pump_and_dump", TIMED, None),
    ("rng", "RandomStream.permutation", TIMED, None),
    ("nn", "DenseNet.forward", TIMED, _forward_kind),
    ("nn", "DenseNet.backward", TIMED, None),
    ("nn", "DenseNet.adam_step", TIMED, None),
    ("ppo", "act", TIMED, None),
    ("ppo", "combined_loss", TIMED, None),
    ("ppo", "SILBuffer.sample", TIMED, None),
    ("ppo", "rollout_episode", TIMED, None),
    ("ppo", "train", TIMED, None),
]


class Stat:
    __slots__ = ("calls", "ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.child_ns = 0


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self._stack = [0]
        self.kernels_wrapped = False

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def counts(self) -> dict:
        return {key: s.calls for key, s in self.stats.items()}

    def _timed(self, key, fn, classify):
        stack = self._stack
        perf = time.perf_counter_ns
        fixed = self.stat(key)

        def wrapper(*args, **kwargs):
            st = fixed if classify is None else \
                self.stat(f"{key}.{classify(args, kwargs)}")
            stack.append(0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st.child_ns += stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.ns += dt

        return wrapper

    def _counted(self, key, fn):
        st = self.stat(key)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from hawkeslob.backend import BACKEND

        self.kernels_wrapped = BACKEND != "numba"
        for module, qualname, mode, classify in LAYERS:
            if module == "_kernels" and not self.kernels_wrapped:
                continue
            mod = importlib.import_module(f"hawkeslob.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = inspect.getattr_static(owner, attr)
            key = f"{module.lstrip('_')}.{qualname}"
            wrapper = (self._timed(key, original, classify) if mode == TIMED
                       else self._counted(key, original))
            setattr(owner, attr, wrapper)
            if not owner_name:
                _rebind(original, wrapper)


def _rebind(original, wrapper) -> None:
    """Point names imported with ``from .x import f`` at the wrapper."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("hawkeslob"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


# --- per-layer metrics --------------------------------------------------------

# name -> unit; all are "lower is better" in BENCHMARK.json.
PER_LAYER = {
    "kernels.intensities_at.us": "us",
    "kernels.intensities_at.calls_per_event": "calls/event",
    "kernels.register_event.us": "us",
    "kernels.next_event.self_us": "us",
    "kernels.rng_uniform.calls_per_event": "calls/event",
    "kernels.apply_exogenous.us": "us",
    "kernels.apply_impulse.us": "us",
    "kernels.history_counts.us": "us",
    "hawkes.HawkesClock.intensities.us": "us",
    "hawkes.HawkesClock.history_features.us": "us",
    "hawkes.HawkesClock.simulate.us_per_event": "us",
    "intervention.admissible_mask.calls_per_step": "calls/step",
    "intervention.admissible_mask.us": "us",
    "env.MarketMakingEnv.step.self_us": "us",
    "env.MarketMakingEnv.reset.ms": "ms",
    "agents.ProbabilisticAgent.act.us": "us",
    "metrics.run_episode.self_ms": "ms",
    "metrics.detect_pump_and_dump.ms": "ms",
    "nn.DenseNet.forward.b1_us": "us",
    "ppo.act.us": "us",
    "nn.DenseNet.forward.batch_ms": "ms",
    "nn.DenseNet.backward.batch_ms": "ms",
    "nn.DenseNet.adam_step.us": "us",
    "ppo.combined_loss.ms": "ms",
    "ppo.SILBuffer.sample.ms": "ms",
    "rng.RandomStream.permutation.ms": "ms",
    "ppo.update_share": "fraction",
    "trace.overhead": "ratio",
}

_SCALE = {"us": 1e3, "ms": 1e6}


def layer_metrics(tracer: Tracer, first_counts: dict, first_steps: int,
                  first_events: int, events: int, overhead: float,
                  speed: float) -> dict:
    """Per-layer metrics from the traced phase.

    Times are means per call over the whole traced phase (0 when the
    workload never calls the layer), multiplied by ``speed``, the phase's
    median factor from host time to time at the reference speed. Counts
    per event or per step come from the first unit alone, so they repeat
    exactly for a given seed.
    """
    stats = tracer.stats

    def per_call(key, unit, self_time=False):
        st = stats.get(key)
        if st is None or st.calls == 0:
            return 0.0
        ns = st.ns - st.child_ns if self_time else st.ns
        return ns * speed / st.calls / _SCALE[unit]

    def ratio(key, base):
        return first_counts.get(key, 0) / base if base else 0.0

    train = stats.get("ppo.train")
    rollout = stats.get("ppo.rollout_episode")
    simulate = stats.get("hawkes.HawkesClock.simulate")
    values = {
        "kernels.intensities_at.us": per_call("kernels.intensities_at", "us"),
        "kernels.intensities_at.calls_per_event":
            ratio("kernels.intensities_at", first_events),
        "kernels.register_event.us": per_call("kernels.register_event", "us"),
        "kernels.next_event.self_us":
            per_call("kernels.next_event", "us", self_time=True),
        "kernels.rng_uniform.calls_per_event":
            ratio("kernels.rng_uniform", first_events),
        "kernels.apply_exogenous.us":
            per_call("kernels.apply_exogenous", "us"),
        "kernels.apply_impulse.us": per_call("kernels.apply_impulse", "us"),
        "kernels.history_counts.us": per_call("kernels.history_counts", "us"),
        "hawkes.HawkesClock.intensities.us":
            per_call("hawkes.HawkesClock.intensities", "us"),
        "hawkes.HawkesClock.history_features.us":
            per_call("hawkes.HawkesClock.history_features", "us"),
        "hawkes.HawkesClock.simulate.us_per_event":
            simulate.ns * speed / events / 1e3 if simulate and events
            else 0.0,
        "intervention.admissible_mask.calls_per_step":
            ratio("intervention.admissible_mask", first_steps),
        "intervention.admissible_mask.us":
            per_call("intervention.admissible_mask", "us"),
        "env.MarketMakingEnv.step.self_us":
            per_call("env.MarketMakingEnv.step", "us", self_time=True),
        "env.MarketMakingEnv.reset.ms":
            per_call("env.MarketMakingEnv.reset", "ms"),
        "agents.ProbabilisticAgent.act.us":
            per_call("agents.ProbabilisticAgent.act", "us"),
        "metrics.run_episode.self_ms":
            per_call("metrics.run_episode", "ms", self_time=True),
        "metrics.detect_pump_and_dump.ms":
            per_call("metrics.detect_pump_and_dump", "ms"),
        "nn.DenseNet.forward.b1_us": per_call("nn.DenseNet.forward.b1", "us"),
        "ppo.act.us": per_call("ppo.act", "us"),
        "nn.DenseNet.forward.batch_ms":
            per_call("nn.DenseNet.forward.batch", "ms"),
        "nn.DenseNet.backward.batch_ms":
            per_call("nn.DenseNet.backward", "ms"),
        "nn.DenseNet.adam_step.us": per_call("nn.DenseNet.adam_step", "us"),
        "ppo.combined_loss.ms": per_call("ppo.combined_loss", "ms"),
        "ppo.SILBuffer.sample.ms": per_call("ppo.SILBuffer.sample", "ms"),
        "rng.RandomStream.permutation.ms":
            per_call("rng.RandomStream.permutation", "ms"),
        "ppo.update_share":
            (train.ns - rollout.ns) / train.ns if train and train.ns else 0.0,
        "trace.overhead": overhead,
    }
    out = {}
    for name, unit in PER_LAYER.items():
        value = values[name]
        if name.startswith("kernels.") and not tracer.kernels_wrapped:
            value = None
        out[name] = {"value": value, "unit": unit}
    return out
