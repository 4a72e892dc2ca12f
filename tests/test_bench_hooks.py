"""The hooks the benchmark in ``perfbench/`` puts on the program.

The benchmark is read here and nothing in it is changed. It relies on
three things in the program:

* every ``(module, qualname)`` in ``perfbench/tracing.py`` ``LAYERS``
  resolves, or ``Tracer.install`` raises in every traced run;
* ``ppo.act``, looked up through the ``ppo`` module, is called once per
  rollout step, or the ``train-ppo`` step clock gets no samples;
* ``evaluate_agent`` calls ``agent.act`` once per step, which the
  ``eval-prob`` step clock times.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from hawkeslob import ppo
from hawkeslob.agents import HoldAgent
from hawkeslob.env import EpisodeConfig, MarketMakingEnv
from hawkeslob.metrics import evaluate_agent
from hawkeslob.params import default_kernel_params

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for module, qualname, _, _ in layers:
        owner = importlib.import_module(f"hawkeslob.{module}")
        *path, attr = qualname.split(".")
        for name in path:
            owner = inspect.getattr_static(owner, name)
        assert callable(inspect.getattr_static(owner, attr)), \
            (module, qualname)


def test_ppo_act_is_looked_up_once_per_rollout_step(monkeypatch):
    calls = []
    act = ppo.act

    def counted(*args, **kwargs):
        calls.append(1)
        return act(*args, **kwargs)

    monkeypatch.setattr(ppo, "act", counted)
    episode = EpisodeConfig(horizon=2.0)
    trainer = ppo.TrainerConfig(total_episodes=2, episodes_per_update=2,
                                epochs_per_update=0, hidden_sizes=(4,))
    result = ppo.train(default_kernel_params("poisson"), episode, trainer,
                       seed=3)
    assert len(calls) == 2 * episode.n_steps
    assert len(result.log_rows) == 2


class _CountingAgent(HoldAgent):
    def __init__(self):
        self.calls = 0

    def act(self, obs, mask):
        self.calls += 1
        return super().act(obs, mask)


def test_evaluate_agent_calls_act_once_per_step():
    config = EpisodeConfig(horizon=1.5)
    agent = _CountingAgent()
    evaluate_agent(MarketMakingEnv(config=config), agent, 2, seed=4)
    assert agent.calls == 2 * config.n_steps
