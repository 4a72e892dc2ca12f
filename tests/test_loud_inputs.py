"""Inputs that cannot give a result are refused with a message: run sizes
too small for their statistic, and checkpoints that do not fit the
observation vector or the policy heads."""

import numpy as np
import pytest

from hawkeslob import nn
from hawkeslob.agents import HoldAgent
from hawkeslob.cli import build_parser
from hawkeslob.env import OBS_DIM, EpisodeConfig, MarketMakingEnv
from hawkeslob.metrics import evaluate_agent
from hawkeslob.nn import DenseNet
from hawkeslob.params import KernelParams
from hawkeslob.ppo import PolicyNets
from hawkeslob.qvi import dynkin_check


class TestRunSizes:
    def test_evaluate_agent_rejects_zero_episodes(self):
        env = MarketMakingEnv(config=EpisodeConfig(horizon=1.0))
        with pytest.raises(ValueError, match="n_episodes"):
            evaluate_agent(env, HoldAgent(), 0, seed=0)

    def test_dynkin_check_rejects_one_path(self):
        params = KernelParams(kind="exponential", mu=[1.0], alpha=[[0.5]],
                              gamma=[[1.0]])
        with pytest.raises(ValueError, match="n_paths"):
            dynkin_check(params, n_paths=1)

    @pytest.mark.parametrize("argv", [
        ["eval", "--episodes", "0"],
        ["simulate", "--episodes", "0"],
        ["sweep", "--eval-episodes", "0"],
        ["dynkin-check", "--paths", "1"],
    ])
    def test_cli_rejects_small_counts(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be an integer >=" in capsys.readouterr().err


def small_nets():
    return PolicyNets(np.zeros(OBS_DIM), np.ones(OBS_DIM), hidden_sizes=(4,))


class TestCheckpointLoading:
    def test_round_trip_without_rng_state(self):
        nets = small_nets()
        doc = nets.to_dict()
        assert "rng_state" not in doc
        back = PolicyNets.from_dict(doc)
        x = np.linspace(-1.0, 1.0, OBS_DIM)
        for name in ("decision", "action", "value"):
            assert np.array_equal(getattr(back, name).forward(x),
                                  getattr(nets, name).forward(x))

    def test_legacy_rng_state_loads(self):
        doc = small_nets().to_dict()
        doc["rng_state"] = [1, 2, 3, 4]
        back = PolicyNets.from_dict(doc)
        assert back.ablation == "none"

    def test_no_init_draw_on_load(self, monkeypatch):
        doc = small_nets().value.to_dict()

        def refuse(*args):
            raise AssertionError("from_dict drew an initialisation")

        monkeypatch.setattr(nn, "_xavier_uniform", refuse)
        net = DenseNet.from_dict(doc)
        assert np.array_equal(net.weights[0], np.asarray(doc["weights"][0]))

    @pytest.mark.parametrize("tamper, message", [
        (lambda d: d.update(decision=DenseNet(
            [OBS_DIM + 1, 4, 1], head="binary-logit").to_dict()),
         f"decision net maps {OBS_DIM + 1} inputs"),
        (lambda d: d.update(action=DenseNet(
            [OBS_DIM, 4, 1], head="scalar").to_dict()),
         "action net maps .* 'scalar' head"),
        (lambda d: d.update(center=d["center"][:-1]), "center has shape"),
        (lambda d: d.update(scale=d["scale"] + [1.0]), "scale has shape"),
        (lambda d: d.update(ablation="volume"), "unknown ablation"),
        (lambda d: d["value"]["weights"][1].pop(), "do not fit"),
        (lambda d: d["value"]["biases"][0].append(0.0), "do not fit"),
        (lambda d: d["action"]["weights"].pop(), "do not fit"),
        (lambda d: d["action"]["biases"].append([0.0]), "do not fit"),
    ], ids=["input-width", "head", "center", "scale", "ablation",
            "weight-shape", "bias-shape", "weight-count", "bias-count"])
    def test_tampered_checkpoint_raises(self, tamper, message):
        doc = small_nets().to_dict()
        tamper(doc)
        with pytest.raises(ValueError, match=message):
            PolicyNets.from_dict(doc)
