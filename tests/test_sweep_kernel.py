"""The sweep trains on the config's kernel unless the grid has a
``kernel`` axis, which then picks each cell's kernel."""

import json

import pytest

import hawkeslob.sweep as sweep
from hawkeslob.book import BookInitConfig
from hawkeslob.cli import main
from hawkeslob.env import EpisodeConfig
from hawkeslob.params import default_kernel_params
from hawkeslob.ppo import TrainerConfig


@pytest.fixture
def trained_kernels(monkeypatch):
    """Record the kernel of every ``train`` call; the cell then fails,
    which skips its training and evaluation."""
    seen = []

    def fake_train(kernel, *args, **kwargs):
        seen.append(kernel)
        raise RuntimeError("stopped after recording the kernel")

    monkeypatch.setattr(sweep, "train", fake_train)
    return seen


def _sweep(grid, **kwargs):
    return sweep.run_sweep(grid, EpisodeConfig(horizon=5.0), TrainerConfig(),
                           BookInitConfig(), seed=1, eval_episodes=2,
                           **kwargs)


def test_without_kernel_axis_cells_use_the_given_kernel(trained_kernels):
    kernel = default_kernel_params("powerlaw")
    _sweep({"eta": [1.0, 2.0]}, kernel=kernel)
    assert trained_kernels == [kernel, kernel]


def test_default_kernel_is_exponential(trained_kernels):
    _sweep({"eta": [1.0]})
    assert [k.kind for k in trained_kernels] == ["exponential"]


def test_kernel_axis_wins(trained_kernels):
    _sweep({"kernel": ["exponential", "powerlaw"]},
           kernel=default_kernel_params("powerlaw"))
    assert [k.kind for k in trained_kernels] == ["exponential", "powerlaw"]


@pytest.mark.parametrize("doc", [
    {"kernel_profile": "powerlaw"},
    {"kernel": default_kernel_params("poisson").to_dict()},
], ids=["kernel_profile", "kernel"])
def test_cli_sweep_uses_the_config_kernel(trained_kernels, tmp_path, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**doc, "episode": {"horizon": 5.0}}))
    main(["sweep", "--config", str(cfg), "--seed", "2", "--out-dir",
          str(tmp_path / "sw"), "--grid", '{"fee_bps": [1]}',
          "--eval-episodes", "2"])
    [kernel] = trained_kernels
    if "kernel" in doc:
        assert kernel.to_dict() == doc["kernel"]
    else:
        assert kernel.to_dict() == default_kernel_params("powerlaw").to_dict()
