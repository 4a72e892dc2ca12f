"""A sweep cell trains on the run's book settings, not the defaults."""

import json

from hawkeslob import ppo, sweep
from hawkeslob.book import BookInitConfig
from hawkeslob.env import EpisodeConfig
from hawkeslob.params import default_kernel_params


def test_cell_trains_with_the_runs_init_config(monkeypatch):
    init = BookInitConfig(tick=0.05, p_mid_mean=150.0)
    episode = EpisodeConfig(horizon=2.0)
    trainer = ppo.TrainerConfig(total_episodes=2, episodes_per_update=2,
                                epochs_per_update=1, hidden_sizes=(4,))
    kernel = default_kernel_params("poisson")
    calls = []

    def recording_train(*args, **kwargs):
        result = ppo.train(*args, **kwargs)
        calls.append((args, kwargs, result.nets))
        return result

    monkeypatch.setattr(sweep, "train", recording_train)
    rows = sweep.run_sweep({"eta": [5.0]}, episode, trainer, init, seed=9,
                           eval_episodes=2, kernel=kernel)
    assert rows[0]["status"] == "ok"
    (args, kwargs, nets), = calls
    cell_kernel, cell_episode, cell_trainer = args
    assert cell_episode.eta == 5.0
    expected = ppo.train(cell_kernel, cell_episode, cell_trainer,
                         seed=kwargs["seed"], init_config=init).nets
    default = ppo.train(cell_kernel, cell_episode, cell_trainer,
                        seed=kwargs["seed"]).nets
    as_text = lambda n: json.dumps(n.to_dict())  # noqa: E731
    assert as_text(expected) != as_text(default)
    assert as_text(nets) == as_text(expected)
