"""``TrainerConfig`` refuses sizes the trainer cannot run, naming the field,
and keeps accepting the zero counts that mean "do nothing"."""

import pytest

from hawkeslob.cli import load_app_config
from hawkeslob.ppo import TrainerConfig


@pytest.mark.parametrize("field, value", [
    ("minibatch_size", 0),
    ("episodes_per_update", 0),
    ("sil_batch", 0),
    ("sil_capacity", 0),
    ("epochs_per_update", -1),
    ("total_episodes", -3),
    ("hidden_sizes", (8, 0)),
])
def test_bad_size_refused_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        TrainerConfig(**{field: value})


def test_zero_counts_stay_valid():
    cfg = TrainerConfig(epochs_per_update=0, total_episodes=0)
    assert (cfg.epochs_per_update, cfg.total_episodes) == (0, 0)


def test_shipped_trainer_loads():
    assert load_app_config(None).trainer == TrainerConfig()


@pytest.mark.parametrize("field", ["beta_sil", "beta_entropy"])
@pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
def test_bad_loss_weight_refused_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        TrainerConfig(**{field: value})


def test_zero_loss_weights_stay_valid():
    cfg = TrainerConfig(beta_sil=0.0, beta_entropy=0.0)
    assert (cfg.beta_sil, cfg.beta_entropy) == (0.0, 0.0)



@pytest.mark.parametrize("field", ["checkpoint_every"])
@pytest.mark.parametrize("value", [-1, -5])
def test_negative_schedule_refused_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        TrainerConfig(**{field: value})


def test_zero_schedules_stay_valid():
    assert TrainerConfig(checkpoint_every=0).checkpoint_every == 0
