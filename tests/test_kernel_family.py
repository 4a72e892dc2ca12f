"""A kernel takes only its own family's parameters: the other family's are
refused by name, since ``to_dict`` (and so the config hash) would drop
them, while the shipped document and profiles load as before."""

import json

import pytest

from hawkeslob.cli import load_app_config
from hawkeslob.params import KernelParams, default_kernel_params

EXP = {"kind": "exponential", "mu": [1.0], "alpha": [[0.5]],
       "gamma": [[1.0]]}
PL = {"kind": "powerlaw", "mu": [1.0], "alpha_pl": [[0.5]],
      "beta_pl": [[2.0]], "delta_pl": [[1.0]]}


@pytest.mark.parametrize("name", ["alpha_pl", "beta_pl", "delta_pl"])
@pytest.mark.parametrize("value", [[[0.5]], "x"])
def test_exponential_refuses_powerlaw_matrices(name, value):
    with pytest.raises(ValueError, match=name):
        KernelParams(**EXP, **{name: value})


@pytest.mark.parametrize("value", [-3, 30.0, 0.0, float("nan"), "x"])
def test_exponential_refuses_a_horizon(value):
    with pytest.raises(ValueError, match="pl_horizon"):
        KernelParams(**EXP, pl_horizon=value)


def test_every_foreign_parameter_is_named():
    with pytest.raises(ValueError, match="beta_pl, pl_horizon"):
        KernelParams(**EXP, beta_pl="x", pl_horizon=-3)


@pytest.mark.parametrize("name", ["alpha", "gamma"])
@pytest.mark.parametrize("value", [[[0.5]], "junk"])
def test_powerlaw_refuses_exponential_matrices(name, value):
    with pytest.raises(ValueError, match=rf"takes no {name}\b"):
        KernelParams(**PL, **{name: value})


def test_own_family_and_defaults_load():
    assert KernelParams(**EXP, pl_horizon=60.0).to_dict() == \
        KernelParams(**EXP).to_dict()
    assert KernelParams(**PL, pl_horizon=5.0).pl_horizon == 5.0


@pytest.mark.parametrize("profile", ["exponential", "powerlaw", "poisson"])
def test_shipped_profiles_round_trip(profile):
    doc = default_kernel_params(profile).to_dict()
    assert KernelParams(**doc).to_dict() == doc


def test_config_file_names_the_foreign_key(tmp_path):
    doc = {"kernel": {**EXP, "pl_horizon": 30.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="pl_horizon"):
        load_app_config(str(path))
    assert load_app_config(None).kernel.to_dict() == \
        default_kernel_params().to_dict()
