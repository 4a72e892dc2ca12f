"""Checkpoints carry a format version: the current one loads, another is
refused with the version named, and a file without one (written before
versioning) still loads."""

import json

import numpy as np
import pytest

from hawkeslob.env import OBS_DIM
from hawkeslob.ppo import CHECKPOINT_FORMAT, PolicyNets


def _nets():
    return PolicyNets(np.zeros(OBS_DIM), np.ones(OBS_DIM), hidden_sizes=(4,))


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _same_policy(a, b):
    x = np.linspace(-1.0, 1.0, OBS_DIM)
    return all(np.array_equal(getattr(a, n).forward(x),
                              getattr(b, n).forward(x))
               for n in ("decision", "action", "value"))


def test_saved_checkpoint_has_the_current_format(tmp_path):
    path = tmp_path / "policy.json"
    nets = _nets()
    nets.save(path)
    assert json.loads(path.read_text())["format"] == CHECKPOINT_FORMAT == 1
    assert _same_policy(PolicyNets.load(path), nets)


def test_unversioned_checkpoint_loads(tmp_path):
    path = tmp_path / "policy.json"
    nets = _nets()
    nets.save(path)
    _rewrite(path, lambda doc: doc.pop("format"))
    assert _same_policy(PolicyNets.load(path), nets)


@pytest.mark.parametrize("version", [2, 0, "1", None])
def test_other_format_is_refused_by_version(tmp_path, version):
    path = tmp_path / "policy.json"
    _nets().save(path)
    _rewrite(path, lambda doc: doc.update(format=version))
    with pytest.raises(ValueError, match=f"checkpoint format {version!r}"):
        PolicyNets.load(path)
