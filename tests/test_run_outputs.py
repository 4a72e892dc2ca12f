"""What a run writes is what it computed: an initial cash that would make
per-episode returns undefined is refused where the config is built, a
non-finite summary value raises instead of being written as invalid JSON,
and ``dynkin-check`` writes ``dynkin.json`` into any ``--out-dir`` it is
given, ``.`` included, and into none when it is not given."""

import json
import math
import os

import pytest

from hawkeslob.cli import main
from hawkeslob.env import EpisodeConfig
from hawkeslob.metrics import RunSummary, write_summary_json


@pytest.mark.parametrize("cash", [0.0, -0.0, -2000.0])
def test_initial_cash_must_be_positive(cash):
    with pytest.raises(ValueError, match="initial_cash"):
        EpisodeConfig(initial_cash=cash)


def test_eval_refuses_zero_initial_cash(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"episode": {"initial_cash": 0.0,
                                           "horizon": 1.0}}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="initial_cash"):
        main(["eval", "--agent", "random", "--episodes", "2", "--config",
              str(cfg), "--out-dir", str(out)])
    assert not out.exists()


def _summary(sharpe):
    return RunSummary(agent="random", n_episodes=2, mean_pnl=0.5,
                      std_pnl=0.25, sharpe=sharpe, mean_abs_inventory=1.0,
                      total_fills=3, action_histogram={"MO_ASK": 1},
                      pump_and_dump_fraction=0.0, config_hash="0" * 16,
                      seed=1)


@pytest.mark.parametrize("sharpe", [math.nan, math.inf, -math.inf])
def test_non_finite_summary_value_raises(tmp_path, sharpe):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError):
        write_summary_json(str(path), _summary(sharpe))
    assert not path.exists()


@pytest.mark.parametrize("sharpe", [None, 12.5])
def test_finite_summary_keeps_its_bytes(tmp_path, sharpe):
    path = tmp_path / "summary.json"
    summary = _summary(sharpe)
    write_summary_json(str(path), summary)
    assert path.read_text() == json.dumps(summary.to_dict(), sort_keys=True,
                                          indent=2) + "\n"


DYNKIN = ["dynkin-check", "--one-type", "--paths", "50", "--seed", "3",
          "--t-end", "1.0"]


def test_dynkin_check_writes_into_the_cwd_when_asked(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    main([*DYNKIN, "--out-dir", "."])
    printed = capsys.readouterr().out
    assert os.listdir(tmp_path) == ["dynkin.json"]
    assert (tmp_path / "dynkin.json").read_text() == printed


def test_dynkin_check_writes_nothing_by_default(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    main(DYNKIN)
    assert json.loads(capsys.readouterr().out)["n_paths"] == 50
    assert os.listdir(tmp_path) == []
