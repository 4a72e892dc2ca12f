"""CLI surface, sweep harness, config plumbing and output determinism."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from hawkeslob.book import BookInitConfig
from config_doc import default_config_document
from hawkeslob.cli import load_app_config, main
from hawkeslob.env import EpisodeConfig, OBS_BLOCKS
from hawkeslob.params import default_kernel_params
from hawkeslob.ppo import PolicyNets, TrainerConfig, build_normalizer
from hawkeslob.rng import RandomStream
from hawkeslob import sweep
from hawkeslob.sweep import SweepCell, expand_grid, run_cell, run_sweep

FAST = {
    "episode": {"horizon": 5.0},
    "trainer": {"total_episodes": 2, "episodes_per_update": 2,
                "epochs_per_update": 1, "hidden_sizes": [4]},
}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_default_document_loads(self, tmp_path):
        path = write_config(tmp_path, default_config_document())
        app = load_app_config(path)
        assert app.kernel.n_types == 12
        assert app.episode.horizon == 300.0

    def test_shipped_default_config_matches_builders(self):
        data = os.path.join(os.path.dirname(__file__), "..", "src",
                            "hawkeslob", "data", "default_config.json")
        with open(data) as fh:
            shipped = json.load(fh)
        assert shipped == default_config_document()

    def test_kernel_profile_selection(self, tmp_path):
        path = write_config(tmp_path, {"kernel_profile": "powerlaw"})
        app = load_app_config(path)
        assert app.kernel.kind == "powerlaw"

    def test_partial_override(self, tmp_path):
        path = write_config(tmp_path, {"episode": {"eta": 3.5}})
        app = load_app_config(path)
        assert app.episode.eta == 3.5
        assert app.episode.horizon == 300.0


class TestSweep:
    def test_expand_empty(self):
        assert expand_grid({}) == []

    def test_expand_unknown_axis(self):
        with pytest.raises(ValueError):
            expand_grid({"volatility": [1, 2]})

    def test_empty_grid_header_only_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = run_sweep({}, EpisodeConfig(), TrainerConfig(),
                         BookInitConfig(), seed=1, out_csv=str(out))
        assert rows == []
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cell,")

    def test_fee_sweep_two_cells(self, tmp_path):
        out = tmp_path / "sweep.csv"
        tc = TrainerConfig(total_episodes=2, episodes_per_update=2,
                           epochs_per_update=1, hidden_sizes=(4,))
        ec = EpisodeConfig(horizon=5.0)
        rows = run_sweep({"fee_bps": [1, 8]}, ec, tc, BookInitConfig(),
                         seed=2, eval_episodes=3, out_csv=str(out))
        assert len(rows) == 2
        assert all(r["status"] == "ok" for r in rows)
        assert [r["fee_bps"] for r in rows] == [1, 8]
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_sweep_csv_byte_deterministic(self, tmp_path):
        tc = TrainerConfig(total_episodes=2, episodes_per_update=2,
                           epochs_per_update=1, hidden_sizes=(4,))
        ec = EpisodeConfig(horizon=5.0)
        payloads = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            run_sweep({"eta": [1.0, 10.0]}, ec, tc, BookInitConfig(),
                      seed=5, eval_episodes=2, out_csv=str(out))
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    def test_failed_cell_marked_and_continues(self, tmp_path):
        tc = TrainerConfig(total_episodes=2, episodes_per_update=2,
                           epochs_per_update=1, hidden_sizes=(4,))
        ec = EpisodeConfig(horizon=5.0)
        rows = run_sweep({"eta": [-1.0, 0.0]}, ec, tc, BookInitConfig(),
                         seed=3, eval_episodes=2)
        assert rows[0]["status"].startswith("failed")
        assert rows[1]["status"] == "ok"

    @pytest.mark.parametrize("cell, changes", [
        (SweepCell(index=0, sil=False), {"beta_sil": 0.0}),
        (SweepCell(index=1, sil=True), {}),
        (SweepCell(index=2, ablation="history"), {"ablation": "history"}),
    ])
    def test_cell_trains_with_its_trainer_settings(self, monkeypatch, cell,
                                                   changes):
        seen = []
        real_train = sweep.train

        def spy(*args, **kwargs):
            result = real_train(*args, **kwargs)
            seen.append((args[2], result.nets.ablation))
            return result

        monkeypatch.setattr(sweep, "train", spy)
        tc = TrainerConfig(total_episodes=1, episodes_per_update=1,
                           epochs_per_update=1, hidden_sizes=(4,))
        row = run_cell(cell, default_kernel_params(),
                       EpisodeConfig(horizon=2.0), tc, BookInitConfig(),
                       seed=6, eval_episodes=1)
        assert row["status"] == "ok"
        want = replace(tc, **changes)
        assert seen == [(want, want.ablation)]

    def test_ablation_zeroes_feature_block(self):
        params = default_kernel_params()
        nets = PolicyNets(*build_normalizer(params, EpisodeConfig()),
                          ablation="intensity", rng=RandomStream(1))
        from hawkeslob.env import MarketMakingEnv
        env = MarketMakingEnv(params, EpisodeConfig(horizon=1.0))
        obs = env.reset(seed=1)
        feats = nets.features(obs)
        lo, hi = OBS_BLOCKS["intensity"]
        assert np.all(feats[lo:hi] == 0.0)
        assert hi - lo == 12
        nets_full = PolicyNets(*build_normalizer(params, EpisodeConfig()),
                               rng=RandomStream(1))
        assert not np.all(nets_full.features(obs)[lo:hi] == 0.0)


class TestCLI:
    def test_eval_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        outs = []
        for d in ("a", "b"):
            out_dir = tmp_path / d
            main(["eval", "--config", cfg, "--seed", "42", "--out-dir",
                  str(out_dir), "--agent", "random", "--episodes", "3"])
            outs.append((out_dir / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_writes_traces(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out_dir = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--seed", "1", "--out-dir",
              str(out_dir), "--episodes", "2"])
        assert (out_dir / "trace_0.csv").exists()
        assert (out_dir / "trace_1.csv").exists()
        assert (out_dir / "episodes.csv").exists()
        header = (out_dir / "trace_0.csv").read_text().splitlines()[0]
        assert header.split(",")[:6] == ["t", "cash", "inventory", "p_ask",
                                         "p_bid", "action"]

    def test_train_writes_checkpoint_and_log(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out_dir = tmp_path / "run"
        main(["train", "--config", cfg, "--seed", "7", "--out-dir",
              str(out_dir)])
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "training_log.csv").exists()
        log = (out_dir / "training_log.csv").read_text().splitlines()
        assert len(log) == 3  # header + 2 episodes

    def test_eval_checkpoint_agent(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        run_dir = tmp_path / "run"
        main(["train", "--config", cfg, "--seed", "7", "--out-dir",
              str(run_dir)])
        out_dir = tmp_path / "eval"
        main(["eval", "--config", cfg, "--seed", "1", "--out-dir",
              str(out_dir), "--agent",
              f"checkpoint:{run_dir / 'checkpoint.json'}",
              "--episodes", "2"])
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["agent"] == "checkpoint"
        assert summary["n_episodes"] == 2

    def test_dynkin_check_json(self, tmp_path, capsys):
        main(["dynkin-check", "--one-type", "--paths", "200", "--seed",
              "3", "--t-end", "1.0"])
        doc = json.loads(capsys.readouterr().out)
        for key in ("estimate", "reference", "se", "z"):
            assert key in doc

    def test_sweep_cli(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out_dir = tmp_path / "sw"
        main(["sweep", "--config", cfg, "--seed", "2", "--out-dir",
              str(out_dir), "--grid", '{"fee_bps": [1]}',
              "--eval-episodes", "2"])
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2


class TestSweepFailureMessage:
    def test_failed_row_keeps_message(self):
        tc = TrainerConfig(total_episodes=2, episodes_per_update=2,
                           epochs_per_update=1, hidden_sizes=(4,))
        rows = run_sweep({"eta": [-1.0]}, EpisodeConfig(horizon=5.0), tc,
                         BookInitConfig(), seed=3, eval_episodes=2)
        assert rows[0]["status"] == \
            "failed: ValueError: eta, kappa and fee_bps must be >= 0"

    def test_multiline_message_on_one_line(self, monkeypatch, tmp_path):
        import hawkeslob.sweep as sweep

        def boom(*args, **kwargs):
            raise RuntimeError("first line\n  second line")

        monkeypatch.setattr(sweep, "run_cell", boom)
        out = tmp_path / "sweep.csv"
        rows = run_sweep({"eta": [1.0]}, EpisodeConfig(horizon=5.0),
                         TrainerConfig(), BookInitConfig(), seed=3,
                         out_csv=str(out))
        assert rows[0]["status"] == \
            "failed: RuntimeError: first line second line"
        assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("value",
                         ["12", 5, 1.0, {"a": 1}, (1.0, 2.0), None, []])
def test_grid_values_must_be_a_list(value):
    with pytest.raises(ValueError, match="sweep axis eta"):
        expand_grid({"fee_bps": [1], "eta": value})
    assert [c.eta for c in expand_grid({"eta": [1.0, 12]})] == [1.0, 12]
