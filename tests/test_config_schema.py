"""Each config dataclass is its own schema: ``load_app_config`` builds a
section as ``cls(**doc)`` and refuses what no field names, the sweep grid
refuses a non-boolean ``sil``, and every CSV file goes through
``metrics.write_csv`` with one cell rule."""

import csv
import json
import math

import numpy as np
import pytest

from hawkeslob.cli import load_app_config
from hawkeslob.metrics import write_csv
from hawkeslob.params import KernelParams, default_kernel_params
from hawkeslob.ppo import TrainerConfig
from hawkeslob.sweep import expand_grid


def load(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return load_app_config(str(path))


class TestLoudLoading:
    def test_unknown_section_named(self, tmp_path):
        with pytest.raises(ValueError, match="episod"):
            load(tmp_path, {"episod": {"horizon": 5.0}})

    def test_unknown_key_named_with_section(self, tmp_path):
        with pytest.raises(ValueError, match=r"episode\.horizn"):
            load(tmp_path, {"episode": {"horizn": 5}})

    def test_unknown_kernel_key_named(self, tmp_path):
        doc = default_kernel_params().to_dict()
        doc["gama"] = doc.pop("gamma")
        with pytest.raises(ValueError, match=r"kernel\.gama"):
            load(tmp_path, {"kernel": doc})

    def test_kernel_with_profile_refused(self, tmp_path):
        with pytest.raises(ValueError, match="kernel_profile"):
            load(tmp_path, {"kernel": default_kernel_params().to_dict(),
                            "kernel_profile": "powerlaw"})

    def test_missing_kernel_matrix_is_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="alpha is required"):
            load(tmp_path, {"kernel": {"kind": "exponential", "mu": [1.0]}})


class TestSweepGrid:
    def test_sil_must_be_bool(self):
        # "off" is truthy: it would run with SIL on and be written as "off".
        with pytest.raises(ValueError, match="sil"):
            expand_grid({"sil": ["on", "off"]})
        assert [c.sil for c in expand_grid({"sil": [True, False]})] == \
            [True, False]


class TestMovedChecks:
    @pytest.mark.parametrize("key", ["redraw_geom_p", "spread_geom_p"])
    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5])
    def test_geometric_p_out_of_range_refused(self, tmp_path, key, p):
        with pytest.raises(ValueError, match=key):
            load(tmp_path, {"init": {key: p}})

    def test_redraw_p_loaded(self, tmp_path):
        assert load(tmp_path, {"init": {"redraw_geom_p": 0.25}}
                    ).init.redraw_geom_p == 0.25

    def test_hidden_sizes_become_tuple(self):
        assert TrainerConfig(hidden_sizes=[4]).hidden_sizes == (4,)

    def test_pl_horizon_becomes_float(self):
        doc = default_kernel_params("powerlaw").to_dict()
        doc["pl_horizon"] = 30
        params = KernelParams(**doc)
        assert type(params.pl_horizon) is float
        assert params.to_dict() == {**doc, "pl_horizon": 30.0}


class TestCellRule:
    def read(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_floats_round_trip_bit_for_bit(self, tmp_path):
        values = [0.1, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308,
                  2.0 ** 0.5, -123456.789e-10, math.inf, math.nan,
                  float(np.float64(0.1) * 3)]
        path = tmp_path / "f.csv"
        write_csv(str(path), ["x"], [[v] for v in values]
                  + [[np.float64(0.7)]])
        header, *rows = self.read(path)
        assert header == ["x"]
        back = [float(r[0]) for r in rows]
        want = values + [0.7]
        assert [np.float64(b).tobytes() for b in back] == \
            [np.float64(w).tobytes() for w in want]

    def test_bool_none_and_missing_column(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(str(path), ["a", "b", "c", "d"],
                  [[True, False, None, 3], {"a": None, "d": "x"}])
        assert self.read(path) == [["a", "b", "c", "d"],
                                   ["1", "0", "undefined", "3"],
                                   ["undefined", "", "", "x"]]
