"""Sensitivity/ablation sweep harness.

Grid axes: ``eta`` (inventory penalty), ``fee_bps`` (terminal fee),
``kernel`` (exponential | powerlaw), ``sil`` (true | false), ``ablation``
(observation block zeroed in the trainer). A ``kernel`` axis value picks
that profile's default kernel; without the axis every cell runs on the
kernel passed to ``run_sweep`` (the config's kernel). Every cell trains a
fresh agent on the run's book settings (``init_config``, which also sets
the normaliser's tick) and evaluates it out-of-sample with seeds matched
across cells (derived from the base seed and the evaluation stream
only), so cells differ by the swept parameters alone. Infeasible cells
are recorded as failed rows (``failed: <exception class>: <message>``,
on one line) and the sweep continues.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .book import BookInitConfig
from .env import EpisodeConfig, MarketMakingEnv
from .agents import CheckpointAgent
from .metrics import evaluate_agent, write_csv
from .params import KernelParams, default_kernel_params
from .ppo import TrainerConfig, train
from .rng import RandomStream, derive_seed

SWEEP_AXES = ("eta", "fee_bps", "kernel", "sil", "ablation")

SWEEP_COLUMNS = ["cell", "eta", "fee_bps", "kernel", "sil", "ablation",
                 "status", "mean_pnl", "sharpe", "mean_abs_inventory",
                 "pump_and_dump_fraction", "degenerate"]

DEGENERATE_FRACTION = 0.5


@dataclass(frozen=True)
class SweepCell:
    index: int
    eta: Optional[float] = None
    fee_bps: Optional[float] = None
    kernel: Optional[str] = None
    sil: Optional[bool] = None
    ablation: Optional[str] = None


def expand_grid(grid: Dict[str, list]) -> List[SweepCell]:
    if not isinstance(grid, dict):
        raise ValueError(f"sweep grid must be a JSON object of axis lists, "
                         f"got {grid!r}")
    unknown = set(grid) - set(SWEEP_AXES)
    if unknown:
        raise ValueError(f"unknown sweep axes: {sorted(unknown)}")
    for axis, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"sweep axis {axis}: values must be a "
                             f"non-empty list, got {values!r}")
    if not all(isinstance(v, bool) for v in grid.get("sil", ())):
        raise ValueError("sil values must be true or false")
    axes = [axis for axis in SWEEP_AXES if axis in grid]
    if not axes:
        return []
    cells = []
    for index, combo in enumerate(itertools.product(
            *(grid[axis] for axis in axes))):
        cells.append(SweepCell(index=index,
                               **dict(zip(axes, combo))))
    return cells


def run_cell(cell: SweepCell, kernel: KernelParams,
             episode_config: EpisodeConfig, trainer_config: TrainerConfig,
             init_config: BookInitConfig, seed: int,
             eval_episodes: int) -> dict:
    ep_cfg = episode_config
    tr_cfg = trainer_config
    if cell.eta is not None:
        ep_cfg = replace(ep_cfg, eta=float(cell.eta))
    if cell.fee_bps is not None:
        ep_cfg = replace(ep_cfg, fee_bps=float(cell.fee_bps))
    if cell.sil is not None and not cell.sil:
        tr_cfg = replace(tr_cfg, beta_sil=0.0)
    if cell.ablation is not None:
        tr_cfg = replace(tr_cfg, ablation=cell.ablation)
    if cell.kernel is not None:
        kernel = default_kernel_params(cell.kernel)

    result = train(kernel, ep_cfg, tr_cfg,
                   seed=derive_seed(seed, 0x5CE11, cell.index),
                   init_config=init_config)
    env = MarketMakingEnv(kernel, ep_cfg, init_config)
    agent = CheckpointAgent(result.nets,
                            RandomStream(derive_seed(seed, 0xA9E27)))
    summary, _ = evaluate_agent(env, agent, eval_episodes,
                                seed=derive_seed(seed, 0xE7A1))
    return {
        "status": "ok",
        "mean_pnl": summary.mean_pnl,
        "sharpe": summary.sharpe,
        "mean_abs_inventory": summary.mean_abs_inventory,
        "pump_and_dump_fraction": summary.pump_and_dump_fraction,
        "degenerate": summary.pump_and_dump_fraction >= DEGENERATE_FRACTION,
    }


def run_sweep(grid: Dict[str, list], episode_config: EpisodeConfig,
              trainer_config: TrainerConfig, init_config: BookInitConfig,
              seed: int, eval_episodes: int = 20,
              out_csv: Optional[str] = None,
              kernel: Optional[KernelParams] = None) -> List[dict]:
    """Run every cell of ``grid``; ``kernel`` defaults to the default
    exponential kernel."""
    if kernel is None:
        kernel = default_kernel_params()
    cells = expand_grid(grid)
    rows: List[dict] = []
    for cell in cells:
        row = {"cell": cell.index}
        row.update((axis, getattr(cell, axis)) for axis in SWEEP_AXES
                   if getattr(cell, axis) is not None)
        try:
            row.update(run_cell(cell, kernel, episode_config, trainer_config,
                                init_config, seed, eval_episodes))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the point
            message = " ".join(str(exc).split())
            row["status"] = f"failed: {type(exc).__name__}: {message}"
        rows.append(row)
    if out_csv is not None:
        write_csv(out_csv, SWEEP_COLUMNS, rows)
    return rows
