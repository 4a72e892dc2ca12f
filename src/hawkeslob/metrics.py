"""Performance metrics, episode evaluation and run summaries.

Annualization convention: a trading year of 252 days x 6.5 hours, i.e.
252 * 6.5 * 3600 seconds; with the default 300-second horizon that is
19,656 episodes per year. Per-episode return is PnL over initial cash.
Raw per-episode statistics are always reported alongside the annualized
figure so comparisons survive a different convention.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .env import MarketMakingEnv, episode_pnl
from .rng import derive_seed

SECONDS_PER_TRADING_YEAR = 252 * 6.5 * 3600.0


def annualized_sharpe(episode_pnls: Sequence[float], initial_cash: float,
                      horizon: float) -> Optional[float]:
    """mean/std of per-episode returns scaled by sqrt(episodes per year).

    Returns None (undefined, not infinity) when the returns have zero
    variance; requires at least two episodes.
    """
    pnls = np.asarray(episode_pnls, dtype=np.float64)
    if pnls.size < 2:
        raise ValueError("need at least two episodes")
    returns = pnls / initial_cash
    std = returns.std(ddof=1)
    if std == 0.0:
        return None
    n_year = SECONDS_PER_TRADING_YEAR / horizon
    return float(returns.mean() / std * math.sqrt(n_year))


def detect_pump_and_dump(inventory: Sequence[float]) -> Tuple[bool, float]:
    """Heuristic flag for the inflate-then-unwind inventory signature.

    Flags when the early-episode |Y| peak exceeds 5 times the trace
    median |Y| and the terminal half unwinds the position
    (net flow opposite in sign to the mid-episode inventory). The score
    is peak/median regardless of the flag. ``inventory`` is sampled on
    the decision grid.
    """
    y = np.asarray(inventory, dtype=np.float64)
    if y.size < 4:
        return False, 0.0
    abs_y = np.abs(y)
    half = y.size // 2
    median = float(np.median(abs_y))
    peak_early = float(abs_y[:half].max())
    if median == 0.0:
        score = 0.0 if peak_early == 0.0 else math.inf
    else:
        score = peak_early / median
    y_mid = y[half - 1]
    y_end = y[-1]
    unwinds = y_mid != 0 and (y_end - y_mid) * y_mid < 0
    return bool(score > 5.0 and unwinds), float(score)


@dataclass(frozen=True)
class RunSummary:
    agent: str
    n_episodes: int
    mean_pnl: float
    std_pnl: float
    sharpe: Optional[float]
    mean_abs_inventory: float
    total_fills: int
    action_histogram: Dict[str, int]
    pump_and_dump_fraction: float
    config_hash: str
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def config_hash(*docs: dict) -> str:
    canon = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class EpisodeStats:
    """One episode's outcome. ``action_counts`` counts impulses by name;
    ``transitions`` is filled by PPO rollouts only."""

    episode: int
    pnl: float
    mean_abs_inventory: float
    n_fills: int
    n_interventions: int
    pump_and_dump: bool
    pump_score: float
    action_counts: Dict[str, int]
    total_reward: float
    transitions: list = field(default_factory=list)


def run_episode(env: MarketMakingEnv, agent, seed: int,
                ) -> Tuple[EpisodeStats, List[float]]:
    """Run one seeded episode with ``agent.act(obs, mask)`` choosing every
    step; returns the stats and each step's total reward.

    This is the only episode loop: evaluation passes an agent, PPO
    training a recording policy.
    """
    obs = env.reset(seed=seed)
    rewards: List[float] = []
    inventory: List[int] = []
    action_counts: Dict[str, int] = {}
    done = False
    while not done:
        decision, psi = agent.act(obs, env.admissible_mask())
        obs, reward, done = env.step(decision, psi)
        if decision == 1:
            action_counts[psi.name] = action_counts.get(psi.name, 0) + 1
        rewards.append(reward.total)
        inventory.append(obs.inventory)
    flagged, score = detect_pump_and_dump(inventory)
    stats = EpisodeStats(
        episode=0, pnl=episode_pnl(env),
        mean_abs_inventory=float(np.mean(np.abs(inventory))),
        n_fills=len(env.fills),
        n_interventions=sum(action_counts.values()),
        pump_and_dump=flagged, pump_score=score,
        action_counts=action_counts, total_reward=float(env.total_reward))
    return stats, rewards


def evaluate_agent(env: MarketMakingEnv, agent, n_episodes: int, seed: int,
                   config_docs: Sequence[dict] = (),
                   trace_dir: Optional[str] = None,
                   ) -> Tuple[RunSummary, List[EpisodeStats]]:
    """Evaluate over seeded episodes; reproducible bit-for-bit from seed.

    With ``trace_dir``, episode ``e``'s step trace is written there as
    ``trace_<e>.csv``; the env must record traces (``record_trace``).
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    if trace_dir is not None and not env.record_trace:
        raise ValueError("trace_dir needs an env built with "
                         "record_trace=True")
    episodes: List[EpisodeStats] = []
    histogram: Dict[str, int] = {}
    for e in range(n_episodes):
        stats, _ = run_episode(env, agent, derive_seed(seed, 0xEA1, e))
        stats.episode = e
        episodes.append(stats)
        for name, count in stats.action_counts.items():
            histogram[name] = histogram.get(name, 0) + count
        if trace_dir is not None:
            write_csv(os.path.join(trace_dir, f"trace_{e}.csv"),
                      TRACE_COLUMNS,
                      [[r.t, r.cash, r.inventory, r.p_ask, r.p_bid, r.action,
                        r.reward.total, *astuple(r.reward)]
                       for r in env.trace])
    pnls = [s.pnl for s in episodes]
    sharpe = None
    if len(pnls) >= 2:
        sharpe = annualized_sharpe(pnls, env.config.initial_cash,
                                   env.config.horizon)
    summary = RunSummary(
        agent=getattr(agent, "name", agent.__class__.__name__),
        n_episodes=n_episodes,
        mean_pnl=float(np.mean(pnls)),
        std_pnl=float(np.std(pnls, ddof=1)) if len(pnls) >= 2 else 0.0,
        sharpe=sharpe,
        mean_abs_inventory=float(np.mean([s.mean_abs_inventory
                                          for s in episodes])),
        total_fills=int(sum(s.n_fills for s in episodes)),
        action_histogram=histogram,
        pump_and_dump_fraction=float(np.mean([s.pump_and_dump
                                              for s in episodes])),
        config_hash=config_hash(*config_docs),
        seed=seed)
    return summary, episodes


# ---------------------------------------------------------------------------
# Deterministic serialization. Every CSV file is written by ``write_csv``
# with one cell rule: floats (numpy float64 too) as the repr of the Python
# float, the shortest text that reads back to the same bits; bools as 0/1;
# None as ``undefined``; a column missing from a dict row as an empty
# cell; anything else as str.
# ---------------------------------------------------------------------------

EPISODE_COLUMNS = ["episode", "pnl", "mean_abs_inventory", "n_fills",
                   "n_interventions", "pump_and_dump", "pump_score"]

# The last four trace columns are RewardBreakdown's fields, in order.
TRACE_COLUMNS = ["t", "cash", "inventory", "p_ask", "p_bid", "action",
                 "reward_total", "inventory_penalty", "cash_delta",
                 "inventory_value_delta", "terminal_adjustment"]


def _cell(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return "undefined"
    return value


def write_csv(path: str, columns: Sequence[str], rows: Iterable) -> None:
    """Write a header and one line per row; a row is a dict keyed by
    column or a sequence in column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, dict):
                row = [row.get(c, "") for c in columns]
            writer.writerow([_cell(v) for v in row])


def parse_json(text: str, what: str):
    """The JSON document ``text``; ValueError naming ``what``, with the
    line and column, when it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def read_json(path, what: str):
    """The JSON document in the file at ``path``; ValueError naming
    ``what`` and the path when the file cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {str(path)!r}: "
                         f"{exc.strerror or exc}") from None
    return parse_json(text, f"{what} {str(path)!r}")


def write_summary_json(path: str, summary: RunSummary) -> None:
    """ValueError, and no file written, when a value is not finite (JSON
    has no NaN or infinity)."""
    text = json.dumps(summary.to_dict(), sort_keys=True, indent=2,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_episodes_csv(path: str, episodes: Sequence[EpisodeStats]) -> None:
    write_csv(path, EPISODE_COLUMNS, [vars(s) for s in episodes])
