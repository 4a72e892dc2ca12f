"""Command-line interface.

Subcommands: ``simulate`` (``eval`` with per-episode traces, defaulting
to one episode of the hold agent), ``train``, ``eval``, ``sweep``,
``dynkin-check``. Common flags: ``--config <json>``,
``--seed <int>``, ``--out-dir <path>``. All numeric output is decimal
text with full round-trip precision; identical (config, seed) pairs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Tuple, get_type_hints

import numpy as np

from .agents import ProbAgentConfig, make_agent
from .book import BookInitConfig
from .env import EpisodeConfig, MarketMakingEnv
from .metrics import (evaluate_agent, parse_json, read_json,
                      write_episodes_csv, write_summary_json)
from .params import KernelParams, default_kernel_params
from .ppo import TrainerConfig, train
from .qvi import dynkin_check
from .rng import RandomStream, derive_seed
from .sweep import expand_grid, run_sweep


# Config document sections after ``kernel``, each built as ``cls(**doc)``.
SECTIONS = {
    "episode": EpisodeConfig,
    "init": BookInitConfig,
    "trainer": TrainerConfig,
    "prob_agent": ProbAgentConfig,
}


@dataclass
class AppConfig:
    kernel: KernelParams
    episode: EpisodeConfig
    init: BookInitConfig
    trainer: TrainerConfig
    prob_agent: ProbAgentConfig

    def docs(self) -> tuple:
        return (self.kernel.to_dict(),
                *(getattr(self, name).to_dict() for name in SECTIONS))


def _is_number(value) -> bool:
    """A finite JSON number (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_array(value) -> bool:
    """A non-ragged nested list of finite numbers."""
    def leaves_ok(v):
        if isinstance(v, list):
            return all(leaves_ok(x) for x in v)
        return _is_number(v)
    if not isinstance(value, list) or not leaves_ok(value):
        return False
    try:
        np.asarray(value, dtype=np.float64)
    except ValueError:
        return False
    return True


# Field annotation -> (test, description) of the JSON values it accepts.
_JSON_TYPES = {
    float: (_is_number, "a finite number"),
    int: (_is_int, "an integer"),
    str: (lambda v: isinstance(v, str), "a string"),
    Tuple[int, ...]: (lambda v: isinstance(v, list)
                      and all(_is_int(x) for x in v), "a list of integers"),
    np.ndarray: (_is_number_array, "a number array"),
    Optional[np.ndarray]: (lambda v: v is None or _is_number_array(v),
                           "a number array or null"),
}


def _build(name: str, cls, doc):
    """``cls(**doc)``, refusing a section that is not an object, and a key
    that is unknown, missing or of the wrong JSON type, by name."""
    if not isinstance(doc, dict):
        raise ValueError(f"config section {name} must be an object")
    known = {f.name: f for f in fields(cls)}
    unknown = [f"{name}.{key}" for key in doc if key not in known]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}")
    missing = [f"{name}.{key}" for key, f in known.items()
               if key not in doc and f.default is MISSING
               and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing config key {', '.join(missing)}")
    hints = get_type_hints(cls)
    for key, value in doc.items():
        fits, description = _JSON_TYPES[hints[key]]
        if not fits(value):
            raise ValueError(f"config key {name}.{key} must be "
                             f"{description}, got {value!r}")
    return cls(**doc)


def load_app_config(path: Optional[str]) -> AppConfig:
    doc = read_json(path, "config") if path else {}
    unknown = [key for key in doc
               if key not in ("kernel", "kernel_profile", *SECTIONS)]
    if unknown:
        raise ValueError(f"unknown config section {', '.join(unknown)}")
    if "kernel" in doc and "kernel_profile" in doc:
        raise ValueError("give kernel or kernel_profile, not both")
    if "kernel" in doc:
        kernel = _build("kernel", KernelParams, doc["kernel"])
    else:
        try:
            kernel = default_kernel_params(doc.get("kernel_profile",
                                                   "exponential"))
        except ValueError as exc:
            raise ValueError(f"config key kernel_profile: {exc}") from None
    sections = {name: _build(name, cls, doc.get(name, {}))
                for name, cls in SECTIONS.items()}
    return AppConfig(kernel=kernel, **sections)


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, got {value}")
        return value
    return integer


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="JSON config document")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=".")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkeslob",
        description="Hawkes-LOB market-making simulator and agents")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="eval with per-episode traces; hold agent, 1 episode")
    _add_common(p_sim)
    p_sim.add_argument("--episodes", type=_at_least(1), default=1)
    p_sim.add_argument("--agent", default="hold")
    p_sim.set_defaults(traces=True)

    p_train = sub.add_parser("train", help="train the PPO+SIL policy")
    _add_common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate an agent")
    _add_common(p_eval)
    p_eval.add_argument("--episodes", type=_at_least(1), default=100)
    p_eval.add_argument(
        "--agent", default="prob",
        help="prob | random | hold | checkpoint:<path>")
    p_eval.add_argument("--traces", action="store_true",
                        help="also write per-episode trace CSVs")

    p_sweep = sub.add_parser("sweep", help="sensitivity/ablation sweep")
    _add_common(p_sweep)
    grid = p_sweep.add_mutually_exclusive_group()
    grid.add_argument("--grid", default=None,
                      help="inline JSON grid, e.g. '{\"fee_bps\":[1,8]}'")
    grid.add_argument("--grid-file", default=None)
    p_sweep.add_argument("--eval-episodes", type=_at_least(1), default=20)

    p_dyn = sub.add_parser("dynkin-check",
                           help="Monte-Carlo generator verification")
    _add_common(p_dyn)
    p_dyn.add_argument("--function", default="intensity",
                       choices=("intensity", "count"))
    p_dyn.add_argument("--type-index", type=int, default=0)
    p_dyn.add_argument("--t-end", type=float, default=2.0)
    p_dyn.add_argument("--paths", type=_at_least(2), default=10_000)
    p_dyn.add_argument("--one-type", action="store_true",
                       help="use the 1-type reduction (mu=1, a=0.5, g=1)")
    p_dyn.set_defaults(out_dir=None)  # unset: the result is only printed
    return parser


def _cmd_train(args, app: AppConfig) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    result = train(app.kernel, app.episode, app.trainer, seed=args.seed,
                   out_dir=args.out_dir, init_config=app.init)
    print(f"checkpoint written to {result.checkpoint_path}")
    return 0


def _cmd_eval(args, app: AppConfig) -> int:
    agent = make_agent(args.agent, RandomStream(derive_seed(args.seed, 0xA9)),
                       app.prob_agent)
    env = MarketMakingEnv(app.kernel, app.episode, app.init,
                          record_trace=args.traces)
    os.makedirs(args.out_dir, exist_ok=True)
    summary, episodes = evaluate_agent(
        env, agent, args.episodes, seed=args.seed, config_docs=app.docs(),
        trace_dir=args.out_dir if args.traces else None)
    write_summary_json(os.path.join(args.out_dir, "summary.json"), summary)
    write_episodes_csv(os.path.join(args.out_dir, "episodes.csv"), episodes)
    sharpe = "undefined" if summary.sharpe is None else repr(summary.sharpe)
    print(f"agent={summary.agent} episodes={summary.n_episodes} "
          f"mean_pnl={summary.mean_pnl!r} sharpe={sharpe}")
    return 0


def _cmd_sweep(args, app: AppConfig) -> int:
    grid = {}
    if args.grid:
        grid = parse_json(args.grid, "--grid")
    elif args.grid_file:
        grid = read_json(args.grid_file, "grid file")
    expand_grid(grid)  # a refused grid leaves no out-dir behind
    os.makedirs(args.out_dir, exist_ok=True)
    rows = run_sweep(grid, app.episode, app.trainer, app.init,
                     seed=args.seed, eval_episodes=args.eval_episodes,
                     out_csv=os.path.join(args.out_dir, "sweep.csv"),
                     kernel=app.kernel)
    print(f"{len(rows)} sweep cells written to "
          f"{os.path.join(args.out_dir, 'sweep.csv')}")
    return 0


def _cmd_dynkin(args, app: AppConfig) -> int:
    if args.one_type:
        params = KernelParams(kind="exponential", mu=[1.0],
                              alpha=[[0.5]], gamma=[[1.0]])
    else:
        params = app.kernel
    result = dynkin_check(params, function=args.function,
                          type_index=args.type_index, t_end=args.t_end,
                          n_paths=args.paths, seed=args.seed)
    doc = json.dumps(result.to_dict(), sort_keys=True, indent=2)
    print(doc)
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "dynkin.json"), "w") as fh:
            fh.write(doc + "\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_eval,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "dynkin-check": _cmd_dynkin,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    app = load_app_config(args.config)
    return _COMMANDS[args.command](args, app)


def console_main(argv=None) -> int:
    """The ``hawkeslob`` command: ``main``, with a refused input (a
    ``ValueError``) reported as one ``hawkeslob: error: <message>`` line
    on stderr and exit status 2, as argparse reports its own refusals."""
    try:
        return main(argv)
    except ValueError as exc:
        print(f"hawkeslob: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
