"""An integer cash amount, as a JSON config may give it, is cash like any
other: fills and market orders are not truncated to whole units."""

import json

from book_steps import impulse
from hawkeslob.book import AgentBookState, BookState
from hawkeslob.cli import main
from hawkeslob.events import Impulse
from hawkeslob.rng import RandomStream

BOOK = BookState(p_ask_ticks=20002, p_bid_ticks=20000, q_ask=3, q_bid=2,
                 q_ask_d=4, q_bid_d=5, tick=0.01)


def test_market_order_on_integer_cash_keeps_the_cents():
    _, agent, k_cash = impulse(BOOK, AgentBookState(cash=2000),
                               Impulse.MO_ASK, RandomStream(1))
    _, ref, k_ref = impulse(BOOK, AgentBookState(cash=2000.0),
                            Impulse.MO_ASK, RandomStream(1))
    assert k_cash == k_ref == -20002 * 0.01
    assert agent.cash == ref.cash == 2000.0 + k_ref
    assert round(agent.cash, 2) == 1799.98
    assert type(agent.cash) is float


def _eval(tmp_path, name, initial_cash):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"episode": {"horizon": 30.0,
                                              "initial_cash": initial_cash}}))
    out = tmp_path / name
    assert main(["eval", "--agent", "prob", "--episodes", "2", "--traces",
                 "--seed", "3", "--config", str(config),
                 "--out-dir", str(out)]) == 0
    return out


def test_integer_initial_cash_gives_the_same_episodes(tmp_path):
    as_int = _eval(tmp_path, "int", 2000)
    as_float = _eval(tmp_path, "float", 2000.0)
    for name in ("episodes.csv", "trace_0.csv", "trace_1.csv"):
        assert (as_int / name).read_bytes() == (as_float / name).read_bytes()
