"""``oagame payoffs``: the full payoff table of a game."""

from __future__ import annotations

from .. import report as rp
from . import _emit
from ._game import _game_or_fail, _policy


def _payoff_records(game, table) -> list[dict]:
    keys, blank = game.payoff_keys(), ("",) * len(table.players)
    return [dict(zip(keys, (*profile, cell is not None, *(cell or blank))))
            for profile, cell in zip(table.profiles(), table.cells)]


def run(args) -> int:
    from ..engine import derive_payoff_table
    game, digest = _game_or_fail(args)
    policy = _policy(args, game)
    table = derive_payoff_table(game, policy)
    out = rp.base_report({args.game: digest})
    out["policy"] = policy.kind
    out["cells"] = _payoff_records(game, table)
    _emit(args, out)
    return 0
