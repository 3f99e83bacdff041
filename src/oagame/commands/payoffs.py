"""``oagame payoffs``: the full payoff table of a game."""

from .. import report as rp
from ._game import _game_or_fail
from ._policy import _policy


def run(args) -> tuple[int, dict]:
    from ..engine import derive_payoff_table
    game, digest = _game_or_fail(args)
    policy = _policy(args, game)
    table = derive_payoff_table(game, policy)
    out = rp.base_report({args.game: digest})
    out["policy"] = policy.kind
    blank = ("",) * len(table.players)
    out["cells"] = rp.RowDump(game.payoff_keys(), [((), [
        (*profile, cell is not None, *(cell or blank))
        for profile, cell in zip(table.profiles(), table.cells)])])
    return 0, out
