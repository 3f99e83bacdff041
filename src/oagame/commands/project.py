"""``oagame project``: the two-player bimatrix of a game."""

from .. import report as rp
from .._table import PayoffTable
from . import USAGE_ERROR, _CliError
from ._game import _game_or_fail
from ._policy import _declared_player, _policy


def _bimatrix_records(table: PayoffTable) -> list[dict]:
    from .._table import payoff_pair
    (row, _), (row_actions, col_actions) = table.players, table.actions
    if row in col_actions:  # that key holds the row action
        raise ValueError(f"cannot write the matrix records: column action "
                         f"{row!r} is also the row player's name")
    cells = iter(table.cells)  # row-major: each row reads the next cells
    return [{row: ra, **{ca: payoff_pair(next(cells)) or "infeasible"
                         for ca in col_actions}} for ra in row_actions]


def run(args) -> tuple[int, dict | str]:
    from .. import engine
    game, digest = _game_or_fail(args)
    policy = _policy(args, game)
    row, col = (_declared_player(game, name)
                for name in (args.row_player, args.col_player))
    if row == col:
        raise _CliError(f"--row-player and --col-player both name {row!r}",
                        USAGE_ERROR)
    table = engine.project_bimatrix(game, policy, row, col)
    if args.format == "bmx":
        from ..equilibrium import serialize_bimatrix
        return 0, serialize_bimatrix(table)
    out = rp.base_report({args.game: digest})
    out["provenance"] = "projected-from-game"
    out["row_player"], out["col_player"] = table.players
    out["matrix"] = _bimatrix_records(table)
    return 0, out
