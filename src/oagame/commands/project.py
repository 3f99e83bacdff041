"""``oagame project``: the two-player bimatrix of a game."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import report as rp
from . import USAGE_ERROR, _CliError, _emit, _output
from ._game import _declared_player, _game_or_fail, _policy

if TYPE_CHECKING:
    from .._table import PayoffTable


def _bimatrix_records(table: PayoffTable) -> list[dict]:
    from ..equilibrium import payoff_pair
    (row, _), (row_actions, col_actions) = table.players, table.actions
    if row in col_actions:  # that key holds the row action
        raise ValueError(f"cannot write the matrix records: column action "
                         f"{row!r} is also the row player's name")
    cells = iter(table.cells)  # row-major: each row reads the next cells
    return [{row: ra, **{ca: payoff_pair(next(cells)) or "infeasible"
                         for ca in col_actions}} for ra in row_actions]


def run(args) -> int:
    from ..equilibrium import project_bimatrix, serialize_bimatrix
    game, digest = _game_or_fail(args)
    policy = _policy(args, game)
    row, col = (_declared_player(game, name)
                for name in (args.row_player, args.col_player))
    if row == col:
        raise _CliError(f"--row-player and --col-player both name {row!r}",
                        USAGE_ERROR)
    table = project_bimatrix(game, policy, row, col)
    if args.format == "bmx":
        text = serialize_bimatrix(table)  # a name it refuses writes no file
        with _output(args) as out:
            out.write(text)
        return 0
    out = rp.base_report({args.game: digest})
    out["provenance"] = "projected-from-game"
    out["row_player"], out["col_player"] = table.players
    out["matrix"] = _bimatrix_records(table)
    _emit(args, out)
    return 0
