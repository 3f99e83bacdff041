"""``oagame project``: the two-player bimatrix of a game."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import report as rp
from . import USAGE_ERROR, _CliError, _emit, _output
from ._game import _declared_player, _game_or_fail, _policy

if TYPE_CHECKING:
    from ..equilibrium import Bimatrix


def _bimatrix_records(bm: Bimatrix) -> list[dict]:
    from ..equilibrium import payoff_pair
    if bm.row_player in bm.col_actions:  # that key holds the row action
        raise ValueError(f"cannot write the matrix records: column action "
                         f"{bm.row_player!r} is also the row player's name")
    return [{bm.row_player: ra,
             **{ca: payoff_pair(cell) or "infeasible"
                for ca, cell in zip(bm.col_actions, row)}}
            for ra, row in zip(bm.row_actions, bm.payoffs)]


def run(args) -> int:
    from ..equilibrium import project_bimatrix, serialize_bimatrix
    game, digest = _game_or_fail(args)
    policy = _policy(args, game)
    row, col = (_declared_player(game, name)
                for name in (args.row_player, args.col_player))
    if row == col:
        raise _CliError(f"--row-player and --col-player both name {row!r}",
                        USAGE_ERROR)
    bm = project_bimatrix(game, policy, row, col)
    if args.format == "bmx":
        text = serialize_bimatrix(bm)  # a name it refuses writes no file
        with _output(args) as out:
            out.write(text)
        return 0
    out = rp.base_report({args.game: digest})
    out["provenance"] = bm.provenance
    out["row_player"] = bm.row_player
    out["col_player"] = bm.col_player
    out["matrix"] = _bimatrix_records(bm)
    _emit(args, out)
    return 0
