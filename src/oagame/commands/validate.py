"""``oagame validate``: parse and validate a game file."""

from __future__ import annotations

import sys

from .. import report as rp
from . import DIAG_ERROR, _CliError, _emit, _is_bundled
from ._game import _game_or_fail


def run(args) -> int:
    from ..dsl import validate_game
    game, digest = _game_or_fail(args)
    validated = validate_game(game)
    if not validated.ok:
        for diag in validated.errors:
            print(str(diag), file=sys.stderr)
        raise _CliError(f"{args.game}: validation failed", DIAG_ERROR)
    out = rp.base_report({args.game: digest})
    out["game"] = game.name
    out["players"] = list(game.player_names())
    out["action_counts"] = [len(p.actions) for p in game.players]
    out["variables"] = len(game.variables)
    out["rules"] = len(game.rules)
    out["action_profiles"] = validated.action_profile_count
    out["row_space"] = validated.row_space_count
    out["warnings"] = [str(w) for w in validated.warnings]
    if _is_bundled(digest, "oa.game"):
        out["paper_comparison"] = rp.paper_comparison({
            "action_profiles": validated.action_profile_count,
            "row_space": validated.row_space_count,
        })
    _emit(args, out)
    return 0
