"""``oagame validate``: parse and validate a game file."""

from .. import report as rp
from . import _is_bundled
from ._game import _game_or_fail


def run(args) -> tuple[int, dict]:
    from ..dsl import validate_game
    game, digest = _game_or_fail(args)
    validated = validate_game(game)  # a game that parses validates
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
    return 0, out
