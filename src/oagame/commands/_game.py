"""What the commands that read a ``.game`` file share; the bimatrix
commands never load it."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .. import report as rp
from . import DIAG_ERROR, USAGE_ERROR, _CliError, _read_input

if TYPE_CHECKING:
    from ..engine import CompletionPolicy


def _game_or_fail(args) -> tuple:
    """The parsed game and the input's digest.  A game that parses also
    validates, so only ``validate`` runs ``validate_game``."""
    from ..dsl import parse_game_spec
    text, digest = _read_input(args.game)
    result = parse_game_spec(text, mode=args.mode or "strict")
    if result.game is None:
        for err in result.errors:
            print(str(err), file=sys.stderr)
        raise _CliError(f"{args.game}: {len(result.errors)} parse "
                        f"error(s)", DIAG_ERROR)
    return result.game, digest


def _declared_player(game, name: str) -> str:
    """The declared name of player ``name`` (which may be an alias)."""
    declared = game.player(name)
    if declared is None:
        raise _CliError(f"unknown player {name!r}", USAGE_ERROR)
    return declared.name


def _policy(args, game) -> CompletionPolicy:
    """The completion policy named by --policy, with each --fix NAME=VALUE
    resolved to a declared player action or variable value of ``game``;
    an option the policy does not take is a usage error."""
    from ..engine import CompletionPolicy
    fixes = []
    for item in args.fix:
        if "=" not in item:
            raise _CliError(f"--fix expects NAME=VALUE, got {item!r}",
                            USAGE_ERROR)
        fixes.append([s.strip() for s in item.split("=", 1)])
    name = args.policy or "max-gu"
    kind = {"max-gu": "max-global-utility"}.get(name, name)
    player = args.policy_player
    if fixes and kind != "fixed":
        raise _CliError(f"--policy {name} takes no --fix", USAGE_ERROR)
    if kind in ("optimistic", "pessimistic"):
        if player is None:
            raise _CliError(f"--policy {name} needs --policy-player",
                            USAGE_ERROR)
        return CompletionPolicy(kind, _declared_player(game, player))
    if player is not None:
        raise _CliError(f"--policy {name} takes no --policy-player",
                        USAGE_ERROR)
    if kind != "fixed":
        return CompletionPolicy(kind)
    actions, outcomes = {}, {}  # canonical name -> canonical value
    for name, value in fixes:
        player = game.player(name)
        if player is not None:
            fixed, subject, canon = actions, player.name, player.action(value)
        elif (var := game.variable(name)) is not None:
            fixed, subject = outcomes, var.name
            canon = var.canonical_value(value)
        else:
            raise _CliError(f"--fix names unknown player or variable "
                            f"{name!r}", USAGE_ERROR)
        if canon is None:
            raise _CliError(f"unknown value {value!r} for {name!r}",
                            USAGE_ERROR)
        if fixed.setdefault(subject, canon) != canon:
            raise _CliError(f"--fix gives {subject!r} two values: "
                            f"{fixed[subject]!r} and {canon!r}", USAGE_ERROR)
    return CompletionPolicy("fixed", None, tuple(actions.items()),
                            tuple(outcomes.items()))


def _row_dump(game, rows) -> rp.RowDump:
    """The rows section of a report; every name and utility is resolved
    here, before any output is written."""
    from ..engine import record_cells
    return rp.RowDump(*record_cells(game, rows), rows)


def _census_figures(enum) -> dict:
    """The census figures of ``enum``, keyed as in ``rp.FIGURES``."""
    return {
        "action_profiles": enum.action_profile_count,
        "row_space": enum.row_space_count,
        "admissible_rows": enum.admissible_count,
        "max_global_utility": enum.max_global_utility,
        "top_gu_rows": enum.max_global_utility_count,
    }
