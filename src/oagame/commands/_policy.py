"""The --policy options of ``payoffs``, ``project`` and ``nash --game``."""

from ..engine import CompletionPolicy
from . import USAGE_ERROR, _CliError


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
    from ..model import ACTION, OUTCOME
    fixed = {ACTION: {}, OUTCOME: {}}  # canonical name -> canonical value
    for name, value in fixes:
        kind, subject, canon = game.bind(name, value)
        if kind is None:
            raise _CliError(f"--fix names unknown player or variable "
                            f"{name!r}", USAGE_ERROR)
        if canon is None:
            raise _CliError(f"unknown value {value!r} for {name!r}",
                            USAGE_ERROR)
        if fixed[kind].setdefault(subject, canon) != canon:
            raise _CliError(f"--fix gives {subject!r} two values: "
                            f"{fixed[kind][subject]!r} and {canon!r}",
                            USAGE_ERROR)
    return CompletionPolicy("fixed", None, tuple(fixed[ACTION].items()),
                            tuple(fixed[OUTCOME].items()))
