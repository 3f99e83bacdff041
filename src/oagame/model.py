"""Domain types and exact utility arithmetic for discrete stakeholder games.

A game is a set of players with finite action lists, a set of integer-scored
outcome variables, implication rules linking actions to outcomes, and additive
per-player utilities.  Everything here is immutable and all arithmetic is
exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

ACTION = "action"
OUTCOME = "outcome"


class GameError(Exception):
    """Base class for game-model errors."""


class NameResolutionError(GameError):
    """A referenced player, variable, action or value name does not resolve."""

    def __init__(self, context: str, token: str):
        self.context = context
        self.token = token
        super().__init__(f"unknown name {token!r} in {context}")


class MissingUtilityError(GameError):
    """A player has no utility definition."""

    def __init__(self, player: str):
        self.player = player
        super().__init__(f"no utility definition for player {player!r}")


@dataclass(frozen=True)
class PlayerDef:
    name: str
    actions: tuple[str, ...]
    aliases: tuple[str, ...] = ()

    def action(self, name: str) -> str | None:
        """Canonical action name for ``name``, case-insensitive, or None."""
        low = name.strip().lower()
        for a in self.actions:
            if a.lower() == low:
                return a
        return None


@dataclass(frozen=True)
class OutcomeVarDef:
    name: str
    owner: str
    values: tuple[tuple[str, int], ...]  # (value name, integer score), ordered
    aliases: tuple[str, ...] = ()
    value_aliases: tuple[tuple[str, str], ...] = ()  # alternate -> canonical

    def __post_init__(self):
        # Lookup tables (not dataclass fields, so equality/repr ignore them).
        canon = {v.lower(): v for v, _ in self.values}
        scores = {v.lower(): s for v, s in self.values}
        for alias, target in self.value_aliases:
            t = target.strip().lower()
            if t in canon:
                canon[alias.strip().lower()] = canon[t]
                scores[alias.strip().lower()] = scores[t]
        object.__setattr__(self, "_canon", canon)
        object.__setattr__(self, "_scores", scores)

    def value_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.values)

    def canonical_value(self, name: str) -> str:
        canon = self._canon.get(name.strip().lower())
        if canon is None:
            raise NameResolutionError(f"variable {self.name!r}", name)
        return canon

    def score(self, name: str) -> int:
        score = self._scores.get(name.strip().lower())
        if score is None:
            raise NameResolutionError(f"variable {self.name!r}", name)
        return score


@dataclass(frozen=True)
class UtilityDef:
    player: str
    terms: tuple[str, ...]  # canonical outcome-variable names, unit weights


@dataclass(frozen=True)
class Atom:
    """One ``subject = value`` test or assignment inside a rule.

    ``kind`` is ACTION (subject is a player, value an action) or OUTCOME
    (subject is a variable, value one of its values).  ``inert`` marks atoms
    that failed lenient-mode resolution: never satisfiable as a condition,
    always satisfied as an assignment.
    """

    kind: str
    subject: str
    value: str
    inert: bool = False


@dataclass(frozen=True)
class Rule:
    condition: tuple[Atom, ...]
    consequence: tuple[Atom, ...]
    otherwise: tuple[Atom, ...] = ()
    source: str = ""

    def same_logic(self, other: "Rule") -> bool:
        """True if both rules have identical atoms (source text ignored)."""
        return (self.condition == other.condition
                and self.consequence == other.consequence
                and self.otherwise == other.otherwise)


@dataclass(frozen=True)
class GameSpec:
    name: str
    players: tuple[PlayerDef, ...]
    variables: tuple[OutcomeVarDef, ...]
    rules: tuple[Rule, ...]
    utilities: tuple[UtilityDef, ...]

    def player(self, name: str) -> PlayerDef | None:
        low = name.strip().lower()
        for p in self.players:
            if p.name.lower() == low or any(a.lower() == low for a in p.aliases):
                return p
        return None

    def variable(self, name: str) -> OutcomeVarDef | None:
        low = name.strip().lower()
        for v in self.variables:
            if v.name.lower() == low or any(a.lower() == low for a in v.aliases):
                return v
        return None

    def utility_for(self, player: str) -> UtilityDef:
        p = self.player(player)
        target = p.name if p else player
        for u in self.utilities:
            if u.player == target:
                return u
        raise MissingUtilityError(player)

    def player_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.players)

    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


class ScenarioRow(NamedTuple):
    """One action profile joined with one total outcome assignment."""

    actions: Mapping[str, str]
    outcomes: Mapping[str, str]


def value_of(var: OutcomeVarDef, value_name: str) -> int:
    """Integer score of ``value_name`` (or one of its aliases) for ``var``."""
    return var.score(value_name)


def agent_utility(game: GameSpec, player: str, row: ScenarioRow) -> int:
    """Sum of the player's utility terms evaluated at ``row``."""
    udef = game.utility_for(player)
    total = 0
    for term in udef.terms:
        var = game.variable(term)
        if var is None:
            raise NameResolutionError(f"utility of {player!r}", term)
        total += var.score(row.outcomes[var.name])
    return total


def global_utility(game: GameSpec, row: ScenarioRow) -> int:
    """Sum of every outcome variable's score at ``row``."""
    return sum(v.score(row.outcomes[v.name]) for v in game.variables)


def max_global_utility_bound(game: GameSpec) -> int:
    """Upper bound on global utility: sum of per-variable maximum scores."""
    return sum(max(s for _, s in v.values) for v in game.variables)

