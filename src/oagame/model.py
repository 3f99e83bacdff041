"""Domain types and exact utility arithmetic for discrete stakeholder games.

A game is a set of players with finite action lists, a set of integer-scored
outcome variables, implication rules linking actions to outcomes, and additive
per-player utilities.  All arithmetic is exact integer arithmetic.  Only
the game commands load this module.  ``GameError`` and ``PayoffTable``,
which the bimatrix layer also needs, live in ``oagame._table`` and are
re-exported here.
The records are immutable named tuples; one that does work when created is a
subclass of its fields' ``NamedTuple`` whose ``__init__`` (and ``_make``, for
``_replace``) does it.  ``OutcomeVarDef`` and ``GameSpec`` cache in an
instance dict, which, unlike the fields, takes new attributes.
"""

from __future__ import annotations

from typing import NamedTuple

from ._table import GameError, PayoffTable  # both re-exported

ACTION = "action"
OUTCOME = "outcome"


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


class PlayerDef(NamedTuple):
    name: str
    actions: tuple[str, ...]
    aliases: tuple[str, ...] = ()

    def action(self, name: str) -> str | None:
        """Canonical action name for ``name``, by ``name_key``, or None."""
        low = name_key(name)
        for a in self.actions:
            if name_key(a) == low:
                return a
        return None


class _OutcomeVarFields(NamedTuple):
    name: str
    owner: str
    values: tuple[tuple[str, int], ...]  # (value name, integer score), ordered
    aliases: tuple[str, ...] = ()
    value_aliases: tuple[tuple[str, str], ...] = ()  # alternate -> canonical


class OutcomeVarDef(_OutcomeVarFields):
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *fields, **named):
        # The lookup table, kept in the instance dict rather than in fields,
        # so equality, hashing and repr ignore it: each value name and
        # value alias, by ``name_key``, maps to its canonical value.
        self._entries = entries = {name_key(v): v for v, _ in self.values}
        for alias, target in self.value_aliases:
            if name_key(target) in entries:
                entries[name_key(alias)] = entries[name_key(target)]

    def value_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.values)

    def canonical_value(self, name: str) -> str | None:
        """Canonical value for ``name`` (a value or value alias), by
        ``name_key``, or None."""
        return self._entries.get(name_key(name))


class UtilityDef(NamedTuple):
    player: str
    terms: tuple[str, ...]  # canonical outcome-variable names, unit weights


class Atom(NamedTuple):
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


class Rule(NamedTuple):
    condition: tuple[Atom, ...]
    consequence: tuple[Atom, ...]
    otherwise: tuple[Atom, ...] = ()
    source: str = ""

    def same_logic(self, other: "Rule") -> bool:
        """True if both rules have identical atoms (source text ignored)."""
        return (self.condition == other.condition
                and self.consequence == other.consequence
                and self.otherwise == other.otherwise)


class _GameFields(NamedTuple):
    name: str
    players: tuple[PlayerDef, ...]
    variables: tuple[OutcomeVarDef, ...]
    rules: tuple[Rule, ...]
    utilities: tuple[UtilityDef, ...]


class GameSpec(_GameFields):
    # No ``__slots__``: the instance dict holds ``engine.compile_game``'s
    # compiled form.

    def player(self, name: str) -> PlayerDef | None:
        return _named(self.players, name)

    def variable(self, name: str) -> OutcomeVarDef | None:
        return _named(self.variables, name)

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

    def record_keys(self) -> tuple[str, ...]:
        """A row dump record's keys: each player's action, each variable's
        value, GU, then each player's utility as ``U_<player>``."""
        players = self.player_names()
        return (*players, *self.variable_names(), "GU",
                *(f"U_{p}" for p in players))

    def payoff_keys(self) -> tuple[str, ...]:
        """A ``payoffs`` cell record's keys: each player's action,
        feasible, then each player's utility as ``U_<player>``."""
        players = self.player_names()
        return (*players, "feasible", *(f"U_{p}" for p in players))


def name_key(name: str) -> str:
    """What a name is looked up by: outer whitespace and case aside."""
    return name.strip().lower()


def _named(decls, name: str):
    """The one of ``decls`` named or aliased ``name``, by ``name_key``, or
    None."""
    low = name_key(name)
    for d in decls:
        if any(name_key(n) == low for n in (d.name, *d.aliases)):
            return d
    return None
