"""Domain types and exact utility arithmetic for discrete stakeholder games.

A game is a set of players with finite action lists, a set of integer-scored
outcome variables, implication rules linking actions to outcomes, and additive
per-player utilities.  All arithmetic is exact integer arithmetic.  Only
the game commands load this module.  ``GameError`` and ``PayoffTable``,
which the bimatrix layer also needs, live in ``oagame._table`` and are
re-exported here.
The records are immutable named tuples, each a ``collections.namedtuple``
subclass with ``__slots__ = ()``, so that no command loads ``typing``.
``GameSpec`` alone has no ``__slots__``: it keeps its compiled form and
its name tables in an instance dict, which, unlike the fields, takes new
attributes.
"""

from __future__ import annotations

from collections import namedtuple

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


class PlayerDef(namedtuple("PlayerDef", ("name", "actions", "aliases"),
                           defaults=((),))):
    __slots__ = ()


class OutcomeVarDef(namedtuple("OutcomeVarDef", (
        "name", "owner", "values", "aliases", "value_aliases"),
        defaults=((), ()))):
    # ``values``: ((value name, integer score), ...), ordered;
    # ``value_aliases``: ((alternate, canonical), ...).
    __slots__ = ()

    def value_names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.values)

    def _value_table(self) -> dict[str, str]:
        """The canonical value per ``name_key`` of each value and value
        alias.  Built on each call: a record has no instance dict to keep
        it in, so ``GameSpec._named`` keeps one per variable."""
        entries = {name_key(v): v for v, _ in self.values}
        for alias, target in self.value_aliases:
            if name_key(target) in entries:
                entries[name_key(alias)] = entries[name_key(target)]
        return entries


class UtilityDef(namedtuple("UtilityDef", ("player", "terms"))):
    __slots__ = ()  # terms: canonical outcome-variable names, unit weights


class Atom(namedtuple("Atom", ("kind", "subject", "value", "inert"),
                      defaults=(False,))):
    """One ``subject = value`` test or assignment inside a rule.

    ``kind`` is ACTION (subject is a player, value an action) or OUTCOME
    (subject is a variable, value one of its values).  ``inert`` marks atoms
    that failed lenient-mode resolution: never satisfiable as a condition,
    always satisfied as an assignment.
    """

    __slots__ = ()


class Rule(namedtuple("Rule", ("condition", "consequence", "otherwise",
                               "source"), defaults=((), ""))):
    __slots__ = ()

    def same_logic(self, other: "Rule") -> bool:
        """True if both rules have identical atoms (source text ignored)."""
        return (self.condition == other.condition
                and self.consequence == other.consequence
                and self.otherwise == other.otherwise)


class GameSpec(namedtuple("GameSpec", ("name", "players", "variables",
                                       "rules", "utilities"))):
    # No ``__slots__``: the instance dict holds ``engine.compile_game``'s
    # compiled form and the name tables of ``_named``.

    def player(self, name: str) -> PlayerDef | None:
        """The player named or aliased ``name``, by ``name_key``, or
        None."""
        return self._named()[0].get(name_key(name), (None,))[0]

    def variable(self, name: str) -> OutcomeVarDef | None:
        """The variable named or aliased ``name``, by ``name_key``, or
        None."""
        return self._named()[1].get(name_key(name), (None,))[0]

    def _named(self) -> tuple[dict, dict, dict, tuple, tuple]:
        """Five tables, which key each written name once per game: per
        ``name_key`` of each name and alias, ``(player, actions)`` and
        ``(variable, values)``, the first declaration winning; each
        declared name's key; and each player's ``actions`` (each action by
        its ``name_key``) and each variable's ``values`` (its
        ``_value_table``), in order.  Built on first use and kept in the
        instance dict."""
        tables = self.__dict__.get("_names")
        if tables is None:
            keys = {n: name_key(n) for d in (*self.players, *self.variables)
                    for n in (d.name, *d.aliases)}
            members = (tuple({name_key(a): a for a in reversed(p.actions)}
                             for p in self.players),
                       tuple(v._value_table() for v in self.variables))
            tables = self._names = (*(
                {keys[n]: (d, m) for d, m in zip(reversed(decls), reversed(ms))
                 for n in (d.name, *d.aliases)}
                for decls, ms in zip((self.players, self.variables), members)),
                keys, *members)
        return tables

    def bind(self, name: str, value: str) -> tuple:
        """``(kind, subject, canonical value)`` of a written ``name = value``
        pair, by ``name_key`` and aliases: ACTION and a player's declared
        name, else OUTCOME and a variable's, else None and ``name``; the
        value is None when ``value`` names nothing of the subject."""
        key = name_key(name)
        for kind, table in zip((ACTION, OUTCOME), self._named()):
            if key in table:
                decl, members = table[key]
                return kind, decl.name, members.get(name_key(value))
        return None, name, None

    def atom_index(self, kind: str, subject: str,
                   value: str) -> tuple[int, int] | None:
        """``(i, j)`` of a rule atom by exact declared names: the ``i``-th
        player and its ``j``-th action (ACTION) or the ``i``-th variable
        and its ``j``-th value (OUTCOME); None when it names anything
        undeclared."""
        decls = self.players if kind == ACTION else self.variables
        for i, d in enumerate(decls):
            if d.name == subject:
                names = d.actions if kind == ACTION else d.value_names()
                return (i, names.index(value)) if value in names else None
        return None

    def rule_faults(self, rule: Rule):
        """Yield ``(part, atom)`` for each non-inert atom of ``rule`` that
        sets a player in the ``consequence`` or the ``otherwise-branch``, or
        that ``atom_index`` does not resolve: what the game cannot hold."""
        for part, atoms in (("condition", rule.condition),
                            ("consequence", rule.consequence),
                            ("otherwise-branch", rule.otherwise)):
            for atom in atoms:
                if not atom.inert and (
                        atom.kind == ACTION and part != "condition"
                        or self.atom_index(*atom[:3]) is None):
                    yield part, atom

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
