"""What of the ``.game`` DSL no command but ``validate`` runs: the
validator, ``validate_game`` with its ``Diagnostic`` and ``ValidatedGame``
records, and the writers ``serialize_game`` and ``serialize_rule``.
``oagame.dsl`` serves these public names on first access (PEP 562), so
the other game commands compile only the reader."""

from __future__ import annotations

from collections import namedtuple

from .dsl import (LENIENT, _canonical_utilities, _sizes, _structural_errors,
                  parse_game_spec)
from .model import Atom, GameSpec, Rule


class Diagnostic(namedtuple("Diagnostic", ("severity", "message"))):
    __slots__ = ()  # severity: error | warning

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


class ValidatedGame(namedtuple("ValidatedGame", (
        "game", "action_profile_count", "row_space_count", "errors",
        "warnings"), defaults=((), ()))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_game(game: GameSpec) -> ValidatedGame:
    """Check structural invariants and compute the enumeration sizes."""
    errors = [Diagnostic("error", message)
              for _, message, _ in _structural_errors(game)]
    warnings: list[Diagnostic] = []

    coverage: dict[str, int] = {v.name: 0 for v in game.variables}
    for u in game.utilities:
        for term in u.terms:
            var = game.variable(term)
            if var is not None:
                coverage[var.name] += 1
    for vname, count in coverage.items():
        if count != 1:
            warnings.append(Diagnostic("warning",
                                       f"variable {vname!r} appears in "
                                       f"{count} utility definitions"))

    # Rule atoms the game cannot hold, as the engine refuses them; a faulted
    # atom that resolves sets a player.
    for rule in game.rules:
        for part, atom in game.rule_faults(rule):
            fault = (f"names undeclared {atom.subject}={atom.value}"
                     if game.atom_index(*atom[:3]) is None
                     else f"sets player {atom.subject!r}")
            errors.append(Diagnostic(
                "error", f"{part} of rule {rule.source!r} {fault}"))

    for i, a in enumerate(game.rules):
        for b in game.rules[i + 1:]:
            if a.same_logic(b):
                warnings.append(Diagnostic("warning",
                                           f"duplicate rule: {a.source!r}"))
                break

    profile_count, row_space = _sizes(game)
    return ValidatedGame(game, profile_count, row_space,
                         tuple(errors), tuple(warnings))


# ---------------------------------------------------------------------------
# Serialization

def _quote(s: str) -> str:
    return f'"{s}"'


def _item(s: str) -> str:
    """A list item as ``.game`` text: quoted when it holds a comma or outer
    whitespace, which the list reader splits at or strips."""
    return _quote(s) if "," in s or s != s.strip() else s


def serialize_game(game: GameSpec) -> str:
    """Canonical ``.game`` text that reads back as ``game``, rule sources
    and utilities' aliases aside; ValueError when it would not."""
    lines = [f"game {_quote(game.name)}"]
    for p in game.players:
        alias = (f" alias {', '.join(map(_item, p.aliases))}" if p.aliases
                 else "")
        acts = ", ".join(_quote(a) for a in p.actions)
        lines.append(f"player {p.name}{alias} actions: {acts}")
    for v in game.variables:
        alias = (f" alias {', '.join(map(_item, v.aliases))}" if v.aliases
                 else "")
        vals = ", ".join(f"{_item(n)}={s}" for n, s in v.values)
        valias = ""
        if v.value_aliases:
            valias = " valias " + ", ".join(f"{_item(a)}->{_item(c)}"
                                            for a, c in v.value_aliases)
        lines.append(f"variable {v.name}{alias} owner: {v.owner} "
                     f"values: {vals}{valias}")
    for u in game.utilities:
        lines.append(f"utility {u.player} = {' + '.join(u.terms)}".rstrip())
    for r in game.rules:
        lines.append("rule " + serialize_rule(r))
    text = "\n".join(lines) + "\n"
    back = parse_game_spec(text, LENIENT)

    def logic(g):  # what the text must keep: all but rule sources
        return g._replace(rules=[r[:3] for r in g.rules],
                          utilities=_canonical_utilities(g))
    # A quoted '#' reads back here, but a reader that cuts each line at its
    # first '#', as earlier versions of this one did, would read another
    # game; so a name holding '#' is still refused.
    if back.ok and logic(back.game) == logic(game) and "#" not in text:
        return text
    reason = (str(back.errors[0]) if back.errors
              else "the text would read back as a different game")
    raise ValueError(f"cannot write game {game.name!r} as .game text: "
                     f"{reason}")


def serialize_rule(rule: Rule) -> str:
    def atoms(atom_list: tuple[Atom, ...]) -> str:
        return " and ".join(f"{a.subject}={_quote(a.value)}"
                            for a in atom_list)

    text = f"if {atoms(rule.condition)} then {atoms(rule.consequence)}"
    if rule.otherwise:
        text += f" otherwise {atoms(rule.otherwise)}"
    return text + "."

