"""Parser, validator and serializers for the textual game-specification DSL.

The format is line oriented with ``#`` comments:

    game "Name"
    player <Name> [alias <Name>, ...] actions: "<action>", "<action>", ...
    variable <Name> [alias <phrase>, ...] owner: <Player>
        values: <V>=<int>, ...  [valias <V> -> <V>, ...]
    utility <Player> = <Var> + <Var> + ...
    rule if <atoms> then <assigns> [otherwise <assigns>] .

Rule sentences accept the loose prose conventions found in published rule
blocks: possessive prefixes ("Academics' Opportunity", "Editor's Income"),
multiword variable names containing the word "and", straight or typographic
quotes, and either "and" or "," as conjunction separators.  Parsing is total:
malformed constructs become diagnostics, never exceptions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import (
    ACTION,
    OUTCOME,
    Atom,
    GameSpec,
    OutcomeVarDef,
    PlayerDef,
    Rule,
    UtilityDef,
)

STRICT = "strict"
LENIENT = "lenient"

# Opening quote characters mapped to their accepted closers.
_QUOTE_CLOSERS = {
    "`": ("'", "’"),
    "'": ("'", "’"),
    "‘": ("’", "'"),
    "’": ("’", "'"),
    '"': ('"',),
    "“": ("”",),
}


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col_start: int
    col_end: int


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    kind: str  # lex | syntax | resolution | domain-mismatch
    message: str
    token: str = ""

    def __str__(self) -> str:
        return (f"line {self.span.line}:{self.span.col_start}: "
                f"{self.kind}: {self.message}")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # error | warning
    message: str
    span: SourceSpan | None = None

    def __str__(self) -> str:
        loc = f"line {self.span.line}: " if self.span else ""
        return f"{loc}{self.severity}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    game: GameSpec | None
    errors: tuple[ParseError, ...]

    @property
    def ok(self) -> bool:
        return self.game is not None and not self.errors


@dataclass(frozen=True)
class ValidatedGame:
    game: GameSpec
    action_profile_count: int
    row_space_count: int
    errors: tuple[Diagnostic, ...] = ()
    warnings: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def _span(line: int, start: int = 1, end: int | None = None) -> SourceSpan:
    return SourceSpan(line, start, end if end is not None else start)


def _strip_comment(line: str) -> str:
    # '#' never appears inside the quoted strings we accept, so a plain cut
    # is safe and keeps the lexer simple.
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] in _QUOTE_CLOSERS:
        if text[-1] in _QUOTE_CLOSERS[text[0]]:
            return text[1:-1]
    return text


def _split_list(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside double quotes; items stripped, empties dropped."""
    items, buf, quoted = [], [], False
    for ch in text:
        if ch == '"':
            quoted = not quoted
            buf.append(ch)
        elif ch == sep and not quoted:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    items.append("".join(buf))
    return [s.strip() for s in items if s.strip()]


# ---------------------------------------------------------------------------
# Rule sentence parsing


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


_WORD_RE = re.compile(r"[^\s=,]+")


def _peek_word(s: str, i: int) -> tuple[str, int]:
    m = _WORD_RE.match(s, i)
    return (m.group(0), m.end()) if m else ("", i)


def _parse_value(s: str, i: int, line: int) -> tuple[str | None, int, ParseError | None]:
    """Parse a quoted or bare value starting at ``i``."""
    i = _skip_ws(s, i)
    if i < len(s) and s[i] in _QUOTE_CLOSERS:
        closers = _QUOTE_CLOSERS[s[i]]
        positions = [p for p in (s.find(c, i + 1) for c in closers) if p >= 0]
        if not positions:
            err = ParseError(_span(line, i + 1), "lex", "unterminated quote",
                             s[i])
            return None, len(s), err
        j = min(positions)
        return s[i + 1:j], j + 1, None
    # Bare value: words up to a separator or keyword.
    words = []
    while i < len(s):
        if s[i] == ",":
            break
        w, j = _peek_word(s, i)
        if not w or w.lower() in ("and", "then", "otherwise"):
            break
        words.append(w)
        i = _skip_ws(s, j)
    if not words:
        return None, i, ParseError(_span(line, i + 1), "syntax",
                                   "expected a value after '='")
    return " ".join(words), i, None


def _parse_atom_list(
    s: str, i: int, stops: frozenset[str], line: int
) -> tuple[list[tuple[str, str]], int, str | None, list[ParseError]]:
    """Parse ``name = value`` atoms separated by ',' / 'and' until a stop word.

    Returns (raw atoms, new index, stop word consumed or None, errors).
    """
    atoms: list[tuple[str, str]] = []
    errors: list[ParseError] = []
    while True:
        i = _skip_ws(s, i)
        if i >= len(s):
            return atoms, i, None, errors
        w, j = _peek_word(s, i)
        if w.lower() in stops:
            return atoms, j, w.lower(), errors
        if atoms:
            # A separator is required between atoms.
            seen_sep = False
            while True:
                i = _skip_ws(s, i)
                if i < len(s) and s[i] == ",":
                    i += 1
                    seen_sep = True
                    continue
                w, j = _peek_word(s, i)
                if w.lower() == "and":
                    i = j
                    seen_sep = True
                    continue
                break
            i = _skip_ws(s, i)
            w, j = _peek_word(s, i)
            if w.lower() in stops:
                return atoms, j, w.lower(), errors
            if not seen_sep:
                errors.append(ParseError(_span(line, i + 1), "syntax",
                                         "expected ',' or 'and' between atoms",
                                         w))
                return atoms, i, None, errors
        eq = s.find("=", i)
        if eq < 0:
            errors.append(ParseError(_span(line, i + 1), "syntax",
                                     "expected '=' in atom", s[i:i + 20]))
            return atoms, len(s), None, errors
        name = s[i:eq].strip()
        if not name:
            errors.append(ParseError(_span(line, i + 1), "syntax",
                                     "empty name before '='"))
            return atoms, len(s), None, errors
        value, i, err = _parse_value(s, eq + 1, line)
        if err:
            errors.append(err)
            return atoms, i, None, errors
        atoms.append((re.sub(r"\s+", " ", name), value))


_POSSESSIVE_RE = re.compile(r"^(\S+?)(?:['’]s|['’])\s+(.+)$")


def _resolve_atom(
    game: GameSpec,
    name: str,
    value: str,
    role: str,  # "condition" | "assignment"
    mode: str,
    line: int,
) -> tuple[Atom | None, ParseError | None]:
    phrase = name
    m = _POSSESSIVE_RE.match(phrase)
    if m and game.player(m.group(1)) is not None:
        phrase = m.group(2).strip()
    player = game.player(phrase)
    if player is not None:
        if role == "assignment":
            return None, ParseError(
                _span(line), "resolution",
                f"rule assignments must set outcome variables, not player "
                f"{player.name!r}", phrase)
        action = player.action(value)
        if action is None:
            if mode == LENIENT:
                return Atom(ACTION, player.name, value, inert=True), None
            return None, ParseError(
                _span(line), "resolution",
                f"unknown action {value!r} for player {player.name!r}", value)
        return Atom(ACTION, player.name, action), None
    var = game.variable(phrase)
    if var is not None:
        try:
            canon = var.canonical_value(value)
        except Exception:
            if mode == LENIENT:
                return Atom(OUTCOME, var.name, value, inert=True), None
            return None, ParseError(
                _span(line), "domain-mismatch",
                f"value {value!r} is not in the domain of variable "
                f"{var.name!r}", value)
        return Atom(OUTCOME, var.name, canon), None
    if mode == LENIENT:
        return Atom(OUTCOME, phrase, value, inert=True), None
    return None, ParseError(_span(line), "resolution",
                            f"unknown player or variable {phrase!r}", phrase)


def parse_rule(
    text: str, game: GameSpec, mode: str = STRICT, line: int = 1
) -> tuple[Rule | None, list[ParseError]]:
    """Parse one rule sentence against an already-declared game.

    Returns (rule, errors); the rule is None when errors prevented a parse.
    """
    body = text.strip()
    if body.endswith("."):
        body = body[:-1].rstrip()
    i = _skip_ws(body, 0)
    w, j = _peek_word(body, i)
    if w.lower() != "if":
        return None, [ParseError(_span(line, i + 1), "syntax",
                                 "rule must start with 'if'", w)]
    raw_cond, i, stop, errors = _parse_atom_list(body, j, frozenset({"then"}),
                                                 line)
    if stop != "then":
        errors.append(ParseError(_span(line, i + 1), "syntax",
                                 "expected 'then' after the rule condition"))
        return None, errors
    raw_cons, i, stop, errs = _parse_atom_list(body, i,
                                               frozenset({"otherwise"}), line)
    errors.extend(errs)
    raw_oth: list[tuple[str, str]] = []
    if stop == "otherwise":
        raw_oth, i, _, errs = _parse_atom_list(body, i, frozenset(), line)
        errors.extend(errs)
    if errors:
        return None, errors
    if not raw_cond:
        return None, [ParseError(_span(line), "syntax",
                                 "rule condition is empty")]
    if not raw_cons:
        return None, [ParseError(_span(line), "syntax",
                                 "rule consequence is empty")]

    def resolve(raw: list[tuple[str, str]], role: str) -> tuple[Atom, ...]:
        out = []
        for name, value in raw:
            atom, err = _resolve_atom(game, name, value, role, mode, line)
            if err:
                errors.append(err)
            else:
                out.append(atom)
        return tuple(out)

    condition = resolve(raw_cond, "condition")
    consequence = resolve(raw_cons, "assignment")
    otherwise = resolve(raw_oth, "assignment")
    if errors:
        return None, errors
    return Rule(condition, consequence, otherwise, source=text.strip()), []


# ---------------------------------------------------------------------------
# Whole-file parsing

_PLAYER_RE = re.compile(
    r"^player\s+(?P<name>\S+)"
    r"(?:\s+alias\s+(?P<aliases>.+?))?"
    r"\s+actions:\s*(?P<actions>.+)$")
_VARIABLE_RE = re.compile(
    r"^variable\s+(?P<name>.+?)"
    r"(?:\s+alias\s+(?P<aliases>.+?))?"
    r"\s+owner:\s*(?P<owner>\S+)"
    r"\s+values:\s*(?P<values>.+?)"
    r"(?:\s+valias\s+(?P<valias>.+))?$")
_UTILITY_RE = re.compile(r"^utility\s+(?P<player>\S+)\s*=\s*(?P<terms>.+)$")
_GAME_RE = re.compile(r"^game\s+(?P<name>.+)$")
_VALUE_PAIR_RE = re.compile(r"^(?P<name>.+?)\s*=\s*(?P<score>-?\d+)$")
_VALIAS_RE = re.compile(r"^(?P<alt>.+?)\s*->\s*(?P<canon>.+)$")


def parse_game_spec(text: str, mode: str = STRICT) -> ParseResult:
    """Parse a full ``.game`` document, collecting all diagnostics.

    ``mode`` is ``strict`` (rule atoms that do not resolve are errors) or
    ``lenient`` (they are kept as inert atoms); any other value raises
    ValueError."""
    if mode not in (STRICT, LENIENT):
        raise ValueError(f"unknown binding mode {mode!r}")
    errors: list[ParseError] = []
    name = ""
    players: list[PlayerDef] = []
    variables: list[OutcomeVarDef] = []
    utilities: list[UtilityDef] = []
    rule_lines: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head = line.split(None, 1)[0].lower()
        if head == "game":
            m = _GAME_RE.match(line)
            if m:
                name = _unquote(m.group("name"))
            else:
                errors.append(ParseError(_span(lineno), "syntax",
                                         "malformed game line", line))
        elif head == "player":
            m = _PLAYER_RE.match(line)
            if not m:
                errors.append(ParseError(_span(lineno), "syntax",
                                         "malformed player line", line))
                continue
            actions = tuple(_unquote(a) for a in
                            _split_list(m.group("actions")))
            aliases = tuple(_unquote(a) for a in
                            _split_list(m.group("aliases") or ""))
            pname = m.group("name")
            if any(p.name == pname for p in players):
                errors.append(ParseError(_span(lineno), "resolution",
                                         f"duplicate player {pname!r}", pname))
                continue
            if not actions:
                errors.append(ParseError(_span(lineno), "syntax",
                                         f"player {pname!r} declares no "
                                         f"actions", pname))
                continue
            players.append(PlayerDef(pname, actions, aliases))
        elif head == "variable":
            m = _VARIABLE_RE.match(line)
            if not m:
                errors.append(ParseError(_span(lineno), "syntax",
                                         "malformed variable line", line))
                continue
            vname = re.sub(r"\s+", " ", m.group("name").strip())
            values = []
            bad = False
            for item in _split_list(m.group("values")):
                vm = _VALUE_PAIR_RE.match(item)
                if not vm:
                    errors.append(ParseError(
                        _span(lineno), "syntax",
                        f"malformed value {item!r} (expected Name=int)", item))
                    bad = True
                    continue
                values.append((_unquote(vm.group("name")),
                               int(vm.group("score"))))
            valias = []
            for item in _split_list(m.group("valias") or ""):
                am = _VALIAS_RE.match(item)
                if not am:
                    errors.append(ParseError(
                        _span(lineno), "syntax",
                        f"malformed value alias {item!r} (expected A->B)",
                        item))
                    bad = True
                    continue
                valias.append((_unquote(am.group("alt")),
                               _unquote(am.group("canon"))))
            if bad:
                continue
            if any(v.name == vname for v in variables):
                errors.append(ParseError(_span(lineno), "resolution",
                                         f"duplicate variable {vname!r}",
                                         vname))
                continue
            aliases = tuple(_unquote(a) for a in
                            _split_list(m.group("aliases") or ""))
            variables.append(OutcomeVarDef(vname, m.group("owner"),
                                           tuple(values), aliases,
                                           tuple(valias)))
        elif head == "utility":
            m = _UTILITY_RE.match(line)
            if not m:
                errors.append(ParseError(_span(lineno), "syntax",
                                         "malformed utility line", line))
                continue
            terms = tuple(t.strip() for t in m.group("terms").split("+")
                          if t.strip())
            utilities.append(UtilityDef(m.group("player"), terms))
        elif head == "rule":
            rule_lines.append((lineno, line.split(None, 1)[1]
                               if len(line.split(None, 1)) > 1 else ""))
        else:
            errors.append(ParseError(_span(lineno), "syntax",
                                     f"unknown declaration {head!r}", head))

    partial = GameSpec(name, tuple(players), tuple(variables), (), ())

    # Resolve declaration cross-references.
    for var in variables:
        if partial.player(var.owner) is None:
            errors.append(ParseError(_span(1), "resolution",
                                     f"variable {var.name!r} owned by "
                                     f"undeclared player {var.owner!r}",
                                     var.owner))
    resolved_utils = []
    for util in utilities:
        player = partial.player(util.player)
        if player is None:
            errors.append(ParseError(_span(1), "resolution",
                                     f"utility for undeclared player "
                                     f"{util.player!r}", util.player))
            continue
        terms = []
        ok = True
        for term in util.terms:
            var = partial.variable(term)
            if var is None:
                errors.append(ParseError(_span(1), "resolution",
                                         f"utility of {player.name!r} sums "
                                         f"undeclared variable {term!r}",
                                         term))
                ok = False
            else:
                terms.append(var.name)
        if ok:
            resolved_utils.append(UtilityDef(player.name, tuple(terms)))

    rules = []
    for lineno, body in rule_lines:
        rule, errs = parse_rule(body, partial, mode=mode, line=lineno)
        errors.extend(errs)
        if rule is not None:
            rules.append(rule)

    game = GameSpec(name, tuple(players), tuple(variables), tuple(rules),
                    tuple(resolved_utils))
    return ParseResult(game if not errors else None, tuple(errors))


def validate_game(game: GameSpec) -> ValidatedGame:
    """Check structural invariants and compute the enumeration sizes."""
    errors: list[Diagnostic] = []
    warnings: list[Diagnostic] = []

    seen_names: set[str] = set()
    for p in game.players:
        for n in (p.name, *p.aliases):
            if n.lower() in seen_names:
                errors.append(Diagnostic("error",
                                         f"player name or alias {n!r} "
                                         f"declared more than once"))
            seen_names.add(n.lower())
        if not p.actions:
            errors.append(Diagnostic("error",
                                     f"player {p.name!r} has no actions"))
        if len({a.lower() for a in p.actions}) != len(p.actions):
            errors.append(Diagnostic("error",
                                     f"player {p.name!r} has duplicate "
                                     f"actions"))

    seen_vars: set[str] = set()
    for v in game.variables:
        for n in (v.name, *v.aliases):
            if n.lower() in seen_vars:
                errors.append(Diagnostic("error",
                                         f"variable name or alias {n!r} "
                                         f"declared more than once"))
            seen_vars.add(n.lower())
        if len(v.values) < 2:
            errors.append(Diagnostic("error",
                                     f"variable {v.name!r} needs at least "
                                     f"two values"))
        names = {n.lower() for n, _ in v.values}
        if len(names) != len(v.values):
            errors.append(Diagnostic("error",
                                     f"variable {v.name!r} has duplicate "
                                     f"value names"))
        for alt, canon in v.value_aliases:
            if alt.lower() in names:
                errors.append(Diagnostic("error",
                                         f"value alias {alt!r} of "
                                         f"{v.name!r} shadows a value"))
            try:
                v.canonical_value(canon)
            except Exception:
                errors.append(Diagnostic("error",
                                         f"value alias {alt!r} of {v.name!r} "
                                         f"targets unknown value {canon!r}"))
        if game.player(v.owner) is None:
            errors.append(Diagnostic("error",
                                     f"variable {v.name!r} owned by "
                                     f"undeclared player {v.owner!r}"))

    coverage: dict[str, int] = {v.name: 0 for v in game.variables}
    for u in game.utilities:
        if game.player(u.player) is None:
            errors.append(Diagnostic("error",
                                     f"utility for undeclared player "
                                     f"{u.player!r}"))
        for term in u.terms:
            var = game.variable(term)
            if var is None:
                errors.append(Diagnostic("error",
                                         f"utility of {u.player!r} sums "
                                         f"undeclared variable {term!r}"))
            else:
                coverage[var.name] += 1
    for vname, count in coverage.items():
        if count != 1:
            warnings.append(Diagnostic("warning",
                                       f"variable {vname!r} appears in "
                                       f"{count} utility definitions"))

    for i, a in enumerate(game.rules):
        for b in game.rules[i + 1:]:
            if a.same_logic(b):
                warnings.append(Diagnostic("warning",
                                           f"duplicate rule: {a.source!r}"))
                break

    profile_count = 1
    for p in game.players:
        profile_count *= max(len(p.actions), 1)
    row_space = profile_count
    for v in game.variables:
        row_space *= max(len(v.values), 1)

    return ValidatedGame(game, profile_count, row_space,
                         tuple(errors), tuple(warnings))


# ---------------------------------------------------------------------------
# Serialization

def _quote(s: str) -> str:
    return f'"{s}"'


def serialize_game(game: GameSpec) -> str:
    """Canonical ``.game`` text; reparsing yields a structurally equal game."""
    lines = [f"game {_quote(game.name)}"]
    for p in game.players:
        alias = f" alias {', '.join(p.aliases)}" if p.aliases else ""
        acts = ", ".join(_quote(a) for a in p.actions)
        lines.append(f"player {p.name}{alias} actions: {acts}")
    for v in game.variables:
        alias = f" alias {', '.join(v.aliases)}" if v.aliases else ""
        vals = ", ".join(f"{n}={s}" for n, s in v.values)
        valias = ""
        if v.value_aliases:
            valias = " valias " + ", ".join(f"{a}->{c}"
                                            for a, c in v.value_aliases)
        lines.append(f"variable {v.name}{alias} owner: {v.owner} "
                     f"values: {vals}{valias}")
    for u in game.utilities:
        lines.append(f"utility {u.player} = {' + '.join(u.terms)}")
    for r in game.rules:
        lines.append("rule " + serialize_rule(r))
    return "\n".join(lines) + "\n"


def serialize_rule(rule: Rule) -> str:
    def atoms(atom_list: tuple[Atom, ...]) -> str:
        return " and ".join(f"{a.subject}={_quote(a.value)}"
                            for a in atom_list)

    text = f"if {atoms(rule.condition)} then {atoms(rule.consequence)}"
    if rule.otherwise:
        text += f" otherwise {atoms(rule.otherwise)}"
    return text + "."


def game_to_dict(game: GameSpec) -> dict:
    """Structured-object form of a game; accepted back by game_from_dict."""
    return {
        "name": game.name,
        "players": [
            {"name": p.name, "actions": list(p.actions),
             "aliases": list(p.aliases)}
            for p in game.players
        ],
        "variables": [
            {"name": v.name, "owner": v.owner,
             "values": [{"name": n, "score": s} for n, s in v.values],
             "aliases": list(v.aliases),
             "value_aliases": [{"alias": a, "canonical": c}
                               for a, c in v.value_aliases]}
            for v in game.variables
        ],
        "utilities": [
            {"player": u.player, "terms": list(u.terms)}
            for u in game.utilities
        ],
        "rules": [
            {"condition": [_atom_to_dict(a) for a in r.condition],
             "consequence": [_atom_to_dict(a) for a in r.consequence],
             "otherwise": [_atom_to_dict(a) for a in r.otherwise],
             "source": r.source}
            for r in game.rules
        ],
    }


def _atom_to_dict(atom: Atom) -> dict:
    return {"kind": atom.kind, "subject": atom.subject,
            "value": atom.value, "inert": atom.inert}


def _atom_from_dict(d: dict) -> Atom:
    return Atom(d["kind"], d["subject"], d["value"], d.get("inert", False))


def game_from_dict(d: dict) -> GameSpec:
    return GameSpec(
        d.get("name", ""),
        tuple(PlayerDef(p["name"], tuple(p["actions"]),
                        tuple(p.get("aliases", ())))
              for p in d["players"]),
        tuple(OutcomeVarDef(v["name"], v["owner"],
                            tuple((x["name"], x["score"])
                                  for x in v["values"]),
                            tuple(v.get("aliases", ())),
                            tuple((x["alias"], x["canonical"])
                                  for x in v.get("value_aliases", ())))
              for v in d["variables"]),
        tuple(Rule(tuple(_atom_from_dict(a) for a in r["condition"]),
                   tuple(_atom_from_dict(a) for a in r["consequence"]),
                   tuple(_atom_from_dict(a) for a in r.get("otherwise", ())),
                   r.get("source", ""))
              for r in d["rules"]),
        tuple(UtilityDef(u["player"], tuple(u["terms"]))
              for u in d["utilities"]),
    )
