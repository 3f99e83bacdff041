"""Parser of the textual game-specification DSL.

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
quotes, and either "and" or "," as conjunction separators.  A utility
with nothing after ``=`` sums nothing.  Parsing is total: malformed
constructs become diagnostics, never exceptions.

The validator and the writers, which no command but ``validate`` runs, are
in ``oagame._validator_writer``; this module serves their names on first
access (PEP 562), read through the top-level package's table
``oagame._EXPORTS``, so the other game commands compile only the reader.
"""

import re
from collections import namedtuple

from . import _serve
from ._table import MAX_DIGITS, number_literal, too_many_digits
from .model import (
    ACTION,
    OUTCOME,
    Atom,
    GameSpec,
    OutcomeVarDef,
    PlayerDef,
    Rule,
    UtilityDef,
    name_key,
)

STRICT = "strict"
LENIENT = "lenient"


def __getattr__(name: str):
    return _serve(globals(), name, {"_validator_writer"})


# Opening quote characters mapped to their accepted closers.
_QUOTE_CLOSERS = {
    "`": ("'", "’"),
    "'": ("'", "’"),
    "‘": ("’", "'"),
    "’": ("’", "'"),
    '"': ('"',),
    "“": ("”",),
}


SourceSpan = namedtuple("SourceSpan", ("line", "col_start"))


class ParseError(namedtuple("ParseError", (
        "span",
        "kind",  # lex | syntax | resolution | domain-mismatch
        "message", "token"), defaults=("",))):
    __slots__ = ()

    def __str__(self) -> str:
        return (f"line {self.span.line}:{self.span.col_start}: "
                f"{self.kind}: {self.message}")


class ParseResult(namedtuple("ParseResult", ("game", "errors"))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.game is not None and not self.errors


# A quoted stretch: a '"' and what follows it up to the next '"', or to the
# end of the line.  A '#' or ',' inside one is part of a name.
_QUOTED = r'"[^"]*"?'
_UNCOMMENTED_RE = re.compile(rf'(?:[^"#]+|{_QUOTED})*')
_ITEM_RE = re.compile(rf'(?:[^",]+|{_QUOTED})+')


def _strip_comment(line: str) -> str:
    """``line`` up to its first '#' outside a quoted stretch."""
    return _UNCOMMENTED_RE.match(line).group()


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] in _QUOTE_CLOSERS:
        if text[-1] in _QUOTE_CLOSERS[text[0]]:
            return text[1:-1]
    return text


def _split_list(text: str) -> list[str]:
    """The items between the ','s outside quoted stretches of ``text``,
    stripped, empties dropped."""
    return [s.strip() for s in _ITEM_RE.findall(text) if s.strip()]


# ---------------------------------------------------------------------------
# Rule sentence parsing

# A word: a run of characters other than whitespace, '=' and ','.
_WORD = r"[^\s=,]+"
_WORD_RE = re.compile(_WORD)
# A keyword: the whole word 'if', 'and', 'then' or 'otherwise', its ASCII
# letters in either case ('otherwiſe' is a name, as ``str.lower`` has it).
# Each but 'if' ends a bare value.
_VALUE_END = rf"(?ai:and|then|otherwise)(?!{_WORD})"
_KEYWORD_RE = re.compile(rf"(?ai:if)(?!{_WORD})|{_VALUE_END}")
# The separators after an atom: ',' and the word 'and', each followed by
# any whitespace.
_SEPARATORS_RE = re.compile(rf"(?:(?:,|(?ai:and)(?!{_WORD}))\s*)*")
# A bare value: the words up to a ',' or a keyword but 'if', each with the
# whitespace after it.
_BARE_VALUE_RE = re.compile(rf"(?:(?!{_VALUE_END}){_WORD}\s*)*")


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _parse_value(s: str, i: int, line: int) -> tuple[str | None, int, ParseError | None]:
    """Parse a quoted or bare value starting at ``i``."""
    i = _skip_ws(s, i)
    if s[i:i + 1] in _QUOTE_CLOSERS:
        closers = _QUOTE_CLOSERS[s[i]]
        positions = [p for p in (s.find(c, i + 1) for c in closers) if p >= 0]
        if not positions:
            return None, len(s), ParseError(SourceSpan(line, i + 1), "lex",
                                            "unterminated quote", s[i])
        j = min(positions)
        return s[i + 1:j], j + 1, None
    bare = _BARE_VALUE_RE.match(s, i)
    if bare.end() == i:
        return None, i, ParseError(SourceSpan(line, i + 1), "syntax",
                                   "expected a value after '='")
    return " ".join(bare.group().split()), bare.end(), None


def _parse_atom_list(
    s: str, i: int, stops: frozenset[str], line: int
) -> tuple[list[tuple[str, str]], int, str | None, list[ParseError]]:
    """Parse ``name = value`` atoms separated by ',' / 'and' until a stop word.

    Returns (raw atoms, new index, stop word consumed or None, errors).
    """
    atoms: list[tuple[str, str]] = []
    errors: list[ParseError] = []
    while True:
        i = start = _skip_ws(s, i)
        if atoms:
            i = _SEPARATORS_RE.match(s, i).end()
        stop = _KEYWORD_RE.match(s, i)
        if stop and stop.group().lower() in stops:
            return atoms, stop.end(), stop.group().lower(), errors
        if i == start:  # no separator
            if i >= len(s):
                return atoms, i, None, errors
            if atoms:  # a second '=' in the last atom, or no separator
                second = s.startswith("=", i)
                errors.append(ParseError(SourceSpan(line, i + 1), "syntax", (
                    f"unexpected '=' after the value of {atoms[-1][0]!r}"
                    if second else "expected ',' or 'and' between atoms"),
                    "=" if second else _WORD_RE.match(s, i).group()))
                return atoms, i, None, errors
        eq = s.find("=", i)
        if eq < 0:
            errors.append(ParseError(SourceSpan(line, i + 1), "syntax",
                                     "expected '=' in atom", s[i:i + 20]))
            return atoms, len(s), None, errors
        name = " ".join(s[i:eq].split())
        if not name:
            errors.append(ParseError(SourceSpan(line, i + 1), "syntax",
                                     "empty name before '='"))
            return atoms, len(s), None, errors
        value, i, err = _parse_value(s, eq + 1, line)
        if err:
            errors.append(err)
            return atoms, i, None, errors
        atoms.append((name, value))


_POSSESSIVE_RE = re.compile(r"^(\S+?)(?:['’]s|['’])\s+(.+)$")
# Strict mode's error kind and message for an atom, by its name's kind
# (``GameSpec.bind``): its token is the value, or an unbound name.
_UNBOUND = {
    ACTION: ("resolution", "unknown action {value!r} for player {subject!r}"),
    OUTCOME: ("domain-mismatch",
              "value {value!r} is not in the domain of variable {subject!r}"),
    None: ("resolution", "unknown player or variable {subject!r}")}


def _resolve_atom(
    game: GameSpec,
    name: str,
    value: str,
    role: str,  # "condition" | "assignment"
    mode: str,
    line: int,
) -> tuple[Atom | None, ParseError | None]:
    # The whole phrase first; a possessive prefix naming a player is
    # stripped only when the whole phrase names nothing.
    kind, subject, canon = game.bind(name, value)
    m = _POSSESSIVE_RE.match(name)
    if kind is None and m and game.player(m.group(1)) is not None:
        name = m.group(2)
        kind, subject, canon = game.bind(name, value)
    if kind == ACTION and role == "assignment":
        return None, ParseError(
            SourceSpan(line, 1), "resolution",
            f"rule assignments must set outcome variables, not player "
            f"{subject!r}", name)
    if canon is not None:
        return Atom(kind, subject, canon), None
    if mode == LENIENT:
        return Atom(kind or OUTCOME, subject, value, inert=True), None
    # The message is only formatted for an atom that fails in strict mode.
    error_kind, template = _UNBOUND[kind]
    return None, ParseError(SourceSpan(line, 1), error_kind,
                            template.format(value=value, subject=subject),
                            value if kind else name)


def parse_rule(
    text: str, game: GameSpec, mode: str = STRICT, line: int = 1
) -> tuple[Rule | None, list[ParseError]]:
    """Parse one rule sentence against an already-declared game.

    Returns (rule, errors); the rule is None when errors prevented a parse.
    """
    body = text.strip()
    if body.endswith("."):
        body = body[:-1].rstrip()
    first = _KEYWORD_RE.match(body)
    if first is None or first.group().lower() != "if":
        word = _WORD_RE.match(body)
        return None, [ParseError(SourceSpan(line, 1), "syntax",
                                 "rule must start with 'if'",
                                 word.group() if word else "")]
    raw_cond, i, stop, errors = _parse_atom_list(body, first.end(),
                                                 frozenset({"then"}), line)
    if stop != "then":
        errors.append(ParseError(SourceSpan(line, i + 1), "syntax",
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
        return None, [ParseError(SourceSpan(line, 1), "syntax",
                                 "rule condition is empty")]
    if not raw_cons:
        return None, [ParseError(SourceSpan(line, 1), "syntax",
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
_UTILITY_RE = re.compile(r"^utility\s+(?P<player>\S+)\s*=\s*(?P<terms>.*)$")
_GAME_RE = re.compile(r"^game\s+(?P<name>.+)$")
# The pattern of each declaration line, by its first word.
_DECLARATIONS = {"game": _GAME_RE, "player": _PLAYER_RE,
                 "variable": _VARIABLE_RE, "utility": _UTILITY_RE}
_VALUE_PAIR_RE = re.compile(r"^(?P<name>.+?)\s*=\s*(?P<score>-?\d+)$")
_VALIAS_RE = re.compile(r"^(?P<alt>.+?)\s*->\s*(?P<canon>.+)$")


def _names(text: str | None) -> tuple[str, ...]:
    """The unquoted items of the list ``text``."""
    return tuple(_unquote(a) for a in _split_list(text or ""))


def _list_items(text: str | None, pattern: re.Pattern, what: str,
                form: str, lineno: int,
                errors: list[ParseError]) -> list[tuple] | None:
    """The unquoted groups of each item of the list ``text``, or None when
    ``pattern`` does not match some item; each such item adds an error
    naming it a malformed ``what`` and giving the expected ``form``."""
    items, ok = [], True
    for item in _split_list(text or ""):
        m = pattern.match(item)
        if m is None:
            errors.append(ParseError(
                SourceSpan(lineno, 1), "syntax",
                f"malformed {what} {item!r} (expected {form})", item))
            ok = False
        else:
            items.append(tuple(_unquote(g) for g in m.groups()))
    return items if ok else None


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
    # Declaring line of the game (line 1 when it has none) and of each
    # player, variable and utility, by position.
    lines: dict[str, list[int]] = {"game": [], "player": [], "variable": [],
                                   "utility": []}
    rule_lines: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head = line.split(None, 1)[0].lower()
        if head == "rule":
            rule_lines.append((lineno, line[len(head):].strip()))
            continue
        if head not in _DECLARATIONS:
            errors.append(ParseError(SourceSpan(lineno, 1), "syntax",
                                     f"unknown declaration {head!r}", head))
            continue
        m = _DECLARATIONS[head].match(line)
        if m is None:
            errors.append(ParseError(SourceSpan(lineno, 1), "syntax",
                                     f"malformed {head} line", line))
            continue
        if head == "game":
            if lines["game"]:
                errors.append(ParseError(
                    SourceSpan(lineno, 1), "syntax", f"second game line "
                    f"(the game is declared on line {lines['game'][0]})",
                    line))
                continue
            name = _unquote(m.group("name"))
        elif head == "player":
            players.append(PlayerDef(m.group("name"),
                                     _names(m.group("actions")),
                                     _names(m.group("aliases"))))
        elif head == "variable":
            var = " ".join(m.group("name").split())
            values = _list_items(m.group("values"), _VALUE_PAIR_RE, "value",
                                 "Name=int", lineno, errors)
            valias = _list_items(m.group("valias"), _VALIAS_RE,
                                 "value alias", "A->B", lineno, errors)
            if values is None or valias is None:
                continue
            try:
                scores = tuple((n, int(number_literal(s))) for n, s in values)
            except ValueError as exc:
                errors.append(ParseError(
                    SourceSpan(lineno, 1), "syntax",
                    f"a score of variable {var!r} is {exc}", var))
                continue
            variables.append(OutcomeVarDef(
                var, m.group("owner"), scores, _names(m.group("aliases")),
                tuple(valias)))
        else:
            terms = tuple(t.strip() for t in m.group("terms").split("+")
                          if t.strip())
            utilities.append(UtilityDef(m.group("player"), terms))
        lines[head].append(lineno)

    partial = GameSpec(name, tuple(players), tuple(variables), (),
                       tuple(utilities))
    errors.extend(ParseError(SourceSpan((lines[kind] or [1])[index], 1),
                             "resolution", message, token)
                  for (kind, index), message, token
                  in _structural_errors(partial))

    rules = []
    for lineno, body in rule_lines:
        rule, errs = parse_rule(body, partial, mode=mode, line=lineno)
        errors.extend(errs)
        if rule is not None:
            rules.append(rule)
    if errors:
        return ParseResult(None, tuple(errors))

    # One new game, on the same declarations: it keeps their name tables.
    result = ParseResult(partial._replace(
        rules=tuple(rules), utilities=_canonical_utilities(partial)), ())
    result.game._names = partial._named()
    return result


def _canonical_utilities(game: GameSpec) -> tuple[UtilityDef, ...]:
    """``game``'s utilities, each naming its player and variables by their
    declared names; a name that declares nothing is kept."""
    return tuple(
        UtilityDef(getattr(game.player(u.player), "name", u.player),
                   tuple(getattr(game.variable(t), "name", t)
                         for t in u.terms))
        for u in game.utilities)


def _structural_errors(game: GameSpec):
    """Yield ``((kind, index), message, token)`` for each structural error of
    ``game``'s declarations: ``kind`` is ``"game"``, ``"player"``,
    ``"variable"`` or ``"utility"`` and ``index`` the declaration's position
    among them."""
    if not game.players:
        yield ("game", 0), "a game declares at least one player", ""
    # Each figure a report prints fits in MAX_DIGITS digits: the global
    # utility and the row space here, each utility below.
    if too_many_digits(sum(map(_largest_score, game.variables))):
        yield (("game", 0), f"the global utility can be a figure of more "
                            f"than {MAX_DIGITS} digits", "")
    if too_many_digits(game.sizes()[1]):
        yield (("game", 0), f"the row space is a figure of more than "
                            f"{MAX_DIGITS} digits", "")
    yield from _tabbed(("game", 0), (game.name,))
    # A row dump and a payoffs cell have one column per record key.  A name
    # declared twice is reported as such; a key repeated more often than it
    # is declared is a name that is also GU, feasible or U_<player>, whose
    # column would lose a value.  Each maps to the report it would break.
    names = (*game.player_names(), *game.variable_names())
    repeated = {k: what for what, keys in (("payoffs", game.payoff_keys()),
                                           ("row-dump", game.record_keys()))
                for k in keys if keys.count(k) > names.count(k) > 0}
    players, _, keys, actions, values = game._named()
    seen: set[str] = set()
    for i, p in enumerate(game.players):
        where = ("player", i)
        for n in (p.name, *p.aliases):
            if keys[n] in seen:
                yield (where, f"player name or alias {n!r} declared more "
                              f"than once", n)
            seen.add(keys[n])
        if not p.actions:
            yield where, f"player {p.name!r} has no actions", p.name
        if len(actions[i]) != len(p.actions):
            yield where, f"player {p.name!r} has duplicate actions", p.name
        if p.name in repeated:
            yield (where, f"player {p.name!r} has the name of a "
                          f"{repeated[p.name]} column", p.name)
        yield from _tabbed(where, (p.name, *p.aliases, *p.actions))

    seen = set()
    for i, v in enumerate(game.variables):
        where = ("variable", i)
        for n in (v.name, *v.aliases):
            if keys[n] in seen:
                yield (where, f"variable name or alias {n!r} declared more "
                              f"than once", n)
            elif keys[n] in players:
                # A rule atom would bind the name to the player.
                yield (where, f"variable name or alias {n!r} is also a "
                              f"player name or alias", n)
            seen.add(keys[n])
        if v.name in repeated:
            yield (where, f"variable {v.name!r} has the name of a "
                          f"{repeated[v.name]} column", v.name)
        if len(v.values) < 2:
            yield (where, f"variable {v.name!r} needs at least two values",
                   v.name)
        names = set(map(name_key, v.value_names()))
        if len(names) != len(v.values):
            yield (where, f"variable {v.name!r} has duplicate value names",
                   v.name)
        for alt, canon in v.value_aliases:
            if name_key(alt) in names:
                yield (where, f"value alias {alt!r} of {v.name!r} shadows a "
                              f"value", alt)
            if name_key(canon) not in values[i]:
                yield (where, f"value alias {alt!r} of {v.name!r} targets "
                              f"unknown value {canon!r}", canon)
        if game.player(v.owner) is None:
            yield (where, f"variable {v.name!r} owned by undeclared player "
                          f"{v.owner!r}", v.owner)
        yield from _tabbed(where, (v.name, *v.aliases, *v.value_names(),
                                   *(alt for alt, _ in v.value_aliases)))

    seen = set()
    for i, u in enumerate(game.utilities):
        where = ("utility", i)
        player = game.player(u.player)
        if player is None:
            yield (where, f"utility for undeclared player {u.player!r}",
                   u.player)
        elif player.name in seen:
            yield (where, f"utility for player {player.name!r} declared "
                          f"more than once", u.player)
        else:
            seen.add(player.name)
        largest = 0
        for term in u.terms:
            var = game.variable(term)
            if var is None:
                yield (where, f"utility of {u.player!r} sums undeclared "
                              f"variable {term!r}", term)
            else:
                largest += _largest_score(var)
        if too_many_digits(largest):
            yield (where, f"utility of {u.player!r} can be a figure of more "
                          f"than {MAX_DIGITS} digits", u.player)


def _tabbed(where: tuple[str, int], names):
    """An error at ``where`` for each of ``names`` that holds a tab, which
    would split a column of delimited output."""
    return ((where, f"name {n!r} holds a tab", n) for n in names if "\t" in n)


def _largest_score(var: OutcomeVarDef) -> int:
    return max((abs(score) for _, score in var.values), default=0)

