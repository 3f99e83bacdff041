import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from oagame import (
    Diagnostic,
    compile_game,
    fixtures,
    parse_game_spec,
    parse_rule,
    serialize_game,
    validate_game,
)
from oagame.dsl import LENIENT, STRICT
from oagame.model import (
    ACTION,
    OUTCOME,
    Atom,
    GameSpec,
    NameResolutionError,
    OutcomeVarDef,
    PlayerDef,
    Rule,
    UtilityDef,
)

from .oracle import random_rich_game, random_small_game

MINIMAL = """
game "g"
player A actions: "x"
variable V owner: A values: More=1, Less=0
"""


def test_bundled_fixture_shape(oa_game):
    assert oa_game.name == "Open Access Publishing"
    assert len(oa_game.players) == 5
    assert [len(p.actions) for p in oa_game.players] == [3, 3, 3, 4, 4]
    assert len(oa_game.variables) == 8
    assert len(oa_game.rules) == 11
    assert len(oa_game.utilities) == 5


def test_minimal_game_parses():
    result = parse_game_spec(MINIMAL)
    assert result.ok
    assert result.game.name == "g"
    assert result.game.players[0].actions == ("x",)


def test_undeclared_owner_is_resolution_error():
    result = parse_game_spec(MINIMAL + 'variable W owner: Z values: '
                             'More=1, Less=0\n')
    assert result.game is None
    assert any(e.kind == "resolution" and e.token == "Z"
               for e in result.errors)


def test_cross_reference_errors_name_the_declaring_line():
    text = ('game "g"\nplayer A actions: "x"\n'
            'variable V owner: A values: More=1, Less=0\n'
            '# the next three lines each name something undeclared\n'
            'variable W owner: Z values: More=1, Less=0\n'
            'utility Q = V\n'
            'utility A = W2\n')
    result = parse_game_spec(text)
    assert result.game is None
    assert [(e.span.line, e.kind, e.token) for e in result.errors] == [
        (5, "resolution", "Z"), (6, "resolution", "Q"),
        (7, "resolution", "W2")]
    assert str(result.errors[0]).startswith("line 5:1: resolution: ")


STRUCTURE_BASE = [
    'game "g"',
    'player A alias Aye actions: "x", "y"',
    'player B actions: "p", "q"',
    'variable V alias Vee owner: A values: More=1, Less=0 valias Plus->More',
    'variable W owner: B values: Hi=2, Lo=0',
    'utility A = V',
    'utility B = W',
]


# (declaring line, its new text, the declaration's section of ``GameSpec``
#  and position in it, the same change to its fields, the one error it must
#  give)
STRUCTURE_CASES = [
    (3, 'player B alias a actions: "p", "q"', ("players", 1),
     {"aliases": ("a",)}, "player name or alias 'a' declared more than once"),
    (3, 'player B actions: ,', ("players", 1), {"actions": ()},
     "player 'B' has no actions"),
    (3, 'player B actions: "p", "P"', ("players", 1), {"actions": ("p", "P")},
     "player 'B' has duplicate actions"),
    (5, 'variable W alias vee owner: B values: Hi=2, Lo=0', ("variables", 1),
     {"aliases": ("vee",)},
     "variable name or alias 'vee' declared more than once"),
    (5, 'variable W owner: B values: Hi=2', ("variables", 1),
     {"values": (("Hi", 2),)}, "variable 'W' needs at least two values"),
    (5, 'variable W owner: B values: Hi=2, hi=0', ("variables", 1),
     {"values": (("Hi", 2), ("hi", 0))},
     "variable 'W' has duplicate value names"),
    (4, 'variable V alias Vee owner: A values: More=1, Less=0 '
        'valias less->More', ("variables", 0),
     {"value_aliases": (("less", "More"),)},
     "value alias 'less' of 'V' shadows a value"),
    (4, 'variable V alias Vee owner: A values: More=1, Less=0 '
        'valias Plus->Most', ("variables", 0),
     {"value_aliases": (("Plus", "Most"),)},
     "value alias 'Plus' of 'V' targets unknown value 'Most'"),
    (5, 'variable W owner: C values: Hi=2, Lo=0', ("variables", 1),
     {"owner": "C"}, "variable 'W' owned by undeclared player 'C'"),
    (7, 'utility C = W', ("utilities", 1), {"player": "C"},
     "utility for undeclared player 'C'"),
    (7, 'utility B = X', ("utilities", 1), {"terms": ("X",)},
     "utility of 'B' sums undeclared variable 'X'"),
    (7, 'utility Aye = W', ("utilities", 1), {"player": "Aye"},
     "utility for player 'A' declared more than once"),
    # Names that would bind a rule atom to the wrong declaration or repeat
    # a row-dump or payoffs column.
    (5, 'variable W alias aye owner: B values: Hi=2, Lo=0', ("variables", 1),
     {"aliases": ("aye",)},
     "variable name or alias 'aye' is also a player name or alias"),
    (5, 'variable b alias W owner: B values: Hi=2, Lo=0', ("variables", 1),
     {"name": "b", "aliases": ("W",)},
     "variable name or alias 'b' is also a player name or alias"),
    (5, 'variable A alias W owner: B values: Hi=2, Lo=0', ("variables", 1),
     {"name": "A", "aliases": ("W",)},
     "variable name or alias 'A' is also a player name or alias"),
    (2, 'player GU alias A actions: "x", "y"', ("players", 0),
     {"name": "GU", "aliases": ("A",)},
     "player 'GU' has the name of a row-dump column"),
    (2, 'player U_B alias A actions: "x", "y"', ("players", 0),
     {"name": "U_B", "aliases": ("A",)},
     "player 'U_B' has the name of a row-dump column"),
    (4, 'variable U_B alias V owner: A values: More=1, Less=0 '
        'valias Plus->More', ("variables", 0),
     {"name": "U_B", "aliases": ("V",)},
     "variable 'U_B' has the name of a row-dump column"),
    (2, 'player feasible alias A actions: "x", "y"', ("players", 0),
     {"name": "feasible", "aliases": ("A",)},
     "player 'feasible' has the name of a payoffs column"),
]


def _replaced(game, section, index, **change):
    """``game`` with the ``index``-th declaration of ``section`` (a field of
    ``GameSpec``) given the field values ``change``."""
    decls = list(getattr(game, section))
    decls[index] = decls[index]._replace(**change)
    return game._replace(**{section: tuple(decls)})


@pytest.mark.parametrize("line, text, where, change, message",
                         STRUCTURE_CASES, ids=[c[-1] for c in STRUCTURE_CASES])
def test_structural_rule_is_checked_once_for_both_paths(line, text, where,
                                                        change, message):
    base = parse_game_spec("\n".join(STRUCTURE_BASE))
    assert base.ok and validate_game(base.game).ok
    lines = list(STRUCTURE_BASE)
    lines[line - 1] = text
    result = parse_game_spec("\n".join(lines))
    assert result.game is None
    assert [(e.span.line, e.kind, e.message) for e in result.errors] == [
        (line, "resolution", message)]
    assert validate_game(_replaced(base.game, *where, **change)).errors == (
        Diagnostic("error", message),)


_NINES, _HALF = "9" * 4300, "5" + "0" * 4299  # 4300 digits each
_PAST = "can be a figure of more than 4300 digits"


@pytest.mark.parametrize("lines, values, terms, errors", [
    # GU reaches 1 + 99...9 = 10 ** 4300; B's utility stays in the limit.
    ({5: f"variable W owner: B values: Hi={_NINES}, Lo=0"},
     (("Hi", int(_NINES)), ("Lo", 0)), ("W",),
     [(1, f"the global utility {_PAST}")]),
    # GU stays in the limit, but B's utility counts W twice: 10 ** 4300.
    ({5: f"variable W owner: B values: Hi={_HALF}, Lo=0",
      7: "utility B = W + W"},
     (("Hi", int(_HALF)), ("Lo", 0)), ("W", "W"),
     [(7, f"utility of 'B' {_PAST}")]),
], ids=["global-utility", "utility"])
def test_a_figure_past_the_digit_limit_is_refused_on_both_paths(
        lines, values, terms, errors):
    """Every figure a report prints must be writable as text: the largest
    global utility and each utility's largest value, summed over the
    variables' largest scores (a repeated term counted each time)."""
    text = [lines.get(i, line) for i, line in enumerate(STRUCTURE_BASE, 1)]
    result = parse_game_spec("\n".join(text))
    assert result.game is None
    assert [(e.span.line, e.kind, e.message) for e in result.errors] == [
        (line, "resolution", message) for line, message in errors]
    base = parse_game_spec("\n".join(STRUCTURE_BASE)).game
    game = _replaced(_replaced(base, "variables", 1, values=values),
                     "utilities", 1, terms=terms)
    assert validate_game(game).errors == tuple(
        Diagnostic("error", message) for _, message in errors)


def test_a_row_space_past_the_digit_limit_is_refused(monkeypatch):
    """The row space of ``STRUCTURE_BASE`` is 16: past a one-digit limit,
    reported at the game line; its other figures have one digit."""
    base = parse_game_spec("\n".join(STRUCTURE_BASE)).game
    monkeypatch.setattr("oagame._table.MAX_DIGITS", 1)
    monkeypatch.setattr("oagame.dsl.MAX_DIGITS", 1)
    message = "the row space is a figure of more than 1 digits"
    result = parse_game_spec("\n".join(STRUCTURE_BASE))
    assert [(e.span.line, e.message) for e in result.errors] == [(1, message)]
    assert validate_game(base).errors == (Diagnostic("error", message),)


@pytest.mark.parametrize("text, line", [
    ("", 1), ("# nothing yet\n", 1),
    ('\ngame "g"\nvariable V owner: A values: More=1, Less=0\n', 2),
])
def test_game_without_players_is_an_error(text, line):
    message = "a game declares at least one player"
    result = parse_game_spec(text)
    assert result.game is None
    assert (result.errors[0].span.line, result.errors[0].kind,
            result.errors[0].message) == (line, "resolution", message)
    game = parse_game_spec(MINIMAL).game._replace(players=(), variables=())
    assert validate_game(game).errors == (Diagnostic("error", message),)


def test_rule_with_otherwise(oa_game):
    rule, errors = parse_rule(
        "if Administrators =`Support OA' then Savings=`More', "
        "otherwise Savings=`Less'.", oa_game)
    assert not errors
    assert [(a.subject, a.value) for a in rule.condition] == \
        [("Administrators", "Support OA")]
    assert [(a.subject, a.value) for a in rule.consequence] == \
        [("Savings", "More")]
    assert [(a.subject, a.value) for a in rule.otherwise] == \
        [("Savings", "Less")]


def test_rule_with_outcome_condition_and_multiword_names(oa_game):
    rule, errors = parse_rule(
        "if Visibility=`More' then Quality Results=`More' and "
        "Impact and Relevance=`More'", oa_game)
    assert not errors
    assert rule.condition[0].kind == OUTCOME
    assert [a.subject for a in rule.consequence] == \
        ["Quality Results", "Impact and Relevance"]


def test_rule_possessive_prefixes(oa_game):
    rule, errors = parse_rule(
        "if Funder=`Demand publications', Editors=`Grant TA' and "
        "Politicians=`Permit TA' then Editor's Income = `More'.", oa_game)
    assert not errors
    assert [a.subject for a in rule.condition] == \
        ["Funders", "Editors", "Politicians"]
    assert rule.consequence[0].subject == "Income"


def test_rule_binds_the_whole_phrase_before_a_possessive_prefix():
    luck = parse_game_spec(
        'game "g"\nplayer A actions: "x", "y"\n'
        "variable A's Luck owner: A values: Hi=1, Lo=0\n"
        "utility A = A's Luck\n"
        'rule if A="x" then A\'s Luck="Hi".\n')
    assert luck.ok, [str(e) for e in luck.errors]
    assert luck.game.rules[0].consequence == (Atom(OUTCOME, "A's Luck", "Hi"),)
    both = parse_game_spec(
        'game "g"\nplayer A actions: "x", "y"\n'
        "variable A's V owner: A values: Hi=1, Lo=0\n"
        "variable V owner: A values: Hi=1, Lo=0\n"
        "utility A = A's V + V\n").game
    for text, subject in (("if A='x' then A's V='Hi'.", "A's V"),
                          ("if A='x' then A’ V='Hi'.", "V"),
                          ("if A='x' then V='Hi'.", "V")):
        rule, errors = parse_rule(text, both)
        assert not errors, (text, [str(e) for e in errors])
        assert rule.consequence == (Atom(OUTCOME, subject, "Hi"),)
    # An error still names the phrase as written, prefix stripped.
    rule, errors = parse_rule("if A='x' then A's W='Hi'.", both)
    assert (rule, errors[0].message, errors[0].token) == (
        None, "unknown player or variable 'W'", "W")


def test_rule_accepts_mixed_quote_glyphs(oa_game):
    for text in (
        "if Editors='Grant OA' then Income='Less'.",
        "if Editors=‘Grant OA’ then Income=‘Less’.",
        'if Editors="Grant OA" then Income="Less".',
    ):
        rule, errors = parse_rule(text, oa_game)
        assert not errors, (text, [str(e) for e in errors])
        assert rule.condition[0] .value == "Grant OA"


def test_rule_unknown_action_is_resolution_error(oa_game):
    rule, errors = parse_rule("if Academics=`Fly' then Savings=`More'.",
                              oa_game)
    assert rule is None
    assert errors[0].kind == "resolution"
    assert errors[0].token == "Fly"


def test_rule_domain_mismatch_strict_vs_lenient(oa_game):
    text = "if Editors=`Grant OA' then Income=`Huge'."
    rule, errors = parse_rule(text, oa_game, mode="strict")
    assert rule is None
    assert errors[0].kind == "domain-mismatch"
    rule, errors = parse_rule(text, oa_game, mode="lenient")
    assert not errors
    assert rule.consequence[0].inert


def test_rule_empty_parts_are_syntax_errors(oa_game):
    for text in ("if then Savings=`More'.",
                 "if Editors=`Grant OA' then .",
                 "Editors=`Grant OA' then Income=`Less'."):
        rule, errors = parse_rule(text, oa_game)
        assert rule is None
        assert all(e.kind == "syntax" for e in errors)


SEPARATOR_GAME = parse_game_spec(
    'game "g"\nplayer A actions: "x"\n'
    'variable V owner: A values: Hi=1, Lo=0\n'
    'variable W owner: A values: Hi=1, Lo=0\n').game
_NO_SEPARATOR = "expected ',' or 'and' between atoms"
_NO_THEN = ("line 7:10: syntax: expected 'then' after the rule condition", "")


@pytest.mark.parametrize("text, expected", [
    ('if A="x", then V="Hi"', ([("A", "x")], [("V", "Hi")], [])),
    ('if A="x" and, AND V="Hi" then W="Lo"',
     ([("A", "x"), ("V", "Hi")], [("W", "Lo")], [])),
    ('if A="x" then V="Hi" and otherwise V="Lo"',
     ([("A", "x")], [("V", "Hi")], [("V", "Lo")])),
    ("if A=x and then V=Hi", ([("A", "x")], [("V", "Hi")], [])),
    ('if A="x" andy V="Hi" then W="Lo"',
     [(f"line 7:10: syntax: {_NO_SEPARATOR}", "andy"), _NO_THEN]),
    ('if A="x" V="Hi" then W="Lo"',
     [(f"line 7:10: syntax: {_NO_SEPARATOR}", "V"), _NO_THEN]),
    ("if A = x = y then V=Hi",
     [("line 7:10: syntax: unexpected '=' after the value of 'A'", "="),
      _NO_THEN]),
    ('if A="x" then V="Hi" = "Lo"',
     [("line 7:22: syntax: unexpected '=' after the value of 'V'", "=")]),
    ('if A="x" then V="Hi" otherwise W = Lo = Hi',
     [("line 7:39: syntax: unexpected '=' after the value of 'W'", "=")]),
    ('if A="x" then V="Hi",', [("line 7:22: syntax: expected '=' in atom",
                                "")]),
])
def test_rule_atoms_are_separated_by_commas_and_the_word_and(text, expected):
    """Separators (',' and 'and', in any number and case) may stand before
    a stop word; a word that only starts with 'and' or another atom is a
    missing separator, a second '=' in an atom is reported as one, naming
    the atom, and a trailing separator wants an atom."""
    rule, errors = parse_rule(text, SEPARATOR_GAME, line=7)
    if rule is None:
        assert [(str(e), e.token) for e in errors] == expected
    else:
        assert not errors
        assert tuple([(a.subject, a.value) for a in part] for part in (
            rule.condition, rule.consequence, rule.otherwise)) == expected


def test_validation_counts(oa_validated):
    assert oa_validated.ok
    assert oa_validated.action_profile_count == 432
    assert oa_validated.row_space_count == 110592


def test_validation_duplicate_rule_warning(oa_validated):
    dup = [w for w in oa_validated.warnings if "duplicate rule" in w.message]
    assert len(dup) == 1


def _mutated(game, rule, part, index, **change):
    """``game`` with the fields ``change`` of one rule atom replaced."""
    atoms = list(getattr(game.rules[rule], part))
    atoms[index] = atoms[index]._replace(**change)
    return _replaced(game, "rules", rule, **{part: tuple(atoms)})


def test_validation_rejects_undeclared_rule_atoms(oa_game):
    # Rule 1: if Academics=Publish TA and Editors=Grant TA
    #         then Opportunity=Less and Visibility=Less.
    for game, message in (
            (_mutated(oa_game, 0, "consequence", 0, value="Bogus"),
             "consequence of rule {!r} names undeclared Opportunity=Bogus"),
            (_mutated(oa_game, 0, "condition", 0, subject="Bogus"),
             "condition of rule {!r} names undeclared Bogus=Publish TA"),
            (_mutated(oa_game, 0, "consequence", 0, kind=ACTION,
                      subject="Academics", value="Publish TA"),
             "consequence of rule {!r} sets player 'Academics'")):
        validated = validate_game(game)
        assert [d.message for d in validated.errors] == [
            message.format(oa_game.rules[0].source)]
        assert "_compiled" not in vars(game)  # validating compiles nothing
    # Inert atoms are what lenient mode keeps of unresolved names: exempt.
    assert validate_game(_mutated(oa_game, 0, "consequence", 0,
                                  value="Bogus", inert=True)).ok


def _one_atom_changes(game):
    """``game`` with one rule atom changed, for each atom and each change:
    an undeclared value or subject, a value in another case, the inert
    mark, or either kind."""
    for r, rule in enumerate(game.rules):
        for part in ("condition", "consequence", "otherwise"):
            for i in range(len(getattr(rule, part))):
                for change in ({"value": "Bogus"}, {"subject": "Bogus"},
                               {"value": "more"}, {"inert": True},
                               {"kind": ACTION}, {"kind": OUTCOME}):
                    yield _mutated(game, r, part, i, **change)


_RULE_ATOM_ERROR = re.compile(r"(condition|consequence|otherwise-branch) "
                              r"of rule ")


def _refusals(game) -> tuple[list[str], str | None]:
    """The rule-atom errors ``validate_game`` reports, and the context of
    the ``NameResolutionError`` that ``compile_game`` raises, or None."""
    reported = [d.message for d in validate_game(game).errors
                if _RULE_ATOM_ERROR.match(d.message)]
    try:
        compile_game(game)
    except NameResolutionError as exc:
        return reported, exc.context
    return reported, None


def _agree(reported, context) -> bool:
    """Whether validation and compilation refuse the same rule part: no
    error and no exception, or one error that starts with the context."""
    if context is None:
        return not reported
    return len(reported) == 1 and reported[0].startswith(context + " ")


def test_valid_game_compiles_after_any_one_atom_change(oa_game):
    """Whatever one rule atom is changed to, ``validate_game`` reports a
    rule-atom error exactly when ``compile_game`` refuses the game, and
    both name the same part of the same rule: on the 198 changes of
    ``oa.game`` and on those of 100 rich random games."""
    verdicts = [_refusals(game) for game in _one_atom_changes(oa_game)]
    assert len(verdicts) == 198
    assert sum(bool(reported) for reported, _ in verdicts) == 132
    assert all(_agree(*verdict) for verdict in verdicts)
    rng, changes = random.Random(36), 0
    for _ in range(100):
        for game in _one_atom_changes(random_rich_game(rng)):
            verdict = _refusals(game)
            assert _agree(*verdict), (game.rules, verdict)
            changes += 1
    assert changes == 4956


def test_round_trip_serialize_parse(oa_game):
    text = serialize_game(oa_game)
    reparsed = parse_game_spec(text)
    assert reparsed.ok, [str(e) for e in reparsed.errors]
    g = reparsed.game
    assert g.players == oa_game.players
    assert g.variables == oa_game.variables
    assert g.utilities == oa_game.utilities
    assert len(g.rules) == len(oa_game.rules)
    for a, b in zip(g.rules, oa_game.rules):
        assert a.same_logic(b)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_serialized_game_bytes(oa_game):
    """The writer's bytes, pinned: the bundled game, and each random oracle
    game (seeds 0-299, both generators) that it writes and that reads
    back; the 312 whose every utility sums a term were all it wrote before
    it wrote a utility that sums nothing, and their bytes are unchanged."""
    assert _sha256(serialize_game(oa_game)) == (
        "f5b93a7ed4093d4712440e6b729ab8e063e9987b4e7c9f688d3708bb30f77569")
    texts = []
    for seed in range(300):
        for make in (random_small_game, random_rich_game):
            try:
                text = serialize_game(make(random.Random(seed)))
            except ValueError:
                continue
            if parse_game_spec(text, LENIENT).ok:
                texts.append(text)
    assert len(texts) == 600
    assert _sha256("".join(texts)) == (
        "e64a3d75af421d4910b66d303d827ce12969577c489e17dadaa6680560c2b487")
    summing = [t for t in texts if not re.search(r"^utility \S+ =$", t,
                                                 re.MULTILINE)]
    assert len(summing) == 312
    assert _sha256("".join(summing)) == (
        "80e49385aa9b9338c592928a67d4cbfc75b5320b163128b5a3f7838cd9cddc0a")


def test_round_trip_quotes_items_holding_a_comma():
    game = parse_game_spec(
        'game "g"\nplayer A alias "Doc, MD", Aye actions: "x", "y"\n'
        'variable V alias "Vee, too" owner: A values: "Hi, there"=1, Lo=0 '
        'valias "Top, hat"->"Hi, there", Up->"Hi, there"\n'
        'utility A = V\n').game
    assert game.players[0].aliases == ("Doc, MD", "Aye")
    assert game.variables[0].values == (("Hi, there", 1), ("Lo", 0))
    assert game.bind("V", "top, HAT")[2] == "Hi, there"
    text = serialize_game(game)
    assert ('alias "Doc, MD", Aye actions:' in text
            and 'values: "Hi, there"=1, Lo=0 valias "Top, hat"->"Hi, there"'
            in text)
    assert parse_game_spec(text).game == game


DIFFERENT_GAME = ("cannot write game 'g' as .game text: the text would read "
                  "back as a different game")


@pytest.mark.parametrize("actions_text", [
    '"Publish #TA", "OA"',
    '"Publish #TA", "OA"  # a "quoted" note',
    '"Publish #TA", "OA"# note with " one quote',
])
def test_a_comment_sign_inside_double_quotes_is_part_of_the_name(
        actions_text):
    result = parse_game_spec(f'game "g"\nplayer A actions: {actions_text}\n')
    assert result.ok, [str(e) for e in result.errors]
    assert result.game.players[0].actions == ("Publish #TA", "OA")


def test_a_comment_after_a_quoted_name_is_stripped():
    result = parse_game_spec('game "g"  # the name\n'
                             'player A actions: "Publish", "OA" # note\n')
    assert result.ok, [str(e) for e in result.errors]
    assert result.game.name == "g"
    assert result.game.players[0].actions == ("Publish", "OA")


def test_serialize_refuses_a_name_holding_a_comment_sign():
    # Earlier readers cut the line at the '#', and read the text as a
    # player with the single action '"Publish'.
    game = _replaced(parse_game_spec(MINIMAL).game, "players", 0,
                     actions=("Publish #TA", "OA"))
    with pytest.raises(ValueError, match=re.escape(DIFFERENT_GAME)):
        serialize_game(game)


def test_serialize_refuses_a_name_holding_a_double_quote():
    # Written as is, the text would reparse as one player with the single
    # action 'a"b", "c'.
    game = _replaced(parse_game_spec(MINIMAL).game, "players", 0,
                     actions=('a"b', "c"))
    with pytest.raises(ValueError, match=re.escape(DIFFERENT_GAME)):
        serialize_game(game)


@pytest.mark.parametrize("section, change", [
    ("players", {"aliases": (" x", "y ")}),
    ("variables", {"values": ((" Hi", 1), ("Lo ", 0))}),
    ("players", {"actions": (" a", "b ")}),  # quoted already
])
def test_serialize_quotes_items_with_outer_whitespace(section, change):
    # Written bare, the list reader would strip the items: the text would
    # reparse with ok=True as a game with aliases 'x', 'y' or values 'Hi',
    # 'Lo'.
    game = _replaced(parse_game_spec(MINIMAL).game, section, 0, **change)
    reparsed = parse_game_spec(serialize_game(game))
    assert reparsed.ok and reparsed.game == game


def test_serialize_refuses_a_name_holding_a_line_break():
    # Each line break would start a new declaration: the text would reparse
    # with ok=True as a game with a second player Z, or with a player A
    # whose last action is '"a' and a second player B.
    game = parse_game_spec(MINIMAL).game
    for name, bad in (
            ("g\nplayer Z actions: z", game._replace(
                name="g\nplayer Z actions: z")),
            ("g", _replaced(
                game, "players", 0, actions=("x", "a\nplayer B actions: b")))):
        with pytest.raises(ValueError, match=re.escape(
                f"cannot write game {name!r} as .game text: the text would "
                "read back as a different game")):
            serialize_game(bad)


@pytest.mark.parametrize("section, name", [
    ("variables", " V"), ("variables", "V  W"), ("players", " A"),
    ("players", "A alias B"),
])
def test_serialize_refuses_an_unquoted_name_that_reads_back_changed(section,
                                                                    name):
    # The variable would reparse as 'V' or 'V W', the player as 'A' or as
    # 'A' with the alias 'B'.
    game = _replaced(parse_game_spec(MINIMAL).game, section, 0, name=name)
    with pytest.raises(ValueError, match=re.escape(DIFFERENT_GAME)):
        serialize_game(game)


def _read_back(text):
    """The game ``text`` reads back as, rule sources aside."""
    result = parse_game_spec(text, LENIENT)
    assert result.ok, [str(e) for e in result.errors]
    return _logic(result.game)


def _logic(game):
    return game._replace(rules=[r[:3] for r in game.rules])


# What a drawn name may start or end with: list and value separators,
# every quote glyph the reader strips, the comment sign, possessives and
# outer spaces; half the affixes are empty.
AFFIXES = st.just("") | st.lists(st.sampled_from(
    [",", '"', "'", "`", "\u2018", "\u2019", "\u201c", "\u201d", "#", "->",
     "=", ":", "'s", " "]), min_size=1, max_size=2).map("".join)


@st.composite
def named_games(draw):
    """A one-player, one-variable game with a rule that names the player,
    an action, the variable and a value; each name is a distinct word
    with drawn affixes."""
    def name(word):
        return draw(AFFIXES) + word + draw(AFFIXES)

    actions = (name("a0"), name("a1"))
    player = PlayerDef(name("P"), actions, (name("pa"),))
    values = (name("hi"), name("lo"))
    variable = OutcomeVarDef(name("V"), player.name,
                             ((values[0], 1), (values[1], 0)), (name("va"),),
                             ((name("top"), values[0]),))
    rule = Rule((Atom(ACTION, player.name, actions[0]),),
                (Atom(OUTCOME, variable.name, values[1]),))
    return GameSpec(name("g"), (player,), (variable,), (rule,),
                    (UtilityDef(player.name, (variable.name,)),))


@settings(max_examples=300, deadline=None)
@given(named_games())
@example(GameSpec("g", (PlayerDef("A", ("a, b", " c"), ("x ", "it's")),),
                  (OutcomeVarDef("V", "A", (("Hi, :", 1), ("Lo", 0)),
                                 ("Vee",), (("=top", "Hi, :"),)),),
                  (Rule((Atom(ACTION, "A", " c"),),
                        (Atom(OUTCOME, "V", "Lo"),)),),
                  (UtilityDef("A", ("V",)),)))
def test_game_writer_refuses_or_reads_back(game):
    """The writer raises ValueError, or its text reads back as ``game``."""
    try:
        text = serialize_game(game)
    except ValueError:
        return
    assert _read_back(text) == _logic(game)


@settings(max_examples=200, deadline=None)
@given(named_games() | st.builds(
    lambda draw, seed: draw(random.Random(seed)),
    st.sampled_from([random_small_game, random_rich_game]),
    st.integers(0, 2**32 - 1)))
def test_a_game_that_parses_validates(game):
    """The parser makes ``validate_game``'s structural checks and resolves
    each rule atom to declared names or an inert atom, so every game that
    it accepts, strict or lenient, validates with no error: ``oagame
    validate`` has no failure to report."""
    try:
        text = serialize_game(game)
    except ValueError:
        return
    for mode in (STRICT, LENIENT):
        result = parse_game_spec(text, mode)
        if result.ok:
            assert validate_game(result.game).errors == ()


# Each of these wrote text that read back, with ok=True, as another game.
@pytest.mark.parametrize("section, change", [
    ("variables", {"values": (("'x'", 1), ("Lo", 0))}),
    ("variables", {"values": (("`x'", 1), ("Lo", 0))}),
    ("players", {"aliases": ("\u2018z\u2019",)}),
])
def test_serialize_refuses_a_name_whose_quotes_would_be_read(section, change):
    game = _replaced(parse_game_spec(MINIMAL).game, section, 0, **change)
    with pytest.raises(ValueError, match=re.escape(DIFFERENT_GAME)):
        serialize_game(game)


def test_serialize_writes_a_possessive_variable_name_in_a_rule():
    # The atom A's V=Hi reads back whole, its A's not stripped as a possessive.
    game = parse_game_spec(
        'game "g"\nplayer A actions: "x"\n'
        "variable A's V owner: A values: Hi=1, Lo=0\n"
        "utility A = A's V\n").game
    game = game._replace(rules=(Rule((Atom(ACTION, "A", "x"),),
                                     (Atom(OUTCOME, "A's V", "Hi"),)),))
    result = parse_game_spec(serialize_game(game))
    assert result.ok, [str(e) for e in result.errors]
    assert _logic(result.game) == _logic(game)


def test_serialize_refuses_a_utility_that_does_not_read_back():
    game = parse_game_spec(MINIMAL).game._replace(
        utilities=(UtilityDef("A", ("V + V",)),))
    with pytest.raises(ValueError, match=re.escape(
            "cannot write game 'g' as .game text: the text would read back "
            "as a different game")):
        serialize_game(game)


def test_a_utility_that_sums_nothing_is_written_and_read_back():
    game = parse_game_spec(MINIMAL).game._replace(
        utilities=(UtilityDef("A", ()),))
    text = serialize_game(game)
    assert text.splitlines()[3] == "utility A ="
    assert _read_back(text) == _logic(game)
    assert parse_game_spec(MINIMAL + "utility A =  \n").game == game


def test_serialize_writes_a_game_name_holding_a_double_quote():
    game = parse_game_spec(MINIMAL).game._replace(name='say "hi"')
    assert _read_back(serialize_game(game)) == _logic(game)


OUTER_SPACES = ('game "g"\nplayer A actions: " a", "b"\n'
                'variable V owner: A values: " Hi"=1, Lo=0 valias Top->" Hi"\n'
                'utility A = V\n')


@pytest.mark.parametrize("rule, atom", [
    ('rule if A="b" then V=" Hi".', Atom(OUTCOME, "V", " Hi")),
    ('rule if A=" a" then V="Lo".', Atom(ACTION, "A", " a")),
    ('rule if A="b" then V="top".', Atom(OUTCOME, "V", " Hi")),
])
def test_names_with_outer_spaces_can_be_named(rule, atom):
    result = parse_game_spec(OUTER_SPACES + rule + "\n")
    assert result.ok, [str(e) for e in result.errors]
    (parsed,) = result.game.rules
    assert atom in parsed.condition + parsed.consequence


def test_a_game_with_outer_spaced_names_round_trips():
    game = parse_game_spec(OUTER_SPACES + 'rule if A=" a" then V="Top".\n'
                           'rule if A="b" then V=" Hi".\n').game
    assert _read_back(serialize_game(game)) == _logic(game)


def test_alias_resolution_idempotent(oa_game):
    for p in oa_game.players:
        assert oa_game.player(p.name).name == p.name
        for alias in p.aliases:
            assert oa_game.player(alias).name == p.name
    for v in oa_game.variables:
        assert oa_game.variable(v.name).name == v.name
        first = v.values[0][0]
        assert oa_game.bind(v.name, oa_game.bind(v.name, first)[2])[2] == \
            first


def test_mutation_fuzz_never_crashes():
    source = fixtures.fixture_text("oa.game")
    rng = random.Random(20260823)
    for _ in range(300):  # the acceptance suite runs the full 1000
        chars = list(source)
        for _ in range(rng.randint(1, 5)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if op == 0:
                del chars[pos]
            elif op == 1:
                chars.insert(pos, chr(rng.randrange(32, 127)))
            else:
                chars[pos] = chr(rng.randrange(32, 127))
        result = parse_game_spec("".join(chars))
        if result.game is not None:
            validate_game(result.game)
        else:
            assert result.errors


def test_parse_collects_multiple_errors():
    text = MINIMAL + "\n".join([
        "rule if A=`nope' then V=`More'.",
        "rule if A=`x' then V=`Huge'.",
        "bogus line here",
    ])
    result = parse_game_spec(text)
    assert result.game is None
    assert len(result.errors) == 3
    kinds = {e.kind for e in result.errors}
    assert {"resolution", "domain-mismatch", "syntax"} <= kinds
