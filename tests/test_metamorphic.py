"""Metamorphic relations of the engine: changes to a game's rules, names
or declaration order that must leave its admissible rows, its top rows,
its census, its payoff tables and its projections as they are, names
aside.  They check the engine without a reference answer, so they hold
where the brute-force oracle is too slow to run.  (The copied-action
relation is in ``test_engine``.)"""

import random

from hypothesis import given, settings, strategies as st

from oagame import (CompletionPolicy, GameError, PayoffTable,
                    admissible_rows, compile_game, derive_payoff_table,
                    enumeration_report, parse_game_spec, project_bimatrix,
                    serialize_game, top_gu_rows)
from oagame.dsl import LENIENT
from oagame.model import GameSpec, OutcomeVarDef, PlayerDef, Rule, UtilityDef

from .oracle import (flat_rows, named_row, random_rich_game,
                     random_small_game, row_key)


def _outcome(derive, *args):
    """What ``derive(*args)`` returns, or the type and message of the
    ``GameError`` it raises."""
    try:
        return derive(*args)
    except GameError as err:
        return type(err), str(err)


def _payoffs(game):
    """Under max-GU, fixed on the first player's first action, and
    optimistic and pessimistic for the first player: the payoff table and
    the projection on the first two players (when there are two)."""
    first = game.players[0]
    out = []
    for policy in (CompletionPolicy(),
                   CompletionPolicy("fixed", None,
                                    ((first.name, first.actions[0]),)),
                   CompletionPolicy("optimistic", first.name),
                   CompletionPolicy("pessimistic", first.name)):
        out.append(_outcome(derive_payoff_table, game, policy))
        if len(game.players) > 1:
            out.append(_outcome(project_bimatrix, game, policy, first.name,
                                game.players[1].name))
    return out


def _figures(game):
    """The flattened admissible rows, the maximum global utility with its
    flattened rows, the census, and the payoffs of ``game`` and of
    ``game`` without its last utility."""
    best, top = top_gu_rows(game)
    return (flat_rows(admissible_rows(game)[0]), best, flat_rows(top),
            enumeration_report(game), _payoffs(game),
            _payoffs(game._replace(utilities=game.utilities[:-1])))


# Two rules mention V0 and V1 in opposite orders, and the best rows tie at
# (V0, V1) = (Hi, Lo) and (Lo, Hi): a pick must take the first in
# declaration order, whatever order the rules mention the variables in.
TIED_GAME = """game "tied"
player A actions: "x", "y"
player B actions: "u"
variable V0 owner: A values: Hi=1, Lo=0
variable V1 owner: B values: Hi=1, Lo=0
utility A = V0
utility B = V1
rule if V0="Hi" then V1="Lo"
rule if V1="Hi" then V0="Lo"
"""


def _games(oa_game, seed: int):
    """``oa.game``, ``TIED_GAME`` and 60 seeded small and rich games."""
    rng = random.Random(seed)
    return [oa_game, parse_game_spec(TIED_GAME).game,
            *(draw(rng) for draw in [random_small_game, random_rich_game] * 30)]


def test_reversing_the_rule_order_changes_nothing(oa_game):
    """A game is the conjunction of its rules, so their order is not read."""
    for game in _games(oa_game, 5):
        assert _figures(game._replace(rules=game.rules[::-1])) == \
            _figures(game), game


def test_repeating_a_rule_changes_nothing(oa_game):
    """A rule appended a second time, as ``oa.game``'s rule 7 repeats rule
    4, adds no constraint."""
    rng, repeated = random.Random(7), 0
    for game in _games(oa_game, 6):
        if not game.rules:
            continue
        rules = (*game.rules, rng.choice(game.rules))
        assert _figures(game._replace(rules=rules)) == _figures(game), game
        repeated += 1
    assert repeated > 40


def _renamed(game, s: str):
    """``game`` with ``s`` appended to every name: players, aliases,
    actions, variables, values and value aliases, wherever they appear."""
    def names(items):
        return tuple(n + s for n in items)

    def atoms(part):
        return tuple(a._replace(subject=a.subject + s, value=a.value + s)
                     for a in part)

    return GameSpec(
        game.name,
        tuple(PlayerDef(p.name + s, names(p.actions), names(p.aliases))
              for p in game.players),
        tuple(OutcomeVarDef(v.name + s, v.owner + s,
                            tuple((n + s, k) for n, k in v.values),
                            names(v.aliases), tuple(
                                (a + s, c + s) for a, c in v.value_aliases))
              for v in game.variables),
        tuple(Rule(*map(atoms, r[:3])) for r in game.rules),
        tuple(UtilityDef(u.player + s, names(u.terms))
              for u in game.utilities))


def _unsuffixed(outcome, s: str):
    """A payoff table, or a ``GameError``'s type and message, with ``s``
    taken off every name in it."""
    if isinstance(outcome, PayoffTable):
        return outcome._replace(
            players=tuple(p.removesuffix(s) for p in outcome.players),
            actions=tuple(tuple(a.removesuffix(s) for a in actions)
                          for actions in outcome.actions))
    kind, message = outcome
    return kind, message.replace(s, "")


def test_renaming_changes_only_the_names(oa_game):
    """Names are looked up, never read: a game whose every name gains a
    suffix, written as text and read back, has the same rows, census and
    payoff tables under all four policies, names aside."""
    written = 0
    for game in _games(oa_game, 8):
        try:
            text = serialize_game(_renamed(game, "_r"))
        except ValueError:  # as the game itself would be, such as ''
            continue
        *same, payoffs, fewer = _figures(parse_game_spec(text, LENIENT).game)
        assert (*same, *([_unsuffixed(x, "_r") for x in table]
                         for table in (payoffs, fewer))) == _figures(game)
        written += 1
    assert written > 30


def _named_rows(game) -> set:
    cg = compile_game(game)
    return {row_key(named_row(cg, *row))
            for row in flat_rows(admissible_rows(game)[0])}


def test_declaration_order_changes_no_count_or_row(oa_game):
    """Players and variables are named, not numbered: reversing either
    list leaves the census and the set of named admissible rows as they
    are.  Payoff tables are not compared, since picks break ties in
    declaration order."""
    for game in _games(oa_game, 9):
        figures = enumeration_report(game), _named_rows(game)
        for section in ("players", "variables"):
            reordered = game._replace(
                **{section: getattr(game, section)[::-1]})
            assert (enumeration_report(reordered),
                    _named_rows(reordered)) == figures, (section, game)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_any_declaration_order_leaves_the_census(seed, shuffler):
    """Players, variables and utilities in any order, each list permuted
    on its own through ``_replace``: the census is the same."""
    game = random_rich_game(random.Random(seed))
    sections = {name: list(getattr(game, name))
                for name in ("players", "variables", "utilities")}
    for items in sections.values():
        shuffler.shuffle(items)
    permuted = game._replace(**{k: tuple(v) for k, v in sections.items()})
    assert enumeration_report(permuted) == enumeration_report(game)
