"""Metamorphic relations of the engine: changes to a game's rules that must
leave its admissible rows, its top rows, its census, its payoff tables and
its projections as they are.  They check the engine without a reference
answer, so they hold where the brute-force oracle is too slow to run.
(The copied-action relation is in ``test_engine``.)"""

import random

from oagame import (CompletionPolicy, GameError, admissible_rows,
                    derive_payoff_table, enumeration_report,
                    parse_game_spec, project_bimatrix, top_gu_rows)

from .oracle import flat_rows, random_rich_game, random_small_game


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
