"""Metamorphic relations of the engine: changes to a game's rules that must
leave its admissible rows, its top rows and its census as they are.  They
check the engine without a reference answer, so they hold where the
brute-force oracle is too slow to run.  (The copied-action relation is in
``test_engine``.)"""

import random

from oagame import admissible_rows, enumeration_report, top_gu_rows

from .oracle import flat_rows, random_rich_game, random_small_game


def _figures(game):
    """The flattened admissible rows, the maximum global utility with its
    flattened rows, and the census of ``game``."""
    best, top = top_gu_rows(game)
    return (flat_rows(admissible_rows(game)[0]), best, flat_rows(top),
            enumeration_report(game))


def _games(oa_game, seed: int):
    """``oa.game`` and 60 seeded small and rich games."""
    rng = random.Random(seed)
    return [oa_game, *(draw(rng) for draw in
                       [random_small_game, random_rich_game] * 30)]


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
