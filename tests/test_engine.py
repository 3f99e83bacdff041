import itertools
import random

import pytest

from oagame import (
    CompletionPolicy,
    admissible_rows,
    agent_utility,
    derive_payoff_table,
    enumerate_profiles,
    global_utility,
    parse_game_spec,
    project_bimatrix,
    rule_satisfied,
    top_gu_rows,
)
from oagame.model import ScenarioRow

from .oracle import (
    brute_force_admissible,
    brute_force_pick,
    brute_force_projection,
    random_small_game,
    row_key,
)

TOY = """
game "toy"
player R actions: "r1", "r2"
player C actions: "c1", "c2", "c3"
variable V owner: R values: More=1, Less=0
variable W owner: C values: More=1, Less=0
utility R = V
utility C = W
"""

ONE_RULE = """
game "one"
player A actions: "x"
variable V owner: A values: More=1, Less=0
rule if A="x" then V="More".
"""


def _parse(text):
    result = parse_game_spec(text)
    assert result.ok, [str(e) for e in result.errors]
    return result.game


def test_enumerate_profiles_count(oa_game):
    assert sum(1 for _ in enumerate_profiles(oa_game)) == 432


def test_enumerate_profiles_lexicographic_order():
    game = _parse(TOY)
    profiles = [(p["R"], p["C"]) for p in enumerate_profiles(game)]
    assert profiles == [("r1", "c1"), ("r1", "c2"), ("r1", "c3"),
                        ("r2", "c1"), ("r2", "c2"), ("r2", "c3")]


def test_enumerate_single_profile():
    game = _parse('game "s"\nplayer A actions: "x"\n'
                  'variable V owner: A values: More=1, Less=0\n')
    assert len(list(enumerate_profiles(game))) == 1


def _oa_row(oa_game, actions, outcomes):
    return ScenarioRow(actions, outcomes)


CURRENT = (
    {"Academics": "Publish TA", "Administrators": "Support TA",
     "Funders": "Demand publications", "Editors": "Grant TA",
     "Politicians": "Permit TA"},
    {"Opportunity": "Less", "Visibility": "Less", "Prestige": "More",
     "Promotion": "More", "Savings": "Less", "Quality Results": "Less",
     "Income": "More", "Impact and Relevance": "Less"},
)


def test_rule_satisfied_implication(oa_game):
    r1 = oa_game.rules[0]  # Publish TA + Grant TA pins Opportunity/Visibility
    actions, outcomes = CURRENT
    assert rule_satisfied(r1, ScenarioRow(actions, outcomes))
    violated = dict(outcomes, Visibility="More")
    assert not rule_satisfied(r1, ScenarioRow(actions, violated))
    vacuous = dict(actions, Academics="Perish")
    assert rule_satisfied(r1, ScenarioRow(vacuous, violated))


def test_rule_satisfied_otherwise_branch(oa_game):
    r3 = oa_game.rules[2]  # Savings totally defined by Administrators
    actions, outcomes = CURRENT
    assert rule_satisfied(r3, ScenarioRow(actions, outcomes))
    assert not rule_satisfied(
        r3, ScenarioRow(actions, dict(outcomes, Savings="More")))
    oa_admin = dict(actions, Administrators="Support OA")
    assert rule_satisfied(
        r3, ScenarioRow(oa_admin, dict(outcomes, Savings="More")))
    assert not rule_satisfied(r3, ScenarioRow(oa_admin, outcomes))


def test_no_rules_means_everything_admissible():
    game = _parse(TOY)
    rows, report = admissible_rows(game)
    assert report.admissible_count == report.row_space_count == 24
    assert len(rows) == 24


def test_single_forced_variable_halves_the_space():
    game = _parse(ONE_RULE)
    rows, report = admissible_rows(game)
    assert report.row_space_count == 2
    assert report.admissible_count == 1
    assert rows[0].outcomes["V"] == "More"


def test_bundled_game_golden_counts(oa_game):
    rows, report = admissible_rows(oa_game)
    assert report.action_profile_count == 432
    assert report.row_space_count == 110592
    assert report.admissible_count == 17640
    assert report.max_global_utility == 8
    assert report.max_global_utility_count == 30


def test_engine_matches_oracle_on_bundled_game(oa_game, oa_oracle_rows):
    rows, _ = admissible_rows(oa_game)
    assert {row_key(r) for r in rows} == {row_key(r) for r in oa_oracle_rows}


def test_engine_matches_oracle_on_random_games():
    rng = random.Random(991)
    for _ in range(30):  # the acceptance suite runs the full 100
        game = random_small_game(rng)
        rows, _ = admissible_rows(game)
        oracle_rows = brute_force_admissible(game)
        assert {row_key(r) for r in rows} == \
            {row_key(r) for r in oracle_rows}, game


def test_every_emitted_row_satisfies_every_rule(oa_game):
    rows, _ = admissible_rows(oa_game)
    for row in rows[::97]:  # stride keeps this quick; full check in oracle
        assert all(rule_satisfied(r, row) for r in oa_game.rules)


def test_adding_a_rule_never_enlarges_the_set():
    rng = random.Random(17)
    for _ in range(20):
        game = random_small_game(rng)
        if not game.rules:
            continue
        weaker = type(game)(game.name, game.players, game.variables,
                            game.rules[:-1], game.utilities)
        full, _ = admissible_rows(game)
        partial, _ = admissible_rows(weaker)
        assert {row_key(r) for r in full} <= {row_key(r) for r in partial}


def test_top_gu_bundled(oa_game):
    best, rows = top_gu_rows(oa_game)
    assert best == 8
    assert len(rows) == 30
    target = {"Academics": "Publish OA", "Administrators": "Support OA",
              "Funders": "Demand publications", "Editors": "Grant TA",
              "Politicians": "Permit TA"}
    assert any(dict(r.actions) == target
               and all(v == "More" for v in r.outcomes.values())
               for r in rows)


def test_top_gu_no_rules(oa_game):
    unruly = type(oa_game)(oa_game.name, oa_game.players, oa_game.variables,
                           (), oa_game.utilities)
    best, rows = top_gu_rows(unruly)
    assert best == 8
    assert len(rows) == 432


def test_top_gu_income_pinned_down(oa_game):
    pinned = parse_game_spec(
        'game "p"\n'
        + "\n".join(f'player {p.name} actions: '
                    + ", ".join(f'"{a}"' for a in p.actions)
                    for p in oa_game.players)
        + "\n"
        + "\n".join(f'variable {v.name} owner: {v.owner} '
                    f'values: More=1, Less=0'
                    for v in oa_game.variables)
        + '\nrule if Editors="Grant TA" then Income="Less".'
        + '\nrule if Editors="Grant OA" then Income="Less".'
        + '\nrule if Editors="Grant big deals" then Income="Less".'
        + '\nrule if Editors="Grant OA with embargoes" then Income="Less".'
    )
    assert pinned.ok, [str(e) for e in pinned.errors]
    best, _ = top_gu_rows(pinned.game)
    assert best == 7


def test_top_gu_empty_admissible_set():
    game = _parse(
        'game "e"\nplayer A actions: "x"\n'
        'variable V owner: A values: More=1, Less=0\n'
        'rule if A="x" then V="More".\n'
        'rule if A="x" then V="Less".\n')
    best, rows = top_gu_rows(game)
    assert best is None and rows == []


def test_payoff_table_no_rules_all_more():
    game = _parse(TOY)
    table = derive_payoff_table(game)
    for profile in table.profiles():
        assert table.payoff(profile) == (1, 1)


def test_payoff_cell_publish_oa_grant_oa(oa_game):
    table = derive_payoff_table(oa_game)
    idx_a = oa_game.player_names().index("Academics")
    idx_e = oa_game.player_names().index("Editors")
    for profile in table.profiles():
        mapping = dict(zip(table.players, profile))
        if mapping["Academics"] == "Publish OA" \
                and mapping["Editors"] == "Grant OA":
            cell = table.payoff(profile)
            assert cell is not None
            assert cell[idx_a] == 4 and cell[idx_e] == 0


def test_infeasible_profiles_marked(oa_game):
    table = derive_payoff_table(oa_game)
    infeasible = [p for p in table.profiles() if table.payoff(p) is None]
    assert infeasible
    # Big deals + Permit TA forces Income=More while Demand OA publications
    # forces Income=Less: no completion exists.
    for profile in table.profiles():
        m = dict(zip(table.players, profile))
        if (m["Editors"] == "Grant big deals"
                and m["Funders"] == "Demand OA publications"
                and m["Politicians"] == "Permit TA"):
            assert table.payoff(profile) is None


def test_fixed_policy_fully_specified_equals_direct_evaluation(oa_game):
    actions, outcomes = CURRENT
    policy = CompletionPolicy(
        "fixed",
        fixed_actions=tuple(actions.items()),
        fixed_outcomes=tuple(outcomes.items()))
    table = derive_payoff_table(oa_game, policy)
    row = ScenarioRow(actions, outcomes)
    key = tuple(actions[p] for p in table.players)
    assert table.payoff(key) == tuple(
        agent_utility(oa_game, p, row) for p in table.players)
    # All other profiles have no completion matching the fragment.
    others = [p for p in table.profiles() if p != key]
    assert all(table.payoff(p) is None for p in others)


def test_optimistic_vs_pessimistic(oa_game):
    opt = derive_payoff_table(oa_game,
                              CompletionPolicy("optimistic",
                                               player="Editors"))
    pes = derive_payoff_table(oa_game,
                              CompletionPolicy("pessimistic",
                                               player="Editors"))
    idx = oa_game.player_names().index("Editors")
    for profile in opt.profiles():
        a, b = opt.payoff(profile), pes.payoff(profile)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[idx] >= b[idx]


def test_enumeration_is_deterministic(oa_game):
    first, _ = admissible_rows(oa_game)
    second, _ = admissible_rows(oa_game)
    assert first == second


def test_bad_semantics_rejected():
    with pytest.raises(ValueError):
        parse_game_spec(TOY, mode="fuzzy")
    with pytest.raises(ValueError):
        CompletionPolicy("optimistic")


def _random_policies(game, rng):
    p = rng.choice(game.players)
    v = rng.choice(game.variables)
    fixed_actions = (((p.name, rng.choice(p.actions)),)
                     if rng.random() < 0.5 else ())
    return [
        CompletionPolicy(),
        CompletionPolicy("optimistic", player=p.name),
        CompletionPolicy("pessimistic", player=p.name),
        CompletionPolicy("fixed", fixed_actions=fixed_actions,
                         fixed_outcomes=((v.name, rng.choice(("More",
                                                              "Less"))),)),
    ]


def test_payoffs_and_projection_match_pooled_oracle():
    """Per-profile picks reduced by first strictly-greatest key equal the
    policy applied to each cell's pooled completions."""
    rng = random.Random(31)
    for _ in range(80):
        game = random_small_game(rng)
        players = game.player_names()
        rows = brute_force_admissible(game)
        for policy in _random_policies(game, rng):
            table = derive_payoff_table(game, policy)
            for profile in table.profiles():
                pool = [r for r in rows
                        if tuple(r.actions[p] for p in players) == profile]
                chosen = brute_force_pick(game, policy, pool)
                assert table.payoff(profile) == (
                    None if chosen is None else
                    tuple(agent_utility(game, p, chosen) for p in players))
            for row, col in itertools.permutations(players, 2):
                bm = project_bimatrix(game, policy, row, col)
                expected = brute_force_projection(game, policy, row, col)
                for i, ra in enumerate(bm.row_actions):
                    for j, ca in enumerate(bm.col_actions):
                        chosen = expected[(ra, ca)]
                        assert bm.payoffs[i][j] == (
                            None if chosen is None else
                            (agent_utility(game, row, chosen),
                             agent_utility(game, col, chosen)))
