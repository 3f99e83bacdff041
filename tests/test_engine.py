import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oagame import (
    CompletionPolicy,
    EnumerationReport,
    MissingUtilityError,
    RowBudgetError,
    admissible_rows,
    compile_game,
    derive_payoff_table,
    enumeration_report,
    parse_game_spec,
    project_bimatrix,
    top_gu_rows,
    validate_game,
)
from oagame import _payoffs, engine, fixtures
from oagame.model import (ACTION, OUTCOME, Atom, GameSpec, NameResolutionError,
                          OutcomeVarDef, PlayerDef, Rule, UtilityDef)
from oagame.engine import rows_as_records

from .oracle import (
    ScenarioRow,
    brute_force_admissible,
    brute_force_pick,
    brute_force_projection,
    flat_rows,
    named_row,
    random_rich_game,
    random_small_game,
    row_key,
    rule_ok,
    utility,
)
from .test_cli import _one_rule_game

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
    assert sum(1 for _ in compile_game(oa_game).profiles()) == 432


def test_enumerate_profiles_lexicographic_order():
    cg = compile_game(_parse(TOY))
    profiles = [cg.action_names(p) for p in cg.profiles()]
    assert profiles == [("r1", "c1"), ("r1", "c2"), ("r1", "c3"),
                        ("r2", "c1"), ("r2", "c2"), ("r2", "c3")]


def test_enumerate_single_profile():
    game = _parse('game "s"\nplayer A actions: "x"\n'
                  'variable V owner: A values: More=1, Less=0\n')
    assert len(list(compile_game(game).profiles())) == 1


def _named(game, rows):
    """Engine rows (``(profile, completion)`` pairs) as ``ScenarioRow``s."""
    cg = compile_game(game)
    return [named_row(cg, *r) for r in rows]


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
    assert rule_ok(r1, actions, outcomes)
    violated = dict(outcomes, Visibility="More")
    assert not rule_ok(r1, actions, violated)
    vacuous = dict(actions, Academics="Perish")
    assert rule_ok(r1, vacuous, violated)


def test_rule_satisfied_otherwise_branch(oa_game):
    r3 = oa_game.rules[2]  # Savings totally defined by Administrators
    actions, outcomes = CURRENT
    assert rule_ok(r3, actions, outcomes)
    assert not rule_ok(r3, actions, dict(outcomes, Savings="More"))
    oa_admin = dict(actions, Administrators="Support OA")
    assert rule_ok(r3, oa_admin, dict(outcomes, Savings="More"))
    assert not rule_ok(r3, oa_admin, outcomes)


def test_no_rules_means_everything_admissible():
    game = _parse(TOY)
    rows, report = admissible_rows(game)
    assert report.admissible_count == report.row_space_count == 24
    assert len(flat_rows(rows)) == 24


def test_single_forced_variable_halves_the_space():
    game = _parse(ONE_RULE)
    rows, report = admissible_rows(game)
    assert report.row_space_count == 2
    assert report.admissible_count == 1
    assert _named(game, flat_rows(rows))[0].outcomes["V"] == "More"


def test_bundled_game_golden_counts(oa_game):
    rows, report = admissible_rows(oa_game)
    assert report.action_profile_count == 432
    assert report.row_space_count == 110592
    assert report.admissible_count == 17640
    assert report.max_global_utility == 8
    assert report.max_global_utility_count == 30


def test_engine_matches_oracle_on_bundled_game(oa_game, oa_oracle_rows):
    rows, _ = admissible_rows(oa_game)
    assert {row_key(r) for r in _named(oa_game, flat_rows(rows))} == \
        {row_key(r) for r in oa_oracle_rows}


def test_engine_matches_oracle_on_random_games():
    rng = random.Random(991)
    for _ in range(30):  # the acceptance suite runs the full 100
        game = random_small_game(rng)
        rows, _ = admissible_rows(game)
        oracle_rows = brute_force_admissible(game)
        assert {row_key(r) for r in _named(game, flat_rows(rows))} == \
            {row_key(r) for r in oracle_rows}, game


def test_every_emitted_row_satisfies_every_rule(oa_game):
    rows, _ = admissible_rows(oa_game)
    # stride keeps this quick; full check in oracle
    for row in _named(oa_game, flat_rows(rows)[::97]):
        assert all(rule_ok(r, row.actions, row.outcomes)
                   for r in oa_game.rules)


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
        assert {row_key(r) for r in _named(game, flat_rows(full))} <= \
            {row_key(r) for r in _named(weaker, flat_rows(partial))}


def test_top_gu_bundled(oa_game):
    best, rows = top_gu_rows(oa_game)
    assert best == 8
    assert len(flat_rows(rows)) == 30
    target = {"Academics": "Publish OA", "Administrators": "Support OA",
              "Funders": "Demand publications", "Editors": "Grant TA",
              "Politicians": "Permit TA"}
    assert any(dict(r.actions) == target
               and all(v == "More" for v in r.outcomes.values())
               for r in _named(oa_game, flat_rows(rows)))


def test_top_gu_no_rules(oa_game):
    unruly = type(oa_game)(oa_game.name, oa_game.players, oa_game.variables,
                           (), oa_game.utilities)
    best, rows = top_gu_rows(unruly)
    assert best == 8
    assert len(flat_rows(rows)) == 432


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([random_small_game, random_rich_game]),
       st.integers(0, 2**32 - 1))
def test_census_matches_oracle_and_row_lists(draw_game, seed):
    """The census's counts equal a count over the oracle's rows, and the top
    rows equal the max-GU rows of ``admissible_rows``, order included."""
    game = draw_game(random.Random(seed))
    gus = [utility(game, r) for r in brute_force_admissible(game)]
    best = max(gus, default=None)
    profiles = math.prod(len(p.actions) for p in game.players)
    report = enumeration_report(game)
    assert report == EnumerationReport(
        profiles, profiles * math.prod(len(v.values) for v in game.variables),
        len(gus), best, gus.count(best))
    rows, rows_report = admissible_rows(game)
    assert rows_report == report
    cg = compile_game(game)
    top, top_rows = top_gu_rows(game)
    assert (top, flat_rows(top_rows)) == (
        best, [r for r in flat_rows(rows) if cg.global_utility(r[1]) == best])


def _check_groups(game, oracle_rows):
    """The row groups of ``admissible_rows``: one per admissible profile,
    in canonical order, none empty, the profiles of one block sharing one
    completions tuple, and the flattened rows the oracle's rows."""
    groups, _ = admissible_rows(game)
    cg = compile_game(game)
    profiles = dict.fromkeys(tuple(r.actions.values()) for r in oracle_rows)
    assert [cg.action_names(p) for p, _ in groups] == list(profiles)
    assert all(completions for _, completions in groups)
    shared = {}  # id(block) -> the completions tuple of its first profile
    for p, completions in groups:
        block = engine._profile_block(cg, p)
        assert shared.setdefault(id(block), completions) is completions
    assert _named(game, flat_rows(groups)) == oracle_rows
    return len(groups), len(shared)


def test_row_groups_are_one_per_admissible_profile(oa_game, oa_oracle_rows):
    """``oa.game``'s 423 admissible profiles (of 432) in 14 blocks, and
    100 seeded small and rich games."""
    assert _check_groups(oa_game, oa_oracle_rows) == (423, 14)
    rng = random.Random(34)
    for draw in [random_small_game, random_rich_game] * 50:
        game = draw(rng)
        _check_groups(game, brute_force_admissible(game))


def test_row_lists_refuse_more_rows_than_the_budget(oa_game, monkeypatch):
    """The budget bounds the rows a list would hold: 17640 admissible and
    30 at the max on ``oa.game``."""
    monkeypatch.setattr(engine, "ROW_BUDGET", 17639)
    with pytest.raises(RowBudgetError, match="^17640 admissible rows "):
        admissible_rows(oa_game)
    monkeypatch.setattr(engine, "ROW_BUDGET", 29)
    with pytest.raises(RowBudgetError, match="^30 rows at max global "):
        top_gu_rows(oa_game)
    monkeypatch.setattr(engine, "ROW_BUDGET", 30)
    assert len(flat_rows(top_gu_rows(oa_game)[1])) == 30


def test_a_refused_row_list_holds_no_more_than_the_budget(monkeypatch):
    """Six players of six actions, one row per profile: a row list past a
    budget of 100 rows keeps only the census entries of the rows within
    it, yet walks on to give the full count.  Holding the whole census
    (46656 entries) peaked at about 7 MiB here."""
    game = parse_game_spec(_one_rule_game(6, 6)).game
    compile_game(game)
    monkeypatch.setattr(engine, "ROW_BUDGET", 100)
    for rows, message in ((admissible_rows, "46656 admissible rows "),
                          (top_gu_rows, "7776 rows at max global utility ")):
        tracemalloc.start()
        try:
            with pytest.raises(RowBudgetError, match=f"^{message}"):
                rows(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, (rows.__name__, peak)
    # Entries at a lower running best go when it rises, however many: the
    # 38880 profiles of global utility 0 come before the 7776 of 6.
    late = parse_game_spec(_one_rule_game(6, 6).replace('P0="a0"',
                                                        'P0="a5"')).game
    monkeypatch.setattr(engine, "ROW_BUDGET", 10**6)
    rows = top_gu_rows(late)
    monkeypatch.setattr(engine, "ROW_BUDGET", 7776)
    assert top_gu_rows(late) == rows and len(rows[1]) == 7776


def _counted(monkeypatch, *names):
    """A dict of how many times each of the ``engine`` functions ``names``
    is called from now on."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(engine, name, wrapper)

    for name in names:
        counted(name)
    return calls


def test_row_lists_walk_the_profiles_once_and_each_block_once(
        oa_game, monkeypatch):
    """Both row lists expand the census: ``admissible_rows`` looks up the
    432 profiles' blocks once and enumerates each of the 14 distinct blocks'
    completions once, ``top_gu_rows`` each of the 2 blocks at the maximum
    (30 profiles) once.  Rows with equal completions share one tuple."""
    calls = _counted(monkeypatch, "_profile_block", "_filtered")
    rows = flat_rows(admissible_rows(oa_game)[0])
    assert len(rows) == 17640
    assert calls == {"_profile_block": 432, "_filtered": 14}
    assert len({id(c) for _, c in rows}) == len({c for _, c in rows}) == 160

    cg = compile_game(oa_game)
    at_best = {id(b) for _, b in engine._census(cg) if b.gu[0] == 8}
    calls["_filtered"] = 0
    assert top_gu_rows(oa_game)[0] == 8
    assert calls["_filtered"] <= len(at_best) == 2


def test_census_is_the_one_walk_and_each_block_keeps_its_optimum(
        monkeypatch):
    """On a freshly parsed ``oa.game`` the census, the max-GU payoff table
    and the max-GU projection each look up the 432 profiles' blocks once,
    and the 14 blocks' global-utility optima are worked out once in all;
    under the fixed policy only the 108 profiles with ``Editors=Grant OA``
    are looked up."""
    calls = _counted(monkeypatch, "_profile_block", "_optimum")
    game = parse_game_spec(fixtures.fixture_text("oa.game")).game
    walks = []
    for run in (lambda: enumeration_report(game),
                lambda: derive_payoff_table(game),
                lambda: project_bimatrix(game, CompletionPolicy(),
                                         "Academics", "Editors")):
        run()
        walks.append(calls["_profile_block"])
        calls["_profile_block"] = 0
    assert walks == [432, 432, 432]
    assert calls["_optimum"] == len(compile_game(game)._blocks) == 14
    derive_payoff_table(game, CompletionPolicy(
        "fixed", fixed_actions=(("Editors", "Grant OA"),)))
    assert calls["_profile_block"] == 108


def test_each_fired_set_is_scanned_once(monkeypatch):
    """A profile's block is looked up by the rules it fires, the AND of
    its actions' masks: a freshly parsed ``oa.game``'s census scans the
    rules once for each of its 48 fired sets and builds 14 blocks, and a
    second census and a max-GU payoff table scan nothing."""
    calls = _counted(monkeypatch, "_fired_block", "_block")
    game = parse_game_spec(fixtures.fixture_text("oa.game")).game
    enumeration_report(game)
    assert calls == {"_fired_block": 48, "_block": 14}
    assert len(compile_game(game)._blocks) == 14
    enumeration_report(game)
    derive_payoff_table(game)
    assert calls == {"_fired_block": 48, "_block": 14}


def _class_profiles(game):
    """How many profiles of action classes ``game`` has: per player, the
    actions with equal rule masks are one class."""
    return math.prod(len(set(masks)) for masks in compile_game(game).masks)


def test_the_distinct_masks_are_the_action_classes(oa_game):
    """No rule condition tells apart two actions of a class: ``oa.game``
    has 3 x 2 x 3 x 4 x 3 class profiles, and the 8 x 8 one-rule game 2,
    ``P0``'s ``a0`` and the rest (compiled, not walked)."""
    assert _class_profiles(oa_game) == 216
    assert _class_profiles(parse_game_spec(_one_rule_game(8, 8)).game) == 2


EDGE_GAME = """
game "edge"
player A actions: "x", "y"
variable V owner: A values: Hi=1, Lo=0
variable W owner: A values: Hi=1, Lo=0
utility A = V + W
"""


def _agrees_with_oracle(game) -> int:
    """The count of ``enumeration_report`` and the rows of
    ``admissible_rows`` checked against the oracle's rows; their count."""
    oracle_rows = brute_force_admissible(game)
    groups, report = admissible_rows(game)
    assert enumeration_report(game) == report
    assert report.admissible_count == len(oracle_rows)
    assert _named(game, flat_rows(groups)) == oracle_rows
    return len(oracle_rows)


@pytest.mark.parametrize("rule, count", [
    # ``B`` names nothing, so lenient parsing keeps an inert atom: the rule
    # never fires, and ``V`` is Lo on both profiles.
    ('if A="x" and B="z" then V="Hi" otherwise V="Lo".', 4),
    # No profile plays both actions of ``A``: the rule never fires.
    ('if A="x" and A="y" then V="Hi" otherwise V="Lo".', 4),
    # Outcomes only: the rule fires, and is deferred, on every profile.
    ('if V="Hi" then W="Lo".', 6),
], ids=["inert-atom", "two-actions", "outcomes-only"])
def test_rule_firing_edges_agree_with_oracle(rule, count):
    game = parse_game_spec(f"{EDGE_GAME}rule {rule}\n", mode="lenient").game
    assert any(a.inert for a in game.rules[0].condition) == ("B=" in rule)
    assert _agrees_with_oracle(game) == count


def test_a_game_with_no_players_fires_its_outcome_rules():
    """The one empty profile of a game with no players fires every rule
    that tests only outcomes: ``V="Hi"`` forbids ``W="Hi"``, 3 rows of 4."""
    variables = tuple(OutcomeVarDef(n, "A", (("Hi", 1), ("Lo", 0)))
                      for n in "VW")
    rule = Rule((Atom(OUTCOME, "V", "Hi"),), (Atom(OUTCOME, "W", "Lo"),))
    game = GameSpec("none", (), variables, (rule,), ())
    assert _agrees_with_oracle(game) == 3


# Ten pairs of linked variables: ``Wi`` must be Lo when ``Vi`` is Hi.
LINKED_PAIRS_GAME = "\n".join([
    'game "pairs"', 'player A actions: "x"',
    *(f"variable {n}{i} owner: A values: Hi=1, Lo=0"
      for n in "VW" for i in range(10)),
    "utility A = " + " + ".join(f"{n}{i}" for n in "VW" for i in range(10)),
    *(f'rule if V{i}="Hi" then W{i}="Lo".' for i in range(10))]) + "\n"


def test_each_deferred_rule_is_checked_against_its_own_factor(monkeypatch):
    """A block is a product of independent factors, each group of
    variables that deferred rules link: the ten pairs' census checks each
    of the 4 assignments of each pair against its one rule (80 ``_holds``
    calls, not one pass over the 2**20 assignments), and ``oa.game``'s
    census checks its deferred rules 160 times."""
    calls = _counted(monkeypatch, "_holds")
    assert enumeration_report(parse_game_spec(LINKED_PAIRS_GAME).game) == \
        EnumerationReport(1, 1048576, 59049, 10, 1024)
    assert calls["_holds"] == 80
    calls["_holds"] = 0
    game = parse_game_spec(fixtures.fixture_text("oa.game")).game
    assert enumeration_report(game) == \
        EnumerationReport(432, 110592, 17640, 8, 30)
    assert calls["_holds"] == 160


def _with_action_copy(game, player, action, copy):
    """``game`` with ``copy`` appended to ``player``'s actions, and a map
    from its profiles (action names) to the profiles of ``game`` they
    copy."""
    d = game.player_names().index(player)
    players = list(game.players)
    players[d] = players[d]._replace(actions=(*players[d].actions, copy))
    return game._replace(players=tuple(players)), lambda profile: tuple(
        action if i == d and a == copy else a for i, a in enumerate(profile))


def _unnamed_actions(game):
    """(player, action) of each action that no rule atom names."""
    named = {(a.subject, a.value) for r in game.rules
             for a in (*r.condition, *r.consequence, *r.otherwise)
             if a.kind == ACTION}
    return [(p.name, a) for p in game.players for a in p.actions
            if (p.name, a) not in named]


def _check_action_copy(game, player, action, policies, copy="copy"):
    """The duplicate-action relation: a copy of an action that no rule atom
    names adds the original's admissible rows and its rows at the (same)
    maximum global utility; under every policy each profile's cell is its
    original's, and a projection that drops the player is unchanged."""
    twin, original = _with_action_copy(game, player, action, copy)
    rows = brute_force_admissible(game)
    gus = [utility(game, r) for r in rows]
    best = max(gus, default=None)
    own = [r.actions[player] == action for r in rows]
    before, after = enumeration_report(game), enumeration_report(twin)
    assert after.admissible_count == before.admissible_count + sum(own)
    assert after.max_global_utility == before.max_global_utility == best
    assert after.max_global_utility_count == (
        before.max_global_utility_count
        + sum(o and g == best for o, g in zip(own, gus)))
    others = tuple(p for p in game.player_names() if p != player)
    for policy in policies:
        table = derive_payoff_table(game, policy)
        twin_table = derive_payoff_table(twin, policy)
        assert [twin_table.payoff(p) for p in twin_table.profiles()] == [
            table.payoff(original(p)) for p in twin_table.profiles()]
        assert _payoffs._payoff_table(twin, policy, others) == \
            _payoffs._payoff_table(game, policy, others)
        for pair in itertools.permutations(others, 2):
            assert project_bimatrix(twin, policy, *pair) == \
                project_bimatrix(game, policy, *pair)
    return before, after


def test_a_copied_action_adds_its_original_rows_and_cells(oa_game):
    """``Support Neither`` copies Administrators' ``Support TA``, which no
    rule names: 432 -> 576 profiles and 17640 -> 23520 admissible rows, and
    the maximum 8 and its 30 rows are unchanged.  The same relation holds
    on random games, under all four policies."""
    assert ("Administrators", "Support TA") in _unnamed_actions(oa_game)
    policies = [CompletionPolicy(),
                CompletionPolicy("optimistic", "Editors"),
                CompletionPolicy("pessimistic", "Administrators"),
                CompletionPolicy("fixed",
                                 fixed_actions=(("Editors", "Grant OA"),),
                                 fixed_outcomes=(("Income", "Less"),))]
    before, after = _check_action_copy(oa_game, "Administrators",
                                       "Support TA", policies,
                                       "Support Neither")
    assert (before.action_profile_count, before.admissible_count) == (
        432, 17640)
    assert (after.action_profile_count, after.admissible_count) == (
        576, 23520)
    assert after[3:] == before[3:] == (8, 30)
    rng, checked = random.Random(32), 0
    for draw in [random_small_game] * 60 + [random_rich_game] * 60:
        game = draw(rng)
        unnamed = _unnamed_actions(game)
        if not unnamed:
            continue
        player, action = rng.choice(unnamed)
        q = rng.choice(game.players).name
        fixed = [(p.name, rng.choice(p.actions)) for p in game.players
                 if p.name != player][:1]
        v = rng.choice(game.variables)
        _check_action_copy(game, player, action, [
            CompletionPolicy(), CompletionPolicy("optimistic", q),
            CompletionPolicy("pessimistic", q),
            CompletionPolicy("fixed", fixed_actions=tuple(fixed),
                             fixed_outcomes=((v.name,
                                              v.value_names()[-1]),))])
        checked += 1
    assert checked > 60


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
        utility(oa_game, row, p) for p in table.players)
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
    assert flat_rows(first) == flat_rows(second)


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
    policy applied to each cell's pooled completions, for the tables of
    one, two (the projection) and three players in any order."""
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
                    tuple(utility(game, chosen, p) for p in players))
            for kept in (*itertools.permutations(players, 1),
                         *itertools.permutations(players, 2),
                         *itertools.permutations(players, 3)):
                expected = brute_force_projection(game, policy, kept)
                tables = [_payoffs._payoff_table(game, policy, kept)]
                if len(kept) == 2:
                    tables.append(project_bimatrix(game, policy, *kept))
                for table in tables:
                    assert table.players == kept
                    for own, cell in zip(table.profiles(), table.cells):
                        chosen = expected[own]
                        assert cell == (
                            None if chosen is None else
                            tuple(utility(game, chosen, p) for p in kept))


@pytest.mark.parametrize("policy", [
    CompletionPolicy(),
    CompletionPolicy("optimistic", "Editors"),
    CompletionPolicy("pessimistic", "Editor"),
    CompletionPolicy("fixed", fixed_actions=(("Editors", "Grant OA"),)),
], ids=lambda policy: policy.kind)
def test_payoff_cells_are_shared_per_block(policy):
    """Every profile in a block shares its pick's one utility tuple."""
    game = parse_game_spec(fixtures.fixture_text("oa.game")).game
    table = derive_payoff_table(game, policy)
    cells = {id(cell) for cell in table.cells if cell is not None}
    assert 0 < len(cells) <= len(compile_game(game)._blocks)


def test_compiled_form_is_built_once_and_only_on_use():
    game = _parse(TOY)
    assert validate_game(game).ok
    assert "_compiled" not in vars(game)  # parse and validate compile nothing
    admissible_rows(game)
    compiled = compile_game(game)
    derive_payoff_table(game)
    assert compile_game(game) is compiled


def test_player_without_utility_enumerates_but_has_no_payoffs():
    game = _parse('game "n"\nplayer A actions: "a1", "a2"\n'
                  'variable V owner: A values: More=1, Less=0\n'
                  'rule if A="a1" then V="More"\n')
    rows, report = admissible_rows(game)
    assert report.admissible_count == len(flat_rows(rows)) == 3
    assert top_gu_rows(game)[0] == 1
    with pytest.raises(MissingUtilityError):
        derive_payoff_table(game)


def test_names_that_bypassed_validation_are_refused_on_use():
    """A hand-built game that was never validated: an assignment to an
    undeclared value, in the consequence or the otherwise-branch, a
    condition naming an undeclared action, value or variable, and a utility
    summing an undeclared variable.  The context names the rule part as
    ``validate_game`` does."""
    players = (PlayerDef("A", ("x",)),)
    variables = (OutcomeVarDef("V", "A", (("Hi", 1), ("Lo", 0))),)
    x, hi, bogus = (Atom(ACTION, "A", "x"), Atom(OUTCOME, "V", "Hi"),
                    Atom(OUTCOME, "V", "Bogus"))
    for part, bad, rule in (
            ("consequence", bogus, Rule((x,), (bogus,))),
            ("otherwise-branch", bogus, Rule((x,), (hi,), (bogus,))),
            ("condition", Atom(ACTION, "A", "Bogus"), None),
            ("condition", Atom(OUTCOME, "V", "Bogus"), None),
            ("condition", Atom(OUTCOME, "W", "Hi"), None)):
        rule = (rule or Rule((bad,), (hi,)))._replace(source="r")
        with pytest.raises(NameResolutionError) as exc:
            enumeration_report(GameSpec("g", players, variables, (rule,), ()))
        token, context = f"{bad.subject}={bad.value}", f"{part} of rule 'r'"
        assert str(exc.value) == f"unknown name {token!r} in {context}"
        assert (exc.value.context, exc.value.token) == (context, token)
    game = GameSpec("g", players, variables, (),
                    (UtilityDef("A", ("V", "W")),))
    with pytest.raises(NameResolutionError) as exc:
        derive_payoff_table(game)
    assert str(exc.value) == "unknown name 'W' in utility of 'A'"
    assert (exc.value.context, exc.value.token) == ("utility of 'A'", "W")


def _rich_policies(game, rng):
    """All four policies; the optimistic player is named by an alias when it
    has one, and the fixed fragments include ones that match nothing and
    ones that name a subject twice."""
    p = rng.choice(game.players)
    v = rng.choice(game.variables)
    first, last = v.value_names()[0], v.value_names()[-1]
    fragments = [
        ((p.name, rng.choice(p.actions)),), ((v.name, last),),
        ((p.name, p.actions[0]),), ((v.name, "Top"),),  # value alias
        ((p.name, p.actions[0]),), (("Nobody", "x"),),  # absent name
        ((p.name, p.actions[0]), (p.name, p.actions[-1])),  # same subject
        ((v.name, first), (v.name, first)),
        ((p.name, rng.choice(p.actions)),), ((v.name, first), (v.name, last)),
    ]
    k = rng.randrange(0, len(fragments), 2)
    return [
        CompletionPolicy(),
        CompletionPolicy("optimistic", player=(p.aliases or (p.name,))[0]),
        CompletionPolicy("pessimistic", player=rng.choice(game.players).name),
        CompletionPolicy("fixed", fixed_actions=fragments[k],
                         fixed_outcomes=fragments[k + 1]),
    ]


def test_compiled_path_matches_oracle_on_rich_games():
    """Aliases, three-valued variables with negative scores and inert atoms
    in every rule part: rows, top rows, payoff tables and projections equal
    the brute-force oracle, in canonical order."""
    rng = random.Random(2024)
    unmatched = 0
    for _ in range(150):
        game = random_rich_game(rng)
        players = game.player_names()
        oracle_rows = brute_force_admissible(game)
        rows, report = admissible_rows(game)
        assert [row_key(r) for r in _named(game, flat_rows(rows))] == \
            [row_key(r) for r in oracle_rows], game
        gus = [utility(game, r) for r in oracle_rows]
        best = max(gus, default=None)
        assert (report.max_global_utility, report.max_global_utility_count) \
            == (best, gus.count(best))
        top, top_rows = top_gu_rows(game)
        assert top == best
        assert [row_key(r) for r in _named(game, flat_rows(top_rows))] == [
            row_key(r) for r, g in zip(oracle_rows, gus) if g == best]
        for policy in _rich_policies(game, rng):
            table = derive_payoff_table(game, policy)
            for profile in table.profiles():
                pool = [r for r in oracle_rows
                        if tuple(r.actions[p] for p in players) == profile]
                chosen = brute_force_pick(game, policy, pool)
                assert table.payoff(profile) == (
                    None if chosen is None else
                    tuple(utility(game, chosen, p) for p in players))
            if policy.kind == "fixed" and (
                    ("Nobody", "x") in policy.fixed_outcomes
                    or any(x == "Top" for _, x in policy.fixed_outcomes)
                    or len(dict(policy.fixed_outcomes))
                    < len(set(policy.fixed_outcomes))):
                assert all(c is None for c in table.cells)
                unmatched += 1
            for row, col in itertools.permutations(game.players, 2):
                bm = project_bimatrix(game, policy,
                                      (row.aliases or (row.name,))[0],
                                      col.name)
                expected = brute_force_projection(game, policy,
                                                  (row.name, col.name))
                for pair, cell in zip(bm.profiles(), bm.cells):
                    chosen = expected[pair]
                    assert cell == (
                        None if chosen is None else
                        (utility(game, chosen, row.name),
                         utility(game, chosen, col.name)))
    assert unmatched > 20


def _oracle_record(game, row):
    """A row dump record built from a brute-force row: names in declaration
    order, then GU and each player's utility by ``oracle.utility``."""
    players = game.player_names()
    return [*((p, row.actions[p]) for p in players),
            *((v, row.outcomes[v]) for v in game.variable_names()),
            ("GU", utility(game, row)),
            *((f"U_{p}", utility(game, row, p)) for p in players)]


def test_records_match_oracle_on_rich_games():
    """Row dump records of engine rows, from ``admissible_rows`` and from
    ``top_gu_rows``, equal records built from the oracle's rows, key order
    included; the games have alias utility terms and negative scores."""
    rng = random.Random(77)
    aliased = negative = 0
    for _ in range(150):
        game = random_rich_game(rng)
        tail = len(game.players) + 1  # GU and U_<player>
        expected = [_oracle_record(game, r)
                    for r in brute_force_admissible(game)]
        rows, _ = admissible_rows(game)
        assert [list(rec.items()) for rec in rows_as_records(game, rows)] \
            == expected, game
        best, top = top_gu_rows(game)
        assert [list(rec.items()) for rec in rows_as_records(game, top)] \
            == [rec for rec in expected if rec[-tail][1] == best]
        if expected:
            aliased += any(t not in game.variable_names()
                           for u in game.utilities for t in u.terms)
            negative += any(v < 0 for rec in expected for _, v in rec[-tail:])
    assert aliased > 20 and negative > 20
