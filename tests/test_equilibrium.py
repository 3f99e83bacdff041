from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oagame import (
    Bimatrix,
    CompletionPolicy,
    InfeasibleSliceError,
    MixedStrategy,
    best_responses,
    dominance_analysis,
    expected_utility,
    mixed_nash_2p,
    parse_bimatrix,
    project_bimatrix,
    pure_nash,
    serialize_bimatrix,
)

F = Fraction


def bimatrix(rows, cols, cells, rp="Row", cp="Col"):
    return Bimatrix(rp, tuple(rows), cp, tuple(cols),
                    tuple(tuple((F(a), F(b)) for a, b in line)
                          for line in cells))


MATCHING_PENNIES = bimatrix(
    ["H", "T"], ["H", "T"],
    [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]])

BATTLE = bimatrix(
    ["opera", "football"], ["opera", "football"],
    [[(2, 1), (0, 0)], [(0, 0), (1, 2)]])


# ---------------------------------------------------------------------------
# Best responses and pure equilibria


def test_best_response_against_grant_oa(table5):
    table = table5.to_payoff_table()
    assert best_responses(table, "Academics", {"Editors": "Grant OA"}) == \
        ("Publish OA",)


def test_best_response_singleton():
    bm = bimatrix(["only"], ["x", "y"], [[(5, 1), (2, 3)]])
    table = bm.to_payoff_table()
    assert best_responses(table, "Row", {"Col": "y"}) == ("only",)


def test_best_response_ties(table5):
    table = table5.to_payoff_table()
    assert best_responses(table, "Editors",
                          {"Academics": "Publish OA"}) == \
        ("Grant big deals", "Grant TA")


def test_best_response_infeasible_slice():
    bm = bimatrix(["a"], ["x"], [[(0, 0)]])
    table = bm.to_payoff_table()
    table.cells[("a", "x")] = None
    with pytest.raises(InfeasibleSliceError):
        best_responses(table, "Row", {"Col": "x"})


def test_pure_nash_table5(table5):
    certs = pure_nash(table5.to_payoff_table())
    profiles = {c.pure_profile() for c in certs}
    assert profiles == {
        ("Publish TA", "Grant big deals"), ("Publish TA", "Grant TA"),
        ("Publish OA", "Grant big deals"), ("Publish OA", "Grant TA"),
    }
    assert ("Publish OA", "Grant TA") in profiles


def test_pure_nash_matching_pennies_empty():
    assert pure_nash(MATCHING_PENNIES.to_payoff_table()) == []


def test_pure_nash_1x1():
    bm = bimatrix(["a"], ["x"], [[(0, 0)]])
    certs = pure_nash(bm.to_payoff_table())
    assert [c.pure_profile() for c in certs] == [("a", "x")]


# ---------------------------------------------------------------------------
# Projection


def test_projection_matches_hand_evaluation(oa_game):
    bm = project_bimatrix(oa_game, CompletionPolicy(), "Academics",
                          "Editors")
    assert bm.provenance == "projected-from-game"
    cell = bm.payoffs[bm.row_actions.index("Publish OA")][
        bm.col_actions.index("Grant OA")]
    assert cell == (4, 0)
    # Documented divergence: the printed table shows (3,1) here, but the
    # first rule pins Opportunity and Visibility to Less.
    cell = bm.payoffs[bm.row_actions.index("Publish TA")][
        bm.col_actions.index("Grant TA")]
    assert cell == (2, 1)


def test_projection_identity_on_two_player_game():
    from oagame import parse_game_spec
    result = parse_game_spec(
        'game "two"\n'
        'player R actions: "r1", "r2"\n'
        'player C actions: "c1", "c2"\n'
        'variable V owner: R values: More=1, Less=0\n'
        'variable W owner: C values: More=1, Less=0\n'
        'utility R = V\nutility C = W\n')
    game = result.game
    policy = CompletionPolicy("fixed",
                              fixed_outcomes=(("V", "More"), ("W", "More")))
    bm = project_bimatrix(game, policy, "R", "C")
    assert all(cell == (1, 1) for row in bm.payoffs for cell in row)


def test_projection_requires_distinct_players(oa_game):
    with pytest.raises(ValueError):
        project_bimatrix(oa_game, CompletionPolicy(), "Academics",
                         "Academics")


# ---------------------------------------------------------------------------
# Dominance


def test_table6_iterated_elimination(table6):
    # Editors' TA strictly dominates OA on its own.
    strict = dominance_analysis(table6, notion="strict", iterate=False)
    editor_elims = [e for e in strict.trace if e.player == "Editors"]
    assert editor_elims and editor_elims[0].action == "OA" \
        and editor_elims[0].dominator == "TA"
    # Weak iterated elimination collapses to the single OA/TA profile.
    result = dominance_analysis(table6, notion="weak", iterate=True)
    assert result.surviving.row_actions == ("Publish OA",)
    assert result.surviving.col_actions == ("TA",)


def test_matching_pennies_no_elimination():
    result = dominance_analysis(MATCHING_PENNIES, notion="weak",
                                iterate=True)
    assert result.trace == ()
    assert result.surviving.row_actions == ("H", "T")


def test_identical_rows_weakly_dominate_but_not_strictly():
    bm = bimatrix(["a", "b"], ["x", "y"],
                  [[(1, 0), (2, 0)], [(1, 0), (2, 0)]])
    from oagame.equilibrium import _dominates
    assert _dominates(bm, 0, 0, 1, [0, 1], "weak")
    assert _dominates(bm, 0, 1, 0, [0, 1], "weak")
    result = dominance_analysis(bm, notion="strict", iterate=True)
    assert result.trace == ()


def test_strictly_dominated_action_in_no_equilibrium(table6):
    certs, _ = mixed_nash_2p(table6)
    for cert in certs:
        editors = next(s for s in cert.strategies if s.player == "Editors")
        assert editors.support() == ("TA",)


# ---------------------------------------------------------------------------
# Mixed equilibria


def test_matching_pennies_unique_mixed():
    certs, degenerate = mixed_nash_2p(MATCHING_PENNIES)
    assert not degenerate
    assert len(certs) == 1
    cert = certs[0]
    for strategy in cert.strategies:
        assert dict(strategy.probs) == {"H": F(1, 2), "T": F(1, 2)}
    assert cert.expected_utilities == (F(0), F(0))


def test_battle_of_the_sexes():
    certs, _ = mixed_nash_2p(BATTLE)
    pure = [c for c in certs if c.kind == "pure"]
    mixed = [c for c in certs if c.kind == "mixed"]
    assert len(pure) == 2 and len(mixed) == 1
    row, col = mixed[0].strategies
    assert dict(row.probs) == {"opera": F(2, 3), "football": F(1, 3)}
    assert dict(col.probs) == {"opera": F(1, 3), "football": F(2, 3)}


def test_table6_editors_never_mix(table6):
    certs, degenerate = mixed_nash_2p(table6)
    assert degenerate  # Academics is indifferent when Editors play TA
    assert certs
    for cert in certs:
        editors = next(s for s in cert.strategies if s.player == "Editors")
        assert editors.is_pure() and editors.support() == ("TA",)
    profiles = {c.pure_profile() for c in certs if c.pure_profile()}
    assert ("Publish OA", "TA") in profiles


def test_pure_equilibria_found_by_both_paths(table5, table6):
    for bm in (table5, table6, BATTLE):
        pure_profiles = {c.pure_profile()
                         for c in pure_nash(bm.to_payoff_table())}
        mixed_profiles = {c.pure_profile()
                          for c in mixed_nash_2p(bm)[0]
                          if c.pure_profile()}
        assert pure_profiles <= mixed_profiles


def test_support_limit_guard():
    n = 9
    cells = [[(0, 0)] * n for _ in range(n)]
    bm = bimatrix([f"r{i}" for i in range(n)],
                  [f"c{j}" for j in range(n)], cells)
    with pytest.raises(ValueError):
        mixed_nash_2p(bm)


def test_certificates_verify(table5, table6):
    for bm in (table5, table6, MATCHING_PENNIES, BATTLE):
        certs, _ = mixed_nash_2p(bm)
        for cert in certs:
            assert cert.verify()
        for cert in pure_nash(bm.to_payoff_table()):
            assert cert.verify()


def test_scaling_payoffs_preserves_structure(table6):
    scaled = Bimatrix(
        table6.row_player, table6.row_actions,
        table6.col_player, table6.col_actions,
        tuple(tuple((u * 7, v) for u, v in row) for row in table6.payoffs))
    assert {c.pure_profile() for c in pure_nash(scaled.to_payoff_table())} \
        == {c.pure_profile() for c in pure_nash(table6.to_payoff_table())}
    base = dominance_analysis(table6, "weak", True)
    after = dominance_analysis(scaled, "weak", True)
    assert [(e.player, e.action) for e in base.trace] == \
        [(e.player, e.action) for e in after.trace]


# ---------------------------------------------------------------------------
# Expected utility


def test_population_split_example(table5):
    mix_a = MixedStrategy("Academics", (("Publish TA", F(4, 5)),
                                        ("Publish OA", F(1, 5))))
    mix_e = MixedStrategy.pure("Editors", "Grant TA")
    eu_a, eu_e = expected_utility(table5, mix_a, mix_e)
    assert eu_a == 3
    assert eu_e == 1


def test_pure_times_pure_is_the_cell(table5):
    mix_a = MixedStrategy.pure("Academics", "Publish OA")
    mix_e = MixedStrategy.pure("Editors", "Grant OA")
    assert expected_utility(table5, mix_a, mix_e) == (4, 0)


@pytest.mark.parametrize("q,expected", [(F(0), F(4)), (F(1, 2), F(7, 2)),
                                        (F(1), F(3))])
def test_table6_oa_row_formula(table6, q, expected):
    mix_a = MixedStrategy.pure("Academics", "Publish OA")
    mix_e = MixedStrategy("Editors", (("TA", q), ("OA", 1 - q)))
    eu_a, _ = expected_utility(table6, mix_a, mix_e)
    assert eu_a == 3 * q + 4 * (1 - q) == expected


@given(st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
def test_expected_utility_linear_in_each_argument(p, q, lam):
    bm = BATTLE
    mix_col = MixedStrategy("Col", (("opera", q), ("football", 1 - q)))
    mix1 = MixedStrategy("Row", (("opera", p), ("football", 1 - p)))
    mix2 = MixedStrategy("Row", (("opera", 1 - p), ("football", p)))
    blended_p = lam * p + (1 - lam) * (1 - p)
    blend = MixedStrategy("Row", (("opera", blended_p),
                                  ("football", 1 - blended_p)))
    eu1 = expected_utility(bm, mix1, mix_col)
    eu2 = expected_utility(bm, mix2, mix_col)
    eub = expected_utility(bm, blend, mix_col)
    assert eub[0] == lam * eu1[0] + (1 - lam) * eu2[0]
    assert eub[1] == lam * eu1[1] + (1 - lam) * eu2[1]


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixedStrategy("X", (("a", F(1, 2)), ("b", F(1, 4))))
    with pytest.raises(ValueError):
        MixedStrategy("X", (("a", F(-1, 2)), ("b", F(3, 2))))


def test_dimension_mismatch(table5):
    bad = MixedStrategy("Editors", (("Nope", F(1)),))
    with pytest.raises(ValueError):
        expected_utility(table5, MixedStrategy.pure("Academics",
                                                    "Publish TA"), bad)


# ---------------------------------------------------------------------------
# Bimatrix file format


def test_bimatrix_round_trip(table5):
    text = serialize_bimatrix(table5)
    again = parse_bimatrix(text)
    assert again == Bimatrix(table5.row_player, table5.row_actions,
                             table5.col_player, table5.col_actions,
                             table5.payoffs, again.provenance)


def test_bimatrix_rejects_bad_shapes():
    from oagame.equilibrium import BimatrixFormatError
    with pytest.raises(BimatrixFormatError):
        parse_bimatrix("rows: R: a\ncols: C: x,y\n(1,2)\n")
    with pytest.raises(BimatrixFormatError):
        parse_bimatrix("rows: R: a\n(1,2)\n")
