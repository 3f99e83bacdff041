import copy
import hashlib
import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oagame import (
    Bimatrix,
    CompletionPolicy,
    Elimination,
    InfeasibleSliceError,
    MixedStrategy,
    PayoffTable,
    best_responses,
    derive_payoff_table,
    dominance_analysis,
    expected_utility,
    fixtures,
    mixed_nash_2p,
    parse_bimatrix,
    project_bimatrix,
    pure_nash,
    serialize_bimatrix,
)
from oagame._support import _cramer, _eliminations, _integer_scaled

from . import oracle
from .oracle import support_enumeration
from .test_cli import EIGHT_BMX, SEVEN_BMX, SIX_BMX

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
    assert best_responses(table5, "Academics", {"Editors": "Grant OA"}) == \
        ("Publish OA",)


def test_best_response_singleton():
    table = bimatrix(["only"], ["x", "y"], [[(5, 1), (2, 3)]])
    assert best_responses(table, "Row", {"Col": "y"}) == ("only",)


def test_best_response_ties(table5):
    assert best_responses(table5, "Editors",
                          {"Academics": "Publish OA"}) == \
        ("Grant big deals", "Grant TA")


def test_best_response_infeasible_slice():
    table = Bimatrix("Row", ("a",), "Col", ("x",), ((None,),))
    with pytest.raises(InfeasibleSliceError):
        best_responses(table, "Row", {"Col": "x"})


def test_pure_nash_table5(table5):
    certs = pure_nash(table5)
    profiles = {c.pure_profile() for c in certs}
    assert profiles == {
        ("Publish TA", "Grant big deals"), ("Publish TA", "Grant TA"),
        ("Publish OA", "Grant big deals"), ("Publish OA", "Grant TA"),
    }
    assert ("Publish OA", "Grant TA") in profiles


def test_pure_nash_matching_pennies_empty():
    assert pure_nash(MATCHING_PENNIES) == []


def test_pure_nash_1x1():
    bm = bimatrix(["a"], ["x"], [[(0, 0)]])
    certs = pure_nash(bm)
    assert [c.pure_profile() for c in certs] == [("a", "x")]


@st.composite
def payoff_tables(draw):
    """1 to 4 players with 2 to 4 actions each; payoffs 0 to 3, so they
    tie, and about a quarter of the cells infeasible."""
    n = draw(st.integers(1, 4))
    actions = tuple(tuple(f"a{i}{k}" for k in range(draw(st.integers(2, 4))))
                    for i in range(n))
    payoff = st.tuples(*[st.integers(0, 3)] * n)
    size = math.prod(map(len, actions))
    cells = draw(st.lists(st.one_of(st.none(), payoff, payoff, payoff),
                          min_size=size, max_size=size))
    return PayoffTable(tuple(f"P{i}" for i in range(n)), actions,
                       tuple(cells))


@settings(max_examples=150, deadline=None)
@given(payoff_tables())
@example(PayoffTable(("P0", "P1"), (("a00", "a01"), ("a10", "a11")),
                     ((1, 0), None, (0, 1), None)))
def test_pure_nash_and_best_responses_match_the_name_oracle(table):
    certs, expected = pure_nash(table), oracle.pure_nash(table)
    assert certs == expected and repr(certs) == repr(expected)  # types
    for profile, cell in zip(table.profiles(), table.cells):
        assert table.payoff(profile) == cell
        others = dict(zip(table.players, profile))
        for player in table.players:
            argmax = oracle.best_responses(table, player, others)
            if argmax:
                assert best_responses(table, player, others) == argmax
            else:
                with pytest.raises(InfeasibleSliceError):
                    best_responses(table, player, others)
    if len(table.players) == 2:
        payoffs = [table.cells[i:i + len(table.actions[1])]
                   for i in range(0, len(table.cells), len(table.actions[1]))]
        assert Bimatrix(table.players[0], table.actions[0], table.players[1],
                        table.actions[1], tuple(payoffs)) == table


def test_pure_certificates_keep_the_table_s_own_numbers(oa_game, table5):
    """A game's payoff table and projection, and a ``.bmx`` table of
    integer cells, certify their pure equilibria in ints, so no command on
    them needs ``fractions``; a ``.bmx`` table of other numbers in
    ``Fraction``s.  A pure probability is the int 1 either way."""
    halves = parse_bimatrix("rows: R: a, b\ncols: C: x, y\n"
                            "(1/2,3/2) (0.5,-1/4)\n(1e-1,2.5) (3/4,1.25)\n")
    for table, kind in (
            (derive_payoff_table(oa_game), int),
            (project_bimatrix(oa_game, CompletionPolicy(), "Academics",
                              "Editors"), int),
            (table5, int),
            (halves, Fraction)):
        certs = pure_nash(table)
        assert certs
        for cert in certs:
            assert cert.verify()
            figures = [*cert.expected_utilities,
                       *(u for record in cert.verification for _, u in record)]
            assert {type(x) for x in figures} == {kind}
            assert [s.probs for s in cert.strategies] == [
                ((a, 1),) for a in cert.pure_profile()]
            assert {type(p) for s in cert.strategies
                    for _, p in s.probs} == {int}


# ---------------------------------------------------------------------------
# Projection


def test_projection_matches_hand_evaluation(oa_game):
    table = project_bimatrix(oa_game, CompletionPolicy(), "Academics",
                             "Editors")
    assert table.players == ("Academics", "Editors")
    assert table.payoff(("Publish OA", "Grant OA")) == (4, 0)
    # Documented divergence: the printed table shows (3,1) here, but the
    # first rule pins Opportunity and Visibility to Less.
    assert table.payoff(("Publish TA", "Grant TA")) == (2, 1)


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
    table = project_bimatrix(game, policy, "R", "C")
    assert all(cell == (1, 1) for cell in table.cells)


def test_projection_requires_distinct_players(oa_game):
    with pytest.raises(ValueError):
        project_bimatrix(oa_game, CompletionPolicy(), "Academics",
                         "Academics")


# ---------------------------------------------------------------------------
# Dominance


def test_table6_iterated_elimination(table6):
    # Editors' TA strictly dominates OA on its own.
    strict = dominance_analysis(table6, notion="strict")
    editor_elims = [e for e in strict.trace if e.player == "Editors"]
    assert editor_elims and editor_elims[0].action == "OA" \
        and editor_elims[0].dominator == "TA"
    # Weak iterated elimination collapses to the single OA/TA profile.
    result = dominance_analysis(table6, notion="weak")
    assert result.surviving == (("Publish OA",), ("TA",))


def test_dominance_refuses_an_unknown_notion(table6):
    with pytest.raises(ValueError, match="^unknown dominance notion 'bogus'$"):
        dominance_analysis(table6, "bogus")


def test_matching_pennies_no_elimination():
    result = dominance_analysis(MATCHING_PENNIES, notion="weak")
    assert result.trace == ()
    assert result.surviving == (("H", "T"), ("H", "T"))


def test_identical_rows_weakly_dominate_but_not_strictly():
    # Each row weakly dominates the other: whichever comes first goes.
    for first, second in (("a", "b"), ("b", "a")):
        table = bimatrix([first, second], ["x", "y"],
                         [[(1, 0), (2, 0)], [(1, 0), (2, 0)]])
        assert dominance_analysis(table, notion="weak").trace[0] == \
            Elimination("Row", first, second, "weak")
        assert dominance_analysis(table, notion="strict").trace == ()


def test_dominance_needs_a_feasible_cell_only_where_the_dominated_is():
    # Column a10 beats a11 wherever a11 is feasible; a11 cannot beat a10
    # where a10 is feasible and a11 is not.  Then a00 beats a01 against a10.
    table = PayoffTable(("P0", "P1"), (("a00", "a01"), ("a10", "a11")),
                        ((1, 0), None, (0, 0), (5, 0)))
    assert dominance_analysis(table, "weak") == (
        (Elimination("P1", "a11", "a10", "weak"),
         Elimination("P0", "a01", "a00", "weak")),
        (("a00",), ("a10",)))
    assert dominance_analysis(table, "strict") == ((), table.actions)


@settings(max_examples=150, deadline=None)
@given(payoff_tables())
def test_dominance_matches_the_name_oracle(table):
    for notion in ("strict", "weak"):
        assert dominance_analysis(table, notion) == \
            oracle.dominance_analysis(table, notion)


@pytest.mark.parametrize("policy", [
    CompletionPolicy(), CompletionPolicy("optimistic", "Editors"),
    CompletionPolicy("pessimistic", "Editors")],
    ids=["max-gu", "optimistic", "pessimistic"])
def test_grant_ta_weakly_dominates_both_oa_actions_in_one_step(oa_game,
                                                              policy):
    table = derive_payoff_table(oa_game, policy)
    editors = table.players.index("Editors")
    live = [list(range(len(actions))) for actions in table.actions]
    names = table.actions[editors]
    first_pass = {(names[b], names[a])
                  for i, b, a in _eliminations(table, live, "weak")
                  if i == editors}
    assert {("Grant OA", "Grant TA"),
            ("Grant OA with embargoes", "Grant TA")} <= first_pass
    if policy.kind == "pessimistic":
        assert ("Grant big deals", "Grant TA") not in first_pass


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
        pure_profiles = {c.pure_profile() for c in pure_nash(bm)}
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


# Three players, one of them with two actions; every cell is feasible.
THREE_PLAYERS = PayoffTable(("A", "B", "C"), (("a",), ("b",), ("c", "d")),
                            ((1, 1, 1), (0, 0, 0)))


def test_mixed_nash_needs_two_players():
    with pytest.raises(ValueError, match="has 3 players, not 2"):
        mixed_nash_2p(THREE_PLAYERS)


def test_expected_utility_needs_two_players():
    with pytest.raises(ValueError, match="has 3 players, not 2"):
        expected_utility(THREE_PLAYERS, MixedStrategy.pure("A", "a"),
                         MixedStrategy.pure("B", "b"))


def test_serialize_bimatrix_needs_two_players():
    with pytest.raises(ValueError, match="has 3 players, not 2"):
        serialize_bimatrix(THREE_PLAYERS)


def test_certificates_verify(table5, table6):
    for bm in (table5, table6, MATCHING_PENNIES, BATTLE):
        certs, _ = mixed_nash_2p(bm)
        for cert in certs:
            assert cert.verify()
        for cert in pure_nash(bm):
            assert cert.verify()


def test_a_certificate_below_an_alternative_does_not_verify(table5):
    cert = pure_nash(table5)[0]
    assert cert.kind == "pure" and cert.verify()
    row_u, col_u = cert.expected_utilities
    assert max(u for _, u in cert.verification[0]) == row_u
    assert not cert._replace(expected_utilities=(row_u - F(1, 2),
                                                 col_u)).verify()


# Payoff kinds for the differential test: integers and fractions with
# either sign, and the values 0, 1, 2 only, so payoffs tie and most games
# are degenerate.
PAYOFF_KINDS = (
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(0, 2).map(F),
)


@st.composite
def bimatrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    value = draw(st.sampled_from(PAYOFF_KINDS))
    cell = st.tuples(value, value)
    cells = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                          min_size=m, max_size=m))
    return bimatrix([f"r{i}" for i in range(m)],
                    [f"c{j}" for j in range(n)], cells)


@settings(max_examples=80, deadline=None)
@given(bimatrices())
# Degenerate only because, on each pair of two-action supports, the Row
# mix's system is singular; the Col mix solved first has a negative weight.
@example(bimatrix(["r1", "r2", "r3"], ["c1", "c2"],
                  [[(-3, 0), (-3, 3)], [(0, 0), (1, 3)], [(3, -3), (2, 0)]]))
def test_mixed_nash_matches_support_enumeration_oracle(bm):
    certs, degenerate = mixed_nash_2p(bm)
    assert (certs, degenerate) == support_enumeration(bm)
    assert all(cert.verify() for cert in certs)


@st.composite
def payoff_matrices(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    value = draw(st.sampled_from(PAYOFF_KINDS))
    return draw(st.lists(st.lists(value, min_size=n, max_size=n),
                         min_size=m, max_size=m))


@settings(max_examples=80, deadline=None)
@given(payoff_matrices())
def test_cofactor_solve_matches_the_fraction_solve(matrix):
    """Every equal-size support pair, read off one solver whose minor
    tables the pairs share, against Gaussian elimination over
    ``Fraction``."""
    payoffs, scale = _integer_scaled(matrix)
    m, n = len(matrix), len(matrix[0])
    solve = _cramer(payoffs, n)
    for k in range(1, min(m, n) + 1):
        for own in itertools.combinations(range(m), k):
            for opp in itertools.combinations(range(n), k):
                got = solve(own, opp)
                want = oracle._indifference_mix(matrix, own, opp)
                assert (got is None) == (want is None)
                if got is not None:
                    mix, value, den = got
                    assert den > 0
                    assert [F(w, den) for w in mix] == want[0]
                    assert F(value, den * scale) == want[1]


@st.composite
def mixes(draw, player, actions):
    weights = draw(st.lists(st.integers(0, 3), min_size=len(actions),
                            max_size=len(actions)).filter(any))
    return MixedStrategy(player, tuple(
        (a, F(w, sum(weights))) for a, w in zip(actions, weights)))


@settings(max_examples=60, deadline=None)
@given(bimatrices(), st.data())
def test_library_reads_only_the_table(bm, data):
    """A ``Bimatrix`` and the plain ``PayoffTable`` of its fields, which has
    no side names, get the same answers."""
    table = PayoffTable(*bm)
    assert type(table) is PayoffTable and table == bm
    assert pure_nash(table) == pure_nash(bm)
    for notion in ("strict", "weak"):
        assert dominance_analysis(table, notion) == \
            dominance_analysis(bm, notion)
    assert mixed_nash_2p(table) == mixed_nash_2p(bm)
    mix_row, mix_col = (data.draw(mixes(player, actions))
                        for player, actions in zip(bm.players, bm.actions))
    assert expected_utility(table, mix_row, mix_col) == \
        expected_utility(bm, mix_row, mix_col)
    assert serialize_bimatrix(table) == serialize_bimatrix(bm)


def test_a_bimatrix_copies_and_pickles_as_its_table(table6):
    for again in (copy.deepcopy(table6), pickle.loads(pickle.dumps(table6))):
        assert type(again) is PayoffTable and again == table6


def test_benchmark_reads_a_bimatrix_by_its_side_names(monkeypatch):
    """The benchmark in ``perfbench/`` writes its matrices with
    ``serialize_bimatrix(Bimatrix(<five arguments>))``, and its tracer
    counts the support pairs of ``mixed_nash_2p`` from ``.row_actions``
    and ``.col_actions`` of the table that ``mixed`` passes in.  So
    ``Bimatrix`` keeps its rows constructor and its side names, and
    ``parse_bimatrix`` returns one, for as long as the benchmark reads
    them."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import spans
    import workloads
    bm = workloads.random_bimatrix(random.Random(1), 3, 4, tied=True)
    table = parse_bimatrix(workloads.bmx_text(bm))
    result = mixed_nash_2p(table)
    counters = Counter()
    spans._count(counters, "mixed_nash_2p", (table,), result)
    assert counters == {"equilibrium.support_pairs": 3 * 4 + 3 * 6 + 1 * 4,
                        "equilibrium.equilibria": len(result[0])}


def test_scaling_payoffs_preserves_structure(table6):
    scaled = table6._replace(
        cells=tuple((u * 7, v) for u, v in table6.cells))
    assert {c.pure_profile() for c in pure_nash(scaled)} \
        == {c.pure_profile() for c in pure_nash(table6)}
    base = dominance_analysis(table6, "weak")
    after = dominance_analysis(scaled, "weak")
    assert [(e.player, e.action) for e in base.trace] == \
        [(e.player, e.action) for e in after.trace]


# Metamorphic relations: a known change to the bimatrix and its known
# effect on every equilibrium, checked past the sizes the oracle reaches.

NAMED = {name: parse_bimatrix(text) for name, text in (
    ("six", SIX_BMX), ("seven", SEVEN_BMX), ("eight", EIGHT_BMX))}


def _affine(table, player, a, b):
    """``table`` with ``player``'s payoffs mapped by ``u -> a * u + b``."""
    return table._replace(cells=tuple(
        tuple(a * u + b if i == player else u for i, u in enumerate(cell))
        for cell in table.cells))


@settings(max_examples=60, deadline=None)
@given(bimatrices(), st.integers(0, 1),
       st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
       st.fractions(min_value=-9, max_value=9, max_denominator=9))
@example(NAMED["six"], 0, F(3, 2), F(-7, 3))
@example(NAMED["seven"], 1, F(1, 3), F(5))
@example(NAMED["eight"], 0, F(7), F(1, 2))
@example(NAMED["eight"], 1, F(2, 9), F(-4))
def test_an_affine_map_of_one_players_payoffs_maps_only_their_figures(
        table, player, a, b):
    """With ``a > 0`` each player's best responses are unchanged, so the
    same equilibria come out in the same order, and only that player's
    expected utilities and verification entries move, by the same map."""
    def mapped(i, u):
        return a * u + b if i == player else u
    certs, degenerate = mixed_nash_2p(table)
    assert mixed_nash_2p(_affine(table, player, a, b)) == ([
        cert._replace(
            expected_utilities=tuple(map(mapped, (0, 1),
                                         cert.expected_utilities)),
            verification=tuple(tuple((act, mapped(i, u)) for act, u in record)
                               for i, record in enumerate(cert.verification)))
        for cert in certs], degenerate)
    assert dominance_analysis(_affine(table, player, a, b), "strict") == \
        dominance_analysis(table, "strict")


def _transposed(table):
    """``table`` with its players swapped: the column player now picks
    the row."""
    m, n = map(len, table.actions)
    return PayoffTable(table.players[::-1], table.actions[::-1], tuple(
        table.cells[i * n + j][::-1] for j in range(n) for i in range(m)))


@settings(max_examples=60, deadline=None)
@given(bimatrices())
@example(NAMED["six"])
@example(NAMED["seven"])
@example(NAMED["eight"])
def test_transposing_a_bimatrix_swaps_its_equilibria(table):
    """The equilibria of the transposed table are those of ``table`` with
    the two players' parts swapped; they come out in another order."""
    certs, degenerate = mixed_nash_2p(table)
    swapped, swapped_degenerate = mixed_nash_2p(_transposed(table))
    assert swapped_degenerate == degenerate
    assert len(swapped) == len(certs)
    assert set(swapped) == {cert._replace(
        strategies=cert.strategies[::-1],
        expected_utilities=cert.expected_utilities[::-1],
        verification=cert.verification[::-1]) for cert in certs}
    assert dominance_analysis(_transposed(table), "strict").surviving == \
        dominance_analysis(table, "strict").surviving[::-1]


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
    # Exact: a sum off by a billionth either way is not a distribution.
    for off, total in ((-1, "999999999"), (1, "1000000001")):
        with pytest.raises(ValueError,
                           match=f"sum to {total}/1000000000, not 1"):
            MixedStrategy("X", (("a", F(1, 2)),
                                ("b", F(1, 2) + F(off, 10**9))))
    # A repeated action would make expected_utility read only its first
    # weight.
    with pytest.raises(ValueError, match="more than one probability"):
        MixedStrategy("Academics", (("Publish TA", F(1, 2)),
                                    ("Publish TA", F(1, 2))))


def test_dimension_mismatch(table5):
    bad = MixedStrategy("Editors", (("Nope", F(1)),))
    with pytest.raises(ValueError):
        expected_utility(table5, MixedStrategy.pure("Academics",
                                                    "Publish TA"), bad)


# ---------------------------------------------------------------------------
# Bimatrix file format


@pytest.mark.parametrize("name, digest", [
    ("table5.bmx",
     "ed47bedd9f02f3910a3a74c2e4bfcaa359c1135980df36169e531a41395f6c76"),
    ("table6.bmx",
     "2e5543e0a8463673a8a0e884c6b64ec0f7d83234f7ad7abc4030869ecf2dbcfc"),
    ("six.bmx",
     "1108231d97fb67b57b16ce57e69ca6df007ed15ca7105414b26eb4356fe4118d"),
])
def test_serialized_bimatrix_bytes(name, digest):
    """The writer's bytes, pinned, for each bundled table and the CLI
    tests' six-by-six matrix."""
    text = SIX_BMX if name == "six.bmx" else fixtures.fixture_text(name)
    written = serialize_bimatrix(parse_bimatrix(text))
    assert hashlib.sha256(written.encode("utf-8")).hexdigest() == digest


def test_bimatrix_round_trip(table5):
    text = serialize_bimatrix(table5)
    again = parse_bimatrix(text)
    assert again == PayoffTable(table5.players, table5.actions, table5.cells)


def test_bimatrix_round_trip_keeps_infeasible_cells():
    bm = Bimatrix("R", ("r1", "r2"), "C", ("c1", "c2"),
                  ((None, (F(3), F(-1, 2))), ((F(2), F(2)), None)))
    text = serialize_bimatrix(bm)
    assert "(-,-) (3,-1/2)" in text
    again = parse_bimatrix(text)
    assert again.cells == bm.cells
    assert None in again.cells


# Names drawn from what a .bmx header is made of: its separators, the
# comment and cell characters, quotes and whitespace with a line break.
BMX_NAMES = st.text(alphabet=" ,:#()-/'\"\t\nab", max_size=4)


@st.composite
def named_bimatrices(draw):
    rows = draw(st.lists(BMX_NAMES, max_size=3))
    cols = draw(st.lists(BMX_NAMES, max_size=3))
    cell = st.none() | st.tuples(PAYOFF_KINDS[1], PAYOFF_KINDS[1])
    return Bimatrix(draw(BMX_NAMES), tuple(rows), draw(BMX_NAMES),
                    tuple(cols),
                    tuple(tuple(draw(cell) for _ in cols) for _ in rows))


@settings(max_examples=300, deadline=None)
@given(named_bimatrices())
@example(bimatrix(["a"], ["x, y", "z"], [[(1, 1), (0, 1)]], "R", "C"))
def test_bimatrix_writer_refuses_or_reads_back(bm):
    """The writer raises ValueError, or its text parses back to ``bm``."""
    try:
        text = serialize_bimatrix(bm)
    except ValueError:
        return
    assert parse_bimatrix(text) == bm


# Cell literals: ints, signed, with ``_`` separators, with surrounding
# whitespace or in non-ASCII digits; decimals, exponents and ``p/q``,
# ``1/0`` among them; and malformed text.  Exponents stay small, within
# the reader's limit on digits.
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=4)
_SIGN = st.sampled_from(["", "-", "+"])
_CELL_LITERAL = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.builds("{}{}_{}".format, _SIGN, _DIGITS, _DIGITS),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t "]),
              st.integers(-99, 99).map(str), st.sampled_from(["", " \t"])),
    st.builds("{}{}".format, _SIGN,
              st.text(alphabet="0\u0663\u0967\uff15", min_size=1,
                      max_size=3)),
    st.builds("{}{}.{}".format, _SIGN, _DIGITS, _DIGITS | st.just("")),
    st.builds("{}e{}".format, _DIGITS, st.integers(-3, 3)),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 20)),
    st.text(alphabet="01_+-./eEx ", max_size=5),
)


@settings(max_examples=500, deadline=None)
@given(literal=_CELL_LITERAL)
@example(literal="1_000")
@example(literal=" -7 ")
@example(literal="\u0661\u0662")
@example(literal="2.50")
@example(literal="1/0")
@example(literal="1__0")
@example(literal="-")
def test_a_cell_keeps_its_own_number(literal):
    """``parse_bimatrix`` reads a cell exactly when ``Fraction`` reads its
    literal, as the same value, and as an int exactly when ``int`` reads
    the literal too (else a ``Fraction``)."""
    from oagame.equilibrium import BimatrixFormatError
    text = f"rows: R: a, b\ncols: C: x, y\n({literal},0) (0,0)\n" \
           f"(0,0) (0,{literal})\n"
    try:
        value = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(BimatrixFormatError):
            parse_bimatrix(text)
        return
    cells = parse_bimatrix(text).cells
    try:
        kind = type(int(literal))
    except ValueError:
        kind = Fraction
    read = [cells[0][0], cells[3][1]]
    assert read == [value, value]
    assert [type(x) for x in read] == [kind, kind]
    assert [type(x) for x in cells[1] + cells[2]] == [int] * 4


def test_bimatrix_rejects_bad_shapes():
    from oagame.equilibrium import BimatrixFormatError
    with pytest.raises(BimatrixFormatError):
        parse_bimatrix("rows: R: a\ncols: C: x,y\n(1,2)\n")
    with pytest.raises(BimatrixFormatError):
        parse_bimatrix("rows: R: a\n(1,2)\n")
