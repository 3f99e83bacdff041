import itertools

import pytest

from oagame import (
    ACTION,
    OUTCOME,
    MissingUtilityError,
    OutcomeVarDef,
    PlayerDef,
    compile_game,
    fixtures,
    parse_game_spec,
    validate_game,
)
from oagame.engine import rows_as_records

from .oracle import named_row

# Action profiles and outcome assignments printed as the two reference
# scenarios: the all-TA status quo and the all-OA ideal.
CURRENT_ACTIONS = {
    "Academics": "Publish TA", "Administrators": "Support TA",
    "Funders": "Demand publications", "Editors": "Grant TA",
    "Politicians": "Permit TA",
}
CURRENT_OUTCOMES = {
    "Opportunity": "Minimal", "Visibility": "Less", "Prestige": "More",
    "Promotion": "More", "Savings": "Less", "Quality Results": "Less",
    "Income": "More", "Impact and Relevance": "Less",
}
IDEAL_ACTIONS = {
    "Academics": "Publish OA", "Administrators": "Support OA",
    "Funders": "Demand OA publications", "Editors": "Grant OA",
    "Politicians": "Demand green OA",
}
IDEAL_OUTCOMES = {
    "Opportunity": "Maximal", "Visibility": "More", "Prestige": "More",
    "Promotion": "More", "Savings": "More", "Quality Results": "More",
    "Income": "Less", "Impact and Relevance": "More",
}


def _record(game, actions, outcomes):
    """The row dump record (players, variables, GU, U_<player>) of one row,
    given by names (value aliases allowed)."""
    cg = compile_game(game)
    profile = tuple(a.index(actions[p]) for p, a in zip(cg.players,
                                                        cg.actions))
    completion = tuple(
        vals.index(game.bind(v, outcomes[v])[2])
        for v, vals in zip(cg.variables, cg.values))
    assert named_row(cg, profile, completion).actions == actions
    return rows_as_records(game, [(profile, (completion,))])[0]


def test_value_scores(oa_game):
    assert oa_game.variable("Visibility").values == (("More", 1), ("Less", 0))


def _canonical(game, variable, value):
    """The canonical value that ``game`` binds ``variable = value`` to."""
    return game.bind(variable, value)[2]


def test_value_alias_resolves_to_canonical_score(oa_game):
    opp = oa_game.variable("Opportunity")
    scores = dict(opp.values)
    assert scores[_canonical(oa_game, "Opportunity", "Maximal")] == 1
    assert scores[_canonical(oa_game, "Opportunity", "Minimal")] == 0
    # Alias and canonical value always score the same.
    for alias, canon in opp.value_aliases:
        assert scores[_canonical(oa_game, "Opportunity", alias)] == \
            scores[canon]


def test_value_lookup_answers_none_for_an_unknown_name(oa_game):
    opp = oa_game.variable("Opportunity")
    for alias, canon in opp.value_aliases:
        assert _canonical(oa_game, "Opportunity", alias) == canon
        assert _canonical(oa_game, "Opportunity", f" {alias.upper()} ") == \
            canon
    assert _canonical(oa_game, "Opportunity", "more") == "More"
    assert _canonical(oa_game, "Opportunity", "Medium") is None


def _respelled(name):
    """``name`` in the other case, with outer whitespace."""
    return f" {name.swapcase()}\t"


def test_bind_resolves_names_aliases_and_values(oa_game):
    bound = []
    for p in oa_game.players:
        for name in (p.name, *p.aliases):
            bound += [(oa_game.bind(_respelled(name), _respelled(a)),
                       (ACTION, p.name, a)) for a in p.actions]
    for v in oa_game.variables:
        for name in (v.name, *v.aliases):
            bound += [(oa_game.bind(_respelled(name), _respelled(value)),
                       (OUTCOME, v.name, canon))
                      for value, canon in (*zip(v.value_names(),
                                                v.value_names()),
                                           *v.value_aliases)]
    # 28 (player name or alias, action) pairs: 3 + 3 + 2 * 3 + 2 * 4 + 2 * 4;
    # 22 (variable name or alias, value or value alias) pairs: Opportunity
    # has 4 values and value aliases, the two aliased variables 2 * 2 each,
    # the five others 2 each.
    assert len(bound) == 28 + 22
    assert all(got == want for got, want in bound)
    assert oa_game.bind("Opportunity", "Maximal") == (
        OUTCOME, "Opportunity", "More")
    assert oa_game.bind("Editor", "Grant nothing") == (ACTION, "Editors", None)
    assert oa_game.bind("Income", "Medium") == (OUTCOME, "Income", None)
    assert oa_game.bind(" Nobody ", "More") == (None, " Nobody ", None)
    # Two declarations whose names share a ``name_key``, which only the
    # constructors allow: the first declared answers, in either order.
    twin = PlayerDef("Twin", ("Grant TA", "x"), (" EDITORS",))
    late = OutcomeVarDef("income", "Twin", (("Hi", 1), ("More", 0)))
    after = oa_game._replace(players=(*oa_game.players, twin),
                             variables=(*oa_game.variables, late))
    assert after.bind("editors", "x") == (ACTION, "Editors", None)
    assert after.bind("Twin", "x") == (ACTION, "Twin", "x")
    assert after.bind("INCOME", "Hi") == (OUTCOME, "Income", None)
    before = oa_game._replace(players=(twin, *oa_game.players),
                              variables=(late, *oa_game.variables))
    assert before.bind("editors", "x") == (ACTION, "Twin", "x")
    assert before.bind("Income", "more") == (OUTCOME, "income", "More")


def _counted_name_keys(monkeypatch) -> list:
    """The names that ``name_key`` is called on from here on, by the model
    and the parser."""
    import oagame.dsl
    import oagame.model
    calls = []

    def counting(name):
        calls.append(name)
        return original(name)

    original = oagame.model.name_key
    for module in (oagame.model, oagame.dsl):
        monkeypatch.setattr(module, "name_key", counting)
    return calls


def test_a_name_lookup_is_one_probe(monkeypatch):
    """Each ``GameSpec`` keys its names and aliases, each player's actions
    and each variable's values once, and a parse builds the tables of one
    game only, which its checks of repeated names and actions read, so
    parsing the bundled game calls ``name_key`` 195 times, not once per
    declared name per lookup (1031 times)."""
    calls = _counted_name_keys(monkeypatch)
    assert parse_game_spec(fixtures.fixture_text("oa.game")).ok
    assert len(calls) == 195


def test_the_parsed_game_binds_and_validates_on_the_parsers_tables(
        monkeypatch):
    """The parsed game keeps every member table of the parse, so a bind
    keys only the written name and value, and ``validate_game`` keys only
    what its checks read apart from the tables."""
    game = parse_game_spec(fixtures.fixture_text("oa.game")).game
    calls = _counted_name_keys(monkeypatch)
    for v in game.variables:
        assert game.bind(v.name, v.values[0][0]) == (OUTCOME, v.name,
                                                     v.values[0][0])
    assert len(calls) == 2 * len(game.variables) == 16
    calls.clear()
    assert validate_game(game).ok
    assert len(calls) == 49


def test_validate_builds_the_name_tables_once(monkeypatch, capsys):
    """The parsed game keeps the parser's name tables, so the ``validate``
    command keys the bundled game's names once."""
    from oagame.cli import run_cli
    from oagame.model import GameSpec
    built = []
    original = GameSpec._named

    def counting(game):
        if "_names" not in game.__dict__:
            built.append(game)
        return original(game)

    monkeypatch.setattr(GameSpec, "_named", counting)
    assert run_cli(["validate", "--game", "oa.game"]) == 0
    assert "row_space: 110592" in capsys.readouterr().out
    assert len(built) == 1


def test_agent_utilities_on_ideal_row(oa_game):
    rec = _record(oa_game, IDEAL_ACTIONS, IDEAL_OUTCOMES)
    assert rec["U_Academics"] == 4
    assert rec["U_Editors"] == 0


def test_agent_utilities_on_current_row(oa_game):
    rec = _record(oa_game, CURRENT_ACTIONS, CURRENT_OUTCOMES)
    assert rec["U_Academics"] == 2
    assert rec["U_Editors"] == 1
    assert rec["GU"] == 3


def test_global_utility_extremes(oa_game):
    all_more = {v.name: v.value_names()[0] for v in oa_game.variables}
    all_less = {v.name: v.value_names()[1] for v in oa_game.variables}
    assert _record(oa_game, IDEAL_ACTIONS, all_more)["GU"] == 8
    assert _record(oa_game, IDEAL_ACTIONS, all_less)["GU"] == 0
    # No row scores higher: 8 is the sum of the per-variable maxima.
    assert sum(map(max, compile_game(oa_game).scores)) == 8


def test_missing_utility_definition(oa_game):
    with pytest.raises(MissingUtilityError):
        oa_game.utility_for("Nobody")


def test_agent_utility_ignores_unrelated_variables(oa_game):
    # Academics' utility depends only on its four terms.
    base = dict(IDEAL_OUTCOMES)
    expected = _record(oa_game, IDEAL_ACTIONS, base)["U_Academics"]
    for combo in itertools.product(("More", "Less"), repeat=3):
        outcomes = dict(base)
        outcomes["Savings"], outcomes["Income"], outcomes["Quality Results"] \
            = combo
        assert _record(oa_game, IDEAL_ACTIONS,
                       outcomes)["U_Academics"] == expected


def test_global_equals_sum_of_agents(oa_game):
    for outcomes in ({v.name: "More" if i % 2 else "Less"
                      for i, v in enumerate(oa_game.variables)},
                     IDEAL_OUTCOMES, CURRENT_OUTCOMES):
        rec = _record(oa_game, IDEAL_ACTIONS, outcomes)
        assert rec["GU"] == sum(rec[f"U_{p}"]
                                for p in oa_game.player_names())
