"""Acceptance suite: one test per criterion, printing a pass line each.

Golden figures (admissible count, max global utility, top-row count) were
computed with the brute-force oracle in tests/oracle.py and frozen; the
source material's own printed counts are asserted only as labels inside the
reproduce comparison block, because they do not follow from its printed
rules.
"""

import json
import random
from fractions import Fraction

from oagame import (
    CompletionPolicy,
    MixedStrategy,
    admissible_rows,
    agent_utility,
    derive_payoff_table,
    dominance_analysis,
    expected_utility,
    fixtures,
    global_utility,
    mixed_nash_2p,
    parse_game_spec,
    pure_nash,
    serialize_game,
    validate_game,
)
from oagame.cli import run_cli
from oagame.equilibrium import Bimatrix, _dominates

from .oracle import brute_force_admissible, random_small_game, row_key

F = Fraction

GOLDEN_ADMISSIBLE = 17640
GOLDEN_MAX_GU = 8
GOLDEN_TOP_ROWS = 30


def ok(n, name):
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


def test_criterion_1_counting_exact(oa_validated):
    assert oa_validated.action_profile_count == 432
    assert oa_validated.row_space_count == 110592
    ok(1, "counting-exact")


def test_criterion_2_oracle_equivalence(oa_game, oa_oracle_rows):
    engine_rows, _ = admissible_rows(oa_game)
    assert {row_key(r) for r in engine_rows} == \
        {row_key(r) for r in oa_oracle_rows}
    rng = random.Random(20260823)
    for _ in range(100):
        game = random_small_game(rng)
        engine_set = {row_key(r) for r in admissible_rows(game)[0]}
        oracle_set = {row_key(r) for r in brute_force_admissible(game)}
        assert engine_set == oracle_set
    ok(2, "oracle-equivalence")


def test_criterion_3_recorded_oracle_counts(oa_game, oa_oracle_rows, capsys):
    assert len(oa_oracle_rows) == GOLDEN_ADMISSIBLE
    assert max(global_utility(oa_game, r) for r in oa_oracle_rows) == \
        GOLDEN_MAX_GU
    _, report = admissible_rows(oa_game)
    assert report.admissible_count == GOLDEN_ADMISSIBLE
    assert report.max_global_utility == GOLDEN_MAX_GU
    assert report.max_global_utility_count == GOLDEN_TOP_ROWS
    # The previously published figures appear in the reproduce block labeled
    # 'paper'; they are not asserted as computed values.
    code = run_cli(["reproduce", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    block = {e["claim"]: e for e in
             json.loads(out)["paper_comparison"]}
    assert block["admissible rows"]["paper"] == 3136
    assert block["max global utility"]["paper"] == 7
    assert block["rows at max global utility"]["paper"] == 26
    assert block["admissible rows"]["computed"] == GOLDEN_ADMISSIBLE
    ok(3, "recorded-oracle-counts")


def test_criterion_4_utility_identity(oa_game):
    rows, _ = admissible_rows(oa_game)
    players = oa_game.player_names()
    for row in rows:
        gu = global_utility(oa_game, row)
        assert gu == sum(agent_utility(oa_game, p, row) for p in players)
        assert 0 <= gu <= 8
    ok(4, "utility-identity")


def test_criterion_5_equilibrium_on_printed_bimatrix(table5):
    certs = pure_nash(table5.to_payoff_table())
    assert {c.pure_profile() for c in certs} == {
        ("Publish TA", "Grant big deals"), ("Publish TA", "Grant TA"),
        ("Publish OA", "Grant big deals"), ("Publish OA", "Grant TA"),
    }
    ok(5, "pure-nash-printed-bimatrix")


def test_criterion_6_mixed_and_dominance_on_collapse(table6):
    cols = list(table6.col_actions)
    assert _dominates(table6, 1, cols.index("TA"), cols.index("OA"),
                      [0, 1], "strict")
    result = dominance_analysis(table6, notion="weak", iterate=True)
    assert result.surviving.row_actions == ("Publish OA",)
    assert result.surviving.col_actions == ("TA",)
    certs, _ = mixed_nash_2p(table6)
    for cert in certs:
        editors = next(s for s in cert.strategies if s.player == "Editors")
        assert editors.support() == ("TA",)
    for q, expected in ((F(0), F(4)), (F(1, 2), F(7, 2)), (F(1), F(3))):
        mix_a = MixedStrategy.pure("Academics", "Publish OA")
        mix_e = MixedStrategy("Editors", (("TA", q), ("OA", 1 - q)))
        eu_a, _ = expected_utility(table6, mix_a, mix_e)
        assert eu_a == 3 * q + 4 * (1 - q) == expected
        assert abs(float(eu_a) - float(expected)) < 1e-9
    ok(6, "mixed-dominance-collapse")


def test_criterion_7_textbook_equilibria():
    pennies = Bimatrix("R", ("H", "T"), "C", ("H", "T"),
                       (((F(1), F(-1)), (F(-1), F(1))),
                        ((F(-1), F(1)), (F(1), F(-1)))))
    certs, degenerate = mixed_nash_2p(pennies)
    assert not degenerate and len(certs) == 1
    for s in certs[0].strategies:
        assert dict(s.probs) == {"H": F(1, 2), "T": F(1, 2)}
    battle = Bimatrix("R", ("o", "f"), "C", ("o", "f"),
                      (((F(2), F(1)), (F(0), F(0))),
                       ((F(0), F(0)), (F(1), F(2)))))
    certs, _ = mixed_nash_2p(battle)
    pure = [c for c in certs if c.kind == "pure"]
    mixed = [c for c in certs if c.kind == "mixed"]
    assert len(pure) == 2 and len(mixed) == 1
    row, col = mixed[0].strategies
    assert dict(row.probs) == {"o": F(2, 3), "f": F(1, 3)}
    assert dict(col.probs) == {"o": F(1, 3), "f": F(2, 3)}
    ok(7, "textbook-equilibria")


def test_criterion_8_certificate_soundness(oa_game, table5, table6):
    all_certs = []
    for bm in (table5, table6):
        certs, _ = mixed_nash_2p(bm)
        all_certs.extend(certs)
        all_certs.extend(pure_nash(bm.to_payoff_table()))
    table = derive_payoff_table(oa_game, CompletionPolicy())
    all_certs.extend(pure_nash(table))
    assert all_certs
    for cert in all_certs:
        assert cert.verify(tolerance=F(1, 10**9))
        if cert.kind == "pure":
            assert cert.verify()  # exact for pure profiles
    ok(8, "certificate-soundness")


def test_criterion_9_parser_robustness(oa_game):
    assert len(oa_game.rules) == 11  # verbatim sentences, all parsed
    text = serialize_game(oa_game)
    reparsed = parse_game_spec(text)
    assert reparsed.ok
    assert reparsed.game.players == oa_game.players
    assert reparsed.game.variables == oa_game.variables
    assert all(a.same_logic(b) for a, b in
               zip(reparsed.game.rules, oa_game.rules))
    source = fixtures.fixture_text("oa.game")
    rng = random.Random(7)
    for _ in range(1000):
        chars = list(source)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                del chars[pos]
            elif op == 1:
                chars.insert(pos, chr(rng.randrange(32, 127)))
            else:
                chars[pos] = chr(rng.randrange(32, 127))
        mutated = "".join(chars)
        result = parse_game_spec(mutated)
        if result.game is not None:
            validate_game(result.game)
        else:
            assert result.errors
    ok(9, "parser-robustness")


def test_criterion_10_determinism(capsys):
    for argv, worker_counts in (
        (["enumerate", "--game", "oa.game", "--dump",
          "--format", "delimited"], ("1", "4")),
        (["nash", "--bimatrix", "table5.bmx", "--format", "json"], ()),
    ):
        outputs = set()
        for _ in range(2):
            assert run_cli(list(argv)) == 0
            outputs.add(capsys.readouterr().out)
        for workers in worker_counts:
            assert run_cli(list(argv) + ["--workers", workers]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1
    ok(10, "determinism")
