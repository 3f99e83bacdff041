import ast
import gzip
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oagame.cli import run_cli
from oagame import fixtures

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_bundled(capsys):
    code, out, _ = run(capsys, "validate", "--game", "oa.game")
    assert code == 0
    assert "action_profiles: 432" in out
    assert "row_space: 110592" in out


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "--game", "missing.game")
    assert code == 2
    assert out == ""
    assert "missing.game" in err


def test_validate_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text('game "b"\nplayer A actions: "x"\n'
                   'variable V owner: Z values: More=1, Less=0\n')
    code, _, err = run(capsys, "validate", "--game", str(bad))
    assert code == 1
    assert "resolution" in err


def test_player_without_utility_is_a_diagnostic(tmp_path, capsys):
    game = tmp_path / "noutil.game"
    game.write_text('game "n"\nplayer A actions: "a1", "a2"\n'
                    'variable V owner: A values: More=1, Less=0\n'
                    'rule if A="a1" then V="More"\n')
    assert run(capsys, "validate", "--game", str(game))[0] == 0
    code, out, _ = run(capsys, "enumerate", "--game", str(game))
    assert code == 0
    assert "admissible_rows: 3" in out
    for argv in (("payoffs",), ("enumerate", "--dump")):
        code, out, err = run(capsys, *argv, "--game", str(game))
        assert code == 1
        assert out == ""
        assert err == "oagame: no utility definition for player 'A'\n"


def test_policy_player_unknown_is_a_usage_error(capsys):
    code, out, err = run(capsys, "payoffs", "--game", "oa.game", "--policy",
                         "optimistic", "--policy-player", "Nobody")
    assert code == 2
    assert out == ""
    assert err == "oagame: unknown player 'Nobody'\n"


def test_policy_player_alias_resolves_to_declared_name(tmp_path, capsys):
    outputs = {run(capsys, "payoffs", "--game", "oa.game", "--policy",
                   "pessimistic", "--policy-player", name)
               for name in ("Editors", "Editor", "editor")}
    assert len(outputs) == 1 and outputs.pop()[0] == 0
    game = tmp_path / "alias.game"
    game.write_text('game "a"\nplayer A alias Aye actions: "a1", "a2"\n'
                    'variable V owner: A values: More=1, Less=0\n')
    code, out, err = run(capsys, "payoffs", "--game", str(game), "--policy",
                         "optimistic", "--policy-player", "aye")
    assert code == 1
    assert err == "oagame: no utility definition for player 'A'\n"


def test_fix_with_unknown_value_is_a_usage_error(capsys):
    for name in ("Income", "Editors"):
        code, out, err = run(capsys, "payoffs", "--game", "oa.game",
                             "--policy", "fixed", "--fix", f"{name}=Bogus")
        assert code == 2
        assert out == ""
        assert err == f"oagame: unknown value 'Bogus' for '{name}'\n"


def test_fix_giving_one_subject_two_values_is_a_usage_error(capsys):
    for fixes, first, second in (
            (("Income=More", "income=Less"), "More", "Less"),
            (("Editors=Grant TA", "Editor=grant oa"), "Grant TA", "Grant OA")):
        subject = fixes[0].split("=")[0]
        code, out, err = run(capsys, "payoffs", "--game", "oa.game",
                             "--policy", "fixed",
                             *(f"--fix={f}" for f in fixes))
        assert code == 2
        assert out == ""
        assert err == (f"oagame: --fix gives '{subject}' two values: "
                       f"'{first}' and '{second}'\n")
    # Naming one subject twice with the same value is the same fragment.
    once = run(capsys, "payoffs", "--game", "oa.game", "--policy", "fixed",
               "--fix", "Income=Less")
    twice = run(capsys, "payoffs", "--game", "oa.game", "--policy", "fixed",
                "--fix", "Income=Less", "--fix", "income=less")
    assert once == twice and once[0] == 0


def test_fix_under_another_policy_is_a_usage_error(capsys):
    for policy in (("max-gu",), ("optimistic", "--policy-player", "Editors"),
                   ("pessimistic", "--policy-player", "Editors")):
        code, out, err = run(capsys, "payoffs", "--game", "oa.game",
                             "--policy", *policy, "--fix", "Income=Less")
        assert (code, out) == (2, "")
        assert err == f"oagame: --policy {policy[0]} takes no --fix\n"


def test_policy_player_under_another_policy_is_a_usage_error(capsys):
    for policy in ("max-gu", "fixed"):
        code, out, err = run(capsys, "payoffs", "--game", "oa.game",
                             "--policy", policy, "--policy-player", "Editors")
        assert (code, out) == (2, "")
        assert err == f"oagame: --policy {policy} takes no --policy-player\n"


def test_player_policy_without_player_is_a_usage_error(capsys):
    for policy in ("optimistic", "pessimistic"):
        code, out, err = run(capsys, "payoffs", "--game", "oa.game",
                             "--policy", policy)
        assert (code, out) == (2, "")
        assert err == f"oagame: --policy {policy} needs --policy-player\n"


def test_project_needs_two_distinct_declared_players(capsys):
    for row, col, message in (
            ("Nobody", "Editors", "unknown player 'Nobody'"),
            ("Academics", "Nobody", "unknown player 'Nobody'"),
            ("Editor", "editors", "--row-player and --col-player both name "
                                  "'Editors'")):
        code, out, err = run(capsys, "project", "--game", "oa.game",
                             "--row-player", row, "--col-player", col)
        assert (code, out) == (2, "")
        assert err == f"oagame: {message}\n"


def test_output_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "nodir" / "x.txt"
    code, out, err = run(capsys, "validate", "--game", "oa.game",
                         "--output", str(path))
    assert (code, out) == (2, "")
    assert err == f"oagame: cannot write {path}: No such file or directory\n"


def test_closed_stdout_ends_without_a_traceback():
    """A reader that stops early (``| head -c 10``) closes the pipe while
    the dump is still being written."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "oagame.cli", "enumerate", "--game",
         "oa.game", "--dump", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout.read(10) == b'{\n  "tool"'
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert b"Traceback" not in err, err.decode()


def test_usage_error_exit_2(capsys):
    assert run(capsys, "definitely-not-a-command")[0] == 2
    assert run(capsys, "enumerate")[0] == 2  # --game is required


def test_enumerate_counts_and_comparison(capsys):
    code, out, _ = run(capsys, "enumerate", "--game", "oa.game")
    assert code == 0
    assert "admissible_rows: 17640" in out
    assert "paper_comparison" in out


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--game", "oa.game",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["action_profiles"] == 432
    assert report["row_space"] == 110592
    assert json.loads(json.dumps(report)) == report


def test_enumerate_dump_delimited(capsys):
    code, out, _ = run(capsys, "enumerate", "--game", "oa.game", "--dump",
                       "--format", "delimited")
    assert code == 0
    lines = out.splitlines()
    header = next(ln for ln in lines if ln.startswith("Academics\t"))
    cols = header.split("\t")
    assert cols[:5] == ["Academics", "Administrators", "Funders", "Editors",
                        "Politicians"]
    assert "GU" in cols and "U_Academics" in cols
    assert sum(1 for ln in lines) > 17640


def test_top_bundled(capsys):
    code, out, _ = run(capsys, "top", "--game", "oa.game")
    assert code == 0
    assert "max_global_utility: 8" in out
    assert "row_count: 30" in out


def test_nash_on_table5(capsys):
    code, out, _ = run(capsys, "nash", "--bimatrix", "table5.bmx",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4
    profiles = set()
    for cert in report["equilibria"]:
        strategy = {s["player"]: max(s["probabilities"],
                                     key=s["probabilities"].get)
                    for s in cert["strategies"]}
        profiles.add((strategy["Academics"], strategy["Editors"]))
    assert ("Publish OA", "Grant TA") in profiles


@pytest.mark.parametrize("extra", [
    ("--mode", "strict"), ("--policy", "optimistic"),
    ("--policy-player", "Editors"), ("--fix", "Income=Less")])
def test_nash_bimatrix_rejects_game_options(capsys, extra):
    code, out, err = run(capsys, "nash", "--bimatrix", "table5.bmx", *extra)
    assert code == 2
    assert out == ""
    assert err == f"oagame: --bimatrix takes no {extra[0]}\n"


@pytest.mark.parametrize("cells, message", [
    ("(1,2)", "expected 2 cells in line '(1,2)'"),
    ("(1,2) (x,4)", "bad payoff in line '(1,2) (x,4)'"),
    ("(1/0,2) (3,4)", "bad payoff in line '(1/0,2) (3,4)'"),
    ("(-,2) (3,4)", "bad payoff in line '(-,2) (3,4)'"),
])
def test_malformed_bimatrix_is_a_diagnostic(tmp_path, capsys, cells,
                                            message):
    path = tmp_path / "bad.bmx"
    path.write_text(f"rows: R: r1, r2\ncols: C: c1, c2\n{cells}\n"
                    f"(5,6) (7,8)\n")
    for argv in (("nash",), ("mixed",),
                 ("expected", "--row-mix", "1,0", "--col-mix", "1,0")):
        code, out, err = run(capsys, *argv, "--bimatrix", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"oagame: {path}: {message}")


@pytest.mark.parametrize("header, message", [
    ("rows: R: r1, r2\ncols: R: c1, c2",
     "rows: and cols: both name player 'R'"),
    ("rows: R: r1, r1\ncols: C: c1, c2",
     "header line 'rows: R: r1, r1' needs a player and distinct, non-empty "
     "actions"),
    ("rows: R: r1, r2\ncols: C: c1,,c2",
     "header line 'cols: C: c1,,c2' needs a player and distinct, non-empty "
     "actions"),
    ("rows:  : r1, r2\ncols: C: c1, c2",
     "header line 'rows:  : r1, r2' needs a player and distinct, non-empty "
     "actions"),
], ids=["same-player", "repeated-action", "empty-action", "empty-player"])
def test_malformed_bimatrix_header_is_a_diagnostic(tmp_path, capsys, header,
                                                   message):
    """Repeated names would collapse into one key and give wrong answers
    (or a traceback), so the header is refused instead."""
    path = tmp_path / "bad.bmx"
    path.write_text(f"{header}\n(1,2) (3,4)\n(5,6) (7,8)\n")
    for argv in (("nash",), ("mixed",),
                 ("expected", "--row-mix", "1,0", "--col-mix", "1,0")):
        code, out, err = run(capsys, *argv, "--bimatrix", str(path))
        assert (code, out) == (1, "")
        assert err == f"oagame: {path}: {message}\n"


def test_directory_as_input_is_a_usage_error(tmp_path, capsys):
    for argv in (("validate", "--game"), ("mixed", "--bimatrix")):
        code, out, err = run(capsys, *argv, str(tmp_path))
        assert (code, out) == (2, "")
        assert err == (f"oagame: cannot read {str(tmp_path)!r}: "
                       f"Is a directory\n")


def test_infeasible_bimatrix_cell_reads_back(tmp_path, capsys):
    """A ``(-,-)`` cell, as ``project --format bmx`` writes it, is skipped
    by ``nash`` and refused by the analyses that need every cell."""
    path = tmp_path / "gap.bmx"
    path.write_text("rows: R: r1, r2\ncols: C: c1, c2\n"
                    "(-,-) (3,1)\n(2,2) (1,0)\n")
    code, out, _ = run(capsys, "nash", "--bimatrix", str(path),
                       "--format", "json")
    assert code == 0
    assert [[m["probabilities"] for m in e["strategies"]]
            for e in json.loads(out)["equilibria"]] == [
        [{"r1": 1}, {"c2": 1}], [{"r2": 1}, {"c1": 1}]]
    for argv, what in ((("mixed",), "mixed analysis"),
                       (("expected", "--row-mix", "1,0", "--col-mix", "1,0"),
                        "expected utility")):
        code, out, err = run(capsys, *argv, "--bimatrix", str(path))
        assert (code, out) == (1, "")
        assert err == f"oagame: {what} requires a fully feasible bimatrix\n"


@pytest.mark.parametrize("mix", ["1/0,1", "x,1"])
def test_unreadable_mix_is_a_usage_error(capsys, mix):
    code, out, err = run(capsys, "expected", "--bimatrix", "table5.bmx",
                         "--row-mix", mix, "--col-mix", "1/4,1/4,1/4,1/4")
    assert (code, out) == (2, "")
    assert err == ("oagame: --row-mix: probabilities must be rationals or "
                   "decimals\n")


def _game_scored(score: str) -> str:
    return ('game "g"\nplayer A actions: "a"\n'
            f'variable V owner: A values: Hi={score}, Lo=0\nutility A = V\n')


_TOO_LONG = "oagame: {}a number of more than 4300 digits\n"


# A number whose digits plus exponent pass 4300 would build an int too
# long to print, and ``Fraction("1e40000000")`` would take minutes.
@pytest.mark.parametrize("files, argv, status, err", [
    ({"big.bmx": "rows: R: a\ncols: C: b\n(1e40000000,1)\n"},
     ("nash", "--bimatrix", "big.bmx"), 1,
     _TOO_LONG.format("big.bmx: bad payoff in line '(1e40000000,1)': ")),
    ({"big.bmx": "rows: R: a\ncols: C: b\n(1,1e" + "9" * 5000 + ")\n"},
     ("mixed", "--bimatrix", "big.bmx"), 1, None),
    ({}, ("expected", "--bimatrix", "table6.bmx", "--row-mix",
          "1e-4000000,1", "--col-mix", "1/2,1/2"), 2,
     _TOO_LONG.format("--row-mix: ")),
    ({"big.game": _game_scored("7" * 5000)},
     ("validate", "--game", "big.game"), 1,
     "line 3:1: syntax: a score of variable 'V' is a number of more than "
     "4300 digits\n"),
], ids=["bmx-exponent", "bmx-exponent-digits", "mix", "game-score"])
def test_a_number_past_the_digit_limit_is_refused_at_once(
        tmp_path, monkeypatch, capsys, files, argv, status, err):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, stderr = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (status, "")
    if err is not None:
        assert stderr.startswith(err)
    assert "4300 digits\n" in stderr


def test_a_number_at_the_digit_limit_reads(tmp_path, monkeypatch, capsys):
    (tmp_path / "edge.bmx").write_text("rows: R: a\ncols: C: b\n(1e4299,1)\n",
                                       encoding="utf-8")
    (tmp_path / "edge.game").write_text(_game_scored("7" * 4300),
                                        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "nash", "--bimatrix", "edge.bmx")
    assert (code, str(10 ** 4299) in out) == (0, True)
    assert run(capsys, "validate", "--game", "edge.game")[0] == 0


def test_mix_summing_near_one_is_a_usage_error(capsys):
    code, out, err = run(capsys, "expected", "--bimatrix", "table5.bmx",
                         "--row-mix", "0.5,0.4999999999",
                         "--col-mix", "1,0,0,0")
    assert (code, out) == (2, "")
    assert err == ("oagame: --row-mix: probabilities sum to "
                   "9999999999/10000000000, not 1\n")


def test_structural_error_names_its_line(tmp_path, capsys):
    path = tmp_path / "dup.game"
    path.write_text('game "d"\nplayer A actions: "x", "X"\n'
                    'variable V owner: A values: More=1, Less=0\n'
                    'utility A = V\n')
    code, out, err = run(capsys, "validate", "--game", str(path))
    assert code == 1
    assert out == ""
    assert err == ("line 2:1: resolution: player 'A' has duplicate actions\n"
                   f"oagame: {path}: 1 parse error(s)\n")


@pytest.mark.parametrize("repeated, message", [
    ('game "second"',
     "syntax: second game line (the game is declared on line 1)"),
    ("utility Editors = V",
     "resolution: utility for player 'Editors' declared more than once"),
], ids=["game", "utility"])
def test_a_second_declaration_is_a_diagnostic(tmp_path, capsys, repeated,
                                              message):
    """A second game line or a second utility of one player, here named
    by its alias first, is reported at the repeated line; before, the
    second game line renamed the game and the second utility was ignored."""
    path = tmp_path / "again.game"
    path.write_text('game "first"\n'
                    'player Editors alias Editor actions: "TA", "OA"\n'
                    'variable W owner: Editors values: Hi=2, Lo=1\n'
                    'variable V owner: Editors values: Hi=5, Lo=0\n'
                    f'utility Editor = W\n{repeated}\n')
    for command in ("validate", "payoffs"):
        code, out, err = run(capsys, command, "--game", str(path))
        assert (code, out) == (1, "")
        assert err == (f"line 6:1: {message}\n"
                       f"oagame: {path}: 1 parse error(s)\n")


# Every declaration-line diagnostic, an unknown value as an alias target,
# and an undeclared utility term left by a malformed variable line.
DECLARATION_ERRORS = """game
player A actions: "x", "y"
player B
player C alias "Doc, MD" actions: "p"
variable V owner: A values: Hi=1, Lo, Mid=x valias Top, Up->Hi, Down
variable W owner A
variable X owner: A values: More=1, Less=0 valias Plus->Most
utility A = V
utility B V
bogus declaration
rule if A="x" then X="More".
"""


def test_every_declaration_diagnostic(tmp_path, monkeypatch, capsys):
    (tmp_path / "decl.game").write_text(DECLARATION_ERRORS)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "validate", "--game", "decl.game")
    assert (code, out) == (1, "")
    assert err == (
        "line 1:1: syntax: malformed game line\n"
        "line 3:1: syntax: malformed player line\n"
        "line 5:1: syntax: malformed value 'Lo' (expected Name=int)\n"
        "line 5:1: syntax: malformed value 'Mid=x' (expected Name=int)\n"
        "line 5:1: syntax: malformed value alias 'Top' (expected A->B)\n"
        "line 5:1: syntax: malformed value alias 'Down' (expected A->B)\n"
        "line 6:1: syntax: malformed variable line\n"
        "line 9:1: syntax: malformed utility line\n"
        "line 10:1: syntax: unknown declaration 'bogus'\n"
        "line 7:1: resolution: value alias 'Plus' of 'X' targets unknown "
        "value 'Most'\n"
        "line 8:1: resolution: utility of 'A' sums undeclared variable 'V'\n"
        "oagame: decl.game: 11 parse error(s)\n")


def test_game_without_players_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "empty.game"
    path.write_text("")
    for command in ("validate", "enumerate"):
        code, out, err = run(capsys, command, "--game", str(path))
        assert (code, out) == (1, "")
        assert err == ("line 1:1: resolution: a game declares at least one "
                       f"player\noagame: {path}: 1 parse error(s)\n")


def test_mixed_on_table6(capsys):
    code, out, _ = run(capsys, "mixed", "--bimatrix", "table6.bmx",
                       "--dominance", "weak", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is True
    assert report["surviving_rows"] == ["Publish OA"]
    assert report["surviving_cols"] == ["TA"]
    assert "note" in report


def test_expected_population_split(capsys):
    code, out, _ = run(capsys, "expected", "--bimatrix", "table5.bmx",
                       "--row-mix", "0.8,0.2", "--col-mix", "0,1,0,0",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["expected_utilities"] == {"Academics": 3, "Editors": 1}


def test_project_bmx_output(tmp_path, capsys):
    out_path = tmp_path / "projected.bmx"
    code, _, _ = run(capsys, "project", "--game", "oa.game",
                     "--row-player", "Academics", "--col-player", "Editors",
                     "--format", "bmx", "--output", str(out_path))
    assert code == 0
    from oagame import parse_bimatrix
    table = parse_bimatrix(out_path.read_text())
    assert table.payoff(("Publish TA", "Grant TA")) == (2, 1)


# Battle of the sexes with a third, safe row: its cells are fixed by rules
# alone, so every completion policy gives the same table.
BATTLE_GAME = """game "battle"
player R actions: "o", "f", "s"
player C actions: "o", "f"
variable V owner: R values: Hi=2, Lo=1, No=0
variable W owner: C values: Hi=2, Lo=1, No=0
utility R = V
utility C = W
rule if R="o" and C="o" then V="Hi" and W="Lo"
rule if R="f" and C="f" then V="Lo" and W="Hi"
rule if R="o" and C="f" then V="No" and W="No"
rule if R="f" and C="o" then V="No" and W="No"
rule if R="s" then V="Lo" and W="No"
"""


def test_mixed_on_a_game_table_matches_mixed_on_its_projection(tmp_path,
                                                               capsys):
    from oagame import (CompletionPolicy, derive_payoff_table,
                        mixed_nash_2p, parse_game_spec)
    from oagame.report import certificate_to_obj
    (tmp_path / "battle.game").write_text(BATTLE_GAME, encoding="utf-8")
    bmx = tmp_path / "battle.bmx"
    assert run(capsys, "project", "--game", str(tmp_path / "battle.game"),
               "--row-player", "R", "--col-player", "C", "--format", "bmx",
               "--output", str(bmx))[0] == 0
    code, out, _ = run(capsys, "mixed", "--bimatrix", str(bmx),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    table = derive_payoff_table(parse_game_spec(BATTLE_GAME).game,
                                CompletionPolicy())
    certs, degenerate = mixed_nash_2p(table)
    assert (report["count"], report["degenerate"]) == (len(certs), degenerate)
    assert report["equilibria"] == json.loads(json.dumps(
        [certificate_to_obj(c) for c in certs]))
    assert report["count"] == 3  # the two pure points and the mixed one


def test_project_bmx_refuses_a_header_that_does_not_read_back(tmp_path,
                                                               capsys):
    game = tmp_path / "comma.game"
    game.write_text('game "g"\nplayer R actions: "a", "b"\n'
                    'player C actions: "x, y", "z"\n'
                    'variable V owner: R values: Hi=1, Lo=0\n'
                    'variable W owner: C values: Hi=1, Lo=0\n'
                    'utility R = V\nutility C = W\n')
    out_path = tmp_path / "projected.bmx"
    code, out, err = run(capsys, "project", "--game", str(game),
                         "--row-player", "R", "--col-player", "C",
                         "--format", "bmx", "--output", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("oagame: cannot write the bimatrix of 'R' and 'C' "
                          "as .bmx text: expected 3 cells in line ")
    assert not out_path.exists()


def test_project_refuses_a_column_action_named_like_the_row_player(
        tmp_path, capsys):
    # Each record is keyed by the row player's name and each column action,
    # so the column action 'R' would overwrite the row action.
    game = tmp_path / "clash.game"
    game.write_text('game "g"\nplayer R actions: "a", "b"\n'
                    'player C actions: "R", "z"\n'
                    'variable V owner: R values: Hi=1, Lo=0\n'
                    'utility R = V\nutility C = V\n')
    code, out, err = run(capsys, "project", "--game", str(game),
                         "--row-player", "R", "--col-player", "C",
                         "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("oagame: cannot write the matrix records: column "
                          "action 'R' is also the row player's name")


def test_payoffs_table(capsys):
    code, out, _ = run(capsys, "payoffs", "--game", "oa.game",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["cells"]) == 432
    assert any(not c["feasible"] for c in report["cells"])


def test_reproduce_comparison_block(capsys):
    code, out, _ = run(capsys, "reproduce", "--format", "json")
    assert code == 0
    report = json.loads(out)
    block = {e["claim"]: e for e in report["paper_comparison"]}
    assert block["admissible rows"]["paper"] == 3136
    assert block["admissible rows"]["computed"] == 17640
    assert block["max global utility"]["paper"] == 7
    assert block["max global utility"]["computed"] == 8
    assert block["rows at max global utility"]["paper"] == 26
    assert block["action profiles"]["matches"] is True
    assert block["pure Nash equilibrium"]["matches"] is True
    assert report["status"] == "ok"


def _reproduce_edited(tmp_path, capsys, edit) -> tuple[dict, dict]:
    """(report, {figure: computed} of each golden mismatch) of a reproduce
    run, which must drift, on the bundled game as ``edit`` changes it."""
    path = tmp_path / "edited.game"
    path.write_text(edit(fixtures.fixture_text("oa.game")), encoding="utf-8")
    code, out, err = run(capsys, "reproduce", "--game", str(path),
                         "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["status"] == "drift-from-golden"
    assert len(report["paper_comparison"]) == 7
    return report, {e["figure"]: e["computed"]
                    for e in report["golden_check"] if not e["matches"]}


def test_reproduce_reports_a_missing_projected_cell_as_absent(tmp_path,
                                                              capsys):
    report, drift = _reproduce_edited(
        tmp_path, capsys, lambda text: text.replace("Publish TA", "Publish"))
    label = "projected payoff at (Publish TA, Grant TA)"
    assert drift == {label: "absent"}
    assert [e["computed"] for e in report["paper_comparison"]
            if e["claim"] == label] == ["absent"]


def test_reproduce_reports_the_cell_absent_without_academics(tmp_path,
                                                             capsys):
    # With no player Academics there is nothing to project.
    report, drift = _reproduce_edited(
        tmp_path, capsys, lambda text: text.replace("Academics", "Scholars"))
    label = "projected payoff at (Publish TA, Grant TA)"
    assert drift == {label: "absent"}
    assert report["paper_comparison"][-1]["computed"] == "absent"


def test_reproduce_drifts_without_the_first_rule(tmp_path, capsys):
    def drop_first_rule(text):
        lines = text.splitlines(keepends=True)
        assert lines[29].startswith("rule if Academics=`Publish TA'")
        return "".join(lines[:29] + lines[30:])

    _, drift = _reproduce_edited(tmp_path, capsys, drop_first_rule)
    assert drift == {"admissible rows": 18864,
                     "rows at max global utility": 36,
                     "projected payoff at (Publish TA, Grant TA)": "(4,1)"}


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv("OAGAME_FORMAT", "json")
    code, out, _ = run(capsys, "validate", "--game", "oa.game")
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("env, argv", [
    (None, ("validate", "--game", "oa.game", "--format", "bmx")),
    ("bmx", ("validate", "--game", "oa.game")),
    ("xyz", ("validate", "--game", "oa.game")),
    ("bmx", ("mixed", "--bimatrix", "table6.bmx")),
])
def test_format_the_command_does_not_take_leaves_output_alone(
        tmp_path, capsys, monkeypatch, env, argv):
    """Only ``project`` writes ``bmx``; a format the command does not take,
    given or from $OAGAME_FORMAT, is a usage error raised before --output
    is opened."""
    if env is not None:
        monkeypatch.setenv("OAGAME_FORMAT", env)
    path = tmp_path / "x.txt"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert (code, out) == (2, "")
    fmt = env or "bmx"
    assert f"'{fmt}'" in err
    assert path.read_bytes() == b"kept\n"


def test_non_utf8_input_is_a_usage_error(tmp_path, capsys):
    """The first 200 bytes of a gzip file (its header byte 0x8b is not
    UTF-8) name the file instead of the codec's position."""
    data = gzip.compress(fixtures.fixture_text("oa.game").encode(), mtime=0)
    for argv, name in ((("validate", "--game"), "bin.game"),
                       (("mixed", "--bimatrix"), "bin.bmx")):
        path = tmp_path / name
        path.write_bytes(data[:200])
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == f"oagame: cannot read {str(path)!r}: not UTF-8 text\n"


@pytest.mark.parametrize("args", [
    ("enumerate", "--game", "oa.game"),
    ("nash", "--bimatrix", "table5.bmx"),
])
def test_byte_identical_across_runs_and_workers(capsys, args):
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, *args)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    # There is no --workers option: enumeration runs in one thread.
    code, out, err = run(capsys, *args, "--workers", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --workers 1" in err


def test_fixture_digests_stable():
    # The bundled-fixture detection depends on content digests.
    for name in fixtures.BUNDLED:
        assert len(fixtures.fixture_digest(name)) == 64


# Text with non-ASCII and non-BMP characters among the rest.  No lone
# surrogates: text read as UTF-8 holds none, and neither sha256 encodes
# them.
_DIGEST_TEXT = st.text(st.characters(exclude_categories=("Cs",))
                       | st.sampled_from("\x00é€\u2028\U0001f600"))


@settings(max_examples=300, deadline=None)
@given(_DIGEST_TEXT)
def test_sha256_is_hashlib_sha256(text):
    assert fixtures._sha256.__module__ in ("_sha256", "_sha2")
    assert fixtures.sha256(text) == hashlib.sha256(
        text.encode("utf-8")).hexdigest()


# Prints ``fixtures.sha256`` of each text given on stdin, with the
# interpreter's own sha256 modules hidden, so that it takes ``hashlib``'s.
_HASHLIB_SHA256 = """
import ast, hashlib, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
from oagame import fixtures
assert fixtures._sha256 is hashlib.sha256
print([fixtures.sha256(t) for t in ast.literal_eval(sys.stdin.read())])
"""


@settings(max_examples=5, deadline=None)
@given(st.lists(_DIGEST_TEXT, min_size=20, max_size=20))
def test_sha256_falls_back_to_hashlib(texts):
    proc = subprocess.run(
        [sys.executable, "-c", _HASHLIB_SHA256], input=ascii(texts),
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True)
    assert ast.literal_eval(proc.stdout) == [
        hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]


# sha256 of stdout, taken before rows became index pairs in the engine.
GOLDEN_STDOUT = {
    ("enumerate", "--game", "oa.game", "--dump", "--format", "json"):
        "39826eb05d6c5fa02134d741efa9c01ea2984f84dbea1a4247654915d41a11b9",
    ("enumerate", "--game", "oa.game", "--dump", "--format", "table"):
        "e6507c748bef9fa29ca852ea31809e56240997862e2217481a3dec14af667491",
    ("enumerate", "--game", "oa.game", "--dump", "--format", "delimited"):
        "55401b571dedba7030942890df070cb54e92c94b43b52a40644a777d495649bd",
    ("top", "--game", "oa.game", "--format", "json"):
        "6843a91e265182eea3a08283934020c16706ea4d942019c97f3b19f5cb5217bb",
    ("reproduce", "--format", "json"):
        "568694f3b04e2c249ca14c36e4f6db074ac618a44ea8d0714d12968cce67dfb8",
    # The next three were taken before parsing and validation shared one
    # set of structural checks.
    ("project", "--game", "oa.game", "--row-player", "Academics",
     "--col-player", "Editors", "--format", "json"):
        "afe21418aaf789d0e716472c83231aec09e3c932a905df5f3efae038c06a9a70",
    ("project", "--game", "oa.game", "--row-player", "Academics",
     "--col-player", "Editors", "--format", "table"):
        "6b1acc754ea2a40431e95ee60702eea323b0639f85def06f9b1923d0a83a9e51",
    ("nash", "--game", "oa.game", "--format", "json"):
        "69d07f7941e6c795e9ad41569b2821a2441b0af8d57551fb6a3ae288717fd79c",
    # The next five were taken before row dumps were rendered from the
    # distinct profiles and completions of their rows.
    ("top", "--game", "oa.game", "--format", "table"):
        "b49657ba669ff55bca52e04440eb318a15b0185a79c31d0c8d0a6f151c0e34e6",
    ("top", "--game", "oa.game", "--format", "delimited"):
        "b30930ff879e8356a06309808f98d2509eade56224e396a19bdd92fd41676e04",
    ("enumerate", "--game", "alias.game", "--dump", "--format", "json"):
        "7f6d317ea6d2e060921ccd52531c27a59c580a66df1679e88bced8df48b69c30",
    ("enumerate", "--game", "alias.game", "--dump", "--format", "table"):
        "0e6135a6f29ca7462cbb4c682f6aa42adf4d10d696216a102d43e306cd62ea77",
    ("enumerate", "--game", "alias.game", "--dump", "--format", "delimited"):
        "dbda5e43c1d415f1698e1ea36ddbda5425501f53f7981be997f221b55913249a",
    # The next three were taken before support enumeration solved its
    # indifference systems over integers.
    ("mixed", "--bimatrix", "table5.bmx", "--format", "json"):
        "333e964e959ec8c8bed99044561fe7687303e6b6f641252a75b2d775ce5469cf",
    ("mixed", "--bimatrix", "table6.bmx", "--dominance", "weak",
     "--format", "json"):
        "934fef61bfcda0485aadda837ddd29babd5ac8da4a565484c00c95ce669e9e4c",
    ("mixed", "--bimatrix", "six.bmx", "--format", "json"):
        "e58f43442ef58de14977a6c7a1852137d88d9b27215f376df8562718854b868d",
    # The next nine were taken before the counting commands read their
    # figures off a census instead of a row list.
    ("enumerate", "--game", "oa.game", "--format", "json"):
        "8e0c718985e20c1ed795b798207c9cae19cddac54fbaf0378d86f7f3ede3da1b",
    ("enumerate", "--game", "oa.game", "--format", "table"):
        "268c2f6eb4dbbcbb8a17c4d15ae4b472838c2f4038c4f61e8004a65f9824c924",
    ("enumerate", "--game", "oa.game", "--format", "delimited"):
        "1e51383b9121b824aca3d03a391b6ae6de7322091fb5a6b2e3be38d0171c7830",
    ("enumerate", "--game", "alias.game", "--format", "json"):
        "8b71bf1584f84e1fb020c577cc01ce08f1bfa4a0ef26d63f81341e18338cd668",
    ("enumerate", "--game", "alias.game", "--format", "table"):
        "a7560fbd13d4f0c2c869224496218c25abc14a9518aa3d87c6c441be62d32da8",
    ("enumerate", "--game", "alias.game", "--format", "delimited"):
        "9986d9ad96d1feaeb0dc8c459a5bf831d8f6f66a9fd5a8458a46fd27f90a8519",
    ("top", "--game", "alias.game", "--format", "json"):
        "736c12fdb70ea27dbaf897c862fce13991d55e4fb50fb382873d5cfeb845cf4d",
    ("top", "--game", "alias.game", "--format", "table"):
        "2bcab542d093d478f364f0c6c6c453707f988ac9a6362b286ce6845750102736",
    ("top", "--game", "alias.game", "--format", "delimited"):
        "a0d5f20391cd90bd296890b4eaf6d34d26b07e8e4fed9b5aa6c69d27d2dd3e98",
    # The next seven were taken before policy picks read the profile
    # block's optimum instead of scanning every completion.
    ("payoffs", "--game", "oa.game", "--format", "json"):
        "1f2446304bd2a14b12b873cea8d7fddda8cf8d64646b60a363dac479591613af",
    ("payoffs", "--game", "oa.game", "--policy", "optimistic",
     "--policy-player", "Editors", "--format", "json"):
        "3e58473925813fbc9eb92a935dd3b89e440097d1dc77cd12c2d8eea6114066ed",
    ("payoffs", "--game", "oa.game", "--policy", "pessimistic",
     "--policy-player", "Editors", "--format", "json"):
        "b1de17b9378cd3aafd8d448d9c18043f7cd1fb52ddf49a982fc2ff171c1021d9",
    ("payoffs", "--game", "oa.game", "--policy", "fixed",
     "--fix", "Editors=Grant OA", "--format", "json"):
        "fa303a993ab8196e49d6f6ae04a7032f6234ef23b2972948288d021f4685ebbe",
    ("payoffs", "--game", "oa.game", "--policy", "fixed",
     "--fix", "Income=Less", "--fix", "Academics=Perish", "--format", "json"):
        "2e305d8aa76a5cbf053ba4a67c7edb384d4ac0d79686613e8b0fdd37fe49f159",
    ("payoffs", "--game", "alias.game", "--policy", "optimistic",
     "--policy-player", "Doc", "--format", "json"):
        "03c8b93415f8c9bf1cc31b6e7b83b7edde653305a880c0dd6f400141ae9ab8e7",
    ("project", "--game", "oa.game", "--row-player", "Academics",
     "--col-player", "Editors", "--policy", "pessimistic",
     "--policy-player", "Editors", "--format", "json"):
        "cbd24945de207603166159f6f13ee77f8511feb3f194b251ac72bb061bb5fed0",
    # The next four were taken before name lookups, declaration lines and
    # payoff-pair text were each written once.
    ("validate", "--game", "oa.game", "--format", "json"):
        "070dd6d9c30ca161358cd99ef163341b91754c0e8f21cb4e7870cf97551341ee",
    ("validate", "--game", "alias.game", "--format", "json"):
        "185e19d3c5e61184f1320f9aa023cb13de7a7e432fbe9784399edd7e9313a6d8",
    ("project", "--game", "oa.game", "--row-player", "Academics",
     "--col-player", "Editors", "--format", "bmx"):
        "bebc52f6fa89adf90c5be2decfe7b7217aee1f8cc7491c64973dbc4f634b9b5a",
    ("payoffs", "--game", "alias.game", "--policy", "fixed",
     "--fix", "V=top", "--format", "json"):
        "dba92946eab559f979d2db927ba5765758347626b5133b96cd6e525f65113f42",
    # The next five were taken before dominance read the payoff table by
    # stride.
    ("mixed", "--bimatrix", "table5.bmx", "--dominance", "strict",
     "--format", "json"):
        "e28d95a4616af1bfdb27bd2b4cb0eb4335f85118f5ad97f984b1efcb4e6ffc79",
    ("mixed", "--bimatrix", "table6.bmx", "--dominance", "strict",
     "--format", "json"):
        "6b8581ee74b9e09fecc5965d1752e3c0c0849a44e131047aaf6c4d69c62b8ac2",
    ("mixed", "--bimatrix", "six.bmx", "--dominance", "strict",
     "--format", "json"):
        "1cf7660ec6be5df40f600df94110f589cfefd01127ee6c1da6d140eb25106e7e",
    ("mixed", "--bimatrix", "table5.bmx", "--dominance", "weak",
     "--format", "json"):
        "5c0ef1991a8862b1f462a4d6a3f53c9e60fc08146aa516c38a833e6de196841f",
    ("mixed", "--bimatrix", "six.bmx", "--dominance", "weak",
     "--format", "json"):
        "1cf7660ec6be5df40f600df94110f589cfefd01127ee6c1da6d140eb25106e7e",
    # The next ten were taken before each report layout and each paper
    # figure was written once.
    ("reproduce", "--format", "table"):
        "686eb0c12a86e0556e5b92288562c84ef090c0aad6bb3bca81ef74a6b5b4cd8a",
    ("reproduce", "--format", "delimited"):
        "d37caa0298163f1311be10f49c24733c66b41c8f18bfdaaaba3b9be19beb4721",
    ("nash", "--bimatrix", "table5.bmx", "--format", "json"):
        "745857f2137e86e1e6075640267683288cb8a36b5c85405795f8ad3cc8b34828",
    ("nash", "--bimatrix", "table5.bmx", "--format", "table"):
        "a023ccfbdcbba5dafddc1e2eeb7ca54f1d9cfe806a0918068da38d9c3532d124",
    ("validate", "--game", "oa.game", "--format", "table"):
        "445ecb6c93797c3b5a8e54e1b7e36a6899b0ea7c048401339b8fb440b6e6d623",
    ("payoffs", "--game", "oa.game", "--format", "table"):
        "ef0494b53f94b4db3fba29153a6a7daab44b558312cfac23e3b35c2b2c8c97ab",
    ("payoffs", "--game", "oa.game", "--format", "delimited"):
        "8473cfd86fb755b591c0eece7d911477bc6744e6525b2fb74027f60e64b9c369",
    ("mixed", "--bimatrix", "six.bmx", "--dominance", "weak",
     "--format", "table"):
        "628c7685d698114d72cab2a9380513f64575bee0f0cb4f2647d6d76ed9b19d59",
    ("mixed", "--bimatrix", "six.bmx", "--dominance", "weak",
     "--format", "delimited"):
        "26abff7016ad821c80810495c85e0697e3b48adc99ce17d83d44ba26dff89559",
    ("project", "--game", "oa.game", "--row-player", "Academics",
     "--col-player", "Editors", "--format", "delimited"):
        "5d970e62f9f77d231b1b551cc6eb77998401ef30d31523a90bc11199043b079a",
    # The next three were taken before a bimatrix became a two-player
    # payoff table: a mix over both actions, one that puts zero on an
    # action, and fractional payoffs.
    ("expected", "--bimatrix", "table6.bmx", "--row-mix", "1/5,4/5",
     "--col-mix", "1/3,2/3"):
        "1e4df66c6ab3c5109063432af112b21b257bcacde80ce5d777dc8c2db0cd3a04",
    ("expected", "--bimatrix", "table6.bmx", "--row-mix", "1,0",
     "--col-mix", "0,1"):
        "f42e76120a78a5db4c7fccb9a9d24f00053ff38456d0b17245b8d7c32e7b3fd4",
    ("expected", "--bimatrix", "six.bmx", "--row-mix",
     "1/6,1/6,1/6,1/6,1/6,1/6", "--col-mix", "1/2,0,1/4,0,1/8,1/8"):
        "b740788b2ad14ebdc0b1c8cd7fad77d7a88b0187f59cd5d2b617de75ac8ec05e",
    # The next two were taken before support enumeration read its
    # indifference systems off minors shared between support pairs.
    ("mixed", "--bimatrix", "seven.bmx", "--dominance", "weak",
     "--format", "json"):
        "39ae163027577c0432e4777b23835421ae07604ff0743e99175a926fe9336007",
    ("mixed", "--bimatrix", "eight.bmx", "--format", "json"):
        "f4f4026eb3ccc6d8b5d95f5de8cdc1d8c8c46bdc143bdeeba445e098572c1009",
    # The next three were taken before projection reduced the payoff
    # table's per-block picks: the players in reverse declaration order, a
    # pair without Academics under a policy named by alias, and a fixed
    # policy.
    ("project", "--game", "oa.game", "--row-player", "Editors",
     "--col-player", "Academics", "--format", "json"):
        "9aef0dc011de2079ea182462cbab7c06db448e2970299fd34f03fa7f97f29a9c",
    ("project", "--game", "oa.game", "--row-player", "Funders",
     "--col-player", "Politicians", "--policy", "optimistic",
     "--policy-player", "Funder", "--format", "json"):
        "455f743fdbd7ce9a31f3582fe55cd12b9fa5074331dffa9a7ef40961fe8333a6",
    ("project", "--game", "oa.game", "--row-player", "Politicians",
     "--col-player", "Academics", "--policy", "fixed",
     "--fix", "Editors=Grant OA", "--format", "json"):
        "f0401389984e964022eb842e20e2993ca39780ede9751f7d9e67f4226b5bf86b",
}

# A value alias, negative scores, a non-ASCII player and action name, and
# last columns of unequal widths.
ALIAS_GAME = """game "alias"
player \u00c4rzte alias Doc actions: "Caf\u00e9", "Tee"
player B actions: "b1", "b2", "b3"
variable V owner: \u00c4rzte values: Hi=2, Lo=-1 valias Top->Hi
variable W owner: B values: Yes=1, No=-3
utility Doc = V
utility B = W + V
rule if Doc="Caf\u00e9" then V="Top"
rule if B="b3" then W="No", otherwise W="Yes"
"""


# Ties, negative and fractional payoffs: four pure and six mixed
# equilibria, one of them degenerate.
SIX_BMX = """rows: Row: r1, r2, r3, r4, r5, r6
cols: Col: c1, c2, c3, c4, c5, c6
(3,1) (0,2) (1/2,0) (2,-1) (1,1) (0,0)
(0,2) (3,1) (1,1/3) (-1,2) (1,0) (2,1/2)
(1,0) (1,1) (2,2) (0,-3/2) (1,1) (-2,0)
(2,-1) (-1,0) (0,2) (5/2,5/2) (0,1) (1,1)
(1,1) (1,0) (1,1) (0,1) (1,1) (1,0)
(-1/3,0) (2,1/2) (-2,0) (1,1) (0,1) (3,3)
"""

# Payoffs 0, 1 and 2 only: twelve equilibria with supports of up to four
# actions, all degenerate, and six weak eliminations.
SEVEN_BMX = """rows: Row: r1, r2, r3, r4, r5, r6, r7
cols: Col: c1, c2, c3, c4, c5, c6, c7
(0,1) (0,1) (0,2) (2,2) (1,0) (0,1) (2,0)
(0,1) (2,2) (2,0) (1,1) (0,1) (0,2) (1,1)
(0,2) (1,1) (2,1) (0,2) (2,0) (2,1) (2,2)
(1,1) (2,1) (0,2) (2,0) (0,1) (2,2) (1,2)
(1,2) (1,2) (0,2) (0,1) (0,2) (2,2) (2,1)
(2,0) (2,0) (0,1) (2,1) (1,0) (2,1) (1,1)
(1,0) (0,0) (1,2) (1,0) (2,1) (2,0) (0,0)
"""

# At the support limit, with negative and fractional payoffs: nine
# equilibria with supports of two to five actions, one of them degenerate.
EIGHT_BMX = """rows: Row: r1, r2, r3, r4, r5, r6, r7, r8
cols: Col: c1, c2, c3, c4, c5, c6, c7, c8
(1/2,3) (3/2,7) (2,5) (0,3) (1/2,1) (7,4) (-2,3/2) (-1,2)
(0,0) (1/2,0) (4,5) (1/2,-1) (2,4) (6,7) (-2,3/2) (3,7)
(3,3/2) (3,6) (2,3) (3,4) (5,5) (1/2,1/2) (2,1) (-1,0)
(3,3/2) (1/2,4) (-2,1) (7,4) (1,6) (4,-1) (2,4) (3,7)
(2,4) (7,1/2) (-1,3/2) (6,1/2) (1,-2) (-1,1) (-1,3/2) (2,1/2)
(5,1) (2,-2) (-1,2) (6,1) (-2,2) (3/2,1) (1/2,7) (7,2)
(-1,0) (3,6) (6,2) (4,-1) (1/2,0) (5,6) (0,-2) (5,1/2)
(-1,0) (4,1) (-2,-1) (3,-2) (7,2) (1/2,3/2) (0,0) (5,5)
"""


@pytest.mark.parametrize("args", list(GOLDEN_STDOUT))
def test_golden_stdout_bytes(tmp_path, monkeypatch, capsys, args):
    (tmp_path / "alias.game").write_text(ALIAS_GAME, encoding="utf-8")
    for name, text in (("six.bmx", SIX_BMX), ("seven.bmx", SEVEN_BMX),
                       ("eight.bmx", EIGHT_BMX)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the report names its input path
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        GOLDEN_STDOUT[args]


# The command shapes the benchmark's workloads run (perfbench/workloads.py)
# that GOLDEN_STDOUT does not hold, then usage errors and help requests.
PARSER_CORPUS = [
    *GOLDEN_STDOUT,
    ("validate", "--game", "count0.game"),
    ("enumerate", "--game", "count0.game"),
    ("top", "--game", "count0.game"),
    ("enumerate", "--game", "dump.game", "--dump", "--format", "json"),
    ("payoffs", "--game", "oa.game"),
    ("payoffs", "--game", "oa.game", "--policy", "pessimistic",
     "--policy-player", "Administrators"),
    ("payoffs", "--game", "oa.game", "--policy", "fixed", "--fix",
     "Funders=Demand OA publications"),
    ("project", "--game", "oa.game", "--row-player", "Funders",
     "--col-player", "Administrators", "--format", "delimited"),
    ("nash", "--bimatrix", "bm0.bmx", "--format", "json"),
    ("mixed", "--bimatrix", "bm0.bmx", "--dominance", "weak", "--format",
     "json"),
    ("expected", "--bimatrix", "table6.bmx", "--row-mix", "1/5,4/5",
     "--col-mix", "1/8,7/8"),
    ("reproduce",),
    (), ("bogus",), ("--help",), ("-h", "validate"),
    *((name, "--help") for name in ("validate", "enumerate", "top",
                                     "payoffs", "project", "nash", "mixed",
                                     "expected", "reproduce")),
    ("enumerate",),
    ("enumerate", "--game", "oa.game", "--bogus"),
    ("mixed", "--bimatrix", "table6.bmx", "--dominance", "maybe"),
    ("nash", "--game", "x", "--bimatrix", "y"),
]


def _parsed(capsys, parser, argv):
    """(the namespace's fields or the exit code, stdout, stderr)."""
    try:
        result = vars(parser.parse_args(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("env", [None, "bmx"])
def test_one_subcommand_parser_parses_as_the_full_one(monkeypatch, capsys,
                                                      env):
    """``run_cli`` builds only the parser of the subcommand its first
    argument names.  Each argv parses with it as with all nine built:
    the same fields, or the same exit code, stdout and stderr.  The
    default format comes from $OAGAME_FORMAT, and argparse does not check
    it against the choices (``run_cli`` does, after parsing)."""
    from oagame import cli
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at this width
    if env is not None:
        monkeypatch.setenv("OAGAME_FORMAT", env)
    for argv in PARSER_CORPUS:
        lean = cli.build_parser(argv[0] if argv else None)
        assert _parsed(capsys, lean, argv) == \
            _parsed(capsys, cli.build_parser(), argv), argv
    # The oracle names the subcommand argument "command" in its errors.
    assert _parsed(capsys, cli.build_parser(), ())[2].endswith(
        "the following arguments are required: command\n")
    assert "argument command: invalid choice: 'bogus'" in _parsed(
        capsys, cli.build_parser(), ("bogus",))[2]


# Every subcommand's parser as argparse holds it, with $OAGAME_FORMAT unset:
# each action as (option strings, dest, default, required, choices, help,
# metavar, action class), in order.  Read off the objects rather than the
# rendered help, which differs between Python versions.
_HELP = (["-h", "--help"], "help", "==SUPPRESS==", False, None,
         "show this help message and exit", None, "_HelpAction")
_GAME = (["--game"], "game", None, True, None, "path to a .game file (the "
         "bundled name 'oa.game' also resolves)", None, "_StoreAction")
_MODE = (["--mode"], "mode", "strict", False, ["strict", "lenient"],
         "rule-binding mode (default: strict)", None, "_StoreAction")
_POLICY = [
    (["--policy"], "policy", None, False,
     ["max-gu", "max-global-utility", "optimistic", "pessimistic", "fixed"],
     "completion policy (default: max-gu)", None, "_StoreAction"),
    (["--policy-player"], "policy_player", None, False, None,
     "player for optimistic/pessimistic policies", None, "_StoreAction"),
    (["--fix"], "fix", [], False, None, "fixed-policy fragment (repeatable)",
     "NAME=VALUE", "_AppendAction"),
]
_FORMATS = ("table", "delimited", "json")


def _common(formats=_FORMATS):
    return [(["--format"], "format", "table", False, formats,
             "output format (default from $OAGAME_FORMAT or 'table')", None,
             "_StoreAction"),
            (["--output", "-o"], "output", None, False, None,
             "output path (default: stdout)", None, "_StoreAction")]


def _plain(*flags, required=True, default=None):
    return [([f], f[2:].replace("-", "_"), default, required, None, None,
             None, "_StoreAction") for f in flags]


# Subcommand -> (its help, its defaults, its actions, its mutually
# exclusive groups as (dests, required)).
PARSER_DEFINITION = {
    "validate": ("parse and validate a game file", {"formats": _FORMATS},
                 [_HELP, _GAME, _MODE, *_common()], []),
    "enumerate": ("admissible-row counts and optional row dump",
                  {"formats": _FORMATS},
                  [_HELP, _GAME, _MODE,
                   (["--dump"], "dump", False, False, None,
                    "include the rows", None, "_StoreTrueAction"),
                   *_common()], []),
    "top": ("rows attaining the maximum global utility",
            {"formats": _FORMATS}, [_HELP, _GAME, _MODE, *_common()], []),
    "payoffs": ("derive the full payoff table", {"formats": _FORMATS},
                [_HELP, _GAME, _MODE, *_POLICY, *_common()], []),
    "project": ("project a two-player bimatrix",
                {"formats": _FORMATS + ("bmx",)},
                [_HELP, _GAME, _MODE,
                 *_plain("--row-player", "--col-player"), *_POLICY,
                 *_common(_FORMATS + ("bmx",))], []),
    "nash": ("pure Nash equilibria of a game table or a bimatrix file",
             {"formats": _FORMATS},
             [_HELP, *_plain("--game", required=False),
              (["--bimatrix"], "bimatrix", None, False, None,
               "path to a .bmx file (bundled names "
               "'table5.bmx'/'table6.bmx' also resolve)", None,
               "_StoreAction"),
              (["--mode"], "mode", None, False, ["strict", "lenient"],
               "rule-binding mode for --game (default: strict)", None,
               "_StoreAction"),
              *_POLICY, *_common()],
             [(["game", "bimatrix"], True)]),
    "mixed": ("all 2-player equilibria by support enumeration",
              {"formats": _FORMATS},
              [_HELP, *_plain("--bimatrix"),
               (["--dominance"], "dominance", None, False, ["strict", "weak"],
                "also run iterated dominance elimination", None,
                "_StoreAction"),
               *_common()], []),
    "expected": ("expected utilities under given mixtures",
                 {"formats": _FORMATS},
                 [_HELP, *_plain("--bimatrix"),
                  (["--row-mix"], "row_mix", None, True, None,
                   "comma-separated probabilities, row actions in order",
                   None, "_StoreAction"),
                  *_plain("--col-mix"), *_common()], []),
    "reproduce": ("full pipeline on the bundled fixtures with a "
                  "paper-vs-computed comparison", {"formats": _FORMATS},
                  [_HELP, *_plain("--game", required=False, default="oa.game"),
                   *_plain("--bimatrix", required=False,
                           default="table5.bmx"),
                   (["--mode"], "mode", "strict", False, ["strict", "lenient"],
                    None, None, "_StoreAction"),
                   *_common()], []),
}


def test_every_subcommand_parser_keeps_its_definition(monkeypatch):
    """Each subcommand's parser, built alone, holds the options, defaults,
    help texts and groups pinned above, and lists all nine subcommands in
    its usage; the full parser names its subcommand argument "command"."""
    from oagame import cli
    monkeypatch.delenv("OAGAME_FORMAT", raising=False)
    assert list(cli._SUBCOMMANDS) == list(PARSER_DEFINITION)
    for name, (help_text, defaults, actions, groups) in \
            PARSER_DEFINITION.items():
        top, = cli.build_parser(name)._subparsers._group_actions
        assert top.metavar == "{" + ",".join(PARSER_DEFINITION) + "}"
        assert [(a.dest, a.help) for a in top._choices_actions] == \
            [(name, help_text)]
        sub = top.choices[name]
        assert sub._defaults == defaults, name
        assert [(a.option_strings, a.dest, a.default, a.required, a.choices,
                 a.help, a.metavar, type(a).__name__)
                for a in sub._actions] == actions, name
        assert [([a.dest for a in g._group_actions], g.required)
                for g in sub._mutually_exclusive_groups] == groups, name
    top, = cli.build_parser()._subparsers._group_actions
    assert (top.metavar, list(top.choices)) == (None, list(PARSER_DEFINITION))


# The vocabulary of the differential test below, from the pinned
# definition: every flag, exact, abbreviated, joined to a value with "=" or
# in short form, and values that are choices, free text or start with "-".
_ACTIONS = [a for _, _, actions, _ in PARSER_DEFINITION.values()
            for a in actions]
_LONG_FLAGS = sorted({f for a in _ACTIONS for f in a[0] if f[1] == "-"})
_CHOICES = sorted({c for a in _ACTIONS for c in a[4] or ()})
_VALUE = st.one_of(
    st.sampled_from(_CHOICES + ["oa.game", "table6.bmx", "", "nash"]),
    st.text(max_size=4),
    st.text(max_size=4).map("-".__add__))
_TOKEN = st.one_of(
    st.sampled_from(sorted({f for a in _ACTIONS for f in a[0]})
                    + ["--", "-"]),
    st.sampled_from(_LONG_FLAGS).flatmap(
        lambda flag: st.integers(3, len(flag) - 1).map(
            lambda k: flag[:k])),
    st.builds("{}={}".format, st.sampled_from(_LONG_FLAGS), _VALUE),
    _VALUE)


def _part(action):
    """One option of a subcommand: its flag or short form, and a value,
    among its choices or any option's when it has them."""
    flags, _, _, _, choices, _, _, kind = action
    if kind == "_StoreTrueAction":
        return st.tuples(st.sampled_from(flags))
    return st.tuples(st.sampled_from(flags), st.sampled_from(
        choices or ["oa.game", "table6.bmx", "1/2,1/2", "a b", ""])
        | st.sampled_from(_CHOICES if choices else ["x"]))


def _command_line(name, parts, loose):
    """``name`` then the parts' tokens, each loose (index, token) inserted
    at its index."""
    tokens = [t for part in parts for t in part]
    for index, token in loose:
        tokens.insert(index, token)
    return [name, *tokens]


# A subcommand's own options, each with a value, with up to two loose
# tokens among them; or loose tokens after an unknown subcommand.
_ARGV = st.one_of(
    *(st.builds(_command_line, st.just(name),
                st.lists(st.one_of(*map(_part, actions[1:])), max_size=7),
                st.lists(st.tuples(st.integers(0, 14), _TOKEN), max_size=2))
      for name, (_, _, actions, _) in PARSER_DEFINITION.items()),
    st.lists(_TOKEN, max_size=4).map(lambda tokens: ["bogus", *tokens]))


@pytest.mark.parametrize("env", [None, "json", "bmx"])
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
def test_the_direct_reader_agrees_with_argparse(monkeypatch, env, argv):
    """Whenever ``_read_args`` reads a command line, the argparse parser
    built from the same table parses it into the same fields."""
    from oagame import cli
    if env is None:
        monkeypatch.delenv("OAGAME_FORMAT", raising=False)
    else:
        monkeypatch.setenv("OAGAME_FORMAT", env)
    args = cli._read_args(argv)
    if args is not None:
        parsed = cli.build_parser(argv[0]).parse_args(argv)
        assert vars(args) == vars(parsed)
        assert args.format in args.formats


@pytest.mark.parametrize("env", [None, "json", "bmx"])
def test_the_direct_reader_reads_every_well_formed_corpus_line(
        monkeypatch, capsys, env):
    """``_read_args`` reads each corpus line that argparse parses with a
    format the subcommand takes, and no other; every golden command line,
    with $OAGAME_FORMAT unset, is read without argparse."""
    from oagame import cli
    monkeypatch.delenv("OAGAME_FORMAT", raising=False)
    assert all(cli._read_args(list(argv)) for argv in GOLDEN_STDOUT)
    if env is not None:
        monkeypatch.setenv("OAGAME_FORMAT", env)
    for argv in PARSER_CORPUS:
        fields = _parsed(capsys, cli.build_parser(argv[0] if argv else None),
                         argv)[0]
        if isinstance(fields, int) or fields["format"] not in \
                fields["formats"]:
            fields = None
        args = cli._read_args(list(argv))
        assert (args and vars(args)) == fields, argv


def test_empty_dump_bytes(tmp_path, capsys):
    """Rules forcing V=Hi and V=Lo on every profile leave no rows."""
    path = tmp_path / "empty.game"
    path.write_text('game "e"\nplayer A actions: "a1", "a2"\n'
                    'variable V owner: A values: Hi=1, Lo=0\n'
                    'utility A = V\n'
                    'rule if A="a1" then V="Hi", otherwise V="Hi"\n'
                    'rule if A="a1" then V="Lo", otherwise V="Lo"\n')
    for argv in (("enumerate", "--dump"), ("top",)):
        for fmt, tail in (("table", "\nrows: \n"),
                          ("delimited", "\nrows\t[]\n"),
                          ("json", '\n  "rows": []\n}\n')):
            code, out, _ = run(capsys, *argv, "--game", str(path),
                               "--format", fmt)
            assert code == 0
            assert out.endswith(tail)


def test_dump_to_output_file_matches_stdout(tmp_path, capsys):
    for fmt in ("json", "table", "delimited"):
        args = ("enumerate", "--game", "oa.game", "--dump", "--format", fmt)
        path = tmp_path / f"dump.{fmt}"
        code, out, _ = run(capsys, *args)
        assert run(capsys, *args, "--output", str(path)) == (0, "", "")
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")


# Runs the command given as its arguments as a child process, output
# discarded, and prints the child's peak RSS in KiB.  A child's ru_maxrss
# starts from the RSS of the process that forked it, so each command is
# spawned from this small helper rather than from the test process.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_dump_memory_stays_near_the_plain_run():
    """The JSON row dump of oa.game is written in chunks, so its peak RSS
    stays within 16 MiB of the run without --dump."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def peak_kib(*args):
        cmd = [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m",
               "oagame.cli", "enumerate", "--game", "oa.game", *args]
        return int(subprocess.run(cmd, env=env, capture_output=True,
                                  check=True).stdout)

    plain = peak_kib()
    dump = peak_kib("--dump", "--format", "json")
    assert dump - plain <= 16 * 1024, (plain, dump)


def _wide_game(score: int) -> str:
    """Four players of four actions and 22 two-valued variables, a row
    space of 256 * 2**22 (over 10**9).  Four rules force one variable each
    in every profile and two deferred rules couple four more, so tens of
    millions of rows are admissible.  ``Hi`` scores ``score`` and ``Lo``
    0: with ``score`` 0 every admissible row is at the max."""
    lines = ['game "wide"']
    lines += [f'player P{i} actions: ' + ", ".join(f'"a{j}"' for j in range(4))
              for i in range(4)]
    lines += [f"variable V{v} owner: P{v % 4} values: Hi={score}, Lo=0"
              for v in range(22)]
    lines += [f"utility P{i} = " + " + ".join(f"V{v}" for v in range(i, 22, 4))
              for i in range(4)]
    lines += [f'rule if P{i}="a{i}" then V{i}="Hi", otherwise V{i}="Lo"'
              for i in range(4)]
    lines += ['rule if V4="Hi" then V5="Lo"',
              'rule if P1="a2" and V6="Lo" then V7="Hi"']
    return "\n".join(lines) + "\n"


def test_wide_game_counts_without_rows_and_dump_is_refused(tmp_path, capsys):
    path = tmp_path / "wide.game"
    path.write_text(_wide_game(1))
    start = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", "--game", str(path),
                       "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)
    assert report["row_space"] == 256 * 2**22
    # Per profile: 2**14 free completions, 3 of the 4 values of (V4, V5),
    # and 3 of the 4 of (V6, V7) where P1 plays a2, else all 4.
    count = report["admissible_rows"]
    assert count == 2**14 * 3 * (64 * 3 + 192 * 4)
    # Only (a0, a1, a2, a3) forces V0..V3 to Hi; there V6 and V7 are free
    # too and V4, V5 have two best values.
    assert (report["max_global_utility"],
            report["max_global_utility_rows"]) == (21, 2)
    code, out, err = run(capsys, "top", "--game", str(path), "--format",
                         "json")
    assert code == 0
    assert json.loads(out)["row_count"] == 2
    code, out, err = run(capsys, "enumerate", "--game", str(path), "--dump")
    assert (code, out) == (1, "")
    assert err == (f"oagame: {count} admissible rows exceed the row budget "
                   f"of 1000000\n")


def test_top_beyond_the_row_budget_is_refused(tmp_path, capsys):
    path = tmp_path / "tied.game"
    path.write_text(_wide_game(0))
    code, out, err = run(capsys, "top", "--game", str(path))
    assert (code, out) == (1, "")
    count = 2**14 * 3 * (64 * 3 + 192 * 4)  # as in the test above
    assert err == (f"oagame: {count} rows at max global utility exceed the "
                   f"row budget of 1000000\n")


def _cli_json(cwd, *argv):
    """stdout of ``python -m oagame.cli`` as JSON, in a child process that
    is killed after 20 s so that a slow command fails instead of hanging."""
    proc = subprocess.run(
        [sys.executable, "-m", "oagame.cli", *argv, "--format", "json"],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def test_policy_commands_on_the_wide_game(tmp_path):
    """Policy picks on a 1.07e9-row game read each profile's optimum and
    never walk its tens of millions of admissible completions."""
    (tmp_path / "wide.game").write_text(_wide_game(1))
    game = ("--game", "wide.game")
    first = _cli_json(tmp_path, "top", *game)["rows"][0]
    players = [f"P{i}" for i in range(4)]
    best = [first[f"U_{p}"] for p in players]
    assert best == [6, 5, 5, 5]
    # Pessimistic P0 sets P0's free variables (V4, V8, ..., V20) to Lo,
    # which frees V5 to be Hi.
    for policy, cell in ((("--policy", "max-gu"), best),
                         (("--policy", "optimistic", "--policy-player", "P0"),
                          best),
                         (("--policy", "pessimistic", "--policy-player",
                           "P0"), [1, 6, 5, 5]),
                         (("--policy", "fixed", "--fix", "P0=a0",
                           "--fix", "V4=Hi"), best)):
        cells = {tuple(c[p] for p in players): c
                 for c in _cli_json(tmp_path, "payoffs", *game,
                                    *policy)["cells"]}
        assert len(cells) == 256
        at = cells[("a0", "a1", "a2", "a3")]
        assert at["feasible"]
        assert [at[f"U_{p}"] for p in players] == cell
    matrix = _cli_json(tmp_path, "project", *game, "--row-player", "P0",
                       "--col-player", "P1")["matrix"]
    assert matrix[0]["a1"] == "(6,5)"
    assert _cli_json(tmp_path, "nash", *game)["count"] >= 0


def test_policy_player_without_utility_on_an_empty_game(tmp_path, capsys):
    """With no admissible row the policy's utility is never needed, so a
    player without a utility line still gets an all-infeasible table."""
    path = tmp_path / "empty.game"
    path.write_text('game "e"\nplayer A actions: "a1", "a2"\n'
                    'player B actions: "b1"\n'
                    'variable V owner: A values: Hi=1, Lo=0\n'
                    'utility A = V\n'
                    'rule if B="b1" then V="Hi", otherwise V="Hi"\n'
                    'rule if B="b1" then V="Lo", otherwise V="Lo"\n')
    for policy in ("optimistic", "pessimistic"):
        code, out, err = run(capsys, "payoffs", "--game", str(path),
                             "--policy", policy, "--policy-player", "B",
                             "--format", "json")
        assert (code, err) == (0, "")
        cells = json.loads(out)["cells"]
        assert len(cells) == 2
        assert not any(c["feasible"] for c in cells)
