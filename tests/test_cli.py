import json

import pytest

from oagame.cli import run_cli
from oagame import fixtures


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
    bm = parse_bimatrix(out_path.read_text())
    assert bm.payoffs[0][0] == (2, 1)  # (Publish TA, Grant TA)


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


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv("OAGAME_FORMAT", "json")
    code, out, _ = run(capsys, "validate", "--game", "oa.game")
    assert code == 0
    json.loads(out)


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
    if args[0] == "enumerate":
        for workers in ("1", "4"):
            code, out, _ = run(capsys, *args, "--workers", workers)
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


def test_fixture_digests_stable():
    # The bundled-fixture detection depends on content digests.
    for name in fixtures.BUNDLED:
        assert len(fixtures.fixture_digest(name)) == 64
