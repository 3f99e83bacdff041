"""The package's public names and the modules each CLI command loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oagame

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package exports, by defining module.
EXPORTED = {
    "model": (
        "ACTION", "OUTCOME", "Atom", "GameError", "GameSpec",
        "MissingUtilityError", "NameResolutionError", "OutcomeVarDef",
        "PlayerDef", "Rule", "UtilityDef", "PayoffTable"),
    "dsl": (
        "Diagnostic", "ParseError", "ParseResult", "SourceSpan",
        "ValidatedGame", "parse_game_spec", "parse_rule", "serialize_game",
        "validate_game"),
    "engine": (
        "CompiledGame", "CompletionPolicy", "EnumerationReport",
        "RowBudgetError", "admissible_rows", "chosen_completions",
        "compile_game", "derive_payoff_table", "enumeration_report",
        "top_gu_rows"),
    "equilibrium": (
        "Bimatrix", "DominanceResult", "EquilibriumCertificate",
        "InfeasibleSliceError", "MixedStrategy", "best_responses",
        "dominance_analysis", "expected_utility", "mixed_nash_2p",
        "parse_bimatrix", "project_bimatrix", "pure_nash",
        "serialize_bimatrix"),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTED.items() for name in names])
def test_exported_name_resolves_to_its_definition(module, name):
    defining = importlib.import_module(f"oagame.{module}")
    namespace = {}
    exec(f"from oagame import {name}", namespace)
    assert getattr(oagame, name) is getattr(defining, name)
    assert namespace[name] is getattr(defining, name)
    assert name in oagame.__all__


def test_public_api_keeps_its_names():
    import oagame.engine
    assert sorted(oagame.__all__) == sorted(
        name for names in EXPORTED.values() for name in names)
    assert oagame.PayoffTable is oagame.engine.PayoffTable
    with pytest.raises(AttributeError, match="no_such_name"):
        oagame.no_such_name


# Runs the CLI on its arguments in a fresh interpreter, output discarded,
# and prints the exit status, the package modules it loaded and the
# modules it added to those the interpreter had already loaded at start-up.
# It prints by ``repr``, so that it loads no module the CLI might.
_LOADED = """
import sys
before = set(sys.modules)
import contextlib, io
from oagame import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run_cli(sys.argv[1:])
print(repr([code, sorted(m for m in sys.modules
                         if m.split(".")[0] == "oagame"),
            sorted(set(sys.modules) - before)]))
"""

# Standard-library modules no command needs: ``dataclasses`` alone costs
# a few milliseconds at every start, most of it in ``inspect``.
UNWANTED = {"dataclasses", "inspect"}

# Modules only some output needs: ``json`` for JSON output, and
# ``fractions`` (with ``decimal``) for exact numbers, which no command of
# the game alone builds.
JSON = {"json"}
EXACT = {"fractions", "decimal"}

# What every command loads: the CLI, its report writer, the bundled-fixture
# lookup and the model types.
FRONT = ["oagame", "oagame.cli", "oagame.fixtures", "oagame.model",
         "oagame.report"]


# Each command in its default table format unless named otherwise: the
# package layers it loads, and the standard-library modules it must not.
@pytest.mark.parametrize("argv, layers, unloaded", [
    (("mixed", "--bimatrix", "table6.bmx"), ["equilibrium"], JSON),
    (("mixed", "--bimatrix", "table6.bmx", "--format", "json"),
     ["equilibrium"], set()),
    (("nash", "--bimatrix", "table5.bmx"), ["equilibrium"], JSON),
    (("expected", "--bimatrix", "table6.bmx", "--row-mix", "1/2,1/2",
      "--col-mix", "1/3,2/3"), ["equilibrium"], JSON),
    (("validate", "--game", "oa.game"), ["dsl"], JSON | EXACT),
    (("enumerate", "--game", "oa.game"), ["dsl", "engine"], JSON | EXACT),
    (("enumerate", "--game", "oa.game", "--dump"), ["dsl", "engine"],
     JSON | EXACT),
    (("top", "--game", "oa.game"), ["dsl", "engine"], JSON | EXACT),
    (("payoffs", "--game", "oa.game"), ["dsl", "engine"], JSON | EXACT),
    (("reproduce",), ["dsl", "engine", "equilibrium"], JSON),
], ids=["mixed", "mixed-json", "nash-bimatrix", "expected", "validate",
        "enumerate", "enumerate-dump", "top", "payoffs", "reproduce"])
def test_command_loads_only_the_layers_it_runs(argv, layers, unloaded):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    code, loaded, added = ast.literal_eval(proc.stdout)
    assert (code, proc.stderr) == (0, "")
    assert loaded == sorted(FRONT + [f"oagame.{m}" for m in layers])
    assert (UNWANTED | unloaded).isdisjoint(added)
