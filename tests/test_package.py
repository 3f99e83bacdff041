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

# Every name the package exports, by the public module that serves it.
EXPORTED = {
    "model": (
        "ACTION", "OUTCOME", "Atom", "GameError", "GameSpec",
        "MissingUtilityError", "NameResolutionError", "OutcomeVarDef",
        "PlayerDef", "Rule", "UtilityDef", "PayoffTable"),
    "dsl": (
        "Diagnostic", "ParseError", "ParseResult", "SourceSpan",
        "ValidatedGame", "parse_game_spec", "parse_rule", "serialize_game",
        "serialize_rule", "validate_game"),
    "engine": (
        "CompiledGame", "CompletionPolicy", "EnumerationReport",
        "RowBudgetError", "admissible_rows", "compile_game",
        "derive_payoff_table", "enumeration_report", "top_gu_rows"),
    "equilibrium": (
        "SUPPORT_LIMIT", "Bimatrix", "DominanceResult", "Elimination",
        "EquilibriumCertificate", "InfeasibleSliceError", "MixedStrategy",
        "best_responses", "dominance_analysis", "expected_utility",
        "mixed_nash_2p", "parse_bimatrix", "project_bimatrix", "pure_nash",
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
    assert (oagame.GameError is oagame.model.GameError
            is oagame._table.GameError)
    with pytest.raises(AttributeError, match="no_such_name"):
        oagame.no_such_name


def test_the_parser_module_serves_the_validator_and_writers():
    """``oagame.dsl`` reads the names it moved out on first access, and
    refuses any other unknown name."""
    import oagame.dsl
    from oagame import _validator_writer
    from oagame.dsl import serialize_game, validate_game
    assert serialize_game is _validator_writer.serialize_game
    assert validate_game is _validator_writer.validate_game
    with pytest.raises(AttributeError, match="no_such_name"):
        oagame.dsl.no_such_name


def test_the_bimatrix_module_serves_the_names_defined_elsewhere():
    """``oagame.equilibrium`` reads each public name that ``oagame._EXPORTS``
    places in ``_pure``, ``_support`` or ``_bmx_writer``, and
    ``project_bimatrix``, on first access from the module that defines it,
    and refuses any other unknown name."""
    import oagame.equilibrium
    served = [name for name, module in oagame._EXPORTS.items()
              if module in ("_pure", "_support", "_bmx_writer")
              or name == "project_bimatrix"]
    assert len(served) == 10
    for name in served:
        defining = importlib.import_module(f"oagame.{oagame._EXPORTS[name]}")
        assert getattr(oagame.equilibrium, name) is getattr(defining, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        oagame.equilibrium.no_such_name


# The names that each submodule's PEP 562 hook serves, and one name that
# another layer defines, which it refuses.
_HOOKS = {
    "equilibrium": (
        ("InfeasibleSliceError", "best_responses", "pure_nash",
         "SUPPORT_LIMIT", "DominanceResult", "Elimination",
         "dominance_analysis", "mixed_nash_2p", "serialize_bimatrix",
         "project_bimatrix"), "compile_game"),
    "dsl": (
        ("Diagnostic", "ValidatedGame", "serialize_game", "serialize_rule",
         "validate_game"), "pure_nash"),
}


@pytest.mark.parametrize("module", sorted(_HOOKS))
def test_each_hook_serves_exactly_its_names(module):
    """A submodule's hook gives each of its names as ``oagame`` exports it,
    and refuses every other name of ``oagame._EXPORTS`` that the submodule
    does not define, naming the submodule."""
    mod = importlib.import_module(f"oagame.{module}")
    served, refused = _HOOKS[module]
    for name, defining in oagame._EXPORTS.items():
        if name in served:
            assert mod.__getattr__(name) is getattr(oagame, name)
        elif defining != module:
            with pytest.raises(AttributeError, match=(
                    rf"^module 'oagame\.{module}' has no attribute '{name}'$")):
                mod.__getattr__(name)
    assert oagame._EXPORTS[refused] != module
    with pytest.raises(AttributeError, match=f"'oagame.{module}' has no "
                                             f"attribute '{refused}'"):
        getattr(mod, refused)


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
# a few milliseconds at every start, most of it in ``inspect``; ``hashlib``
# as much in OpenSSL's ``_hashlib``, for the input digest; ``json``, whose
# writing ``report`` does itself, in every output format; and ``argparse``
# and its ``gettext``, which only help, usage errors and unusual spellings
# need, with the package's parser built on it.
UNWANTED = {"dataclasses", "inspect", "hashlib", "_hashlib", "json",
            "argparse", "gettext", "oagame._argparser"}

# Modules for exact numbers, which no command on an integer table builds.
EXACT = {"fractions", "decimal"}

# What every command loads: the CLI, the handlers' shared helpers with the
# command line's definition, the report builder, the bundled-fixture
# lookup and ``GameError`` with the payoff table.
FRONT = ["oagame", "oagame._table", "oagame.cli", "oagame.commands",
         "oagame.fixtures", "oagame.report"]

# What every command that reads a game loads beyond its own handler: the
# game commands' helpers, the parser and the game model.  Each module below
# is loaded only by the commands that run it: the validator and the
# ``.game`` writers, which only ``validate`` runs; the --policy options with
# the engine and its payoff tables; the ``.bmx`` loader and certificate
# writer with the bimatrix layer; ``_pure``, the pure equilibria only
# ``nash`` and ``reproduce`` run; ``_support``, the solvers only ``mixed``
# runs; and each format's writer.
GAME = ["commands._game", "dsl", "model"]
VALIDATOR = ["_validator_writer"]
POLICY = ["commands._policy", "engine", "_payoffs"]
BIMATRIX = ["commands._bimatrix", "equilibrium"]
PURE = BIMATRIX + ["_pure"]
SOLVERS = BIMATRIX + ["_support"]
TABLE = ["_table_writer"]
JSON = ["_json_writer"]
TABLE6_MIX = ("expected", "--bimatrix", "table6.bmx", "--row-mix", "1/2,1/2",
              "--col-mix", "1/3,2/3")


def _run_loaded(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    code, loaded, added = ast.literal_eval(proc.stdout)
    return code, proc.stderr, loaded, added


# Each command in its default table format unless named otherwise: the
# package modules it loads beyond ``FRONT`` and its own handler module, and
# the modules it must not load.  The bimatrix commands load no game layer,
# and the table-format game commands that take no policy load none of the
# modules above but the engine and the table writer.  Each command loads
# its own format's writer alone (``project --format bmx`` writes its text
# without one), and ``mixed`` and ``expected`` no pure equilibria.  The
# commands on integer tables (a game's, and the bundled ``table5.bmx``)
# load no exact numbers, and ``project`` loads the bimatrix layer only for
# its ``.bmx`` writer.
@pytest.mark.parametrize("argv, layers, unloaded", [
    (("mixed", "--bimatrix", "table6.bmx"), SOLVERS + TABLE, set()),
    (("mixed", "--bimatrix", "table6.bmx", "--format", "json"),
     SOLVERS + JSON, set()),
    (("nash", "--bimatrix", "table5.bmx"), PURE + TABLE, EXACT),
    (("nash", "--bimatrix", "table5.bmx", "--format", "json"),
     PURE + JSON, EXACT),
    (TABLE6_MIX, BIMATRIX + TABLE, set()),
    (TABLE6_MIX + ("--format", "json"), BIMATRIX + JSON, set()),
    (("validate", "--game", "oa.game"), GAME + VALIDATOR + TABLE, EXACT),
    (("enumerate", "--game", "oa.game"), GAME + ["engine"] + TABLE, EXACT),
    (("enumerate", "--game", "oa.game", "--dump"),
     GAME + ["engine"] + TABLE, EXACT),
    (("enumerate", "--game", "oa.game", "--dump", "--format", "delimited"),
     GAME + ["engine", "_delimited_writer"], EXACT),
    (("top", "--game", "oa.game"), GAME + ["engine"] + TABLE, EXACT),
    (("payoffs", "--game", "oa.game"), GAME + POLICY + TABLE, EXACT),
    (("payoffs", "--game", "oa.game", "--format", "json"),
     GAME + POLICY + JSON, EXACT),
    (("project", "--game", "oa.game", "--row-player", "Academics",
      "--col-player", "Editors"), GAME + POLICY + TABLE, EXACT),
    (("project", "--game", "oa.game", "--row-player", "Academics",
      "--col-player", "Editors", "--format", "bmx"),
     GAME + POLICY + ["equilibrium", "_bmx_writer"], EXACT),
    (("nash", "--game", "oa.game", "--format", "json"),
     GAME + POLICY + PURE + JSON, EXACT),
    (("reproduce",), GAME + ["engine", "_payoffs"] + PURE + TABLE, EXACT),
], ids=["mixed", "mixed-json", "nash-bimatrix", "nash-bimatrix-json",
        "expected", "expected-json", "validate", "enumerate",
        "enumerate-dump", "enumerate-dump-delimited", "top", "payoffs",
        "payoffs-json", "project", "project-bmx", "nash-game-json",
        "reproduce"])
def test_command_loads_only_the_layers_it_runs(argv, layers, unloaded):
    code, stderr, loaded, added = _run_loaded(*argv)
    assert (code, stderr) == (0, "")
    assert loaded == sorted(FRONT + [f"oagame.commands.{argv[0]}"]
                            + [f"oagame.{m}" for m in layers])
    assert (UNWANTED | unloaded).isdisjoint(added)
    # The JSON writer loads json's C string encoder on its first string.
    assert ("_json" in added) == ("json" in argv)


# One command line of each subcommand, and a help text, with the modules
# each loads: --policy, --dump, every format and both --dominance notions.
_EVERY_SUBCOMMAND = [
    ("validate", "--game", "oa.game", "--format", "json"),
    ("enumerate", "--game", "oa.game", "--dump", "--format", "delimited"),
    ("top", "--game", "oa.game"),
    ("payoffs", "--game", "oa.game", "--policy", "optimistic",
     "--policy-player", "Editors"),
    ("project", "--game", "oa.game", "--row-player", "Academics",
     "--col-player", "Editors", "--format", "bmx"),
    ("nash", "--game", "oa.game", "--policy", "fixed", "--fix",
     "Savings=More"),
    ("nash", "--bimatrix", "table5.bmx", "--format", "json"),
    ("mixed", "--bimatrix", "table6.bmx", "--dominance", "weak"),
    ("mixed", "--bimatrix", "table6.bmx", "--dominance", "strict"),
    TABLE6_MIX,
    ("reproduce", "--format", "json"),
    ("enumerate", "--help"),
]

# Runs every command line of ``_EVERY_SUBCOMMAND`` in turn in one
# interpreter, output discarded, and prints their exit statuses and
# whether ``typing`` was loaded before the package, and after.
_TYPING = """
import sys
typing_first = "typing" in sys.modules
import contextlib, io
from oagame import cli
codes = []
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run_cli(list(argv)))
print(repr([codes, typing_first, "typing" in sys.modules]))
"""


def test_no_command_loads_typing():
    """Under ``python -S``, since ``site`` may load ``typing`` itself (a
    ``.pth`` file that imports a package which uses it): no subcommand,
    nor the argparse path, loads ``typing``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _TYPING % (_EVERY_SUBCOMMAND,)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    codes, typing_first, typing_after = ast.literal_eval(proc.stdout)
    assert codes == [0] * len(_EVERY_SUBCOMMAND)
    assert (typing_first, typing_after) == (False, False)


@pytest.mark.parametrize("argv, status", [
    ((), 2), (("--help",), 0), (("bogus",), 2), (("nash", "--help"), 0),
    (("mixed",), 2)])
def test_parsing_alone_loads_no_handler(argv, status):
    """Help, a missing or unknown command and a usage error stop in the
    argparse parser, before any handler module is imported."""
    code, _, loaded, added = _run_loaded(*argv)
    assert (code, loaded) == (status, sorted(FRONT + ["oagame._argparser"]))
    assert "argparse" in added


# Error paths of every kind of handler: an unreadable input, a malformed
# option value, a mixture of the wrong length, a policy missing its player,
# and a game that does not parse.
_ERROR_PATHS = [
    (("validate", "--game", "no-such.game"), 2),
    (("payoffs", "--game", "oa.game", "--policy", "fixed", "--fix",
      "Editors"), 2),
    (("expected", "--bimatrix", "table6.bmx", "--row-mix", "1",
      "--col-mix", "1/2,1/2"), 2),
    (("payoffs", "--game", "oa.game", "--policy", "optimistic"), 2),
    (("enumerate", "--game", "bad.game"), 1),
]


@pytest.mark.parametrize("argv, status", _ERROR_PATHS,
                         ids=["missing-file", "fix-without-equals",
                              "row-mix-count", "policy-without-player",
                              "parse-error"])
def test_module_run_reports_errors_as_run_cli_does(tmp_path, monkeypatch,
                                                   capsys, argv, status):
    """``python -m oagame.cli`` runs ``cli.py`` as ``__main__``: its
    errors are those of ``run_cli``, and no module imports ``oagame.cli``,
    which would compile a second copy of it."""
    (tmp_path / "bad.game").write_text('game "b"\nplayer A actions: "x"\n'
                                       'utility A V\n')
    monkeypatch.chdir(tmp_path)
    from oagame.cli import run_cli
    assert run_cli(list(argv)) == status
    captured = capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "oagame.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    lines = proc.stderr.splitlines(keepends=True)
    imported = [ln.rsplit("|", 1)[1].strip() for ln in lines
                if ln.startswith("import time:")]
    assert "oagame.commands" in imported
    assert "oagame.cli" not in imported
    assert proc.returncode == status
    assert (proc.stdout, "".join(ln for ln in lines
                                 if not ln.startswith("import time:"))) == (
        captured.out, captured.err)


def _spans(name: str):
    """The constant ``name`` (``TRACED`` or ``MODULES``) of the benchmark's
    span recorder, read without importing it."""
    tree = ast.parse((SRC.parent / "perfbench" / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [name])


# Each traced function and the commands whose handlers call it;
# ``run_cli`` calls ``emit_report`` for every command.  No command reaches
# ``engine.rows_as_records``.
_PROJECT = ("project", "--game", "oa.game", "--row-player", "Academics",
            "--col-player", "Editors")
_REACHED_BY = {
    "parse_game_spec": [("validate", "--game", "oa.game")],
    "validate_game": [("validate", "--game", "oa.game")],
    "admissible_rows": [("enumerate", "--game", "oa.game", "--dump")],
    "top_gu_rows": [("top", "--game", "oa.game")],
    "derive_payoff_table": [("payoffs", "--game", "oa.game"),
                            ("nash", "--game", "oa.game")],
    "parse_bimatrix": [("nash", "--bimatrix", "table5.bmx")],
    "project_bimatrix": [_PROJECT, ("reproduce",)],
    "pure_nash": [("nash", "--bimatrix", "table5.bmx"), ("reproduce",)],
    "mixed_nash_2p": [("mixed", "--bimatrix", "table6.bmx")],
    "dominance_analysis": [("mixed", "--bimatrix", "table6.bmx",
                            "--dominance", "weak")],
    "expected_utility": [TABLE6_MIX],
    "emit_report": [("mixed", "--bimatrix", "table6.bmx")],
}


def test_every_traced_function_resolves_where_the_benchmark_looks():
    traced = _spans("TRACED")
    for module, func in traced:
        assert callable(getattr(importlib.import_module(f"oagame.{module}"),
                                func)), (module, func)
    assert sorted(_REACHED_BY) == sorted(
        func for _, func in traced if func != "rows_as_records")


@pytest.mark.parametrize("module, func, argv", [
    (module, func, argv) for module, func in _spans("TRACED")
    for argv in _REACHED_BY.get(func, ())],
    ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_a_wrapper_on_the_module_attribute_sees_every_call(
        monkeypatch, capsys, module, func, argv):
    """The benchmark wraps each traced function, as ``Tracer.install``
    does, at every module of its ``MODULES`` that holds it, and runs each
    command both with and without the wrappers in one process.  The
    handlers import what they call inside their functions, and ``run_cli``
    reads ``emit_report`` off ``oagame.report`` at each call, so a wrapper
    installed after a first run still sees the calls."""
    from oagame.cli import run_cli
    assert run_cli(list(argv)) == 0
    original = getattr(importlib.import_module(f"oagame.{module}"), func)
    calls = []

    def counting(*args, **kwargs):
        calls.append(func)
        return original(*args, **kwargs)

    for name in _spans("MODULES"):
        mod = importlib.import_module(f"oagame.{name}")
        if getattr(mod, func, None) is original:
            monkeypatch.setattr(mod, func, counting)
    assert run_cli(list(argv)) == 0
    capsys.readouterr()
    assert calls, f"{' '.join(argv)} called {module}.{func} unseen"
