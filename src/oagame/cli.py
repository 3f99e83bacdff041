"""Command-line driver.

Subcommands: validate, enumerate, top, payoffs, project, nash, mixed,
expected, reproduce.  Exit status 0 on success, 1 when diagnostics or a
reproduce drift were reported, 2 on usage errors (including unreadable files).
Output is deterministic: no timestamps, stable key order.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import report as rp
from .commands import DIAG_ERROR, USAGE_ERROR, _CliError
from .model import GameError

# Each command compiles and runs only its own code.  ``run_cli`` builds the
# parser of the invoked subcommand alone, then imports that subcommand's
# handler module, ``oagame.commands.<name>``, which imports the layers it
# calls (dsl and engine for a game, equilibrium for a bimatrix) inside its
# functions; no command loads ``json`` or ``hashlib``, and the game
# commands never load ``fractions``.


# ---------------------------------------------------------------------------
# Argument parsing

def _add_game_arg(p):
    p.add_argument("--game", required=True, help="path to a .game file "
                   "(the bundled name 'oa.game' also resolves)")
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict",
                   help="rule-binding mode (default: strict)")


def _add_policy_args(p):
    p.add_argument("--policy",
                   choices=["max-gu", "max-global-utility", "optimistic",
                            "pessimistic", "fixed"],
                   default=None, help="completion policy (default: max-gu)")
    p.add_argument("--policy-player", default=None,
                   help="player for optimistic/pessimistic policies")
    p.add_argument("--fix", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="fixed-policy fragment (repeatable)")


def _add_common(p, formats=rp.FORMATS):
    p.add_argument("--format", choices=formats,
                   default=os.environ.get("OAGAME_FORMAT", "table"),
                   help="output format (default from $OAGAME_FORMAT "
                        "or 'table')")
    p.add_argument("--output", "-o", default=None, help="output path "
                   "(default: stdout)")
    p.set_defaults(formats=formats)


def _game_args(p):
    _add_game_arg(p)
    _add_common(p)


def _enumerate_args(p):
    _add_game_arg(p)
    p.add_argument("--dump", action="store_true", help="include the rows")
    _add_common(p)


def _payoffs_args(p):
    _add_game_arg(p)
    _add_policy_args(p)
    _add_common(p)


def _project_args(p):
    _add_game_arg(p)
    p.add_argument("--row-player", required=True)
    p.add_argument("--col-player", required=True)
    _add_policy_args(p)
    _add_common(p, rp.FORMATS + ("bmx",))


def _nash_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--game")
    group.add_argument("--bimatrix", help="path to a .bmx file (bundled "
                       "names 'table5.bmx'/'table6.bmx' also resolve)")
    p.add_argument("--mode", choices=["strict", "lenient"], default=None,
                   help="rule-binding mode for --game (default: strict)")
    _add_policy_args(p)
    _add_common(p)


def _mixed_args(p):
    p.add_argument("--bimatrix", required=True)
    p.add_argument("--dominance", choices=["strict", "weak"], default=None,
                   help="also run iterated dominance elimination")
    _add_common(p)


def _expected_args(p):
    p.add_argument("--bimatrix", required=True)
    p.add_argument("--row-mix", required=True,
                   help="comma-separated probabilities, row actions in "
                        "order")
    p.add_argument("--col-mix", required=True)
    _add_common(p)


def _reproduce_args(p):
    p.add_argument("--game", default="oa.game")
    p.add_argument("--bimatrix", default="table5.bmx")
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    _add_common(p)


# Subcommand -> (help, the function adding its arguments); its handler
# is ``oagame.commands.<subcommand>.run``.
_SUBCOMMANDS = {
    "validate": ("parse and validate a game file", _game_args),
    "enumerate": ("admissible-row counts and optional row dump",
                  _enumerate_args),
    "top": ("rows attaining the maximum global utility", _game_args),
    "payoffs": ("derive the full payoff table", _payoffs_args),
    "project": ("project a two-player bimatrix", _project_args),
    "nash": ("pure Nash equilibria of a game table or a bimatrix file",
             _nash_args),
    "mixed": ("all 2-player equilibria by support enumeration", _mixed_args),
    "expected": ("expected utilities under given mixtures", _expected_args),
    "reproduce": ("full pipeline on the bundled fixtures with a "
                  "paper-vs-computed comparison", _reproduce_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, when ``command`` names one, of
    that one alone; its usage line lists all of them either way."""
    parser = argparse.ArgumentParser(
        prog="oagame",
        description="Declarative stakeholder-game workbench: scenario "
                    "enumeration, payoff derivation, equilibrium analysis.")
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    # argparse's usage lists the choices built, so one built alone gets all
    # nine as its metavar.  The full parser has none: a metavar would also
    # replace the name "command" in its errors.
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        help_text, add_args = _SUBCOMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def run_cli(argv: list[str]) -> int:
    # Only the named subcommand's parser is built; a first argument that
    # names none (no arguments, -h, an unknown command) gets all of them.
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.format not in args.formats:  # a default from $OAGAME_FORMAT
        print(f"oagame: {args.command} takes no format {args.format!r} "
              f"(from $OAGAME_FORMAT); choose from "
              f"{', '.join(args.formats)}", file=sys.stderr)
        return USAGE_ERROR
    # ``__import__``, unlike ``importlib.import_module``, shows in the
    # import times that ``python -X importtime`` reports.
    handler = __import__(f"{__package__}.commands.{args.command}",
                         fromlist=["run"])
    try:
        return handler.run(args)
    except _CliError as exc:
        print(f"oagame: {exc}", file=sys.stderr)
        return exc.status
    except (GameError, ValueError) as exc:
        print(f"oagame: {exc}", file=sys.stderr)
        return DIAG_ERROR


def main() -> None:
    try:
        status = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Python flushes stdout again at
        # exit, so point it at devnull for that flush not to fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(DIAG_ERROR)
    sys.exit(status)


if __name__ == "__main__":
    main()
