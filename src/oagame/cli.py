"""Command-line driver.

Subcommands: validate, enumerate, top, payoffs, project, nash, mixed,
expected, reproduce.  Exit status 0 on success, 1 when diagnostics or a
reproduce drift were reported, 2 on usage errors (including unreadable files).
Output is deterministic: no timestamps, stable key order.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import report as rp
from ._table import GameError
from .commands import DIAG_ERROR, USAGE_ERROR, _CliError

# Each command compiles and runs only its own code.  ``_SUBCOMMANDS``
# defines the command line once.  ``_read_args`` reads a well-formed one
# straight off it; anything else (help, usage errors, abbreviations,
# ``--opt=value``, ``-o``, ``--``) goes to the argparse parser that
# ``build_parser`` makes of it, so only those load argparse.  ``run_cli``
# then imports the handler ``oagame.commands.<name>``, which imports the
# layers it calls inside its functions.


# ---------------------------------------------------------------------------
# Argument definitions

_MODES = ["strict", "lenient"]
_GAME = [
    (("--game",), {"required": True, "help": "path to a .game file (the "
                   "bundled name 'oa.game' also resolves)"}),
    (("--mode",), {"choices": _MODES, "default": "strict",
                   "help": "rule-binding mode (default: strict)"}),
]
_POLICY = [
    (("--policy",), {"choices": ["max-gu", "max-global-utility",
                                 "optimistic", "pessimistic", "fixed"],
                     "default": None,
                     "help": "completion policy (default: max-gu)"}),
    (("--policy-player",), {"default": None, "help": "player for "
                            "optimistic/pessimistic policies"}),
    (("--fix",), {"action": "append", "default": [], "metavar": "NAME=VALUE",
                  "help": "fixed-policy fragment (repeatable)"}),
]
_REQUIRED = {"required": True}

# Subcommand -> (help, options, formats); its handler is
# ``oagame.commands.<subcommand>.run``.  Each option is (flags,
# ``add_argument`` keyword arguments), in order; every subcommand then
# takes --format, among its formats, and --output.
_SUBCOMMANDS = {
    "validate": ("parse and validate a game file", _GAME, rp.FORMATS),
    "enumerate": ("admissible-row counts and optional row dump",
                  [*_GAME, (("--dump",), {"action": "store_true",
                                          "default": False,
                                          "help": "include the rows"})],
                  rp.FORMATS),
    "top": ("rows attaining the maximum global utility", _GAME, rp.FORMATS),
    "payoffs": ("derive the full payoff table", _GAME + _POLICY, rp.FORMATS),
    "project": ("project a two-player bimatrix",
                [*_GAME, (("--row-player",), _REQUIRED),
                 (("--col-player",), _REQUIRED), *_POLICY],
                rp.FORMATS + ("bmx",)),
    "nash": ("pure Nash equilibria of a game table or a bimatrix file",
             [(("--game",), {}),
              (("--bimatrix",), {"help": "path to a .bmx file (bundled "
                                 "names 'table5.bmx'/'table6.bmx' also "
                                 "resolve)"}),
              (("--mode",), {"choices": _MODES, "default": None,
                             "help": "rule-binding mode for --game "
                                     "(default: strict)"}),
              *_POLICY], rp.FORMATS),
    "mixed": ("all 2-player equilibria by support enumeration",
              [(("--bimatrix",), _REQUIRED),
               (("--dominance",), {"choices": ["strict", "weak"],
                                   "default": None, "help": "also run "
                                   "iterated dominance elimination"})],
              rp.FORMATS),
    "expected": ("expected utilities under given mixtures",
                 [(("--bimatrix",), _REQUIRED),
                  (("--row-mix",), {"required": True, "help": "comma-"
                                    "separated probabilities, row actions "
                                    "in order"}),
                  (("--col-mix",), _REQUIRED)], rp.FORMATS),
    "reproduce": ("full pipeline on the bundled fixtures with a "
                  "paper-vs-computed comparison",
                  [(("--game",), {"default": "oa.game"}),
                   (("--bimatrix",), {"default": "table5.bmx"}),
                   (("--mode",), {"choices": _MODES, "default": "strict"})],
                  rp.FORMATS),
}
# The required mutually exclusive group of a subcommand: exactly one given.
_ONE_OF = {"nash": ("--game", "--bimatrix")}


def _options(command: str):
    """(help, formats, options) of a subcommand, its options ending with
    --format, its default read from $OAGAME_FORMAT now, and --output."""
    help_text, options, formats = _SUBCOMMANDS[command]
    return help_text, formats, [
        *options,
        (("--format",), {"choices": formats,
                         "default": os.environ.get("OAGAME_FORMAT", "table"),
                         "help": "output format (default from "
                                 "$OAGAME_FORMAT or 'table')"}),
        (("--output", "-o"), {"default": None,
                              "help": "output path (default: stdout)"})]


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse returns for ``argv``, read without it, or
    None unless ``argv`` is a subcommand then exact long flags, each but
    --dump followed by a value that does not start with ``-``, with every
    value among its choices, every required option given, and a format,
    given or from $OAGAME_FORMAT, among the subcommand's."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, formats, options = _options(argv[0])
    by_flag = {flags[0]: (flags[0][2:].replace("-", "_"), kwargs)
               for flags, kwargs in options}
    args = {dest: kwargs.get("default") for dest, kwargs in by_flag.values()}
    given, rest = set(), iter(argv[1:])
    for flag in rest:
        if flag not in by_flag:
            return None
        dest, kwargs = by_flag[flag]
        given.add(flag)
        action = kwargs.get("action")
        # A flag with no value left reads "-", and is refused.
        value = True if action == "store_true" else next(rest, "-")
        if value is not True and (value.startswith("-") or (
                "choices" in kwargs and value not in kwargs["choices"])):
            return None
        # A new list: the default one is the table's own.
        args[dest] = [*args[dest], value] if action == "append" else value
    required = {f for f, (_, kw) in by_flag.items() if kw.get("required")}
    one_of = _ONE_OF.get(argv[0])
    if (not required <= given or args["format"] not in formats
            or one_of and len(given.intersection(one_of)) != 1):
        return None
    return SimpleNamespace(command=argv[0], formats=formats, **args)


def build_parser(command: str | None = None):
    """The argparse parser of every subcommand or, when ``command`` names
    one, of that one alone; its usage line lists all of them either way."""
    import argparse
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
        help_text, formats, options = _options(name)
        p = sub.add_parser(name, help=help_text)
        one_of = _ONE_OF.get(name, ())
        group = p.add_mutually_exclusive_group(required=True) if one_of else p
        for flags, kwargs in options:
            (group if flags[0] in one_of else p).add_argument(*flags, **kwargs)
        p.set_defaults(formats=formats)
    return parser


def run_cli(argv: list[str]) -> int:
    args = _read_args(argv)
    if args is None:
        # Only the named subcommand's parser is built; a first argument
        # that names none (no arguments, -h, an unknown command) gets all.
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
