"""The subcommands' handlers, one module each, and what several share.

``_SUBCOMMANDS`` below defines the command line.  ``oagame.cli`` reads
the arguments off it, then imports only the invoked subcommand's module,
``oagame.commands.<name>``, and calls its ``run(args)``, which returns
``(exit status, report)`` and writes nothing to stdout or --output;
``run_cli`` writes the report.  Two rules keep this sound:

- No module imports ``oagame.cli``.  Under ``python -m oagame.cli`` that
  file runs as ``__main__``, so an import would compile and run a second
  copy of it.
- Handlers import library functions inside the function that calls them,
  never at module level, so that each call reads the module attribute as
  it is then (a wrapper installed from outside included).  A class named
  in an annotation may be imported at module level, where every command
  that loads the handler loads the class's module anyway.

What only some handlers share has a module of its own, so that no
command compiles code it never runs: ``_game`` for the commands that read
a ``.game`` file, ``_policy`` for those that take --policy, and
``_bimatrix`` for those that read a ``.bmx`` file or report equilibria.

Once ``enumerate`` has run, this package's global ``enumerate`` is that
handler module, so code here cannot call the builtin of that name.
"""

import os

from .. import fixtures
from ..report import FORMATS

USAGE_ERROR = 2
DIAG_ERROR = 1


class _CliError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def _read_input(path: str) -> tuple[str, str]:
    """Return (text, sha256), a leading byte-order mark dropped from the
    text before it is hashed.  Bundled fixture names resolve when the file
    does not exist on disk.  A path holding a tab or a line break, which
    would split the report line that names the input, is refused."""
    if any(c in path for c in "\t\n\r"):
        raise _CliError(f"cannot read {path!r}: the path holds a tab or a "
                        "line break", USAGE_ERROR)
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read().removeprefix("\ufeff")
        except OSError as exc:
            raise _CliError(f"cannot read {path!r}: {exc.strerror}",
                            USAGE_ERROR)
        except UnicodeDecodeError:
            raise _CliError(f"cannot read {path!r}: not UTF-8 text",
                            USAGE_ERROR)
    elif os.path.basename(path) == path and path in fixtures.BUNDLED:
        text = fixtures.fixture_text(path)
    else:
        raise _CliError(f"cannot read {path!r}: no such file", USAGE_ERROR)
    return text, fixtures.sha256(text)


def _is_bundled(digest: str, name: str) -> bool:
    return digest == fixtures.fixture_digest(name)


# ---------------------------------------------------------------------------
# The command line, which ``oagame.cli._read_args`` and the argparse parser
# of ``oagame._argparser`` both read

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
    "validate": ("parse and validate a game file", _GAME, FORMATS),
    "enumerate": ("admissible-row counts and optional row dump",
                  [*_GAME, (("--dump",), {"action": "store_true",
                                          "default": False,
                                          "help": "include the rows"})],
                  FORMATS),
    "top": ("rows attaining the maximum global utility", _GAME, FORMATS),
    "payoffs": ("derive the full payoff table", _GAME + _POLICY, FORMATS),
    "project": ("project a two-player bimatrix",
                [*_GAME, (("--row-player",), _REQUIRED),
                 (("--col-player",), _REQUIRED), *_POLICY],
                FORMATS + ("bmx",)),
    "nash": ("pure Nash equilibria of a game table or a bimatrix file",
             [(("--game",), {}),
              (("--bimatrix",), {"help": "path to a .bmx file (bundled "
                                 "names 'table5.bmx'/'table6.bmx' also "
                                 "resolve)"}),
              (("--mode",), {"choices": _MODES, "default": None,
                             "help": "rule-binding mode for --game "
                                     "(default: strict)"}),
              *_POLICY], FORMATS),
    "mixed": ("all 2-player equilibria by support enumeration",
              [(("--bimatrix",), _REQUIRED),
               (("--dominance",), {"choices": ["strict", "weak"],
                                   "default": None, "help": "also run "
                                   "iterated dominance elimination"})],
              FORMATS),
    "expected": ("expected utilities under given mixtures",
                 [(("--bimatrix",), _REQUIRED),
                  (("--row-mix",), {"required": True, "help": "comma-"
                                    "separated probabilities, row actions "
                                    "in order"}),
                  (("--col-mix",), _REQUIRED)], FORMATS),
    "reproduce": ("full pipeline on the bundled fixtures with a "
                  "paper-vs-computed comparison",
                  [(("--game",), {"default": "oa.game"}),
                   (("--bimatrix",), {"default": "table5.bmx"}),
                   (("--mode",), {"choices": _MODES, "default": "strict"})],
                  FORMATS),
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
