"""Command-line driver.

Subcommands: validate, enumerate, top, payoffs, project, nash, mixed,
expected, reproduce.  Exit status 0 on success, 1 when diagnostics or a
reproduce drift were reported, 2 on usage errors (including unreadable files).
Output is deterministic: no timestamps, stable key order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from typing import TYPE_CHECKING

from . import fixtures, report as rp
from .model import GameError

# Each command loads and builds only what it runs.  The game layers (dsl,
# engine) and the bimatrix layer (equilibrium) are imported inside the
# commands that call them; ``run_cli`` builds the parser of the invoked
# subcommand alone; table and delimited output never load ``json``, and the
# game commands never load ``fractions``.
if TYPE_CHECKING:
    from .engine import CompletionPolicy
    from .equilibrium import Bimatrix, MixedStrategy

USAGE_ERROR = 2
DIAG_ERROR = 1


class _CliError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def _read_input(path: str) -> tuple[str, str]:
    """Return (text, sha256).  Bundled fixture names resolve when the file
    does not exist on disk."""
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
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
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_bimatrix(path: str) -> tuple[Bimatrix, str]:
    from .equilibrium import BimatrixFormatError, parse_bimatrix
    text, digest = _read_input(path)
    try:
        return parse_bimatrix(text), digest
    except BimatrixFormatError as exc:
        raise _CliError(f"{path}: {exc}", DIAG_ERROR)


def _declared_player(game, name: str) -> str:
    """The declared name of player ``name`` (which may be an alias)."""
    declared = game.player(name)
    if declared is None:
        raise _CliError(f"unknown player {name!r}", USAGE_ERROR)
    return declared.name


def _policy(args, game) -> CompletionPolicy:
    """The completion policy named by --policy, with each --fix NAME=VALUE
    resolved to a declared player action or variable value of ``game``;
    an option the policy does not take is a usage error."""
    from .engine import CompletionPolicy
    fixes = []
    for item in args.fix:
        if "=" not in item:
            raise _CliError(f"--fix expects NAME=VALUE, got {item!r}",
                            USAGE_ERROR)
        fixes.append([s.strip() for s in item.split("=", 1)])
    name = args.policy or "max-gu"
    kind = {"max-gu": "max-global-utility"}.get(name, name)
    player = args.policy_player
    if fixes and kind != "fixed":
        raise _CliError(f"--policy {name} takes no --fix", USAGE_ERROR)
    if kind in ("optimistic", "pessimistic"):
        if player is None:
            raise _CliError(f"--policy {name} needs --policy-player",
                            USAGE_ERROR)
        return CompletionPolicy(kind, _declared_player(game, player))
    if player is not None:
        raise _CliError(f"--policy {name} takes no --policy-player",
                        USAGE_ERROR)
    if kind != "fixed":
        return CompletionPolicy(kind)
    actions, outcomes = {}, {}  # canonical name -> canonical value
    for name, value in fixes:
        player = game.player(name)
        if player is not None:
            fixed, subject, canon = actions, player.name, player.action(value)
        elif (var := game.variable(name)) is not None:
            fixed, subject = outcomes, var.name
            canon = var.canonical_value(value)
        else:
            raise _CliError(f"--fix names unknown player or variable "
                            f"{name!r}", USAGE_ERROR)
        if canon is None:
            raise _CliError(f"unknown value {value!r} for {name!r}",
                            USAGE_ERROR)
        if fixed.setdefault(subject, canon) != canon:
            raise _CliError(f"--fix gives {subject!r} two values: "
                            f"{fixed[subject]!r} and {canon!r}", USAGE_ERROR)
    return CompletionPolicy("fixed", None, tuple(actions.items()),
                            tuple(outcomes.items()))


def _emit(args, report: dict) -> None:
    with _output(args) as out:
        rp.emit_report(report, args.format, out)


@contextlib.contextmanager
def _output(args):
    """--output opened for writing, or stdout when none is given; a path
    that cannot be opened is a usage error."""
    if args.output:
        try:
            fh = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {args.output}: {exc.strerror}",
                            USAGE_ERROR)
        with fh:
            yield fh
    else:
        yield sys.stdout


def _row_dump(game, rows) -> rp.RowDump:
    """The rows section of a report; every name and utility is resolved
    here, before any output is written."""
    from .engine import record_cells
    return rp.RowDump(*record_cells(game, rows), rows)


def _is_bundled(digest: str, name: str) -> bool:
    return digest == fixtures.fixture_digest(name)


def _census_figures(enum) -> dict:
    """The census figures of ``enum``, keyed as in ``rp.FIGURES``."""
    return {
        "action_profiles": enum.action_profile_count,
        "row_space": enum.row_space_count,
        "admissible_rows": enum.admissible_count,
        "max_global_utility": enum.max_global_utility,
        "top_gu_rows": enum.max_global_utility_count,
    }


def _has_publish_oa_grant_ta(certs) -> bool:
    """Is (Publish OA, Grant TA) among the pure equilibria ``certs``?"""
    return ("Publish OA", "Grant TA") in [c.pure_profile() for c in certs]


def _mix_from_arg(player: str, actions: tuple[str, ...], text: str,
                  flag: str) -> MixedStrategy:
    from fractions import Fraction

    from .equilibrium import MixedStrategy
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(actions):
        raise _CliError(f"{flag} needs {len(actions)} probabilities "
                        f"(one per action, in order)", USAGE_ERROR)
    try:
        probs = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise _CliError(f"{flag}: probabilities must be rationals or "
                        f"decimals", USAGE_ERROR)
    try:
        return MixedStrategy(player, tuple(zip(actions, probs)))
    except ValueError as exc:
        raise _CliError(f"{flag}: {exc}", USAGE_ERROR)


def _game_or_fail(args) -> tuple:
    """The parsed game and the input's digest.  A game that parses also
    validates, so only ``validate`` runs ``validate_game``."""
    from .dsl import parse_game_spec
    text, digest = _read_input(args.game)
    result = parse_game_spec(text, mode=args.mode or "strict")
    if result.game is None:
        for err in result.errors:
            print(str(err), file=sys.stderr)
        raise _CliError(f"{args.game}: {len(result.errors)} parse "
                        f"error(s)", DIAG_ERROR)
    return result.game, digest


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_validate(args) -> int:
    from .dsl import validate_game
    game, digest = _game_or_fail(args)
    validated = validate_game(game)
    if not validated.ok:
        for diag in validated.errors:
            print(str(diag), file=sys.stderr)
        raise _CliError(f"{args.game}: validation failed", DIAG_ERROR)
    out = rp.base_report({args.game: digest})
    out["game"] = game.name
    out["players"] = list(game.player_names())
    out["action_counts"] = [len(p.actions) for p in game.players]
    out["variables"] = len(game.variables)
    out["rules"] = len(game.rules)
    out["action_profiles"] = validated.action_profile_count
    out["row_space"] = validated.row_space_count
    out["warnings"] = [str(w) for w in validated.warnings]
    if _is_bundled(digest, "oa.game"):
        out["paper_comparison"] = rp.paper_comparison({
            "action_profiles": validated.action_profile_count,
            "row_space": validated.row_space_count,
        })
    _emit(args, out)
    return 0


def _cmd_enumerate(args) -> int:
    from .engine import admissible_rows, enumeration_report
    game, digest = _game_or_fail(args)
    if args.dump:
        rows, enum = admissible_rows(game)
    else:
        enum = enumeration_report(game)
    out = rp.base_report({args.game: digest})
    out["semantics"] = args.mode
    figures = _census_figures(enum)
    out.update(figures)
    out["max_global_utility_rows"] = out.pop("top_gu_rows")
    if _is_bundled(digest, "oa.game"):
        out["paper_comparison"] = rp.paper_comparison(figures)
    if args.dump:
        out["rows"] = _row_dump(game, rows)
    _emit(args, out)
    return 0


def _cmd_top(args) -> int:
    from .engine import top_gu_rows
    game, digest = _game_or_fail(args)
    best, rows = top_gu_rows(game)
    out = rp.base_report({args.game: digest})
    out["max_global_utility"] = best
    out["row_count"] = len(rows)
    out["rows"] = _row_dump(game, rows)
    if _is_bundled(digest, "oa.game"):
        out["paper_comparison"] = rp.paper_comparison({
            "max_global_utility": best, "top_gu_rows": len(rows)})
    _emit(args, out)
    return 0


def _payoff_records(game, table) -> list[dict]:
    keys, blank = game.payoff_keys(), ("",) * len(table.players)
    return [dict(zip(keys, (*profile, cell is not None, *(cell or blank))))
            for profile, cell in zip(table.profiles(), table.cells)]


def _cmd_payoffs(args) -> int:
    from .engine import derive_payoff_table
    game, digest = _game_or_fail(args)
    policy = _policy(args, game)
    table = derive_payoff_table(game, policy)
    out = rp.base_report({args.game: digest})
    out["policy"] = policy.kind
    out["cells"] = _payoff_records(game, table)
    _emit(args, out)
    return 0


def _cmd_project(args) -> int:
    from .equilibrium import project_bimatrix, serialize_bimatrix
    game, digest = _game_or_fail(args)
    policy = _policy(args, game)
    row, col = (_declared_player(game, name)
                for name in (args.row_player, args.col_player))
    if row == col:
        raise _CliError(f"--row-player and --col-player both name {row!r}",
                        USAGE_ERROR)
    bm = project_bimatrix(game, policy, row, col)
    if args.format == "bmx":
        text = serialize_bimatrix(bm)  # a name it refuses writes no file
        with _output(args) as out:
            out.write(text)
        return 0
    out = rp.base_report({args.game: digest})
    out["provenance"] = bm.provenance
    out["row_player"] = bm.row_player
    out["col_player"] = bm.col_player
    out["matrix"] = _bimatrix_records(bm)
    _emit(args, out)
    return 0


def _bimatrix_records(bm: Bimatrix) -> list[dict]:
    from .equilibrium import payoff_pair
    if bm.row_player in bm.col_actions:  # that key holds the row action
        raise ValueError(f"cannot write the matrix records: column action "
                         f"{bm.row_player!r} is also the row player's name")
    return [{bm.row_player: ra,
             **{ca: payoff_pair(cell) or "infeasible"
                for ca, cell in zip(bm.col_actions, row)}}
            for ra, row in zip(bm.row_actions, bm.payoffs)]


def _cmd_nash(args) -> int:
    from .equilibrium import pure_nash
    out = rp.base_report({})
    if args.bimatrix:
        for flag in ("mode", "policy", "policy_player", "fix"):
            if getattr(args, flag):
                raise _CliError(f"--bimatrix takes no "
                                f"--{flag.replace('_', '-')}", USAGE_ERROR)
        bm, digest = _load_bimatrix(args.bimatrix)
        out["inputs"] = {args.bimatrix: digest}
        table = bm.to_payoff_table()
    else:
        from .engine import derive_payoff_table
        game, digest = _game_or_fail(args)
        out["inputs"] = {args.game: digest}
        table = derive_payoff_table(game, _policy(args, game))
    certs = pure_nash(table)
    if args.bimatrix and _is_bundled(digest, "table5.bmx"):
        out["paper_comparison"] = rp.paper_comparison({
            "table5_publish_oa_grant_ta":
                "present" if _has_publish_oa_grant_ta(certs) else "absent"})
    out["equilibria"] = [rp.certificate_to_obj(c) for c in certs]
    out["count"] = len(certs)
    _emit(args, out)
    return 0


def _cmd_mixed(args) -> int:
    from .equilibrium import dominance_analysis, mixed_nash_2p
    bm, digest = _load_bimatrix(args.bimatrix)
    certs, degenerate = mixed_nash_2p(bm)
    out = rp.base_report({args.bimatrix: digest})
    out["degenerate"] = degenerate
    out["equilibria"] = [rp.certificate_to_obj(c) for c in certs]
    out["count"] = len(certs)
    if args.dominance:
        result = dominance_analysis(bm.to_payoff_table(), args.dominance)
        out["dominance_trace"] = [
            {"player": e.player, "eliminated": e.action,
             "dominator": e.dominator, "notion": e.notion}
            for e in result.trace
        ]
        out["surviving_rows"], out["surviving_cols"] = map(
            list, result.surviving)
    if _is_bundled(digest, "table6.bmx"):
        out["note"] = rp.TABLE6_EU_NOTE
    _emit(args, out)
    return 0


def _cmd_expected(args) -> int:
    from .equilibrium import expected_utility
    bm, digest = _load_bimatrix(args.bimatrix)
    mix_row = _mix_from_arg(bm.row_player, bm.row_actions, args.row_mix,
                            "--row-mix")
    mix_col = _mix_from_arg(bm.col_player, bm.col_actions, args.col_mix,
                            "--col-mix")
    eu_row, eu_col = expected_utility(bm, mix_row, mix_col)
    out = rp.base_report({args.bimatrix: digest})
    out["row_mix"] = {a: rp.number(p) for a, p in mix_row.probs}
    out["col_mix"] = {a: rp.number(p) for a, p in mix_col.probs}
    out["expected_utilities"] = {bm.row_player: rp.number(eu_row),
                                 bm.col_player: rp.number(eu_col)}
    if _is_bundled(digest, "table6.bmx"):
        out["note"] = rp.TABLE6_EU_NOTE
    _emit(args, out)
    return 0


def _cmd_reproduce(args) -> int:
    from .engine import CompletionPolicy, enumeration_report
    from .equilibrium import payoff_pair, project_bimatrix, pure_nash
    game, game_digest = _game_or_fail(args)
    enum = enumeration_report(game)
    bm5, bm5_digest = _load_bimatrix(args.bimatrix)
    certs = pure_nash(bm5.to_payoff_table())
    try:
        projected = project_bimatrix(game, CompletionPolicy(), "Academics",
                                     "Editors")
    except ValueError:  # without both players, Table 5's cell is absent
        cells = {}
    else:
        cells = {(ra, ca): payoff_pair(cell) or "infeasible"
                 for ra, row in zip(projected.row_actions, projected.payoffs)
                 for ca, cell in zip(projected.col_actions, row)}

    computed = {
        **_census_figures(enum),
        "pure_nash_member": ("(Publish OA, Grant TA)"
                             if _has_publish_oa_grant_ta(certs)
                             else "not an equilibrium"),
        "table5_publish_ta_grant_ta":
            cells.get(("Publish TA", "Grant TA"), "absent"),
    }
    out = rp.base_report({args.game: game_digest, args.bimatrix: bm5_digest})
    out["paper_comparison"] = rp.paper_comparison(computed)
    out["golden_check"] = rp.golden_check(computed)
    ok = all(c["matches"] for c in out["golden_check"])
    out["status"] = "ok" if ok else "drift-from-golden"
    _emit(args, out)
    return 0 if ok else DIAG_ERROR


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


# Subcommand -> (help, the function adding its arguments, the command).
_SUBCOMMANDS = {
    "validate": ("parse and validate a game file", _game_args,
                 _cmd_validate),
    "enumerate": ("admissible-row counts and optional row dump",
                  _enumerate_args, _cmd_enumerate),
    "top": ("rows attaining the maximum global utility", _game_args,
            _cmd_top),
    "payoffs": ("derive the full payoff table", _payoffs_args,
                _cmd_payoffs),
    "project": ("project a two-player bimatrix", _project_args,
                _cmd_project),
    "nash": ("pure Nash equilibria of a game table or a bimatrix file",
             _nash_args, _cmd_nash),
    "mixed": ("all 2-player equilibria by support enumeration", _mixed_args,
              _cmd_mixed),
    "expected": ("expected utilities under given mixtures", _expected_args,
                 _cmd_expected),
    "reproduce": ("full pipeline on the bundled fixtures with a "
                  "paper-vs-computed comparison", _reproduce_args,
                  _cmd_reproduce),
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
        help_text, add_args, func = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
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
    try:
        return args.func(args)
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
