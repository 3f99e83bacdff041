"""Command-line driver.

Subcommands: validate, enumerate, top, payoffs, project, nash, mixed,
expected, reproduce.  Exit status 0 on success, 1 when diagnostics or a
reproduce drift were reported, 2 on usage errors (including missing files).
Output is deterministic: no timestamps, stable key order.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from fractions import Fraction

from . import fixtures, report as rp
from .dsl import parse_game_spec, validate_game
from .engine import (
    CompletionPolicy,
    admissible_rows,
    derive_payoff_table,
    rows_as_records,
    top_gu_rows,
)
from .equilibrium import (
    Bimatrix,
    BimatrixFormatError,
    MixedStrategy,
    dominance_analysis,
    expected_utility,
    mixed_nash_2p,
    parse_bimatrix,
    project_bimatrix,
    pure_nash,
    serialize_bimatrix,
)
from .model import GameError

USAGE_ERROR = 2
DIAG_ERROR = 1

# Report labels of the paper figures, keyed as in ``rp.PAPER_FIGURES``.
FIGURE_LABELS = {
    "action_profiles": "action profiles",
    "row_space": "row space",
    "admissible_rows": "admissible rows",
    "max_global_utility": "max global utility",
    "top_gu_rows": "rows at max global utility",
    "pure_nash_member": "pure Nash equilibrium",
    "table5_publish_ta_grant_ta":
        "projected payoff at (Publish TA, Grant TA)",
}


class _CliError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def _read_input(path: str) -> tuple[str, str]:
    """Return (text, sha256).  Bundled fixture names resolve when the file
    does not exist on disk."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    elif os.path.basename(path) == path and path in fixtures.BUNDLED:
        text = fixtures.fixture_text(path)
    else:
        raise _CliError(f"cannot read {path!r}: no such file", USAGE_ERROR)
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_game(path: str, mode: str):
    text, digest = _read_input(path)
    result = parse_game_spec(text, mode=mode)
    return result, digest


def _load_bimatrix(path: str) -> tuple[Bimatrix, str]:
    text, digest = _read_input(path)
    try:
        return parse_bimatrix(text), digest
    except BimatrixFormatError as exc:
        raise _CliError(f"{path}: {exc}", DIAG_ERROR)


def _policy(args, game) -> CompletionPolicy:
    """The completion policy named by --policy, with each --fix NAME=VALUE
    resolved to a declared player action or variable value of ``game``."""
    fixes = []
    for item in args.fix:
        if "=" not in item:
            raise _CliError(f"--fix expects NAME=VALUE, got {item!r}",
                            USAGE_ERROR)
        fixes.append([s.strip() for s in item.split("=", 1)])
    kind = {"max-gu": "max-global-utility"}.get(args.policy, args.policy)
    if kind != "fixed":
        return CompletionPolicy(kind, args.policy_player)
    actions, outcomes = [], []
    for name, value in fixes:
        player = game.player(name)
        if player is not None:
            canon = player.action(value)
            if canon is None:
                raise _CliError(f"unknown action {value!r} for {name!r}",
                                USAGE_ERROR)
            actions.append((player.name, canon))
            continue
        var = game.variable(name)
        if var is not None:
            outcomes.append((var.name, var.canonical_value(value)))
            continue
        raise _CliError(f"--fix names unknown player or variable {name!r}",
                        USAGE_ERROR)
    return CompletionPolicy("fixed", None, tuple(actions), tuple(outcomes))


def _emit(args, report: dict) -> None:
    text = rp.emit_report(report, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_bundled(digest: str, name: str) -> bool:
    return digest == fixtures.fixture_digest(name)


def _paper_comparison(computed: dict) -> list[dict]:
    """Paper-vs-computed entries for the figures keyed in ``computed``, in
    its order."""
    return [rp.comparison_entry(FIGURE_LABELS[k], rp.PAPER_FIGURES[k], v)
            for k, v in computed.items()]


def _enumeration_figures(enum) -> dict:
    return {
        "action_profiles": enum.action_profile_count,
        "row_space": enum.row_space_count,
        "admissible_rows": enum.admissible_count,
        "max_global_utility": enum.max_global_utility,
        "top_gu_rows": enum.max_global_utility_count,
    }


def _mix_from_arg(player: str, actions: tuple[str, ...], text: str,
                  flag: str) -> MixedStrategy:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(actions):
        raise _CliError(f"{flag} needs {len(actions)} probabilities "
                        f"(one per action, in order)", USAGE_ERROR)
    try:
        probs = tuple(Fraction(p) for p in parts)
    except ValueError:
        raise _CliError(f"{flag}: probabilities must be rationals or "
                        f"decimals", USAGE_ERROR)
    try:
        return MixedStrategy(player, tuple(zip(actions, probs)))
    except ValueError as exc:
        raise _CliError(f"{flag}: {exc}", USAGE_ERROR)


def _game_or_fail(args) -> tuple:
    result, digest = _load_game(args.game, args.mode)
    if result.game is None:
        for err in result.errors:
            print(str(err), file=sys.stderr)
        raise _CliError(f"{args.game}: {len(result.errors)} parse "
                        f"error(s)", DIAG_ERROR)
    validated = validate_game(result.game)
    if not validated.ok:
        for diag in validated.errors:
            print(str(diag), file=sys.stderr)
        raise _CliError(f"{args.game}: validation failed", DIAG_ERROR)
    return validated, digest


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_validate(args) -> int:
    validated, digest = _game_or_fail(args)
    game = validated.game
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
        out["paper_comparison"] = _paper_comparison({
            "action_profiles": validated.action_profile_count,
            "row_space": validated.row_space_count,
        })
    _emit(args, out)
    return 0


def _cmd_enumerate(args) -> int:
    validated, digest = _game_or_fail(args)
    game = validated.game
    rows, enum = admissible_rows(game)
    out = rp.base_report({args.game: digest})
    out["semantics"] = args.mode
    out["action_profiles"] = enum.action_profile_count
    out["row_space"] = enum.row_space_count
    out["admissible_rows"] = enum.admissible_count
    out["max_global_utility"] = enum.max_global_utility
    out["max_global_utility_rows"] = enum.max_global_utility_count
    if _is_bundled(digest, "oa.game"):
        out["paper_comparison"] = _paper_comparison(
            _enumeration_figures(enum))
    if args.dump:
        out["rows"] = rows_as_records(game, rows)
    _emit(args, out)
    return 0


def _cmd_top(args) -> int:
    validated, digest = _game_or_fail(args)
    game = validated.game
    best, rows = top_gu_rows(game)
    out = rp.base_report({args.game: digest})
    out["max_global_utility"] = best
    out["row_count"] = len(rows)
    out["rows"] = rows_as_records(game, rows)
    if _is_bundled(digest, "oa.game"):
        out["paper_comparison"] = _paper_comparison({
            "max_global_utility": best, "top_gu_rows": len(rows)})
    _emit(args, out)
    return 0


def _payoff_records(game, table) -> list[dict]:
    records = []
    for profile in table.profiles():
        rec = dict(zip(table.players, profile))
        cell = table.payoff(profile)
        if cell is None:
            rec["feasible"] = False
            for p in table.players:
                rec[f"U_{p}"] = ""
        else:
            rec["feasible"] = True
            for p, u in zip(table.players, cell):
                rec[f"U_{p}"] = u
        records.append(rec)
    return records


def _cmd_payoffs(args) -> int:
    validated, digest = _game_or_fail(args)
    game = validated.game
    policy = _policy(args, game)
    table = derive_payoff_table(game, policy)
    out = rp.base_report({args.game: digest})
    out["policy"] = policy.kind
    out["cells"] = _payoff_records(game, table)
    _emit(args, out)
    return 0


def _cmd_project(args) -> int:
    validated, digest = _game_or_fail(args)
    game = validated.game
    bm = project_bimatrix(game, _policy(args, game), args.row_player,
                          args.col_player)
    if args.format == "bmx":
        text = serialize_bimatrix(bm)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    out = rp.base_report({args.game: digest})
    out["provenance"] = bm.provenance
    out["row_player"] = bm.row_player
    out["col_player"] = bm.col_player
    out["matrix"] = _bimatrix_records(bm)
    _emit(args, out)
    return 0


def _bimatrix_records(bm: Bimatrix) -> list[dict]:
    records = []
    for i, ra in enumerate(bm.row_actions):
        rec = {bm.row_player: ra}
        for j, ca in enumerate(bm.col_actions):
            cell = bm.payoffs[i][j]
            rec[ca] = ("infeasible" if cell is None else
                       f"({rp.number(cell[0])},{rp.number(cell[1])})")
        records.append(rec)
    return records


def _cmd_nash(args) -> int:
    out = rp.base_report({})
    if args.bimatrix:
        bm, digest = _load_bimatrix(args.bimatrix)
        out["inputs"] = {args.bimatrix: digest}
        table = bm.to_payoff_table()
        certs = pure_nash(table)
        if _is_bundled(digest, "table5.bmx"):
            found = [c.pure_profile() for c in certs]
            member = ("Publish OA", "Grant TA") in found
            out["paper_comparison"] = [
                rp.comparison_entry(
                    "pure Nash equilibrium (Publish OA, Grant TA)",
                    "present", "present" if member else "absent"),
            ]
    else:
        validated, digest = _game_or_fail(args)
        out["inputs"] = {args.game: digest}
        table = derive_payoff_table(validated.game,
                                    _policy(args, validated.game))
        certs = pure_nash(table)
    out["equilibria"] = [rp.certificate_to_obj(c) for c in certs]
    out["count"] = len(certs)
    _emit(args, out)
    return 0


def _cmd_mixed(args) -> int:
    bm, digest = _load_bimatrix(args.bimatrix)
    certs, degenerate = mixed_nash_2p(bm)
    out = rp.base_report({args.bimatrix: digest})
    out["degenerate"] = degenerate
    out["equilibria"] = [rp.certificate_to_obj(c) for c in certs]
    out["count"] = len(certs)
    if args.dominance:
        result = dominance_analysis(bm, notion=args.dominance, iterate=True)
        out["dominance_trace"] = [
            {"player": e.player, "eliminated": e.action,
             "dominator": e.dominator, "notion": e.notion}
            for e in result.trace
        ]
        out["surviving_rows"] = list(result.surviving.row_actions)
        out["surviving_cols"] = list(result.surviving.col_actions)
    if _is_bundled(digest, "table6.bmx"):
        out["note"] = rp.TABLE6_EU_NOTE
    _emit(args, out)
    return 0


def _cmd_expected(args) -> int:
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
    validated, game_digest = _game_or_fail(args)
    game = validated.game
    _, enum = admissible_rows(game)
    bm5, bm5_digest = _load_bimatrix(args.bimatrix)
    certs = pure_nash(bm5.to_payoff_table())
    member = ("Publish OA", "Grant TA") in [c.pure_profile() for c in certs]
    projected = project_bimatrix(game, CompletionPolicy(), "Academics",
                                 "Editors")
    i = projected.row_actions.index("Publish TA")
    j = projected.col_actions.index("Grant TA")
    cell = projected.payoffs[i][j]
    cell_str = (f"({rp.number(cell[0])},{rp.number(cell[1])})"
                if cell else "infeasible")

    computed = {
        **_enumeration_figures(enum),
        "pure_nash_member": ("(Publish OA, Grant TA)" if member
                             else "not an equilibrium"),
        "table5_publish_ta_grant_ta": cell_str,
    }
    out = rp.base_report({args.game: game_digest, args.bimatrix: bm5_digest})
    out["paper_comparison"] = _paper_comparison(computed)
    out["golden_check"] = [
        {"figure": FIGURE_LABELS[k], "golden": rp.GOLDEN_FIGURES[k],
         "computed": v, "matches": v == rp.GOLDEN_FIGURES[k]}
        for k, v in computed.items()
    ]
    ok = all(c["matches"] for c in out["golden_check"])
    out["status"] = "ok" if ok else "drift-from-golden"
    _emit(args, out)
    return 0 if ok else DIAG_ERROR


# ---------------------------------------------------------------------------
# Argument parsing

WORKERS_HELP = "accepted for compatibility; ignored"


def _add_game_arg(p, required=True):
    p.add_argument("--game", required=required, help="path to a .game file "
                   "(the bundled name 'oa.game' also resolves)")
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict",
                   help="rule-binding mode (default: strict)")


def _add_policy_args(p):
    p.add_argument("--policy",
                   choices=["max-gu", "max-global-utility", "optimistic",
                            "pessimistic", "fixed"],
                   default="max-gu", help="completion policy")
    p.add_argument("--policy-player", default=None,
                   help="player for optimistic/pessimistic policies")
    p.add_argument("--fix", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="fixed-policy fragment (repeatable)")


def _add_common(p):
    p.add_argument("--format", choices=list(rp.FORMATS) + ["bmx"],
                   default=os.environ.get("OAGAME_FORMAT", "table"),
                   help="output format (default from $OAGAME_FORMAT "
                        "or 'table')")
    p.add_argument("--output", "-o", default=None, help="output path "
                   "(default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oagame",
        description="Declarative stakeholder-game workbench: scenario "
                    "enumeration, payoff derivation, equilibrium analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a game file")
    _add_game_arg(p)
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("enumerate", help="admissible-row counts and "
                       "optional row dump")
    _add_game_arg(p)
    p.add_argument("--dump", action="store_true", help="include the rows")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("top", help="rows attaining the maximum global "
                       "utility")
    _add_game_arg(p)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    _add_common(p)
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("payoffs", help="derive the full payoff table")
    _add_game_arg(p)
    _add_policy_args(p)
    _add_common(p)
    p.set_defaults(func=_cmd_payoffs)

    p = sub.add_parser("project", help="project a two-player bimatrix")
    _add_game_arg(p)
    p.add_argument("--row-player", required=True)
    p.add_argument("--col-player", required=True)
    _add_policy_args(p)
    _add_common(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("nash", help="pure Nash equilibria of a game table "
                       "or a bimatrix file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--game")
    group.add_argument("--bimatrix", help="path to a .bmx file (bundled "
                       "names 'table5.bmx'/'table6.bmx' also resolve)")
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    _add_policy_args(p)
    _add_common(p)
    p.set_defaults(func=_cmd_nash)

    p = sub.add_parser("mixed", help="all 2-player equilibria by support "
                       "enumeration")
    p.add_argument("--bimatrix", required=True)
    p.add_argument("--dominance", choices=["strict", "weak"], default=None,
                   help="also run iterated dominance elimination")
    _add_common(p)
    p.set_defaults(func=_cmd_mixed)

    p = sub.add_parser("expected", help="expected utilities under given "
                       "mixtures")
    p.add_argument("--bimatrix", required=True)
    p.add_argument("--row-mix", required=True,
                   help="comma-separated probabilities, row actions in "
                        "order")
    p.add_argument("--col-mix", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_expected)

    p = sub.add_parser("reproduce", help="full pipeline on the bundled "
                       "fixtures with a paper-vs-computed comparison")
    p.add_argument("--game", default="oa.game")
    p.add_argument("--bimatrix", default="table5.bmx")
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"oagame: {exc}", file=sys.stderr)
        return exc.status
    except (GameError, ValueError) as exc:
        print(f"oagame: {exc}", file=sys.stderr)
        return DIAG_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
