"""``oagame expected``: expected utilities of a bimatrix under given
mixtures."""

from .. import report as rp
from ..equilibrium import MixedStrategy
from . import USAGE_ERROR, _CliError, _is_bundled
from ._bimatrix import TABLE6_EU_NOTE, _load_bimatrix, number


def _mix_from_arg(player: str, actions: tuple[str, ...], text: str,
                  flag: str) -> MixedStrategy:
    from fractions import Fraction

    from .._table import number_literal
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(actions):
        raise _CliError(f"{flag} needs {len(actions)} probabilities "
                        f"(one per action, in order)", USAGE_ERROR)
    try:
        parts = [number_literal(p) for p in parts]
    except ValueError as exc:
        raise _CliError(f"{flag}: {exc}", USAGE_ERROR)
    try:
        probs = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise _CliError(f"{flag}: probabilities must be rationals or "
                        f"decimals", USAGE_ERROR)
    try:
        return MixedStrategy(player, tuple(zip(actions, probs)))
    except ValueError as exc:
        raise _CliError(f"{flag}: {exc}", USAGE_ERROR)


def run(args) -> tuple[int, dict]:
    from ..equilibrium import expected_utility
    table, digest = _load_bimatrix(args.bimatrix)
    (row, col), (row_actions, col_actions) = table.players, table.actions
    mix_row = _mix_from_arg(row, row_actions, args.row_mix, "--row-mix")
    mix_col = _mix_from_arg(col, col_actions, args.col_mix, "--col-mix")
    eu_row, eu_col = expected_utility(table, mix_row, mix_col)
    out = rp.base_report({args.bimatrix: digest})
    out["row_mix"] = {a: number(p) for a, p in mix_row.probs}
    out["col_mix"] = {a: number(p) for a, p in mix_col.probs}
    out["expected_utilities"] = {row: number(eu_row), col: number(eu_col)}
    if _is_bundled(digest, "table6.bmx"):
        out["note"] = TABLE6_EU_NOTE
    return 0, out
