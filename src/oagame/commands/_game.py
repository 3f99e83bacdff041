"""What the commands that read a ``.game`` file share; the bimatrix
commands never load it, and the --policy options are in ``_policy``."""

import sys

from .. import report as rp
from . import DIAG_ERROR, _CliError, _read_input


def _game_or_fail(args) -> tuple:
    """The parsed game and the input's digest.  The parser makes
    ``validate_game``'s structural checks and resolves each rule atom to
    declared names or an inert atom, so a game that parses validates with
    no error, and ``validate`` runs ``validate_game`` for its counts."""
    from ..dsl import parse_game_spec
    text, digest = _read_input(args.game)
    result = parse_game_spec(text, mode=args.mode or "strict")
    if result.game is None:
        for err in result.errors:
            print(str(err), file=sys.stderr)
        raise _CliError(f"{args.game}: {len(result.errors)} parse "
                        f"error(s)", DIAG_ERROR)
    return result.game, digest


def _row_dump(game, rows) -> rp.RowDump:
    """The rows section of a report; every name and utility is resolved
    here, before any output is written."""
    from ..engine import record_cells
    return rp.RowDump(*record_cells(game, rows))


def _census_figures(enum) -> dict:
    """The census figures of ``enum``, keyed as in ``rp.FIGURES``."""
    return {
        "action_profiles": enum.action_profile_count,
        "row_space": enum.row_space_count,
        "admissible_rows": enum.admissible_count,
        "max_global_utility": enum.max_global_utility,
        "top_gu_rows": enum.max_global_utility_count,
    }
