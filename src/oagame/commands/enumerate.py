"""``oagame enumerate``: admissible-row counts and an optional row dump."""

from .. import report as rp
from . import _is_bundled
from ._game import _census_figures, _game_or_fail, _row_dump


def run(args) -> tuple[int, dict]:
    from ..engine import admissible_rows, enumeration_report
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
    return 0, out
