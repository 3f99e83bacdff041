"""``oagame top``: the rows attaining the maximum global utility."""

from .. import report as rp
from . import _is_bundled
from ._game import _game_or_fail, _row_dump


def run(args) -> tuple[int, dict]:
    from ..engine import top_gu_rows
    game, digest = _game_or_fail(args)
    best, rows = top_gu_rows(game)
    out = rp.base_report({args.game: digest})
    out["max_global_utility"] = best
    out["row_count"] = sum(len(completions) for _, completions in rows)
    out["rows"] = _row_dump(game, rows)
    if _is_bundled(digest, "oa.game"):
        out["paper_comparison"] = rp.paper_comparison({
            "max_global_utility": best, "top_gu_rows": out["row_count"]})
    return 0, out
