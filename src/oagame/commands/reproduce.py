"""``oagame reproduce``: the full pipeline on the bundled fixtures, with
the paper-vs-computed comparison and the golden check."""

from __future__ import annotations

from .. import report as rp
from . import DIAG_ERROR
from ._bimatrix import _has_publish_oa_grant_ta, _load_bimatrix
from ._game import _census_figures, _game_or_fail


def _golden_check(computed: dict) -> list[dict]:
    """Golden-vs-computed entries for the ``rp.FIGURES`` keyed in
    ``computed``, in its order."""
    return [{"figure": rp.FIGURES[k][0], "golden": rp.FIGURES[k][2],
             "computed": v, "matches": v == rp.FIGURES[k][2]}
            for k, v in computed.items()]


def run(args) -> tuple[int, dict]:
    from ..engine import CompletionPolicy, enumeration_report
    from .._table import payoff_pair
    from ..equilibrium import project_bimatrix, pure_nash
    game, game_digest = _game_or_fail(args)
    enum = enumeration_report(game)
    table5, digest5 = _load_bimatrix(args.bimatrix)
    certs = pure_nash(table5)
    try:
        projected = project_bimatrix(game, CompletionPolicy(), "Academics",
                                     "Editors")
    except ValueError:  # without both players, Table 5's cell is absent
        cells = {}
    else:
        cells = {pair: payoff_pair(cell) or "infeasible"
                 for pair, cell in zip(projected.profiles(), projected.cells)}

    computed = {
        **_census_figures(enum),
        "pure_nash_member": ("(Publish OA, Grant TA)"
                             if _has_publish_oa_grant_ta(certs)
                             else "not an equilibrium"),
        "table5_publish_ta_grant_ta":
            cells.get(("Publish TA", "Grant TA"), "absent"),
    }
    out = rp.base_report({args.game: game_digest, args.bimatrix: digest5})
    out["paper_comparison"] = rp.paper_comparison(computed)
    out["golden_check"] = _golden_check(computed)
    ok = all(c["matches"] for c in out["golden_check"])
    out["status"] = "ok" if ok else "drift-from-golden"
    return (0 if ok else DIAG_ERROR), out
