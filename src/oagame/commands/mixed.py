"""``oagame mixed``: every equilibrium of a bimatrix by support
enumeration, and optionally iterated dominance."""

from .. import report as rp
from . import _is_bundled
from ._bimatrix import TABLE6_EU_NOTE, _load_bimatrix, certificate_to_obj


def run(args) -> tuple[int, dict]:
    from ..equilibrium import dominance_analysis, mixed_nash_2p
    table, digest = _load_bimatrix(args.bimatrix)
    certs, degenerate = mixed_nash_2p(table)
    out = rp.base_report({args.bimatrix: digest})
    out["degenerate"] = degenerate
    out["equilibria"] = [certificate_to_obj(c) for c in certs]
    out["count"] = len(certs)
    if args.dominance:
        result = dominance_analysis(table, args.dominance)
        out["dominance_trace"] = [
            {"player": e.player, "eliminated": e.action,
             "dominator": e.dominator, "notion": e.notion}
            for e in result.trace
        ]
        out["surviving_rows"], out["surviving_cols"] = map(
            list, result.surviving)
    if _is_bundled(digest, "table6.bmx"):
        out["note"] = TABLE6_EU_NOTE
    return 0, out
