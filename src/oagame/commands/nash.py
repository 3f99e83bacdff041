"""``oagame nash``: pure Nash equilibria of a game's payoff table or of a
bimatrix file."""

from __future__ import annotations

from .. import report as rp
from . import (USAGE_ERROR, _CliError, _emit, _has_publish_oa_grant_ta,
               _is_bundled, _load_bimatrix)


def run(args) -> int:
    from ..equilibrium import pure_nash
    out = rp.base_report({})
    if args.bimatrix:
        for flag in ("mode", "policy", "policy_player", "fix"):
            if getattr(args, flag):
                raise _CliError(f"--bimatrix takes no "
                                f"--{flag.replace('_', '-')}", USAGE_ERROR)
        table, digest = _load_bimatrix(args.bimatrix)
        out["inputs"] = {args.bimatrix: digest}
    else:
        from ..engine import derive_payoff_table
        from ._game import _game_or_fail, _policy
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
