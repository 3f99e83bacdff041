"""``oagame nash``: pure Nash equilibria of a game's payoff table or of a
bimatrix file."""

from .. import report as rp
from . import USAGE_ERROR, _CliError, _is_bundled
from ._bimatrix import (_has_publish_oa_grant_ta, _load_bimatrix,
                        certificate_to_obj)


def run(args) -> tuple[int, dict]:
    from ..equilibrium import pure_nash
    if args.bimatrix:
        for flag in ("mode", "policy", "policy_player", "fix"):
            if getattr(args, flag):
                raise _CliError(f"--bimatrix takes no "
                                f"--{flag.replace('_', '-')}", USAGE_ERROR)
        table, digest = _load_bimatrix(args.bimatrix)
    else:
        from ..engine import derive_payoff_table
        from ._game import _game_or_fail
        from ._policy import _policy
        game, digest = _game_or_fail(args)
        table = derive_payoff_table(game, _policy(args, game))
    certs = pure_nash(table)
    out = rp.base_report({args.bimatrix or args.game: digest})
    if args.bimatrix and _is_bundled(digest, "table5.bmx"):
        out["paper_comparison"] = rp.paper_comparison({
            "table5_publish_oa_grant_ta":
                "present" if _has_publish_oa_grant_ta(certs) else "absent"})
    out["equilibria"] = [certificate_to_obj(c) for c in certs]
    out["count"] = len(certs)
    return 0, out
