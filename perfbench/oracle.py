"""Reference answers the benchmark checks the CLI's output against.

Everything here is independent of the package under test: games are read
from the benchmark's own plain description (the one it serialises into
``.game`` text), bimatrices from the benchmark's own payoff lists, and all
arithmetic on mixed strategies is exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PlainGame:
    """A game as plain data: the generator's own description.

    ``players``: (name, actions); ``variables``: (name, owner, ((value,
    score), ...)); ``rules``: (condition, consequence, otherwise), each a
    tuple of (subject, value) atoms where the subject is a player or a
    variable name.
    """

    name: str
    players: tuple[tuple[str, tuple[str, ...]], ...]
    variables: tuple[tuple[str, str, tuple[tuple[str, int], ...]], ...]
    rules: tuple[tuple[tuple, tuple, tuple], ...]

    @property
    def profile_count(self) -> int:
        n = 1
        for _, actions in self.players:
            n *= len(actions)
        return n

    @property
    def row_space(self) -> int:
        n = self.profile_count
        for _, _, values in self.variables:
            n *= len(values)
        return n

    def deferred_rules(self) -> int:
        """Rules whose condition tests an outcome variable."""
        names = {v[0] for v in self.variables}
        return sum(1 for cond, _, _ in self.rules
                   if any(s in names for s, _ in cond))


@dataclass(frozen=True)
class RowCensus:
    admissible: int
    max_gu: int | None
    at_max: int
    gu_sum: int


def census(game: PlainGame) -> RowCensus:
    """Admissible-row count and global-utility statistics by brute force.

    Every outcome assignment is checked against every rule as a material
    implication with an optional otherwise-branch.  Profiles are grouped by
    which rules' action atoms they satisfy, because two profiles in one
    group admit exactly the same assignments; each group's assignment space
    is then enumerated in full once.
    """
    players = {name: i for i, (name, _) in enumerate(game.players)}
    variables = {name: i for i, (name, _, _) in enumerate(game.variables)}

    def split(atoms):
        acts = tuple((players[s], v) for s, v in atoms if s in players)
        outs = tuple((variables[s], v) for s, v in atoms if s in variables)
        return acts, outs

    compiled = []
    for cond, cons, other in game.rules:
        cond_acts, cond_outs = split(cond)
        compiled.append((cond_acts, cond_outs, split(cons)[1],
                         split(other)[1]))

    groups: Counter = Counter()
    for profile in itertools.product(*(a for _, a in game.players)):
        groups[tuple(all(profile[p] == v for p, v in acts)
                     for acts, _, _, _ in compiled)] += 1

    domains = [tuple(values) for _, _, values in game.variables]
    per_group: dict[tuple, Counter] = {}
    for key in groups:
        gus: Counter = Counter()
        for combo in itertools.product(*domains):
            names = [value for value, _ in combo]
            ok = True
            for fired, (_, cond_outs, cons, other) in zip(key, compiled):
                if fired and all(names[i] == v for i, v in cond_outs):
                    branch = cons
                elif other:
                    branch = other
                else:
                    continue
                if not all(names[i] == v for i, v in branch):
                    ok = False
                    break
            if ok:
                gus[sum(score for _, score in combo)] += 1
        per_group[key] = gus

    total: Counter = Counter()
    for key, mult in groups.items():
        for gu, n in per_group[key].items():
            total[gu] += n * mult
    if not total:
        return RowCensus(0, None, 0, 0)
    best = max(total)
    return RowCensus(sum(total.values()), best, total[best],
                     sum(gu * n for gu, n in total.items()))


# ---------------------------------------------------------------------------
# Bimatrices


@dataclass(frozen=True)
class PlainBimatrix:
    row_player: str
    row_actions: tuple[str, ...]
    col_player: str
    col_actions: tuple[str, ...]
    a: tuple[tuple[Fraction, ...], ...]  # row player's payoffs
    b: tuple[tuple[Fraction, ...], ...]  # column player's payoffs

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_actions), len(self.col_actions)


_HEADER = re.compile(r"^(rows|cols):\s*([^:]+):\s*(.+)$")
_CELL = re.compile(r"\(\s*([^,()]+?)\s*,\s*([^,()]+?)\s*\)")


def read_bmx(text: str) -> PlainBimatrix:
    """Minimal reader for fully feasible ``.bmx`` text (bundled fixtures)."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    head = {}
    for ln in lines[:2]:
        m = _HEADER.match(ln)
        head[m.group(1)] = (m.group(2).strip(),
                            tuple(x.strip() for x in m.group(3).split(",")))
    cells = [[(Fraction(u), Fraction(v)) for u, v in _CELL.findall(ln)]
             for ln in lines[2:]]
    return PlainBimatrix(head["rows"][0], head["rows"][1],
                         head["cols"][0], head["cols"][1],
                         tuple(tuple(c[0] for c in row) for row in cells),
                         tuple(tuple(c[1] for c in row) for row in cells))


def support_pairs(m: int, n: int) -> int:
    """Equal-size support pairs of an m x n game: sum_k C(m,k) C(n,k)."""
    return sum(math.comb(m, k) * math.comb(n, k)
               for k in range(1, min(m, n) + 1))


def pure_equilibria(bm: PlainBimatrix) -> list[tuple[str, str]]:
    """All pure Nash equilibria in row-major order."""
    m, n = bm.shape
    out = []
    for i in range(m):
        for j in range(n):
            if (all(bm.a[k][j] <= bm.a[i][j] for k in range(m))
                    and all(bm.b[i][k] <= bm.b[i][j] for k in range(n))):
                out.append((bm.row_actions[i], bm.col_actions[j]))
    return out


def expected(bm: PlainBimatrix, x: list[Fraction],
             y: list[Fraction]) -> tuple[Fraction, Fraction]:
    m, n = bm.shape
    eu_r = sum(x[i] * y[j] * bm.a[i][j] for i in range(m) for j in range(n))
    eu_c = sum(x[i] * y[j] * bm.b[i][j] for i in range(m) for j in range(n))
    return Fraction(eu_r), Fraction(eu_c)


def check_equilibrium(bm: PlainBimatrix, cert: dict) -> str | None:
    """Re-check one reported certificate (the CLI's JSON form) exactly.

    Probabilities must form a distribution over declared actions, the
    reported expected utilities must equal the bilinear expectation, and no
    pure deviation may pay more.
    """
    strategies = {s["player"]: s["probabilities"] for s in cert["strategies"]}
    mixes = []
    for player, actions in ((bm.row_player, bm.row_actions),
                            (bm.col_player, bm.col_actions)):
        probs = strategies.get(player)
        if probs is None or not set(probs) <= set(actions):
            return f"strategy of {player!r} missing or off the action list"
        mix = [Fraction(str(probs.get(a, 0))) for a in actions]
        if any(p < 0 for p in mix) or sum(mix) != 1:
            return f"strategy of {player!r} is not a distribution"
        mixes.append(mix)
    x, y = mixes
    eu_r, eu_c = expected(bm, x, y)
    reported = cert["expected_utilities"]
    if (Fraction(str(reported[bm.row_player])) != eu_r
            or Fraction(str(reported[bm.col_player])) != eu_c):
        return "reported expected utilities differ from the payoffs"
    m, n = bm.shape
    for i in range(m):
        if sum(y[j] * bm.a[i][j] for j in range(n)) > eu_r:
            return f"row deviation to {bm.row_actions[i]!r} pays more"
    for j in range(n):
        if sum(x[i] * bm.b[i][j] for i in range(m)) > eu_c:
            return f"column deviation to {bm.col_actions[j]!r} pays more"
    return None


def check_dominance(bm: PlainBimatrix, trace: list[dict],
                    rows: list[str], cols: list[str]) -> str | None:
    """Replay a reported weak-dominance elimination trace."""
    live = [list(bm.row_actions), list(bm.col_actions)]
    for step in trace:
        side = 0 if step["player"] == bm.row_player else 1
        loser, winner = step["eliminated"], step["dominator"]
        if loser not in live[side] or winner not in live[side]:
            return f"elimination of {loser!r} names a dead action"
        for other in live[1 - side]:
            if side == 0:
                i, k = bm.row_actions.index(winner), bm.row_actions.index(loser)
                j = bm.col_actions.index(other)
                better = bm.a[i][j] >= bm.a[k][j]
            else:
                i = bm.row_actions.index(other)
                j, k = bm.col_actions.index(winner), bm.col_actions.index(loser)
                better = bm.b[i][j] >= bm.b[i][k]
            if not better:
                return f"{winner!r} does not weakly dominate {loser!r}"
        live[side].remove(loser)
    if live != [rows, cols]:
        return "surviving actions differ from the replayed trace"
    return None
