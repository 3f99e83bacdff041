"""Best responses, pure Nash equilibria, bimatrix projection, dominance,
support-enumeration mixed equilibria, and expected utilities.

Mixed-strategy computations run over exact rationals (fractions.Fraction);
decimals appear only at the reporting boundary.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .engine import CompletionPolicy, PayoffTable, chosen_completions
from .model import GameSpec, agent_utility

SUPPORT_LIMIT = 8  # support enumeration is exponential past this


class InfeasibleSliceError(Exception):
    """Every cell of the best-response slice is infeasible."""


class BimatrixFormatError(Exception):
    """Malformed bimatrix file."""


@dataclass(frozen=True)
class Bimatrix:
    row_player: str
    row_actions: tuple[str, ...]
    col_player: str
    col_actions: tuple[str, ...]
    payoffs: tuple[tuple[tuple[Fraction, Fraction] | None, ...], ...]
    provenance: str = "loaded-from-file"

    def __post_init__(self):
        if len(self.payoffs) != len(self.row_actions) or any(
                len(r) != len(self.col_actions) for r in self.payoffs):
            raise BimatrixFormatError("payoff matrix shape does not match "
                                      "the action lists")

    def feasible(self) -> bool:
        return all(cell is not None for row in self.payoffs for cell in row)

    def to_payoff_table(self) -> PayoffTable:
        cells = {}
        for i, ra in enumerate(self.row_actions):
            for j, ca in enumerate(self.col_actions):
                cells[(ra, ca)] = self.payoffs[i][j]
        return PayoffTable((self.row_player, self.col_player),
                           (self.row_actions, self.col_actions), cells)


@dataclass(frozen=True)
class MixedStrategy:
    player: str
    probs: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        total = sum(p for _, p in self.probs)
        if any(p < 0 for _, p in self.probs):
            raise ValueError("negative probability")
        if abs(total - 1) > Fraction(1, 10**9):
            raise ValueError(f"probabilities sum to {total}, not 1")

    def prob(self, action: str) -> Fraction:
        for a, p in self.probs:
            if a == action:
                return p
        return Fraction(0)

    def support(self) -> tuple[str, ...]:
        return tuple(a for a, p in self.probs if p > 0)

    def is_pure(self) -> bool:
        return len(self.support()) == 1

    @classmethod
    def pure(cls, player: str, action: str) -> "MixedStrategy":
        return cls(player, ((action, Fraction(1)),))


@dataclass(frozen=True)
class EquilibriumCertificate:
    """A (pure or mixed) equilibrium plus its re-checkable evidence.

    ``verification`` lists, per player, every pure action's expected utility
    against the equilibrium profile; no entry may strictly exceed the
    player's equilibrium utility.
    """

    kind: str  # pure | mixed
    strategies: tuple[MixedStrategy, ...]
    expected_utilities: tuple[Fraction, ...]
    verification: tuple[tuple[tuple[str, Fraction], ...], ...]
    degenerate: bool = False

    def pure_profile(self) -> tuple[str, ...] | None:
        if all(s.is_pure() for s in self.strategies):
            return tuple(s.support()[0] for s in self.strategies)
        return None

    def verify(self, tolerance: Fraction = Fraction(0)) -> bool:
        for eq_u, record in zip(self.expected_utilities, self.verification):
            if any(alt_u > eq_u + tolerance for _, alt_u in record):
                return False
        return True


# ---------------------------------------------------------------------------
# Pure analysis on n-player payoff tables


def best_responses(
    table: PayoffTable, player: str, others: dict[str, str]
) -> tuple[str, ...]:
    """Argmax set of the player's actions with every other player fixed."""
    idx = table.players.index(player)
    utilities = {}
    for action in table.actions[idx]:
        profile = tuple(action if p == player else others[p]
                        for p in table.players)
        cell = table.payoff(profile)
        if cell is not None:
            utilities[action] = cell[idx]
    if not utilities:
        raise InfeasibleSliceError(
            f"no feasible response for {player!r} against {others!r}")
    best = max(utilities.values())
    return tuple(a for a in table.actions[idx] if utilities.get(a) == best)


def pure_nash(table: PayoffTable) -> list[EquilibriumCertificate]:
    """All pure equilibria by brute force, in canonical profile order."""
    certs = []
    for profile in table.profiles():
        cell = table.payoff(profile)
        if cell is None:
            continue
        verification = []
        is_eq = True
        for idx, player in enumerate(table.players):
            others = {p: a for p, a in zip(table.players, profile)
                      if p != player}
            record = []
            for action in table.actions[idx]:
                alt = tuple(action if p == player else others[p]
                            for p in table.players)
                alt_cell = table.payoff(alt)
                if alt_cell is not None:
                    record.append((action, Fraction(alt_cell[idx])))
                    if alt_cell[idx] > cell[idx]:
                        is_eq = False
            verification.append(tuple(record))
        if is_eq:
            certs.append(EquilibriumCertificate(
                "pure",
                tuple(MixedStrategy.pure(p, a)
                      for p, a in zip(table.players, profile)),
                tuple(Fraction(u) for u in cell),
                tuple(verification)))
    return certs


# ---------------------------------------------------------------------------
# Projection


def project_bimatrix(
    game: GameSpec,
    policy: CompletionPolicy,
    row_player: str,
    col_player: str,
) -> Bimatrix:
    """Two-player view: complete the other players and the outcome per the
    policy for each action pair and record the pair's utilities.  A pair's
    completion is the first profile's pick with the greatest policy key,
    which is the policy applied to all of the pair's completions at once."""
    rp = game.player(row_player)
    cp = game.player(col_player)
    if rp is None or cp is None or rp.name == cp.name:
        raise ValueError("projection needs two distinct declared players")
    picks: dict[tuple[str, str], tuple] = {}  # action pair -> (key, row)
    for profile, row, key in chosen_completions(game, policy):
        pair = (profile[rp.name], profile[cp.name])
        if row is not None and (pair not in picks or key > picks[pair][0]):
            picks[pair] = (key, row)
    rows = []
    for ra in rp.actions:
        cells = []
        for ca in cp.actions:
            _, chosen = picks.get((ra, ca), (None, None))
            cells.append(None if chosen is None else
                         (Fraction(agent_utility(game, rp.name, chosen)),
                          Fraction(agent_utility(game, cp.name, chosen))))
        rows.append(tuple(cells))
    return Bimatrix(rp.name, rp.actions, cp.name, cp.actions,
                    tuple(rows), provenance="projected-from-game")


# ---------------------------------------------------------------------------
# Dominance

STRICT_DOM = "strict"
WEAK_DOM = "weak"


@dataclass(frozen=True)
class Elimination:
    player: str
    action: str
    dominator: str
    notion: str


@dataclass(frozen=True)
class DominanceResult:
    trace: tuple[Elimination, ...]
    surviving: Bimatrix


def _dominates(
    bm: Bimatrix, side: int, a: int, b: int,
    live_opponent: list[int], notion: str
) -> bool:
    """Does the side's action ``a`` dominate ``b`` over live opponent actions?

    strict: strictly better everywhere; weak: at least as good everywhere
    (so identical actions weakly dominate each other).
    """
    for j in live_opponent:
        ua = bm.payoffs[a][j][0] if side == 0 else bm.payoffs[j][a][1]
        ub = bm.payoffs[b][j][0] if side == 0 else bm.payoffs[j][b][1]
        if notion == STRICT_DOM:
            if ua <= ub:
                return False
        else:
            if ua < ub:
                return False
    return True


def dominance_analysis(
    bm: Bimatrix, notion: str = STRICT_DOM, iterate: bool = True
) -> DominanceResult:
    """Eliminate dominated actions in canonical declaration order.

    With ``iterate`` the elimination restarts after each removal until a
    fixed point; otherwise a single pass over the original matrix is made.
    """
    if notion not in (STRICT_DOM, WEAK_DOM):
        raise ValueError(f"unknown dominance notion {notion!r}")
    if not bm.feasible():
        raise ValueError("dominance analysis requires a fully feasible "
                         "bimatrix")
    live = [list(range(len(bm.row_actions))),
            list(range(len(bm.col_actions)))]
    names = [bm.row_actions, bm.col_actions]
    players = [bm.row_player, bm.col_player]
    trace: list[Elimination] = []

    def find_elimination() -> bool:
        for side in (0, 1):
            opp = live[1 - side]
            for b in list(live[side]):
                for a in live[side]:
                    if a == b or len(live[side]) == 1:
                        continue
                    if _dominates(bm, side, a, b, opp, notion):
                        trace.append(Elimination(players[side],
                                                 names[side][b],
                                                 names[side][a], notion))
                        live[side].remove(b)
                        return True
        return False

    if iterate:
        while find_elimination():
            pass
    else:
        find_elimination()

    surviving = Bimatrix(
        bm.row_player, tuple(names[0][i] for i in live[0]),
        bm.col_player, tuple(names[1][j] for j in live[1]),
        tuple(tuple(bm.payoffs[i][j] for j in live[1]) for i in live[0]),
        provenance=bm.provenance)
    return DominanceResult(tuple(trace), surviving)


# ---------------------------------------------------------------------------
# Mixed equilibria via support enumeration


def _solve_linear(matrix: list[list[Fraction]],
                  rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over exact rationals; None when singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _indifference_mix(
    payoffs: list[list[Fraction]], support_own: tuple[int, ...],
    support_opp: tuple[int, ...]
) -> tuple[list[Fraction], Fraction] | None:
    """Opponent mix over ``support_opp`` equalizing our payoff on
    ``support_own``; returns (mix, common value) or None if singular."""
    k = len(support_opp)
    matrix = []
    rhs = []
    for i in support_own:
        matrix.append([payoffs[i][j] for j in support_opp] + [Fraction(-1)])
        rhs.append(Fraction(0))
    matrix.append([Fraction(1)] * k + [Fraction(0)])
    rhs.append(Fraction(1))
    if len(matrix) != k + 1:
        return None
    solution = _solve_linear(matrix, rhs)
    if solution is None:
        return None
    return solution[:k], solution[k]


def mixed_nash_2p(bm: Bimatrix) -> tuple[list[EquilibriumCertificate], bool]:
    """All equilibria found by equal-size support enumeration, plus a
    degeneracy flag (singular indifference systems or off-support ties)."""
    if not bm.feasible():
        raise ValueError("mixed analysis requires a fully feasible bimatrix")
    m, n = len(bm.row_actions), len(bm.col_actions)
    if m > SUPPORT_LIMIT or n > SUPPORT_LIMIT:
        raise ValueError(f"support enumeration limited to {SUPPORT_LIMIT} "
                         f"actions per side")
    a = [[Fraction(bm.payoffs[i][j][0]) for j in range(n)] for i in range(m)]
    b = [[Fraction(bm.payoffs[i][j][1]) for j in range(n)] for i in range(m)]
    b_t = [[b[i][j] for i in range(m)] for j in range(n)]

    certs: list[EquilibriumCertificate] = []
    degenerate = False
    for k in range(1, min(m, n) + 1):
        for sup_r in itertools.combinations(range(m), k):
            for sup_c in itertools.combinations(range(n), k):
                col_mix = _indifference_mix(a, sup_r, sup_c)
                row_mix = _indifference_mix(b_t, sup_c, sup_r)
                if col_mix is None or row_mix is None:
                    degenerate = True
                    continue
                y, v_row = col_mix
                x, v_col = row_mix
                if any(p <= 0 for p in x) or any(p <= 0 for p in y):
                    if any(p == 0 for p in x) or any(p == 0 for p in y):
                        degenerate = True
                    continue
                # Off-support pure deviations must not be profitable.
                row_alts = [sum(y[jj] * a[i][j]
                                for jj, j in enumerate(sup_c))
                            for i in range(m)]
                col_alts = [sum(x[ii] * b[i][j]
                                for ii, i in enumerate(sup_r))
                            for j in range(n)]
                if any(row_alts[i] > v_row for i in range(m)
                       if i not in sup_r):
                    continue
                if any(col_alts[j] > v_col for j in range(n)
                       if j not in sup_c):
                    continue
                tie = (any(row_alts[i] == v_row for i in range(m)
                           if i not in sup_r)
                       or any(col_alts[j] == v_col for j in range(n)
                              if j not in sup_c))
                degenerate = degenerate or tie
                row_strategy = MixedStrategy(bm.row_player, tuple(
                    (bm.row_actions[i], x[ii])
                    for ii, i in enumerate(sup_r)))
                col_strategy = MixedStrategy(bm.col_player, tuple(
                    (bm.col_actions[j], y[jj])
                    for jj, j in enumerate(sup_c)))
                certs.append(EquilibriumCertificate(
                    "pure" if k == 1 else "mixed",
                    (row_strategy, col_strategy),
                    (v_row, v_col),
                    (tuple(zip(bm.row_actions, row_alts)),
                     tuple(zip(bm.col_actions, col_alts))),
                    degenerate=tie))
    return certs, degenerate


def expected_utility(
    bm: Bimatrix, mix_row: MixedStrategy, mix_col: MixedStrategy
) -> tuple[Fraction, Fraction]:
    """Bilinear expectation of both players' payoffs under the two mixes."""
    for a, _ in mix_row.probs:
        if a not in bm.row_actions:
            raise ValueError(f"unknown row action {a!r}")
    for a, _ in mix_col.probs:
        if a not in bm.col_actions:
            raise ValueError(f"unknown column action {a!r}")
    if not bm.feasible():
        raise ValueError("expected utility requires a fully feasible "
                         "bimatrix")
    eu_r = Fraction(0)
    eu_c = Fraction(0)
    for i, ra in enumerate(bm.row_actions):
        pr = mix_row.prob(ra)
        if pr == 0:
            continue
        for j, ca in enumerate(bm.col_actions):
            pc = mix_col.prob(ca)
            if pc == 0:
                continue
            ur, uc = bm.payoffs[i][j]
            eu_r += pr * pc * ur
            eu_c += pr * pc * uc
    return eu_r, eu_c


# ---------------------------------------------------------------------------
# Bimatrix file format (.bmx)

_HEADER_RE = re.compile(r"^(rows|cols):\s*(?P<player>[^:]+):\s*(?P<actions>.+)$")
_CELL_RE = re.compile(r"\(\s*([^,()]+?)\s*,\s*([^,()]+?)\s*\)")


def _parse_number(text: str) -> Fraction:
    return Fraction(text.strip())


def parse_bimatrix(text: str) -> Bimatrix:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) < 3:
        raise BimatrixFormatError("expected rows:, cols: and payoff lines")
    header = {}
    for ln in lines[:2]:
        m = _HEADER_RE.match(ln)
        if not m:
            raise BimatrixFormatError(f"malformed header line {ln!r}")
        header[ln.split(":", 1)[0]] = (
            m.group("player").strip(),
            tuple(a.strip() for a in m.group("actions").split(",")))
    if set(header) != {"rows", "cols"}:
        raise BimatrixFormatError("need one rows: and one cols: header")
    row_player, row_actions = header["rows"]
    col_player, col_actions = header["cols"]
    payoff_lines = lines[2:]
    if len(payoff_lines) != len(row_actions):
        raise BimatrixFormatError(
            f"expected {len(row_actions)} payoff lines, "
            f"got {len(payoff_lines)}")
    rows = []
    for ln in payoff_lines:
        cells = _CELL_RE.findall(ln)
        if len(cells) != len(col_actions):
            raise BimatrixFormatError(
                f"expected {len(col_actions)} cells in line {ln!r}")
        try:
            rows.append(tuple((_parse_number(u), _parse_number(v))
                              for u, v in cells))
        except ValueError as exc:
            raise BimatrixFormatError(f"bad payoff in line {ln!r}: {exc}")
    return Bimatrix(row_player, row_actions, col_player, col_actions,
                    tuple(rows))


def _format_number(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x}"


def serialize_bimatrix(bm: Bimatrix) -> str:
    lines = [
        f"rows: {bm.row_player}: {','.join(bm.row_actions)}",
        f"cols: {bm.col_player}: {','.join(bm.col_actions)}",
    ]
    for row in bm.payoffs:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("(-,-)")
            else:
                cells.append(f"({_format_number(cell[0])},"
                             f"{_format_number(cell[1])})")
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
