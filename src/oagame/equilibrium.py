"""Best responses, pure Nash equilibria, bimatrix projection, dominance,
support-enumeration mixed equilibria, and expected utilities.

Mixed-strategy computations are exact: support enumeration solves its
indifference systems over ints, and every reported figure is a
fractions.Fraction; decimals appear only at the reporting boundary.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .model import GameSpec, PayoffTable

if TYPE_CHECKING:
    from .engine import CompletionPolicy

SUPPORT_LIMIT = 8  # support enumeration is exponential past this


class InfeasibleSliceError(Exception):
    """Every cell of the best-response slice is infeasible."""


class BimatrixFormatError(Exception):
    """Malformed bimatrix file."""


class _BimatrixFields(NamedTuple):
    row_player: str
    row_actions: tuple[str, ...]
    col_player: str
    col_actions: tuple[str, ...]
    payoffs: tuple[tuple[tuple[Fraction, Fraction] | None, ...], ...]
    provenance: str = "loaded-from-file"


class Bimatrix(_BimatrixFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *fields, **named):
        if len(self.payoffs) != len(self.row_actions) or any(
                len(r) != len(self.col_actions) for r in self.payoffs):
            raise BimatrixFormatError("payoff matrix shape does not match "
                                      "the action lists")

    def feasible(self) -> bool:
        return all(cell is not None for row in self.payoffs for cell in row)

    def to_payoff_table(self) -> PayoffTable:
        return PayoffTable((self.row_player, self.col_player),
                           (self.row_actions, self.col_actions),
                           tuple(itertools.chain.from_iterable(self.payoffs)))


class _MixFields(NamedTuple):
    player: str
    probs: tuple[tuple[str, Fraction], ...]


class MixedStrategy(_MixFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *fields, **named):
        if len({a for a, _ in self.probs}) != len(self.probs):
            raise ValueError("an action is given more than one probability")
        if any(p < 0 for _, p in self.probs):
            raise ValueError("negative probability")
        if (total := sum(p for _, p in self.probs)) != 1:
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


class EquilibriumCertificate(NamedTuple):
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


def _strides(table: PayoffTable) -> list[tuple[int, int]]:
    """Per player, ``(action count, stride)``: profiles that differ only in
    that player's action lie ``stride`` apart in ``table.cells``."""
    counts = [len(actions) for actions in table.actions]
    return [(n, math.prod(counts[i + 1:])) for i, n in enumerate(counts)]


def _slice(index: int, count: int, stride: int) -> range:
    """Positions in ``table.cells`` of the profiles that differ from the
    one at ``index`` only in the action of the player with ``count``
    actions and ``stride`` (from ``_strides``), in action order."""
    start = index - index // stride % count * stride
    return range(start, start + count * stride, stride)


def best_responses(
    table: PayoffTable, player: str, others: dict[str, str]
) -> tuple[str, ...]:
    """Argmax set of the player's actions with every other player fixed."""
    i = table.players.index(player)
    actions, cells = table.actions[i], table.cells
    at = _slice(table._index(tuple(
        actions[0] if p == player else others[p] for p in table.players)),
        *_strides(table)[i])
    utilities = [cells[j][i] for j in at if cells[j] is not None]
    if not utilities:
        raise InfeasibleSliceError(
            f"no feasible response for {player!r} against {others!r}")
    best = max(utilities)
    return tuple(a for a, j in zip(actions, at)
                 if cells[j] is not None and cells[j][i] == best)


def pure_nash(table: PayoffTable) -> list[EquilibriumCertificate]:
    """All pure equilibria in canonical profile order: the feasible cells
    that no feasible cell of any player's slice beats for that player.
    Names and ``Fraction``s are built only for the equilibria."""
    cells, certs, strides = table.cells, [], _strides(table)
    for index, cell in enumerate(cells):
        if cell is None:
            continue
        slices = [_slice(index, *side) for side in strides]
        if any(cells[j] is not None and cells[j][i] > cell[i]
               for i, at in enumerate(slices) for j in at):
            continue
        sides = list(zip(table.players, table.actions, slices))
        certs.append(EquilibriumCertificate(
            "pure",
            tuple(MixedStrategy.pure(p, actions[at.index(index)])
                  for p, actions, at in sides),
            tuple(map(Fraction, cell)),
            tuple(tuple((a, Fraction(cells[j][i]))
                        for a, j in zip(actions, at) if cells[j] is not None)
                  for i, (_, actions, at) in enumerate(sides))))
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
    from .engine import chosen_completions, compile_game
    cg = compile_game(game)
    ri, ci = cg.players.index(rp.name), cg.players.index(cp.name)
    picks: dict[tuple[int, int], tuple] = {}  # action pair -> (key, pick)
    for profile, completion, key in chosen_completions(game, policy):
        pair = (profile[ri], profile[ci])
        if completion is not None and (pair not in picks
                                       or key > picks[pair][0]):
            picks[pair] = (key, completion)
    rows = []
    for i in range(len(rp.actions)):
        cells = []
        for j in range(len(cp.actions)):
            _, chosen = picks.get((i, j), (None, None))
            cells.append(None if chosen is None else
                         (Fraction(cg.utility(rp.name, chosen)),
                          Fraction(cg.utility(cp.name, chosen))))
        rows.append(tuple(cells))
    return Bimatrix(rp.name, rp.actions, cp.name, cp.actions,
                    tuple(rows), provenance="projected-from-game")


# ---------------------------------------------------------------------------
# Dominance

_BEATS = {"strict": operator.gt, "weak": operator.ge}  # payoff tests by notion


class Elimination(NamedTuple):
    player: str
    action: str
    dominator: str
    notion: str


class DominanceResult(NamedTuple):
    trace: tuple[Elimination, ...]
    surviving: tuple[tuple[str, ...], ...]  # live actions, per player


def _eliminations(table: PayoffTable, live: list[list[int]], notion: str):
    """``(player, b, a)`` index triples where live ``a`` dominates live
    ``b`` over the others' live profiles, in canonical order."""
    beats, cells, strides = _BEATS[notion], table.cells, _strides(table)
    for i, (_, stride) in enumerate(strides):
        offsets = [0]  # positions of the others' live profiles
        for j, (_, other) in enumerate(strides):
            if j != i:
                offsets = [o + k * other for o in offsets for k in live[j]]
        for b in live[i]:
            for a in live[i]:
                if a != b and all(
                        (ub := cells[b * stride + o]) is None
                        or (ua := cells[a * stride + o]) is not None
                        and beats(ua[i], ub[i]) for o in offsets):
                    yield i, b, a


def dominance_analysis(
    table: PayoffTable, notion: str = "strict"
) -> DominanceResult:
    """Iterated elimination of dominated actions for any number of players.

    ``a`` dominates ``b`` when, against each live profile of the others
    where ``b``'s cell is feasible, ``a``'s is feasible too and pays more
    (strict) or no less (weak); so identical actions weakly dominate each
    other.  Each pass removes the first dominated action in canonical
    order (players, then the dominated action, then its dominator, each
    in declaration order) and restarts.  Weak elimination depends on that
    order; strict does not."""
    if notion not in _BEATS:
        raise ValueError(f"unknown dominance notion {notion!r}")
    live = [list(range(len(names))) for names in table.actions]
    trace = []
    while found := next(_eliminations(table, live, notion), None):
        i, b, a = found
        names = table.actions[i]
        trace.append(Elimination(table.players[i], names[b], names[a], notion))
        live[i].remove(b)
    return DominanceResult(tuple(trace), tuple(
        tuple(names[k] for k in kept)
        for names, kept in zip(table.actions, live)))


# ---------------------------------------------------------------------------
# Mixed equilibria via support enumeration


def _integer_scaled(
    matrix: list[list[Fraction]]
) -> tuple[list[list[int]], int]:
    """The matrix times the LCM of its denominators, as ints, and that
    LCM.  Indifference mixes do not change under positive scaling; common
    values scale with it."""
    scale = math.lcm(*(x.denominator for row in matrix for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row]
            for row in matrix], scale


def _indifference(
    payoffs: list[list[int]], support_own: tuple[int, ...],
    support_opp: tuple[int, ...]
) -> tuple[list[int], int, int] | None:
    """Opponent mix over ``support_opp`` equalizing our payoff on
    ``support_own``, by fraction-free (Bareiss) Gauss-Jordan elimination.

    Returns the numerators of the mix and of the common value over one
    positive denominator, or None when the system is singular.  Each step
    divides exactly by the previous pivot, so every entry stays an int and
    the last pivot is the determinant up to sign (Bareiss 1968)."""
    k = len(support_opp)
    rows = [[payoffs[i][j] for j in support_opp] + [-1, 0]
            for i in support_own]
    rows.append([1] * k + [0, 1])
    prev = 1
    for col in range(k + 1):
        pivot = next((r for r in range(col, k + 1) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for r, row in enumerate(rows):
            if r != col:
                f = row[col]
                rows[r] = [(p * x - f * t) // prev for x, t in zip(row, top)]
        prev = p
    sign = 1 if prev > 0 else -1
    *mix, value = (sign * row[-1] for row in rows)
    return mix, value, sign * prev


def mixed_nash_2p(bm: Bimatrix) -> tuple[list[EquilibriumCertificate], bool]:
    """All equilibria found by equal-size support enumeration, plus a
    degeneracy flag (singular indifference systems or off-support ties).

    Both players' payoffs are scaled to ints once; signs and off-support
    deviations are tested on integer numerators, and ``Fraction``s are
    built only for the equilibria found."""
    if not bm.feasible():
        raise ValueError("mixed analysis requires a fully feasible bimatrix")
    m, n = len(bm.row_actions), len(bm.col_actions)
    if m > SUPPORT_LIMIT or n > SUPPORT_LIMIT:
        raise ValueError(f"support enumeration limited to {SUPPORT_LIMIT} "
                         f"actions per side")
    a, scale_a = _integer_scaled(
        [[Fraction(bm.payoffs[i][j][0]) for j in range(n)] for i in range(m)])
    b_t, scale_b = _integer_scaled(
        [[Fraction(bm.payoffs[i][j][1]) for i in range(m)] for j in range(n)])

    certs: list[EquilibriumCertificate] = []
    degenerate = False
    for k in range(1, min(m, n) + 1):
        for sup_r in itertools.combinations(range(m), k):
            for sup_c in itertools.combinations(range(n), k):
                col_mix = _indifference(a, sup_r, sup_c)
                if col_mix is None or 0 in col_mix[0]:
                    degenerate = True
                    continue
                y, v_row, den_y = col_mix
                # A negative weight rules the pair out; the row system
                # could only set the flag, so skip it once the flag is set.
                if degenerate and min(y) < 0:
                    continue
                row_mix = _indifference(b_t, sup_c, sup_r)
                if row_mix is None or 0 in row_mix[0]:
                    degenerate = True
                    continue
                x, v_col, den_x = row_mix
                if min(y) < 0 or min(x) < 0:
                    continue
                # Off-support pure deviations must not be profitable; both
                # sides of each comparison are over den * scale.
                row_alts = [sum(w * a[i][j] for w, j in zip(y, sup_c))
                            for i in range(m)]
                col_alts = [sum(w * b_t[j][i] for w, i in zip(x, sup_r))
                            for j in range(n)]
                off_r = [row_alts[i] - v_row for i in range(m)
                         if i not in sup_r]
                off_c = [col_alts[j] - v_col for j in range(n)
                         if j not in sup_c]
                if max(off_r, default=-1) > 0 or max(off_c, default=-1) > 0:
                    continue
                tie = 0 in off_r or 0 in off_c
                degenerate = degenerate or tie
                row_den, col_den = den_y * scale_a, den_x * scale_b
                row_strategy = MixedStrategy(bm.row_player, tuple(
                    (bm.row_actions[i], Fraction(w, den_x))
                    for i, w in zip(sup_r, x)))
                col_strategy = MixedStrategy(bm.col_player, tuple(
                    (bm.col_actions[j], Fraction(w, den_y))
                    for j, w in zip(sup_c, y)))
                certs.append(EquilibriumCertificate(
                    "pure" if k == 1 else "mixed",
                    (row_strategy, col_strategy),
                    (Fraction(v_row, row_den), Fraction(v_col, col_den)),
                    (tuple((act, Fraction(u, row_den))
                           for act, u in zip(bm.row_actions, row_alts)),
                     tuple((act, Fraction(u, col_den))
                           for act, u in zip(bm.col_actions, col_alts))),
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


def _parse_cell(u: str, v: str) -> tuple[Fraction, Fraction] | None:
    """A payoff pair, or None for the ``(-,-)`` of an infeasible cell."""
    if u == v == "-":
        return None
    return Fraction(u), Fraction(v)


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
        player = m.group("player").strip()
        actions = tuple(a.strip() for a in m.group("actions").split(","))
        if not player or "" in actions or len(set(actions)) < len(actions):
            raise BimatrixFormatError(f"header line {ln!r} needs a player "
                                      f"and distinct, non-empty actions")
        header[ln.split(":", 1)[0]] = (player, actions)
    if set(header) != {"rows", "cols"}:
        raise BimatrixFormatError("need one rows: and one cols: header")
    if header["rows"][0] == header["cols"][0]:
        raise BimatrixFormatError(f"rows: and cols: both name player "
                                  f"{header['rows'][0]!r}")
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
            rows.append(tuple(_parse_cell(u, v) for u, v in cells))
        except (ValueError, ZeroDivisionError) as exc:
            raise BimatrixFormatError(f"bad payoff in line {ln!r}: {exc}")
    return Bimatrix(row_player, row_actions, col_player, col_actions,
                    tuple(rows))


def payoff_pair(cell: tuple[Fraction, Fraction] | None) -> str | None:
    """The exact ``(u,v)`` text of a payoff cell, or None when it is
    infeasible."""
    return None if cell is None else "(%s,%s)" % cell


def serialize_bimatrix(bm: Bimatrix) -> str:
    """``.bmx`` text that ``parse_bimatrix`` reads back as ``bm`` (up to
    provenance); ValueError when it would not."""
    lines = [f"rows: {bm.row_player}: {','.join(bm.row_actions)}",
             f"cols: {bm.col_player}: {','.join(bm.col_actions)}"]
    for row in bm.payoffs:
        lines.append(" ".join(payoff_pair(cell) or "(-,-)" for cell in row))
    text = "\n".join(lines) + "\n"
    try:
        if parse_bimatrix(text)[:5] == bm[:5]:
            return text
        reason = "the text would read back as a different bimatrix"
    except BimatrixFormatError as exc:
        reason = str(exc)
    raise ValueError(f"cannot write the bimatrix of {bm.row_player!r} and "
                     f"{bm.col_player!r} as .bmx text: {reason}")
