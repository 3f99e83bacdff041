"""The solvers only the ``mixed`` command runs: iterated elimination of
dominated actions on any ``PayoffTable``, and every equilibrium of a
two-player one by support enumeration.

Programs read the public names here through ``oagame.equilibrium`` (and
``oagame``), which loads this module on first access.  Support enumeration
runs one indifference solve, deviation check and strategy per player, over
ints, from minors that each support builds once and shares with every pair
it is in; ``Fraction``s are built only for the equilibria found.
"""

import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from ._table import PayoffTable
from .equilibrium import (EquilibriumCertificate, MixedStrategy,
                          _check_two_players, _strides)

SUPPORT_LIMIT = 8  # support enumeration is exponential past this


# ---------------------------------------------------------------------------
# Dominance

_BEATS = {"strict": operator.gt, "weak": operator.ge}  # payoff tests by notion


Elimination = namedtuple("Elimination", ("player", "action", "dominator",
                                         "notion"))
# surviving: the live actions, per player
DominanceResult = namedtuple("DominanceResult", ("trace", "surviving"))


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
    matrix: list[list[Fraction | int]]
) -> tuple[list[list[int]], int]:
    """The matrix times the LCM of its denominators, as ints, and that
    LCM.  Indifference mixes do not change under positive scaling; common
    values scale with it."""
    scale = math.lcm(*(x.denominator for row in matrix for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row]
            for row in matrix], scale


def _cramer(payoffs: list[list[int]], width: int):
    """Solver of the indifference systems of ``payoffs`` (rows of ints over
    ``width`` opponent actions).  ``solve(own, opp)``, for equal-size
    supports, is the opponent mix over ``opp`` that equalizes our payoff on
    ``own``: the numerators of the mix and of the common value over one
    positive denominator, or None when the system is singular.

    Let D hold the rows ``payoffs[i] - payoffs[own[0]]`` for ``i`` in
    ``own[1:]``, last first.  By Cramer's rule the mix is proportional to
    ``c_p = (-1)**p * det D[:, opp without opp[p]]``, and the system is
    singular exactly when the ``c_p`` sum to 0.  The minors of D on every
    ``len(own) - 1`` columns are built once per ``own``, by Laplace
    expansion along its first row from the minors of the prefix
    ``own[:-1]``, and kept by their column bitmask."""
    subsets = {}  # column tuple -> expansion terms (sign, column, rest mask)
    by_size = [[] for _ in range(width + 1)]  # (mask, terms) per size
    for size in range(width + 1):
        for cols in itertools.combinations(range(width), size):
            mask = sum(1 << j for j in cols)
            terms = tuple(((-1) ** p, j, mask ^ 1 << j)
                          for p, j in enumerate(cols))
            subsets[cols] = terms
            by_size[size].append((mask, terms))
    memo: dict[tuple[int, ...], dict[int, int]] = {}  # own -> minors by mask

    def minors(own: tuple[int, ...]) -> dict[int, int]:
        table = memo.get(own)
        if table is None:
            if len(own) == 1:
                table = {0: 1}  # the empty minor
            else:
                prefix = minors(own[:-1])
                row = [x - y for x, y in zip(payoffs[own[-1]],
                                             payoffs[own[0]])]
                table = {mask: sum(sign * row[j] * prefix[rest]
                                   for sign, j, rest in terms)
                         for mask, terms in by_size[len(own) - 1]}
            memo[own] = table
        return table

    def solve(own: tuple[int, ...], opp: tuple[int, ...]
              ) -> tuple[list[int], int, int] | None:
        table, terms = minors(own), subsets[opp]
        mix = [sign * table[rest] for sign, _, rest in terms]
        total = sum(mix)
        if not total:
            return None
        if total < 0:
            mix, total = [-w for w in mix], -total
        first = payoffs[own[0]]
        return mix, sum(first[j] * w for j, w in zip(opp, mix)), total

    return solve


def mixed_nash_2p(
    table: PayoffTable
) -> tuple[list[EquilibriumCertificate], bool]:
    """Equilibria of a two-player table by equal-size support enumeration,
    plus a degeneracy flag (singular indifference systems or off-support ties).

    For each pair of supports, player ``p``'s system, over ``p``'s payoffs
    scaled to ints once, gives the other's mix that makes ``p`` indifferent
    on ``p``'s support; ``p``'s off-support gains are checked against that
    mix, and ``p``'s strategy is the mix the other's system gives."""
    _check_two_players(table)
    if None in table.cells:
        raise ValueError("mixed analysis requires a fully feasible bimatrix")
    m, n = map(len, table.actions)
    if m > SUPPORT_LIMIT or n > SUPPORT_LIMIT:
        raise ValueError(f"support enumeration limited to {SUPPORT_LIMIT} "
                         f"actions per side")
    rows = [table.cells[i * n:i * n + n] for i in range(m)]
    sides = []  # per player: (int payoffs, their scale, their solver)
    for p, lines in enumerate((rows, zip(*rows))):
        payoffs, scale = _integer_scaled([[cell[p] for cell in line]
                                          for line in lines])
        sides.append((payoffs, scale, _cramer(payoffs, (n, m)[p])))
    certs, degenerate = [], False
    for k in range(1, min(m, n) + 1):
        for supports in itertools.product(itertools.combinations(range(m), k),
                                          itertools.combinations(range(n), k)):
            mixes = []  # per player p: the other's weights, p's value, den
            for p, (_, _, solve) in enumerate(sides):
                mix = solve(supports[p], supports[1 - p])
                if mix is None or 0 in mix[0]:
                    degenerate = True
                    break
                # A negative weight rules the pair out; the other system
                # could only set the flag, so skip it once the flag is set.
                if degenerate and min(mix[0]) < 0:
                    break
                mixes.append(mix)
            if len(mixes) < 2 or min(min(w) for w, _, _ in mixes) < 0:
                continue
            # Off-support pure deviations must not pay more (over den * scale).
            gains, off = [], []
            for p, ((payoffs, _, _), (weights, value, _)) in enumerate(
                    zip(sides, mixes)):
                alts = [sum(w * row[j]
                            for w, j in zip(weights, supports[1 - p]))
                        for row in payoffs]
                off += [u - value for i, u in enumerate(alts)
                        if i not in supports[p]]
                if max(off, default=-1) > 0:
                    break
                gains.append(alts)
            if len(gains) < 2:
                continue
            tie = 0 in off
            degenerate = degenerate or tie
            strategies, values, checks = [], [], []
            for p, ((_, scale, _), (_, value, den)) in enumerate(
                    zip(sides, mixes)):
                weights, _, own_den = mixes[1 - p]  # the other's system
                strategies.append(MixedStrategy(table.players[p], tuple(
                    (table.actions[p][i], Fraction(w, own_den))
                    for i, w in zip(supports[p], weights))))
                values.append(Fraction(value, den * scale))
                checks.append(tuple((act, Fraction(u, den * scale)) for act, u
                                    in zip(table.actions[p], gains[p])))
            certs.append(EquilibriumCertificate(
                "pure" if k == 1 else "mixed", tuple(strategies),
                tuple(values), tuple(checks), degenerate=tie))
    return certs, degenerate
