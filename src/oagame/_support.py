"""The solvers only the ``mixed`` command runs: iterated elimination of
dominated actions on any ``PayoffTable``, and every equilibrium of a
two-player one by support enumeration.

Programs read the public names here through ``oagame.equilibrium`` (and
``oagame``), which loads this module on first access.  Support enumeration
solves its indifference systems over ints, by Cramer's rule from minors
that each support builds once from its prefix's and shares with every
pair it is in; ``Fraction``s are built only for the equilibria found.
"""

from __future__ import annotations

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


class Elimination(namedtuple("Elimination", ("player", "action",
                                             "dominator", "notion"))):
    __slots__ = ()


class DominanceResult(namedtuple("DominanceResult", ("trace", "surviving"))):
    __slots__ = ()  # surviving: the live actions, per player


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

    Both players' payoffs are scaled to ints once; signs and off-support
    deviations are tested on integer numerators, and ``Fraction``s are
    built only for the equilibria found."""
    _check_two_players(table)
    if None in table.cells:
        raise ValueError("mixed analysis requires a fully feasible bimatrix")
    row_actions, col_actions = table.actions
    m, n = len(row_actions), len(col_actions)
    if m > SUPPORT_LIMIT or n > SUPPORT_LIMIT:
        raise ValueError(f"support enumeration limited to {SUPPORT_LIMIT} "
                         f"actions per side")
    rows = [table.cells[i * n:i * n + n] for i in range(m)]
    a, scale_a = _integer_scaled([[u for u, _ in row] for row in rows])
    b_t, scale_b = _integer_scaled([[v for _, v in col]
                                    for col in zip(*rows)])

    col_mix_of, row_mix_of = _cramer(a, n), _cramer(b_t, m)
    certs: list[EquilibriumCertificate] = []
    degenerate = False
    for k in range(1, min(m, n) + 1):
        for sup_r in itertools.combinations(range(m), k):
            for sup_c in itertools.combinations(range(n), k):
                col_mix = col_mix_of(sup_r, sup_c)
                if col_mix is None or 0 in col_mix[0]:
                    degenerate = True
                    continue
                y, v_row, den_y = col_mix
                # A negative weight rules the pair out; the row system
                # could only set the flag, so skip it once the flag is set.
                if degenerate and min(y) < 0:
                    continue
                row_mix = row_mix_of(sup_c, sup_r)
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
                row_strategy = MixedStrategy(table.players[0], tuple(
                    (row_actions[i], Fraction(w, den_x))
                    for i, w in zip(sup_r, x)))
                col_strategy = MixedStrategy(table.players[1], tuple(
                    (col_actions[j], Fraction(w, den_y))
                    for j, w in zip(sup_c, y)))
                certs.append(EquilibriumCertificate(
                    "pure" if k == 1 else "mixed",
                    (row_strategy, col_strategy),
                    (Fraction(v_row, row_den), Fraction(v_col, col_den)),
                    (tuple((act, Fraction(u, row_den))
                           for act, u in zip(row_actions, row_alts)),
                     tuple((act, Fraction(u, col_den))
                           for act, u in zip(col_actions, col_alts))),
                    degenerate=tie))
    return certs, degenerate
