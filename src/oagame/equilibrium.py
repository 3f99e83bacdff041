"""Bimatrices, mixed strategies and equilibrium certificates; best
responses, pure Nash equilibria, the projection of a game onto two players,
expected utilities, and the ``.bmx`` file format.

Support-enumeration mixed equilibria and iterated dominance, which only the
``mixed`` command runs, live in ``oagame._support``.  Their public names
are read through this module on first access (PEP 562), so the other
commands never compile them.

Every figure is exact, an int or a ``fractions.Fraction``; decimals appear
only at the reporting boundary.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import namedtuple
from fractions import Fraction

from ._table import PayoffTable, number_literal

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .engine import CompletionPolicy
    from .model import GameSpec

# Public names defined in ``_support``.
_SUPPORT_NAMES = ("SUPPORT_LIMIT", "mixed_nash_2p", "dominance_analysis",
                  "Elimination", "DominanceResult")


def __getattr__(name: str):
    if name not in _SUPPORT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _support
    value = globals()[name] = getattr(_support, name)  # skip this hook next
    return value


class InfeasibleSliceError(Exception):
    """Every cell of the best-response slice is infeasible."""


class BimatrixFormatError(Exception):
    """Malformed bimatrix file."""


class Bimatrix(PayoffTable):
    """A two-player ``PayoffTable`` built from its rows of cells; its side
    names read the table's ``players`` and ``actions``."""

    __slots__ = ()
    # A copy or pickle is the plain table, as ``_replace`` gives.
    __reduce__ = lambda self: (PayoffTable, tuple(self))

    def __new__(cls, row_player, row_actions, col_player, col_actions, rows):
        if len(rows) != len(row_actions) or any(
                len(r) != len(col_actions) for r in rows):
            raise BimatrixFormatError("payoff matrix shape does not match "
                                      "the action lists")
        return super().__new__(cls, (row_player, col_player),
                               (row_actions, col_actions),
                               tuple(itertools.chain.from_iterable(rows)))

    row_player = property(lambda self: self.players[0])
    col_player = property(lambda self: self.players[1])
    row_actions = property(lambda self: self.actions[0])
    col_actions = property(lambda self: self.actions[1])


class MixedStrategy(namedtuple("MixedStrategy", ("player", "probs"))):
    # ``probs``: ((action, Fraction), ...)
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


class EquilibriumCertificate(namedtuple("EquilibriumCertificate", (
        "kind",  # pure | mixed
        "strategies", "expected_utilities", "verification", "degenerate"),
        defaults=(False,))):
    """A (pure or mixed) equilibrium plus its re-checkable evidence.

    ``verification`` lists, per player, every pure action's expected utility
    against the equilibrium profile; no entry may strictly exceed the
    player's equilibrium utility.
    """

    __slots__ = ()

    def pure_profile(self) -> tuple[str, ...] | None:
        if all(s.is_pure() for s in self.strategies):
            return tuple(s.support()[0] for s in self.strategies)
        return None

    def verify(self) -> bool:
        for eq_u, record in zip(self.expected_utilities, self.verification):
            if any(alt_u > eq_u for _, alt_u in record):
                return False
        return True


def _check_two_players(table: PayoffTable) -> None:
    """ValueError unless ``table`` is a two-player one, as the bimatrix
    functions need."""
    if len(table.players) != 2:
        raise ValueError(f"the table has {len(table.players)} players, "
                         f"not 2")


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
) -> PayoffTable:
    """Two-player table: complete the other players and the outcome per the
    policy for each action pair and record the pair's utilities, as ints.
    A pair's completion is the first profile's pick with the greatest
    policy key, which is the policy applied to all of the pair's
    completions at once."""
    rp = game.player(row_player)
    cp = game.player(col_player)
    if rp is None or cp is None or rp.name == cp.name:
        raise ValueError("projection needs two distinct declared players")
    from ._payoffs import _payoff_table
    return _payoff_table(game, policy, (rp.name, cp.name))


def expected_utility(
    table: PayoffTable, mix_row: MixedStrategy, mix_col: MixedStrategy
) -> tuple[Fraction, Fraction]:
    """Bilinear expectation of a two-player table's payoffs under two mixes."""
    _check_two_players(table)
    for mix, actions, side in ((mix_row, table.actions[0], "row"),
                               (mix_col, table.actions[1], "column")):
        for a, _ in mix.probs:
            if a not in actions:
                raise ValueError(f"unknown {side} action {a!r}")
    if None in table.cells:
        raise ValueError("expected utility requires a fully feasible "
                         "bimatrix")
    eu_r = eu_c = Fraction(0)
    for (ra, ca), (ur, uc) in zip(table.profiles(), table.cells):
        weight = mix_row.prob(ra) * mix_col.prob(ca)
        eu_r += weight * ur
        eu_c += weight * uc
    return eu_r, eu_c


# ---------------------------------------------------------------------------
# Bimatrix file format (.bmx)

_HEADER_RE = re.compile(r"^(rows|cols):\s*(?P<player>[^:]+):\s*(?P<actions>.+)$")
_CELL_RE = re.compile(r"\(\s*([^,()]+?)\s*,\s*([^,()]+?)\s*\)")


def _parse_cell(u: str, v: str) -> tuple[Fraction, Fraction] | None:
    """A payoff pair, or None for the ``(-,-)`` of an infeasible cell."""
    if u == v == "-":
        return None
    return tuple(Fraction(number_literal(t)) for t in (u, v))


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


def serialize_bimatrix(table: PayoffTable) -> str:
    """``.bmx`` text that ``parse_bimatrix`` reads back as the two-player
    ``table``; ValueError when it would not."""
    _check_two_players(table)
    (row, col), (row_actions, col_actions) = table.players, table.actions
    n = len(col_actions)
    cells = [payoff_pair(cell) or "(-,-)" for cell in table.cells]
    lines = [f"rows: {row}: {','.join(row_actions)}",
             f"cols: {col}: {','.join(col_actions)}",
             *(" ".join(cells[i * n:i * n + n])
               for i in range(len(row_actions)))]
    text = "\n".join(lines) + "\n"
    try:
        if parse_bimatrix(text) == table:
            return text
        reason = "the text would read back as a different bimatrix"
    except BimatrixFormatError as exc:
        reason = str(exc)
    raise ValueError(f"cannot write the bimatrix of {row!r} and {col!r} as "
                     f".bmx text: {reason}")
