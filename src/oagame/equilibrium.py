"""Bimatrices, mixed strategies and equilibrium certificates, expected
utilities and the ``.bmx`` reader: what every bimatrix command runs.

What only some commands run lives in a module of its own: best responses
and pure Nash equilibria (``nash``, ``reproduce``) in ``oagame._pure``,
support enumeration and iterated dominance (``mixed``) in
``oagame._support``, the ``.bmx`` writer (``project --format bmx``) in
``oagame._bmx_writer``, and the projection of a game onto two players,
``project_bimatrix``, in ``oagame.engine``.  This module serves their
public names on first access (PEP 562), read through the top-level
package's table ``oagame._EXPORTS``, so a command compiles only the ones
it runs.

Every figure is exact, an int or a ``fractions.Fraction``; decimals appear
only at the reporting boundary.  A table keeps its own numbers: a game's
payoff table and projection hold ints, and each cell of a ``.bmx`` table
keeps its own number, an int where it is written as one and a
``Fraction`` otherwise.  Pure equilibria are certified in the table's own
numbers, so that no command on an integer table loads ``fractions``; only
the ``.bmx`` reader, for a cell that is not an int, and
``expected_utility`` build a ``Fraction``.
"""

import itertools
import math
import re
from collections import namedtuple

from . import _serve
from ._table import PayoffTable, number_literal

# Annotations only: a command on an integer table must not load ``fractions``.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def __getattr__(name: str):
    return _serve(globals(), name, {"_pure", "_support", "_bmx_writer",
                                    "project_bimatrix"})


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
    # ``probs``: ((action, probability), ...), each an int or a Fraction
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *fields, **named):
        if len({a for a, _ in self.probs}) != len(self.probs):
            raise ValueError("an action is given more than one probability")
        if any(p < 0 for _, p in self.probs):
            raise ValueError("negative probability")
        if (total := sum(p for _, p in self.probs)) != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def prob(self, action: str) -> "int | Fraction":
        for a, p in self.probs:
            if a == action:
                return p
        return 0

    def support(self) -> tuple[str, ...]:
        return tuple(a for a, p in self.probs if p > 0)

    def is_pure(self) -> bool:
        return len(self.support()) == 1

    @classmethod
    def pure(cls, player: str, action: str) -> "MixedStrategy":
        return cls(player, ((action, 1),))


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


def _strides(table: PayoffTable) -> list[tuple[int, int]]:
    """Per player, ``(action count, stride)``: profiles that differ only in
    that player's action lie ``stride`` apart in ``table.cells``."""
    counts = [len(actions) for actions in table.actions]
    return [(n, math.prod(counts[i + 1:])) for i, n in enumerate(counts)]


def expected_utility(
    table: PayoffTable, mix_row: MixedStrategy, mix_col: MixedStrategy
) -> "tuple[Fraction, Fraction]":
    """Bilinear expectation of a two-player table's payoffs under two mixes,
    as ``Fraction``s."""
    from fractions import Fraction
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


def _number(literal: str) -> "int | Fraction":
    """The number a cell writes: an int where ``int`` reads it, else a
    ``Fraction``; ValueError or ZeroDivisionError where ``Fraction`` does
    not read it."""
    literal = number_literal(literal)
    try:
        value = int(literal)
    except ValueError:
        from fractions import Fraction
        return Fraction(literal)
    if "_" in literal:  # ``Fraction`` refuses separators before Python 3.11
        from fractions import Fraction
        Fraction(literal)
    return value


def _parse_cell(u: str, v: str) -> tuple | None:
    """A payoff pair, or None for the ``(-,-)`` of an infeasible cell."""
    if u == v == "-":
        return None
    return _number(u), _number(v)


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
        # A tab in a name would split a column of delimited output.
        for name in (player, *actions):
            if "\t" in name:
                raise BimatrixFormatError(f"name {name!r} in header line "
                                          f"{ln!r} holds a tab")
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
