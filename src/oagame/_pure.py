"""Pure analysis on n-player payoff tables: best responses and pure Nash
equilibria, which only the ``nash`` and ``reproduce`` commands run.

Programs read the public names here through ``oagame.equilibrium`` (and
``oagame``), which loads this module on first access.
"""

from ._table import PayoffTable
from .equilibrium import EquilibriumCertificate, MixedStrategy, _strides


class InfeasibleSliceError(Exception):
    """Every cell of the best-response slice is infeasible."""


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
    Names are looked up only for the equilibria, and each figure is the
    cell's own number (an int in a game's table, a ``Fraction`` in a
    ``.bmx`` one)."""
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
            tuple(cell),
            tuple(tuple((a, cells[j][i])
                        for a, j in zip(actions, at) if cells[j] is not None)
                  for i, (_, actions, at) in enumerate(sides))))
    return certs
