"""The ``.bmx`` writer, which only ``project --format bmx`` runs.

Programs read ``serialize_bimatrix`` through ``oagame.equilibrium`` (and
``oagame``), which loads this module on first access.
"""

from ._table import PayoffTable, payoff_pair
from .equilibrium import (BimatrixFormatError, _check_two_players,
                          parse_bimatrix)


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
