"""What the game model and the bimatrix layer share, so that a bimatrix
command does not load ``oagame.model`` (which re-exports both names):
``GameError``, ``PayoffTable``, the ``(u,v)`` text of a payoff cell and the
size checks on numeric literals and figures.
"""

import itertools
import math
from collections import namedtuple

# Most digits, plus the exponent, of a number read from text: Python's
# default limit on converting an int to text and back.
MAX_DIGITS = 4300


class GameError(Exception):
    """Base class for game-model errors."""


def number_literal(text: str) -> str:
    """``text``, checked before any int is built from it: ValueError when,
    read as a number, its digits plus its exponent exceed ``MAX_DIGITS``
    (``Fraction("1e40000000")`` would build a 40-million-digit int)."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    size = sum(map(str.isdecimal, mantissa))
    if exponent.isdecimal():
        size += int(exponent) if len(exponent) < 6 else MAX_DIGITS + 1
    if size > MAX_DIGITS:
        raise ValueError(f"a number of more than {MAX_DIGITS} digits")
    return text


def too_many_digits(n: int) -> bool:
    """Has ``abs(n)`` more than ``MAX_DIGITS`` digits, too many for Python
    to write as text?"""
    n = abs(n)
    # An int of at most 3 * MAX_DIGITS bits is below 8 ** MAX_DIGITS.
    return n.bit_length() > 3 * MAX_DIGITS and n >= 10 ** MAX_DIGITS


class PayoffTable(namedtuple("PayoffTable", ("players", "actions",
                                             "cells"))):
    """Per-action-profile utility vectors in ``profiles()`` order, the last
    player's action varying fastest; None marks an infeasible cell.
    ValueError unless there is one action list per player and one cell per
    profile."""

    __slots__ = ()
    # ``PayoffTable``, not ``cls``: a subclass may take other arguments.
    _make = classmethod(lambda cls, fields: PayoffTable(*fields))

    def __init__(self, *fields, **named):
        if len(self.actions) != len(self.players):
            raise ValueError(f"{len(self.players)} players but "
                             f"{len(self.actions)} action lists")
        if len(self.cells) != (size := math.prod(map(len, self.actions))):
            raise ValueError(f"{len(self.cells)} cells for {size} action "
                             f"profiles")

    def profiles(self):
        return itertools.product(*self.actions)

    def _index(self, profile: tuple[str, ...]) -> int:
        """Position in ``cells`` of a profile of action names."""
        index = 0
        for names, action in zip(self.actions, profile, strict=True):
            index = index * len(names) + names.index(action)
        return index

    def payoff(self, profile: tuple[str, ...]) -> tuple[int, ...] | None:
        return self.cells[self._index(profile)]


def payoff_pair(cell: tuple | None) -> str | None:
    """The exact ``(u,v)`` text of a payoff cell, or None when it is
    infeasible."""
    return None if cell is None else "(%s,%s)" % cell
