"""The streamed row dump renderer against rendering of per-row records."""

import io
import random

from oagame import (GameSpec, OutcomeVarDef, PlayerDef, UtilityDef,
                    admissible_rows, top_gu_rows)
from oagame import report as rp
from oagame.engine import record_cells, rows_as_records

from .oracle import random_rich_game

# Player V shares its name with variable V, and player GU with the GU
# column: a record keeps such a key once, at its first position, with its
# last value.  Parsing and validation refuse such names, so the game is
# built with the constructors.
COLLIDING = GameSpec(
    "collide",
    (PlayerDef("V", ("v1", "v2")), PlayerDef("GU", ("g",))),
    (OutcomeVarDef("V", "V", (("Hi", 1), ("Lo", -2))),
     OutcomeVarDef("W", "GU", (("Yes", 3), ("No", 0)))),
    (),
    (UtilityDef("V", ("V",)), UtilityDef("GU", ("W",))))


def _reports(game, rows, head: dict, tail: dict):
    """(streamed, reference): the report with its rows as a ``RowDump`` and
    with them as ``rows_as_records``."""
    dump = rp.RowDump(*record_cells(game, rows), rows)
    return ({**head, "rows": dump, **tail},
            {**head, "rows": rows_as_records(game, rows), **tail})


def _assert_same_bytes(streamed: dict, reference: dict) -> None:
    for fmt in rp.FORMATS:
        out = io.StringIO()
        assert rp.emit_report(streamed, fmt, out) is None
        expected = rp.emit_report(reference, fmt)
        assert out.getvalue() == expected, fmt
        assert rp.emit_report(streamed, fmt) == expected, fmt


def _check(game) -> int:
    """Compare an enumerate --dump and a top report of ``game`` in every
    format; the number of admissible rows."""
    rows, enum = admissible_rows(game)
    _assert_same_bytes(*_reports(
        game, rows,
        {**rp.base_report({"g.game": "0" * 64}), "semantics": "lenient",
         "admissible_rows": enum.admissible_count,
         "max_global_utility": enum.max_global_utility}, {}))
    best, top = top_gu_rows(game)
    # As for the bundled game, a block follows the rows.
    _assert_same_bytes(*_reports(
        game, top, {"max_global_utility": best, "row_count": len(top)},
        {"paper_comparison": [rp.comparison_entry("x", 1, len(top))]}))
    return len(rows)


def test_streamed_dump_matches_records_on_rich_games(monkeypatch):
    # Small chunks, so that most dumps are written in several.
    monkeypatch.setattr(rp, "CHUNK_ROWS", 3)
    rng = random.Random(2024)
    sizes = [_check(random_rich_game(rng)) for _ in range(150)]
    assert sizes.count(0) >= 5
    assert sum(n > 3 for n in sizes) >= 50


def test_streamed_dump_matches_records_with_repeated_keys():
    assert _check(COLLIDING) == 8

