"""The report writers against the oracle writers of plain records, and the
streamed row dump against rendering of per-row records."""

import ast
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oagame import (GameError, GameSpec, OutcomeVarDef, PlayerDef,
                    UtilityDef, admissible_rows, top_gu_rows)
from oagame import _json_writer, report as rp
from oagame.commands._bimatrix import number
from oagame.engine import record_cells, rows_as_records

from .oracle import (delimited_report, flat_rows, random_rich_game,
                     table_report)

SRC = Path(__file__).resolve().parent.parent / "src"

# The reference writer of each format: the oracle's for the two that render
# a list of records as a row dump, and ``json`` for JSON.
REFERENCE = {"table": table_report, "delimited": delimited_report,
             "json": lambda report: json.dumps(report, indent=2) + "\n"}

# Player V shares its name with variable V, and player GU with the GU
# column, so a row's record would repeat those keys.  Parsing and
# validation refuse such names, so the game is built with the
# constructors.
COLLIDING = GameSpec(
    "collide",
    (PlayerDef("V", ("v1", "v2")), PlayerDef("GU", ("g",))),
    (OutcomeVarDef("V", "V", (("Hi", 1), ("Lo", -2))),
     OutcomeVarDef("W", "GU", (("Yes", 3), ("No", 0)))),
    (),
    (UtilityDef("V", ("V",)), UtilityDef("GU", ("W",))))


def _reports(game, rows, head: dict, tail: dict):
    """(streamed, reference): the report with its row groups as a
    ``RowDump`` and with them as ``rows_as_records``."""
    dump = rp.RowDump(*record_cells(game, rows))
    return ({**head, "rows": dump, **tail},
            {**head, "rows": rows_as_records(game, rows), **tail})


def _assert_same_bytes(streamed: dict, reference: dict) -> None:
    for fmt in rp.FORMATS:
        out = io.StringIO()
        assert rp.emit_report(streamed, fmt, out) is None
        expected = REFERENCE[fmt](reference)
        assert out.getvalue() == expected, fmt


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
    count = len(flat_rows(top))
    # As for the bundled game, a block follows the rows.
    _assert_same_bytes(*_reports(
        game, top, {"max_global_utility": best, "row_count": count},
        {"paper_comparison": rp.paper_comparison({"top_gu_rows": count})}))
    return len(flat_rows(rows))


def test_streamed_dump_matches_records_on_rich_games(monkeypatch):
    # Small chunks, so that most dumps are written in several and many
    # profiles' rows are split between chunks.
    for chunk_rows in (1, 3):
        monkeypatch.setattr(rp, "CHUNK_ROWS", chunk_rows)
        rng = random.Random(2024)
        sizes = [_check(random_rich_game(rng)) for _ in range(150)]
        assert sizes.count(0) >= 5
        assert sum(n > 3 for n in sizes) >= 50


def test_a_profile_of_more_rows_than_a_chunk_is_split():
    """One player of one action and 11 two-valued variables: 2048 rows of
    one profile, written as a piece of ``CHUNK_ROWS`` rows and one of the
    rest."""
    names = [f"V{i}" for i in range(11)]
    game = GameSpec("wide", (PlayerDef("A", ("x",)),),
                    tuple(OutcomeVarDef(v, "A", (("Hi", 1), ("Lo", 0)))
                          for v in names),
                    (), (UtilityDef("A", tuple(names)),))
    rows, _ = admissible_rows(game)
    assert [len(completions) for _, completions in rows] == [2048]
    assert _check(game) == 2048
    dump = rp.RowDump(*record_cells(game, rows))
    pieces = rp._row_chunks(dump, lambda cells: "", lambda cells: "r", "\n")
    assert [piece.count("r") for piece in pieces] == [2000, 48]


def test_each_head_and_distinct_tail_is_written_once(oa_game):
    """oa.game's 17640 rows fall in 423 profiles, whose blocks hold 456
    completions, 160 of them distinct: the head writer runs once a group
    and the tail writer once a distinct completion."""
    rows, _ = admissible_rows(oa_game)
    calls = {"head": 0, "tail": 0}

    def writer(kind):
        def write(cells):
            calls[kind] += 1
            return kind
        return write

    dump = rp.RowDump(*record_cells(oa_game, rows))
    blocks = {id(completions): completions for _, completions in rows}
    assert sum(map(len, blocks.values())) == 456
    pieces = list(rp._row_chunks(dump, writer("head"), writer("tail"), "\n"))
    assert sum(piece.count("tail") for piece in pieces) == 17640
    assert calls == {"head": 423, "tail": 160}


def test_record_cells_refuses_repeated_keys():
    rows, _ = admissible_rows(COLLIDING)
    assert len(flat_rows(rows)) == 8
    with pytest.raises(ValueError, match="repeat"):
        record_cells(COLLIDING, rows)


_KEYS = st.sampled_from(["a", "b", "GU", "Ärzte", "café", ""]) | \
    st.text(max_size=4)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-99, 999) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(_KEYS, _VALUES, max_size=4), min_size=1,
                max_size=7),
       st.dictionaries(_KEYS, _VALUES, max_size=2))
def test_record_lists_match_the_oracle_writers(records, scalars):
    """Records whose keys differ from the first record's, nested values,
    None, booleans and non-ASCII text, between other report items."""
    report = {"head": 1, "records": records, "tail": scalars}
    with mock.patch.object(rp, "CHUNK_ROWS", 2):
        for fmt in rp.FORMATS:
            out = io.StringIO()
            rp.emit_report(report, fmt, out)
            assert out.getvalue() == REFERENCE[fmt](report), fmt


# Text with what JSON escapes: quotes, backslashes, control characters,
# non-BMP characters and lone surrogates.
_TEXT = st.text(st.characters(exclude_categories=())
                | st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\U0001f600'))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _TEXT
    | st.integers() | st.integers(-2 ** 200, 2 ** 200),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json_writer._json(value) == json.dumps(value, indent=2)
    out = io.StringIO()
    rp.emit_report({"v": value}, "json", out)
    assert out.getvalue() == REFERENCE["json"]({"v": value})


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, [{"a": {3}}]])
def test_json_writer_refuses_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        _json_writer._json(value)
    with pytest.raises(TypeError):
        rp.emit_report({"v": value}, "json", io.StringIO())


# Prints the JSON writer's text of each value given on stdin, with the C
# string encoder hidden, so that the writer binds ``json.encoder``'s when it
# is imported.
_PURE_ENCODER = """
import ast, sys
sys.modules["_json"] = None
import json.encoder
from oagame import _json_writer
texts = [_json_writer._json(v) for v in ast.literal_eval(sys.stdin.read())]
assert _json_writer._json("") == '""'
assert _json_writer._quote is json.encoder.py_encode_basestring_ascii
print(ascii(texts))
"""


@settings(max_examples=5, deadline=None)
@given(st.lists(_JSON_VALUES, min_size=20, max_size=20))
def test_json_writer_without_the_c_encoder_writes_the_same_bytes(values):
    proc = subprocess.run(
        [sys.executable, "-c", _PURE_ENCODER], input=ascii(values),
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True)
    assert ast.literal_eval(proc.stdout) == [
        json.dumps(v, indent=2) for v in values]


def test_emit_report_refuses_an_unknown_format():
    out = io.StringIO()
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        rp.emit_report({}, "xml", out)
    assert out.getvalue() == ""


def test_number_refuses_a_part_past_the_digit_limit():
    """Python writes an int of at most 4300 digits as text, and
    ``number`` refuses a figure with a longer part at once."""
    edge = 10 ** 4300 - 1
    assert number(Fraction(-edge, edge - 1)) == f"{-edge}/{edge - 1}"
    assert number(Fraction(edge)) == edge
    for figure in (Fraction(10 ** 4300), Fraction(-10 ** 4300, 7),
                   Fraction(1, 10 ** 4300)):
        with pytest.raises(GameError, match="more than 4300 digits"):
            number(figure)
