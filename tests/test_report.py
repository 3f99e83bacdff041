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

from oagame import (GameSpec, OutcomeVarDef, PlayerDef, UtilityDef,
                    admissible_rows, top_gu_rows)
from oagame import report as rp
from oagame.engine import record_cells, rows_as_records

from .oracle import delimited_report, random_rich_game, table_report

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
    """(streamed, reference): the report with its rows as a ``RowDump`` and
    with them as ``rows_as_records``."""
    dump = rp.RowDump(*record_cells(game, rows), rows)
    return ({**head, "rows": dump, **tail},
            {**head, "rows": rows_as_records(game, rows), **tail})


def _assert_same_bytes(streamed: dict, reference: dict) -> None:
    for fmt in rp.FORMATS:
        out = io.StringIO()
        assert rp.emit_report(streamed, fmt, out) is None
        expected = REFERENCE[fmt](reference)
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
        {"paper_comparison": rp.paper_comparison({"top_gu_rows": len(top)})}))
    return len(rows)


def test_streamed_dump_matches_records_on_rich_games(monkeypatch):
    # Small chunks, so that most dumps are written in several.
    monkeypatch.setattr(rp, "CHUNK_ROWS", 3)
    rng = random.Random(2024)
    sizes = [_check(random_rich_game(rng)) for _ in range(150)]
    assert sizes.count(0) >= 5
    assert sum(n > 3 for n in sizes) >= 50


def test_record_cells_refuses_repeated_keys():
    rows, _ = admissible_rows(COLLIDING)
    assert len(rows) == 8
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
    assert rp._json(value) == json.dumps(value, indent=2)
    assert rp.emit_report({"v": value}, "json") == REFERENCE["json"](
        {"v": value})


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, [{"a": {3}}]])
def test_json_writer_refuses_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        rp._json(value)
    with pytest.raises(TypeError):
        rp.emit_report({"v": value}, "json")


# Prints the JSON writer's text of each value given on stdin, with the C
# string encoder hidden, so that the writer takes ``json.encoder``'s.
_PURE_ENCODER = """
import ast, sys
sys.modules["_json"] = None
import json.encoder
from oagame import report
assert report._quote is json.encoder.py_encode_basestring_ascii
print(ascii([report._json(v) for v in ast.literal_eval(sys.stdin.read())]))
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
