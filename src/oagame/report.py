"""Report construction and rendering (fixed-width table, delimited, JSON).

Reports are plain JSON-native dictionaries so the structured-object output
round-trips exactly.  Whenever the bundled fixtures are analyzed, a
paper-comparison block is attached with every figure labeled ``paper`` or
``computed``; the source material's own counts are not reproducible from its
printed rules, and the comparison records both sides instead of forcing
either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import __version__

try:  # ``json``'s C string encoder, without the ``json`` package
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

if TYPE_CHECKING:
    from .equilibrium import EquilibriumCertificate

# Each figure the reports compare: its label, its value as printed in the
# source material, and its golden value, recorded for the bundled fixtures
# under strict semantics and the max-global-utility completion policy.  The
# reproduce run fails when a computed value drifts from its golden value,
# never when it differs from the printed one.
FIGURES = {
    "action_profiles": ("action profiles", 432, 432),
    "row_space": ("row space", 110592, 110592),
    "admissible_rows": ("admissible rows", 3136, 17640),
    "max_global_utility": ("max global utility", 7, 8),
    "top_gu_rows": ("rows at max global utility", 26, 30),
    "pure_nash_member": ("pure Nash equilibrium", "(Publish OA, Grant TA)",
                         "(Publish OA, Grant TA)"),
    "table5_publish_ta_grant_ta": (
        "projected payoff at (Publish TA, Grant TA)", "(3,1)", "(2,1)"),
    "table5_publish_oa_grant_ta": (
        "pure Nash equilibrium (Publish OA, Grant TA)", "present", "present"),
}

TABLE6_EU_NOTE = (
    "note: the printed 2x2 collapse lists expected utilities '3q' (row TA) "
    "and 'p' (Editors' TA column) that do not follow from the standard "
    "bilinear expectation over its own cells; this tool reports the "
    "standard expectation (row TA gives the constant 3, Editors' TA "
    "column gives the constant 1)."
)

FORMATS = ("table", "delimited", "json")


def number(x) -> int | str:
    """JSON-native scalar for an exact number (an int or a ``Fraction``):
    int when integral, else 'a/b'."""
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def base_report(inputs: dict[str, str]) -> dict:
    return {"tool": "oagame", "version": __version__, "inputs": inputs}


def certificate_to_obj(cert: EquilibriumCertificate) -> dict:
    return {
        "kind": cert.kind,
        "degenerate": cert.degenerate,
        "strategies": [
            {"player": s.player,
             "probabilities": {a: number(p) for a, p in s.probs}}
            for s in cert.strategies
        ],
        "expected_utilities": {
            s.player: number(u)
            for s, u in zip(cert.strategies, cert.expected_utilities)
        },
        "verification": [
            {"player": s.player,
             "alternatives": {a: number(u) for a, u in record}}
            for s, record in zip(cert.strategies, cert.verification)
        ],
    }


def paper_comparison(computed: dict) -> list[dict]:
    """Printed-vs-computed entries for the ``FIGURES`` keyed in
    ``computed``, in its order."""
    return [{"claim": FIGURES[k][0], "paper": FIGURES[k][1], "computed": v,
             "matches": v == FIGURES[k][1]} for k, v in computed.items()]


def golden_check(computed: dict) -> list[dict]:
    """Golden-vs-computed entries for the ``FIGURES`` keyed in
    ``computed``, in its order."""
    return [{"figure": FIGURES[k][0], "golden": FIGURES[k][2], "computed": v,
             "matches": v == FIGURES[k][2]} for k, v in computed.items()]


# ---------------------------------------------------------------------------
# Rendering


# Rows of a ``RowDump`` rendered and written per chunk.
CHUNK_ROWS = 2000


class RowDump:
    """A report's rows section kept as the cells of ``engine.record_cells``:
    row ``(h, t)`` of ``rows`` has the record
    ``dict(zip(keys, heads[h] + tails[t]))``.  The renderers render each
    distinct head and tail once and write the rows a chunk at a time.
    (A plain class: ``_json`` would write a named tuple as a list.)"""

    def __init__(self, keys: tuple[str, ...], heads: dict, tails: dict,
                 rows: list):
        self.keys, self.heads, self.tails, self.rows = keys, heads, tails, rows

    def key_split(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(head keys, tail keys); needs at least one row."""
        n = len(next(iter(self.heads.values())))
        return self.keys[:n], self.keys[n:]


def _plain(value):
    """``value``, except that a ``RowDump`` without rows becomes ``[]``."""
    return [] if isinstance(value, RowDump) and not value.rows else value


def _as_dump(value):
    """``value``, except that a non-empty list of records becomes a
    ``RowDump`` with no head cells, keyed as its first record."""
    if not (isinstance(value, list) and value and isinstance(value[0], dict)):
        return value
    keys = tuple(value[0])
    return RowDump(keys, {0: ()},
                   {i: tuple(r.get(k, "") for k in keys)
                    for i, r in enumerate(value)},
                   [(0, i) for i in range(len(value))])


def _row_chunks(dump: RowDump, head_text, tail_text, sep: str):
    """The rows of ``dump`` joined by ``sep``, ``CHUNK_ROWS`` rows per
    chunk; row ``(h, t)`` is ``head_text(heads[h]) + tail_text(tails[t])``,
    each text made once per distinct head or tail."""
    heads = {h: head_text(cells) for h, cells in dump.heads.items()}
    tails = {t: tail_text(cells) for t, cells in dump.tails.items()}
    rows = dump.rows
    for i in range(0, len(rows), CHUNK_ROWS):
        yield (sep if i else "") + sep.join(
            [heads[h] + tails[t] for h, t in rows[i:i + CHUNK_ROWS]])


def _table_dump(dump: RowDump):
    """The dump as an indented fixed-width table, with the widths taken
    over the distinct heads and tails."""
    head_keys, tail_keys = dump.key_split()

    def widths(keys, cells):
        return [max(len(k), *(len(str(c[i])) for c in cells))
                for i, k in enumerate(keys)]

    hw = widths(head_keys, dump.heads.values())
    tw = widths(tail_keys, dump.tails.values())
    header = "  ".join(k.ljust(w) for k, w in zip(dump.keys, hw + tw))
    rule = "  ".join("-" * w for w in hw + tw)
    yield f"  {header.rstrip()}\n  {rule}\n"
    # Stripping the tail strips the line: a row's tail ends in GU and the
    # utilities, and a record's head is the indent alone.
    yield from _row_chunks(
        dump,
        lambda cells: "  " + "".join(
            str(c).ljust(w) + "  " for c, w in zip(cells, hw)),
        lambda cells: "  ".join(
            str(c).ljust(w) for c, w in zip(cells, tw)).rstrip(),
        "\n")
    yield "\n"


def _table_chunks(report: dict):
    for key, value in report.items():
        value = _as_dump(value)
        if isinstance(value, RowDump):
            yield f"{key}:\n"
            yield from _table_dump(value)
            continue
        if isinstance(value, list):
            lines = [f"{key}: {', '.join(str(v) for v in value)}"]
        elif isinstance(value, dict):
            lines = [f"{key}:"]
            lines.extend(f"  {k}: {v}" for k, v in value.items())
        else:
            lines = [f"{key}: {value}"]
        yield "\n".join(lines) + "\n"


def _delimited_chunks(report: dict):
    for key, value in report.items():
        value = _as_dump(value)
        if isinstance(value, RowDump):
            yield "\t".join(value.keys) + "\n"
            yield from _row_chunks(
                value, lambda cells: "".join(f"{c}\t" for c in cells),
                lambda cells: "\t".join(map(str, cells)), "\n")
            yield "\n"
            continue
        if isinstance(value, dict):
            lines = [f"{key}.{k}\t{v}" for k, v in value.items()]
        else:
            lines = [f"{key}\t{value}"]
        if lines:
            yield "\n".join(lines) + "\n"


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` at ``indent``, for a report's types."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = f",\n{inner}".join([_json(v, inner) for v in value])
        return f"[\n{inner}{items}\n{indent}]" if value else "[]"
    if isinstance(value, dict):
        items = _json_cells(value, value.values(), inner)
        return f"{{\n{inner}{items}\n{indent}}}" if value else "{}"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _json_cells(keys, cells, indent: str = "      ") -> str:
    """A record's ``"key": value`` lines at ``indent`` (default: row depth)."""
    return f",\n{indent}".join(
        [f"{_quote(k)}: {_json(c, indent)}" for k, c in zip(keys, cells)])


def _json_chunks(report: dict):
    """``json.dumps(report, indent=2)``, one top-level item at a time."""
    sep = "{\n"
    for key, value in report.items():
        if isinstance(value, RowDump):
            head_keys, tail_keys = value.key_split()
            yield f"{sep}  {_quote(key)}: [\n"
            yield from _row_chunks(
                value,
                lambda cells: "    {\n      " + (
                    _json_cells(head_keys, cells) + ",\n      "
                    if head_keys else ""),
                lambda cells: _json_cells(tail_keys, cells) + "\n    }",
                ",\n")
            yield "\n  ]"
        else:
            yield f"{sep}  {_quote(key)}: {_json(value, '  ')}"
        sep = ",\n"
    yield "\n}\n" if report else "{}\n"


_RENDERERS = {"table": _table_chunks, "delimited": _delimited_chunks,
              "json": _json_chunks}


def emit_report(report: dict, fmt: str, out=None) -> str | None:
    """Render ``report`` in ``fmt``: returned as one string, or, given a
    text stream ``out``, written to it chunk by chunk (``RowDump`` rows
    ``CHUNK_ROWS`` at a time) and None returned."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    chunks = _RENDERERS[fmt]({k: _plain(v) for k, v in report.items()})
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None
