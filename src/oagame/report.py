"""Report construction and rendering: fixed-width table, delimited and
JSON, each written by its own module (``oagame._table_writer``,
``oagame._delimited_writer``, ``oagame._json_writer``).

Reports are plain JSON-native dictionaries so the structured-object output
round-trips exactly.  Whenever the bundled fixtures are analyzed, a
paper-comparison block is attached with every figure labeled ``paper`` or
``computed``; the source material's own counts are not reproducible from its
printed rules, and the comparison records both sides instead of forcing
either.
"""

from collections import Counter

from . import __version__

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

FORMATS = ("table", "delimited", "json")


def base_report(inputs: dict[str, str]) -> dict:
    return {"tool": "oagame", "version": __version__, "inputs": inputs}


def paper_comparison(computed: dict) -> list[dict]:
    """Printed-vs-computed entries for the ``FIGURES`` keyed in
    ``computed``, in its order."""
    return [{"claim": FIGURES[k][0], "paper": FIGURES[k][1], "computed": v,
             "matches": v == FIGURES[k][1]} for k, v in computed.items()]


# ---------------------------------------------------------------------------
# Rendering


# The most rows of one profile that a ``RowDump`` renders into one piece.
CHUNK_ROWS = 2000


class RowDump:
    """A report's rows section kept as the cells of ``engine.record_cells``:
    each group ``(head, tails)`` of ``groups`` holds, per ``tail`` of
    ``tails``, the record ``dict(zip(keys, head + tail))``.  The renderers
    render each group's head once and each distinct tail (by identity)
    once, and write the rows a group at a time.  (A plain class: ``_json``
    would write a named tuple as a list.)"""

    def __init__(self, keys: tuple[str, ...], groups: list):
        self.keys, self.groups = keys, groups

    def key_split(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(head keys, tail keys); needs at least one group."""
        n = len(self.groups[0][0])
        return self.keys[:n], self.keys[n:]


def _plain(value):
    """``value``, except that a ``RowDump`` without rows becomes ``[]``."""
    return [] if isinstance(value, RowDump) and not value.groups else value


def _as_dump(value):
    """``value``, except that a non-empty list of records becomes a
    ``RowDump`` of one headless group, keyed as its first record."""
    if not (isinstance(value, list) and value and isinstance(value[0], dict)):
        return value
    keys = tuple(value[0])
    return RowDump(keys, [((), [tuple(r.get(k, "") for k in keys)
                                for r in value])])


def _row_chunks(dump: RowDump, head_text, tail_text, sep: str):
    """The rows of ``dump`` joined by ``sep``, a piece per group of at most
    ``CHUNK_ROWS`` rows, ``head + (sep + head).join(tail texts)``.  The
    texts of each ``tails`` that several groups share are made first, each
    distinct tail's once, and kept; a ``tails`` of one group has its texts
    made a piece at a time, a kept text reused, so that what is kept does
    not grow with it."""
    uses = Counter(id(tails) for _, tails in dump.groups)
    texts, blocks = {}, {}  # id(tail) -> text; id(tails) -> texts
    for _, tails in dump.groups:
        if uses[id(tails)] > 1 and id(tails) not in blocks:
            blocks[id(tails)] = [texts[id(t)] if id(t) in texts
                                 else texts.setdefault(id(t), tail_text(t))
                                 for t in tails]
    lead = ""
    for cells, tails in dump.groups:
        head, block = head_text(cells), blocks.get(id(tails))
        for i in range(0, len(tails), CHUNK_ROWS):
            piece = block[i:i + CHUNK_ROWS] if block is not None else [
                texts[id(t)] if id(t) in texts else tail_text(t)
                for t in tails[i:i + CHUNK_ROWS]]
            yield lead + head + (sep + head).join(piece)
            lead = sep


def emit_report(report: dict, fmt: str, out) -> None:
    """Write ``report`` in ``fmt`` to the text stream ``out``, chunk by
    chunk (``RowDump`` rows a group, at most ``CHUNK_ROWS``, at a time).
    Each format's writer is loaded only to write that format."""
    if fmt == "table":
        from ._table_writer import _table_chunks as chunks
    elif fmt == "json":
        from ._json_writer import _json_chunks as chunks
    elif fmt == "delimited":
        from ._delimited_writer import _delimited_chunks as chunks
    else:
        raise ValueError(f"unknown format {fmt!r}")
    out.writelines(chunks({k: _plain(v) for k, v in report.items()}))
