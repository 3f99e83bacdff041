"""The fixed-width table writer of ``oagame.report``, which
``emit_report`` imports only for that format."""

from .report import RowDump, _as_dump, _row_chunks


def _table_dump(dump: RowDump):
    """The dump as an indented fixed-width table, with the widths taken
    over the heads and the distinct tails."""
    head_keys, tail_keys = dump.key_split()

    def widths(keys, cells):
        return [max(len(k), *(len(str(c[i])) for c in cells))
                for i, k in enumerate(keys)]

    blocks = {id(ts): ts for _, ts in dump.groups}.values()
    hw = widths(head_keys, [cells for cells, _ in dump.groups])
    tw = widths(tail_keys, {id(t): t for ts in blocks for t in ts}.values())
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
