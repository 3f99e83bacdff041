"""The delimited writer of ``oagame.report``, which ``emit_report``
imports only for that format."""

from .report import RowDump, _as_dump, _row_chunks


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
