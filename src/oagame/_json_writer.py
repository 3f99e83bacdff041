"""The JSON writer of ``oagame.report``, which ``emit_report`` imports
only for that format."""

from .report import RowDump, _row_chunks

# ``_quote(text)`` is ``text`` as a JSON string: ``json``'s C string
# encoder, or ``json.encoder``'s where there is none.
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


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
        items = f",\n{inner}".join(
            [f"{_quote(k)}: {_json(c, inner)}" for k, c in value.items()])
        return f"{{\n{inner}{items}\n{indent}}}" if value else "{}"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _json_cells(keyed, cells) -> str:
    """A row's ``"key": value`` lines at row depth, ``keyed`` holding each
    key's ``'"key": '``, quoted once per section."""
    return ",\n      ".join(
        [k + _json(c, "      ") for k, c in zip(keyed, cells)])


def _json_chunks(report: dict):
    """``json.dumps(report, indent=2)``, one top-level item at a time."""
    sep = "{\n"
    for key, value in report.items():
        if isinstance(value, RowDump):
            head, tail = ([f"{_quote(k)}: " for k in keys]
                          for keys in value.key_split())
            yield f"{sep}  {_quote(key)}: [\n"
            yield from _row_chunks(
                value,
                lambda cells: "    {\n      " + (
                    _json_cells(head, cells) + ",\n      " if head else ""),
                lambda cells: _json_cells(tail, cells) + "\n    }",
                ",\n")
            yield "\n  ]"
        else:
            yield f"{sep}  {_quote(key)}: {_json(value, '  ')}"
        sep = ",\n"
    yield "\n}\n" if report else "{}\n"
