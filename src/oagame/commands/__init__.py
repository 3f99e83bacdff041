"""The subcommands' handlers, one module each, and what several share.

``oagame.cli`` parses the arguments, then imports only the invoked
subcommand's module, ``oagame.commands.<name>``, and calls its
``run(args)``, which returns the exit status.  Two rules keep this sound:

- No module imports ``oagame.cli``.  Under ``python -m oagame.cli`` that
  file runs as ``__main__``, so an import would compile and run a second
  copy of it.
- Handlers import library functions inside the function that calls them,
  never at module level, so that each call reads the module attribute as
  it is then (a wrapper installed from outside included).

Once ``enumerate`` has run, this package's global ``enumerate`` is that
handler module, so code here cannot call the builtin of that name.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import TYPE_CHECKING

from .. import fixtures, report as rp

if TYPE_CHECKING:
    from .._table import PayoffTable

USAGE_ERROR = 2
DIAG_ERROR = 1


class _CliError(Exception):
    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def _read_input(path: str) -> tuple[str, str]:
    """Return (text, sha256).  Bundled fixture names resolve when the file
    does not exist on disk."""
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliError(f"cannot read {path!r}: {exc.strerror}",
                            USAGE_ERROR)
        except UnicodeDecodeError:
            raise _CliError(f"cannot read {path!r}: not UTF-8 text",
                            USAGE_ERROR)
    elif os.path.basename(path) == path and path in fixtures.BUNDLED:
        text = fixtures.fixture_text(path)
    else:
        raise _CliError(f"cannot read {path!r}: no such file", USAGE_ERROR)
    return text, fixtures.sha256(text)


def _load_bimatrix(path: str) -> tuple[PayoffTable, str]:
    from ..equilibrium import BimatrixFormatError, parse_bimatrix
    text, digest = _read_input(path)
    try:
        return parse_bimatrix(text), digest
    except BimatrixFormatError as exc:
        raise _CliError(f"{path}: {exc}", DIAG_ERROR)


def _emit(args, report: dict) -> None:
    with _output(args) as out:
        rp.emit_report(report, args.format, out)


@contextlib.contextmanager
def _output(args):
    """--output opened for writing, or stdout when none is given; a path
    that cannot be opened is a usage error."""
    if args.output:
        try:
            fh = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {args.output}: {exc.strerror}",
                            USAGE_ERROR)
        with fh:
            yield fh
    else:
        yield sys.stdout


def _is_bundled(digest: str, name: str) -> bool:
    return digest == fixtures.fixture_digest(name)


def _has_publish_oa_grant_ta(certs) -> bool:
    """Is (Publish OA, Grant TA) among the pure equilibria ``certs``?"""
    return ("Publish OA", "Grant TA") in [c.pure_profile() for c in certs]
