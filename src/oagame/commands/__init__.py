"""The subcommands' handlers, one module each, and what several share.

``oagame.cli`` parses the arguments, then imports only the invoked
subcommand's module, ``oagame.commands.<name>``, and calls its
``run(args)``, which returns ``(exit status, report)`` and writes nothing
to stdout or --output; ``run_cli`` writes the report.  Two rules keep
this sound:

- No module imports ``oagame.cli``.  Under ``python -m oagame.cli`` that
  file runs as ``__main__``, so an import would compile and run a second
  copy of it.
- Handlers import library functions inside the function that calls them,
  never at module level, so that each call reads the module attribute as
  it is then (a wrapper installed from outside included).

What only some handlers share has a module of its own, so that no
command compiles code it never runs: ``_game`` for the commands that read
a ``.game`` file, ``_policy`` for those that take --policy, and
``_bimatrix`` for those that read a ``.bmx`` file or report equilibria.

Once ``enumerate`` has run, this package's global ``enumerate`` is that
handler module, so code here cannot call the builtin of that name.
"""

from __future__ import annotations

import os

from .. import fixtures

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


def _is_bundled(digest: str, name: str) -> bool:
    return digest == fixtures.fixture_digest(name)
