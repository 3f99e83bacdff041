"""Access to the bundled game and bimatrix fixtures."""

from __future__ import annotations

import os

try:  # not ``hashlib``, which loads OpenSSL at a cost of milliseconds
    from _sha256 import sha256 as _sha256  # through Python 3.11
except ImportError:
    try:
        from _sha2 import sha256 as _sha256  # from Python 3.12
    except ImportError:
        from hashlib import sha256 as _sha256

BUNDLED = ("oa.game", "table5.bmx", "table6.bmx")


def sha256(text: str) -> str:
    """The hex sha256 of ``text`` encoded as UTF-8."""
    return _sha256(text.encode("utf-8")).hexdigest()


def fixture_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"no bundled fixture {name!r}")
    with open(os.path.join(os.path.dirname(__file__), "data", name),
              encoding="utf-8") as fh:
        return fh.read()


def fixture_digest(name: str) -> str:
    return sha256(fixture_text(name))
