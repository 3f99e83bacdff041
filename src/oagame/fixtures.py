"""Access to the bundled game and bimatrix fixtures."""

from __future__ import annotations

import hashlib
import os

BUNDLED = ("oa.game", "table5.bmx", "table6.bmx")


def fixture_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"no bundled fixture {name!r}")
    with open(os.path.join(os.path.dirname(__file__), "data", name),
              encoding="utf-8") as fh:
        return fh.read()


def fixture_digest(name: str) -> str:
    return hashlib.sha256(fixture_text(name).encode("utf-8")).hexdigest()
