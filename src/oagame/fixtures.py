"""Access to the bundled game and bimatrix fixtures."""

from __future__ import annotations

import hashlib
from importlib import resources
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .dsl import ParseResult
    from .equilibrium import Bimatrix

BUNDLED = ("oa.game", "table5.bmx", "table6.bmx")


def fixture_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"no bundled fixture {name!r}")
    return (resources.files("oagame.data") / name).read_text(encoding="utf-8")


def fixture_digest(name: str) -> str:
    return hashlib.sha256(fixture_text(name).encode("utf-8")).hexdigest()


def load_bundled_game() -> ParseResult:
    from .dsl import parse_game_spec
    return parse_game_spec(fixture_text("oa.game"))


def load_bundled_bimatrix(name: str = "table5.bmx") -> Bimatrix:
    from .equilibrium import parse_bimatrix
    return parse_bimatrix(fixture_text(name))
