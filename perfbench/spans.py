"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install()`` replaces each traced public function with a wrapper at
every module attribute that holds it, because ``oagame.cli`` imports the
names it calls directly (wrapping ``oagame.engine.admissible_rows`` alone
would miss the CLI's own reference).  Spans stay in memory until the run
ends.  ``model`` is reached only from inside ``engine`` and is counted in
engine spans; ``fixtures`` is file loading and is counted in ``cli``.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import oracle

# Layers whose public functions are traced; everything else a command does
# is counted as ``cli``.
LIBRARY_LAYERS = ("dsl", "engine", "equilibrium", "report")
REPORT_FORMATS = ("json", "table", "delimited")

# (defining module, function) of every traced public function.
TRACED = (
    ("dsl", "parse_game_spec"),
    ("dsl", "validate_game"),
    ("engine", "admissible_rows"),
    ("engine", "top_gu_rows"),
    ("engine", "derive_payoff_table"),
    ("engine", "rows_as_records"),
    ("equilibrium", "parse_bimatrix"),
    ("equilibrium", "project_bimatrix"),
    ("equilibrium", "pure_nash"),
    ("equilibrium", "mixed_nash_2p"),
    ("equilibrium", "dominance_analysis"),
    ("equilibrium", "expected_utility"),
    ("report", "emit_report"),
)

MODULES = ("cli", "dsl", "engine", "equilibrium", "report", "fixtures")

COMMAND = "cli.command"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int


def span_names() -> list[str]:
    """Every span name a traced function can record."""
    return [name for module, func in TRACED for name in (
        [f"report.emit_{fmt}" for fmt in REPORT_FORMATS]
        if func == "emit_report" else [f"{module}.{func}"])]


def _span_name(module: str, func: str, args: tuple, kwargs: dict) -> str:
    if func == "emit_report":  # one span name per output format
        fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "")
        return f"report.emit_{fmt}"
    return f"{module}.{func}"


def _count(counters: Counter, func: str, args: tuple, result) -> None:
    """Work counts read off arguments and results at the layer boundary."""
    if func == "parse_game_spec":
        counters["dsl.input_bytes"] += len(args[0].encode("utf-8"))
    elif func == "admissible_rows":
        report = result[1]
        counters["engine.profiles"] += report.action_profile_count
        counters["engine.row_space"] += report.row_space_count
        counters["engine.rows_emitted"] += report.admissible_count
    elif func == "mixed_nash_2p":
        bm = args[0]
        counters["equilibrium.support_pairs"] += oracle.support_pairs(
            len(bm.row_actions), len(bm.col_actions))
        counters["equilibrium.equilibria"] += len(result[0])


class Tracer:
    """Records spans and counts while installed; ``command()`` opens the
    root span of one CLI call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._command = -1
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent,
                               self._command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def command(self, run, *args):
        """Call ``run(*args)`` inside a new command's root span."""
        self._command += 1
        index = self._open(COMMAND)
        try:
            return run(*args)
        finally:
            self._close(index)

    def _wrap(self, module: str, func: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(_span_name(module, func, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            _count(tracer.counters, func, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"oagame.{m}") for m in MODULES]
        for module, func in TRACED:
            original = getattr(importlib.import_module(f"oagame.{module}"),
                               func)
            wrapper = self._wrap(module, func, original)
            for mod in mods:
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: each span's duration minus
        the durations of its direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.end - s.start - child[i]
        return dict(out)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "command": s.command}
                for s in self.spans]
