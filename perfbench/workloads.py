"""The benchmark's four workloads: seeded inputs, commands and output checks.

``build(name, seed, workdir)`` writes the workload's input files into
``workdir`` and returns the fixed list of CLI commands one pass runs, each
with the check its stdout must pass.  Inputs depend only on the seed.
Checks compare against recorded golden figures for the bundled fixtures and
against ``oracle`` answers for generated inputs; they return an error
message, or None when the output is right.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

WORKLOADS = ("oa-pipeline", "row-dump", "synthetic-count",
             "bimatrix-equilibria")

# Golden figures of the bundled oa.game (strict binding, max-GU policy); its
# GU sum is not a recorded figure, so dumps of it are not checked on it.
OA_PROFILES, OA_ROW_SPACE = 432, 110592
OA_CENSUS = oracle.RowCensus(admissible=17640, max_gu=8, at_max=30, gu_sum=0)
OA_SHAPES = (("Academics", ("Publish TA", "Publish OA", "Perish")),
             ("Administrators", ("Support TA", "Support OA", "Support Both")),
             ("Funders", ("Demand publications", "Demand OA publications",
                          "Don't demand anything")),
             ("Editors", ("Grant TA", "Grant OA", "Grant big deals",
                          "Grant OA with embargoes")),
             ("Politicians", ("Permit TA", "Demand green OA",
                              "Demand gold OA", "Demand some OA")))
OA_PLAYERS = tuple(p for p, _ in OA_SHAPES)
OA_PARAMS = {"input": "oa.game", "players": 5,
             "actions": [len(a) for _, a in OA_SHAPES], "variables": 8,
             "rules": 11, "deferred_share": round(1 / 11, 4),
             "row_space": OA_ROW_SPACE, "admissible": OA_CENSUS.admissible,
             "max_gu": OA_CENSUS.max_gu, "rows_at_max": OA_CENSUS.at_max}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # Input files a CLI call parses (relative to workdir, or bundled names).
    inputs: list[str]
    # One record of parameters per input, printed with the results.
    params: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Reading the CLI's three output formats


def table_scalars(text: str) -> dict[str, str]:
    """Top-level ``key: value`` lines of a table-format report."""
    out = {}
    for line in text.splitlines():
        if not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def table_records(text: str, key: str) -> list[dict[str, str]]:
    """Records of a list-of-dicts section of a table-format report."""
    lines = text.splitlines()
    start = lines.index(f"{key}:")
    # Column widths come from the dashed separator line, so cells that
    # contain spaces stay whole.
    spans = [m.span() for m in re.finditer(r"-+", lines[start + 2])]
    names = [lines[start + 1][a:b].strip() for a, b in spans]
    out = []
    for line in lines[start + 3:]:
        if not line.startswith("  "):
            break
        out.append({n: line[a:b].strip() for n, (a, b) in zip(names, spans)})
    return out


def delimited_records(text: str, first_column: str) -> list[dict[str, str]]:
    """Records of the list-of-dicts section whose header starts with
    ``first_column`` in a delimited report (the last such section)."""
    lines = text.splitlines()
    start = max(i for i, ln in enumerate(lines)
                if ln.startswith(first_column + "\t"))
    names = lines[start].split("\t")
    out = []
    for line in lines[start + 1:]:
        cells = line.split("\t")
        if len(cells) != len(names):
            break
        out.append(dict(zip(names, cells)))
    return out


def _expect(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


def _first_error(*errors: str | None) -> str | None:
    return next((e for e in errors if e), None)


def _guarded(check: Callable[[str], str | None]):
    """Turn a parse failure of malformed output into a check failure."""
    def run(text: str) -> str | None:
        try:
            return check(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
    return run


# ---------------------------------------------------------------------------
# Row dumps and counts, in every format


def _row_stats(records: list[dict]) -> oracle.RowCensus:
    gus = [int(r["GU"]) for r in records]
    best = max(gus) if gus else None
    return oracle.RowCensus(len(gus), best, gus.count(best), sum(gus))


def _dump_records(text: str, fmt: str, first_player: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "delimited":
        return delimited_records(text, first_player)
    return table_records(text, "rows")


def check_dump(fmt: str, first_player: str, want: oracle.RowCensus,
               with_sum: bool = True):
    def check(text: str) -> str | None:
        got = _row_stats(_dump_records(text, fmt, first_player))
        if not with_sum:
            got = oracle.RowCensus(got.admissible, got.max_gu, got.at_max, 0)
        return _expect(f"{fmt} row dump census", got, want)
    return _guarded(check)


def check_top(want: oracle.RowCensus):
    def check(text: str) -> str | None:
        scalars = table_scalars(text)
        rows = table_records(text, "rows")
        return _first_error(
            _expect("max global utility", int(scalars["max_global_utility"]),
                    want.max_gu),
            _expect("rows at max", int(scalars["row_count"]), want.at_max),
            _expect("listed rows", len(rows), want.at_max),
            next((f"row with GU {r['GU']}" for r in rows
                  if int(r["GU"]) != want.max_gu), None))
    return _guarded(check)


def check_enumerate(want: oracle.RowCensus, profiles: int, row_space: int):
    def check(text: str) -> str | None:
        s = table_scalars(text)
        return _first_error(
            _expect("action_profiles", int(s["action_profiles"]), profiles),
            _expect("row_space", int(s["row_space"]), row_space),
            _expect("admissible_rows", int(s["admissible_rows"]),
                    want.admissible),
            _expect("max_global_utility", s["max_global_utility"],
                    str(want.max_gu)),
            _expect("max_global_utility_rows",
                    int(s["max_global_utility_rows"]), want.at_max))
    return _guarded(check)


def check_validate(profiles: int, row_space: int):
    def check(text: str) -> str | None:
        s = table_scalars(text)
        return _first_error(
            _expect("action_profiles", int(s["action_profiles"]), profiles),
            _expect("row_space", int(s["row_space"]), row_space))
    return _guarded(check)


# ---------------------------------------------------------------------------
# Bimatrix commands


def check_mixed(bm: oracle.PlainBimatrix):
    def check(text: str) -> str | None:
        report = json.loads(text)
        certs = report["equilibria"]
        pure = [tuple(next(iter(s["probabilities"])) for s in c["strategies"])
                for c in certs if c["kind"] == "pure"]
        return _first_error(
            _expect("count", report["count"], len(certs)),
            *(oracle.check_equilibrium(bm, c) for c in certs),
            _expect("pure equilibria", pure, oracle.pure_equilibria(bm)),
            oracle.check_dominance(bm, report["dominance_trace"],
                                   report["surviving_rows"],
                                   report["surviving_cols"]))
    return _guarded(check)


def check_nash_bimatrix(bm: oracle.PlainBimatrix):
    def check(text: str) -> str | None:
        report = json.loads(text)
        certs = report["equilibria"]
        found = [tuple(next(iter(s["probabilities"])) for s in c["strategies"])
                 for c in certs]
        return _first_error(
            _expect("pure equilibria", found, oracle.pure_equilibria(bm)),
            *(oracle.check_equilibrium(bm, c) for c in certs))
    return _guarded(check)


def _random_mix(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(1, 9) for _ in range(n)]
    return [Fraction(w, sum(weights)) for w in weights]


def expected_command(path: str, bm: oracle.PlainBimatrix,
                     rng: random.Random) -> Command:
    x = _random_mix(rng, bm.shape[0])
    y = _random_mix(rng, bm.shape[1])
    eu_r, eu_c = oracle.expected(bm, x, y)

    def check(text: str) -> str | None:
        lines = text.splitlines()
        at = lines.index("expected_utilities:")
        got = dict(ln.strip().split(": ", 1) for ln in lines[at + 1:at + 3])
        return _first_error(
            _expect("row EU", Fraction(got[bm.row_player]), eu_r),
            _expect("column EU", Fraction(got[bm.col_player]), eu_c))

    return Command(("expected", "--bimatrix", path,
                    "--row-mix", ",".join(str(p) for p in x),
                    "--col-mix", ",".join(str(p) for p in y)),
                   _guarded(check))


# ---------------------------------------------------------------------------
# Generated inputs


def synthetic_game(rng: random.Random, name: str, actions: tuple[int, ...],
                   n_vars: int, n_action_rules: int, n_otherwise: int,
                   n_deferred: int) -> oracle.PlainGame:
    """A game whose rule structure is fixed by the arguments; the seed picks
    the actions, values and scores the rules and utilities use.

    Action rules condition on one player's action (players in turn) and
    force a variable that no other action rule forces; the first
    ``n_otherwise`` of them also have an otherwise-branch, so they fix
    their variable in every profile.  Deferred rules condition on an
    outcome variable (every other one also on an action) and assign another
    variable; they use their own variables, disjoint from the action rules'
    targets.  Fixing the structure keeps each input's cost the same from
    seed to seed.
    """
    players = tuple((f"P{i}", tuple(f"a{i}_{j}" for j in range(k)))
                    for i, k in enumerate(actions))
    variables = tuple(
        (f"V{i}", players[i % len(players)][0],
         (("Hi", rng.choice((1, 2))), ("Lo", 0)))
        for i in range(n_vars))
    var_names = [v[0] for v in variables]
    values = ("Hi", "Lo")
    if n_action_rules + 2 * n_deferred > n_vars:
        raise ValueError("not enough variables for the rule structure")
    rules = []
    for r in range(n_action_rules):
        pname, acts = players[r % len(players)]
        target = var_names[r]
        other = ((target, rng.choice(values)),) if r < n_otherwise else ()
        rules.append((((pname, rng.choice(acts)),),
                      ((target, rng.choice(values)),), other))
    for d in range(n_deferred):
        src = var_names[n_action_rules + 2 * d]
        dst = var_names[n_action_rules + 2 * d + 1]
        cond = ((src, rng.choice(values)),)
        if d % 2:
            pname, acts = players[d % len(players)]
            cond = ((pname, rng.choice(acts)),) + cond
        rules.append((cond, ((dst, rng.choice(values)),), ()))
    order = list(range(len(rules)))
    rng.shuffle(order)
    return oracle.PlainGame(name, players, variables,
                            tuple(rules[i] for i in order))


def game_text(game: oracle.PlainGame) -> str:
    """The game as ``.game`` text, written through the package serializer."""
    from oagame.dsl import serialize_game
    from oagame.model import (ACTION, OUTCOME, Atom, GameSpec, OutcomeVarDef,
                              PlayerDef, Rule, UtilityDef)

    player_names = {p for p, _ in game.players}

    def atoms(pairs):
        return tuple(Atom(ACTION if s in player_names else OUTCOME, s, v)
                     for s, v in pairs)

    spec = GameSpec(
        game.name,
        tuple(PlayerDef(p, a) for p, a in game.players),
        tuple(OutcomeVarDef(n, o, vals) for n, o, vals in game.variables),
        tuple(Rule(atoms(c), atoms(t), atoms(e)) for c, t, e in game.rules),
        tuple(UtilityDef(p, tuple(n for n, o, _ in game.variables if o == p))
              for p, _ in game.players))
    return serialize_game(spec)


def game_params(path: str, game: oracle.PlainGame,
                census: oracle.RowCensus) -> dict:
    return {
        "input": path, "players": len(game.players),
        "actions": [len(a) for _, a in game.players],
        "variables": len(game.variables), "rules": len(game.rules),
        "deferred_share": round(game.deferred_rules() / len(game.rules), 4)
        if game.rules else 0.0,
        "row_space": game.row_space, "admissible": census.admissible,
        "max_gu": census.max_gu, "rows_at_max": census.at_max,
    }


def random_bimatrix(rng: random.Random, m: int, n: int,
                    tied: bool) -> oracle.PlainBimatrix:
    """Integer payoffs, each player's a shuffle of a fixed multiset: with
    ``tied`` the values 0, 1, 2 in equal shares, so payoffs repeat and the
    game is degenerate; otherwise the distinct values 0..m*n-1.  A fixed
    multiset keeps the cost of support enumeration steady from seed to
    seed."""
    values = [k % 3 if tied else k for k in range(m * n)]

    def matrix():
        flat = values[:]
        rng.shuffle(flat)
        return tuple(tuple(Fraction(flat[i * n + j]) for j in range(n))
                     for i in range(m))

    return oracle.PlainBimatrix("Row", tuple(f"r{i}" for i in range(m)),
                                "Col", tuple(f"c{j}" for j in range(n)),
                                matrix(), matrix())


def bmx_text(bm: oracle.PlainBimatrix) -> str:
    from oagame.equilibrium import Bimatrix, serialize_bimatrix
    payoffs = tuple(tuple(zip(ra, rb)) for ra, rb in zip(bm.a, bm.b))
    return serialize_bimatrix(Bimatrix(bm.row_player, bm.row_actions,
                                       bm.col_player, bm.col_actions,
                                       payoffs))


def _write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


# ---------------------------------------------------------------------------
# Workloads


def _bundled_bimatrix(src: str, name: str) -> oracle.PlainBimatrix:
    with open(os.path.join(src, "oagame", "data", name),
              encoding="utf-8") as fh:
        return oracle.read_bmx(fh.read())


def oa_pipeline(seed: int, workdir: str, src: str,
                tiny: bool = False) -> Workload:
    """The bundled fixtures through every subcommand."""
    rng = random.Random(seed)
    cmds = [
        Command(("validate", "--game", "oa.game"),
                check_validate(OA_PROFILES, OA_ROW_SPACE)),
        Command(("enumerate", "--game", "oa.game"),
                check_enumerate(OA_CENSUS, OA_PROFILES, OA_ROW_SPACE)),
        Command(("top", "--game", "oa.game"), check_top(OA_CENSUS)),
    ]

    def check_cells(text: str) -> str | None:
        return _expect("payoff cells", len(table_records(text, "cells")),
                       OA_PROFILES)

    player = rng.choice(OA_PLAYERS)
    fixed = rng.choice(("Politicians=Permit TA", "Editors=Grant OA",
                        "Funders=Demand OA publications"))
    for extra in ((), ("--policy", "optimistic", "--policy-player", player),
                  ("--policy", "pessimistic", "--policy-player", player),
                  ("--policy", "fixed", "--fix", fixed)):
        cmds.append(Command(("payoffs", "--game", "oa.game") + extra,
                            _guarded(check_cells)))

    def check_projection(row: str, col: str):
        def check(text: str) -> str | None:
            records = delimited_records(text, row)
            shape = (len(records), len(records[0]) - 1)
            want = (len(dict(OA_SHAPES)[row]), len(dict(OA_SHAPES)[col]))
            err = _expect(f"{row} x {col} shape", shape, want)
            if err or (row, col) != ("Academics", "Editors"):
                return err
            cell = next(r["Grant TA"] for r in records
                        if r["Academics"] == "Publish TA")
            return _expect("(Publish TA, Grant TA)", cell, "(2,1)")
        return _guarded(check)

    pairs = [("Academics", "Editors")]
    others = [(r, c) for r in OA_PLAYERS for c in OA_PLAYERS
              if r != c and (r, c) != ("Academics", "Editors")]
    pairs += rng.sample(others, 2)
    for row, col in pairs:
        cmds.append(Command(("project", "--game", "oa.game", "--row-player",
                             row, "--col-player", col, "--format",
                             "delimited"), check_projection(row, col)))

    def check_nash_game(text: str) -> str | None:
        report = json.loads(text)
        return _expect("count", report["count"], len(report["equilibria"]))

    cmds.append(Command(("nash", "--game", "oa.game", "--format", "json"),
                        _guarded(check_nash_game)))
    for name in ("table5.bmx", "table6.bmx"):
        bm = _bundled_bimatrix(src, name)
        cmds.append(Command(("nash", "--bimatrix", name, "--format", "json"),
                            check_nash_bimatrix(bm)))
        cmds.append(Command(("mixed", "--bimatrix", name, "--dominance",
                             "weak", "--format", "json"), check_mixed(bm)))
        cmds.append(expected_command(name, bm, rng))

    def check_reproduce(text: str) -> str | None:
        golden = table_records(text, "golden_check")
        return _first_error(
            _expect("status", table_scalars(text).get("status"), "ok"),
            _expect("golden figures checked", len(golden), 7),
            next((f"golden drift: {g['figure']}" for g in golden
                  if g["matches"] != "True"), None))

    cmds.append(Command(("reproduce",), _guarded(check_reproduce)))
    if tiny:  # one command per subcommand
        seen = set()
        cmds = [c for c in cmds
                if c.argv[0] not in seen and not seen.add(c.argv[0])]
    rng.shuffle(cmds)
    params = [OA_PARAMS]
    for name in ("table5.bmx", "table6.bmx"):
        params.append({"input": name,
                       "shape": list(_bundled_bimatrix(src, name).shape)})
    return Workload("oa-pipeline", cmds,
                    ["oa.game", "table5.bmx", "table6.bmx"], params)


def row_dump(seed: int, workdir: str, src: str, tiny: bool = False) -> Workload:
    """Materialised row dumps of oa.game and one synthetic game."""
    rng = random.Random(seed)
    if tiny:
        game = synthetic_game(rng, "dump", (3, 3, 3), 6, 2, 1, 2)
    else:
        game = synthetic_game(rng, "dump", (4, 4, 4, 3), 10, 4, 2, 3)
    census = oracle.census(game)
    path = _write(workdir, "dump.game", game_text(game))
    cmds = []
    targets = [(path, "P0", census, True)]
    if not tiny:
        targets.insert(0, ("oa.game", OA_PLAYERS[0], OA_CENSUS, False))
    for target, first, want, with_sum in targets:
        for fmt in ("json", "table", "delimited"):
            cmds.append(Command(("enumerate", "--game", target, "--dump",
                                 "--format", fmt),
                                check_dump(fmt, first, want, with_sum)))
        cmds.append(Command(("top", "--game", target), check_top(want)))
    params = [game_params(path, game, census)] + ([] if tiny else [OA_PARAMS])
    return Workload("row-dump", cmds, [t[0] for t in targets], params)


# (actions per player, variables, action rules, of which with an
# otherwise-branch, deferred rules): row spaces from 1.3e5 to 1.0e6 and
# deferred-rule shares of 0, 0.4, 0.67 and 0.5.  Forced variables keep the
# rows examined per game within a factor of two of each other, so no one
# game dominates the pass.
SYNTHETIC_FAMILY = (
    ((5, 5, 5), 10, 2, 1, 0),
    ((4, 4, 4, 4), 10, 3, 2, 2),
    ((5, 5, 4, 4), 10, 2, 2, 4),
    ((3, 3, 3, 3, 3), 12, 4, 4, 4),
)
TINY_FAMILY = (((3, 3), 6, 4, 2, 1), ((2, 2, 2), 7, 2, 1, 2))


def synthetic_count(seed: int, workdir: str, src: str,
                    tiny: bool = False) -> Workload:
    """Counting commands only, over a family of generated games."""
    rng = random.Random(seed)
    cmds, inputs, params = [], [], []
    for i, structure in enumerate(TINY_FAMILY if tiny else SYNTHETIC_FAMILY):
        game = synthetic_game(rng, f"synthetic {i}", *structure)
        census = oracle.census(game)
        path = _write(workdir, f"count{i}.game", game_text(game))
        profiles, space = game.profile_count, game.row_space
        cmds += [
            Command(("validate", "--game", path),
                    check_validate(profiles, space)),
            Command(("enumerate", "--game", path),
                    check_enumerate(census, profiles, space)),
            Command(("top", "--game", path), check_top(census)),
        ]
        inputs.append(path)
        params.append(game_params(path, game, census))
    return Workload("synthetic-count", cmds, inputs, params)


# (rows, cols, tied payoffs): half the matrices tie, so they are degenerate.
BIMATRIX_SHAPES = (
    (2, 2, True), (3, 3, True), (3, 4, False), (4, 4, True), (4, 5, False),
    (5, 5, True), (5, 5, False), (6, 6, True), (6, 6, False), (7, 7, True),
)
TINY_SHAPES = ((2, 2, True), (3, 2, False), (3, 3, True))


def bimatrix_equilibria(seed: int, workdir: str, src: str,
                        tiny: bool = False) -> Workload:
    """Equilibrium commands on generated bimatrices."""
    rng = random.Random(seed)
    cmds, inputs, params = [], [], []
    for i, (m, n, tied) in enumerate(TINY_SHAPES if tiny else
                                     BIMATRIX_SHAPES):
        bm = random_bimatrix(rng, m, n, tied)
        path = _write(workdir, f"bm{i}.bmx", bmx_text(bm))
        cmds += [
            Command(("mixed", "--bimatrix", path, "--dominance", "weak",
                     "--format", "json"), check_mixed(bm)),
            Command(("nash", "--bimatrix", path, "--format", "json"),
                    check_nash_bimatrix(bm)),
            expected_command(path, bm, rng),
        ]
        inputs.append(path)
        params.append({"input": path, "shape": [m, n], "tied": tied,
                       "support_pairs": oracle.support_pairs(m, n)})
    return Workload("bimatrix-equilibria", cmds, inputs, params)


def build(name: str, seed: int, workdir: str, src: str,
          tiny: bool = False) -> Workload:
    """Inputs and commands of one workload.  ``tiny`` shrinks the inputs
    and command lists for the smoke test."""
    by_name = {"oa-pipeline": oa_pipeline, "row-dump": row_dump,
               "synthetic-count": synthetic_count,
               "bimatrix-equilibria": bimatrix_equilibria}
    return by_name[name](seed, workdir, src, tiny)
