"""Naive brute-force oracles for admissible-row enumeration, for pure
equilibria and best responses, for iterated dominance, and for
support-enumeration mixed equilibria.

Rows: plain nested loops over the full profile x assignment space,
re-checking every rule with its own atom evaluation.  Deliberately
independent of the engine's pruning path; the two must agree as sets.
A row here is a ``ScenarioRow`` of names; ``flat_rows`` flattens the
engine's row groups into ``(profile, completion)`` rows, and ``named_row``
names one for the comparison.

Counts: ``profile_walk_report`` walks every profile itself and sums its
block, the way ``enumeration_report`` counted before the census walked the
profiles of action classes; it reads no census, so that it stays a
reference for the census.

Pure equilibria and best responses: every unilateral deviation checked on
action names, in a dict from each name profile to its cell, the way
``pure_nash`` and ``best_responses`` worked before they read slices of the
index-ordered cells.

Iterated dominance: every live profile of the others enumerated by name
and its cells read with ``PayoffTable.payoff``, with no strides.

Mixed equilibria: support enumeration with both indifference systems of
every support pair solved by Gaussian elimination over ``Fraction``, the
way ``mixed_nash_2p`` did before it solved them over integers.

Report writers: the table and delimited layouts of a report of plain
values, each list of records written record by record, the way
``emit_report`` wrote them before it rendered such a list as a row dump.

The ``.game`` reader's lexical rules: comments and list items found by
counting and toggling on '"', and rule words read one at a time and
compared lower-cased, the way ``oagame.dsl`` read them before it wrote
each rule as one pattern.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from fractions import Fraction
from operator import getitem
from typing import NamedTuple

from oagame import (SUPPORT_LIMIT, DominanceResult, Elimination,
                    EnumerationReport, compile_game, engine)
from oagame.dsl import _QUOTE_CLOSERS, ParseError, SourceSpan
from oagame.equilibrium import EquilibriumCertificate, MixedStrategy
from oagame.model import (ACTION, OUTCOME, Atom, GameSpec, OutcomeVarDef,
                          PayoffTable, PlayerDef, Rule, UtilityDef)


class ScenarioRow(NamedTuple):
    """One action profile joined with one total outcome assignment, each a
    dict from declared name to declared action or value."""

    actions: dict[str, str]
    outcomes: dict[str, str]


def named_row(cg, profile, completion) -> ScenarioRow:
    """The engine row ``(profile, completion)`` of the compiled game ``cg``
    by name."""
    return ScenarioRow(dict(zip(cg.players, cg.action_names(profile))),
                       dict(zip(cg.variables, cg.value_names(completion))))


def flat_rows(groups) -> list[tuple]:
    """The ``(profile, completion)`` rows of the engine's ``(profile,
    completions)`` groups, in order."""
    return [(p, c) for p, completions in groups for c in completions]


def _atom_true(atom, actions, outcomes):
    # A non-inert atom naming nothing declared reads False here, but the
    # engine refuses any game with one, so no comparison meets it.
    if atom.inert:
        return None  # caller decides by position
    mapping = actions if atom.kind == ACTION else outcomes
    return mapping.get(atom.subject) == atom.value


def rule_ok(rule, actions, outcomes):
    cond = True
    for a in rule.condition:
        t = _atom_true(a, actions, outcomes)
        if t is None or not t:  # inert condition atoms never hold
            cond = False
            break
    if cond:
        branch = rule.consequence
    elif rule.otherwise:
        branch = rule.otherwise
    else:
        return True
    for a in branch:
        t = _atom_true(a, actions, outcomes)
        if t is None:  # inert assignment atoms count as satisfied
            continue
        if not t:
            return False
    return True


def brute_force_admissible(game: GameSpec) -> list[ScenarioRow]:
    """Every admissible row by exhaustive nested enumeration."""
    players = [p.name for p in game.players]
    variables = [v.name for v in game.variables]
    rows = []
    for acts in itertools.product(*(p.actions for p in game.players)):
        actions = dict(zip(players, acts))
        for vals in itertools.product(*(v.value_names()
                                        for v in game.variables)):
            outcomes = dict(zip(variables, vals))
            if all(rule_ok(r, actions, outcomes) for r in game.rules):
                rows.append(ScenarioRow(actions, outcomes))
    return rows


def profile_walk_report(game: GameSpec) -> EnumerationReport:
    """The counts of ``enumeration_report`` from a walk over every profile
    in ``itertools.product`` order, each looked up alone by
    ``engine._profile_block``."""
    cg = compile_game(game)
    count, best, at_best = 0, None, 0
    for profile in itertools.product(*map(range, map(len, cg.actions))):
        block = engine._profile_block(cg, map(getitem, cg.masks, profile))
        if block is None or not block.count:
            continue
        high, at_high, _ = block.gu
        count += block.count
        if best is None or high > best:
            best, at_best = high, 0
        if high == best:
            at_best += at_high
    profiles = math.prod(map(len, cg.actions))
    return EnumerationReport(profiles,
                             profiles * math.prod(map(len, cg.values)),
                             count, best, at_best)


@functools.cache
def _scores(variable: OutcomeVarDef) -> dict[str, int]:
    """Each declared value of ``variable`` -> its score."""
    return dict(variable.values)


def utility(game: GameSpec, row: ScenarioRow, player=None) -> int:
    """Global utility of ``row`` (every variable's score), or ``player``'s
    utility (the scores of its terms, each named by name or alias)."""
    if player is None:
        variables = game.variables
    else:
        variables = [game.variable(t) for t in game.utility_for(player).terms]
    return sum(_scores(v)[row.outcomes[v.name]] for v in variables)


def brute_force_pick(game: GameSpec, policy, rows: list[ScenarioRow]):
    """A completion policy applied to a pool of rows in canonical order:
    keep the rows matching a fixed fragment, then take the first row with
    the maximum score.  None when no row qualifies."""
    if policy.kind == "fixed":
        rows = [r for r in rows
                if all(r.actions.get(p) == a for p, a in policy.fixed_actions)
                and all(r.outcomes.get(v) == x
                        for v, x in policy.fixed_outcomes)]
        return rows[0] if rows else None
    if policy.kind == "max-global-utility":
        score = lambda r: utility(game, r)
    else:
        sign = 1 if policy.kind == "optimistic" else -1
        score = lambda r: sign * utility(game, r, policy.player)
    best = None
    for r in rows:
        if best is None or score(r) > score(best):
            best = r
    return best


def brute_force_projection(game: GameSpec, policy, players):
    """{profile of ``players`` (their actions, in that order): chosen row or
    None}, the policy applied to every brute-force admissible row of each
    of their profiles at once."""
    pools = {own: [] for own in itertools.product(
        *(game.player(p).actions for p in players))}
    for r in brute_force_admissible(game):
        pools[tuple(r.actions[p] for p in players)].append(r)
    return {own: brute_force_pick(game, policy, rows)
            for own, rows in pools.items()}


def row_key(row: ScenarioRow) -> tuple:
    return (tuple(sorted(row.actions.items())),
            tuple(sorted(row.outcomes.items())))


def _naming(rng: random.Random, named, players, variables, rules) -> tuple:
    """``rules``, and for ``named`` "all" one more rule for each action
    that no condition names, setting a random variable when it is played.
    Under "none" the rules were drawn with no action in any condition."""
    if named != "all":
        return tuple(rules)
    seen = {(a.subject, a.value) for r in rules for a in r.condition
            if a.kind == ACTION and not a.inert}
    return tuple(rules) + tuple(
        Rule((Atom(ACTION, p.name, x),), (Atom(OUTCOME, v.name, rng.choice(
            v.value_names())),))
        for p in players for x in p.actions if (p.name, x) not in seen
        for v in [rng.choice(variables)])


def random_small_game(rng: random.Random, named=None) -> GameSpec:
    """A random game with <=3 players x <=3 actions, <=3 binary variables
    and <=4 random implication rules; ``named`` "all" or "none" makes
    every action, or none, named by a rule condition (``_naming``)."""
    n_players = rng.randint(1, 3)
    players = tuple(
        PlayerDef(f"P{i}", tuple(f"a{i}{j}"
                                 for j in range(rng.randint(1, 3))))
        for i in range(n_players))
    n_vars = rng.randint(1, 3)
    variables = tuple(
        OutcomeVarDef(f"V{i}", players[rng.randrange(n_players)].name,
                      (("More", 1), ("Less", 0)))
        for i in range(n_vars))
    def random_atom(kinds):
        if rng.random() < 0.5 and "action" in kinds:
            p = rng.choice(players)
            return Atom(ACTION, p.name, rng.choice(p.actions))
        v = rng.choice(variables)
        return Atom("outcome", v.name, rng.choice(("More", "Less")))

    rules = []
    for _ in range(rng.randint(0, 4)):
        condition = tuple(random_atom(("outcome",) if named == "none"
                                      else ("action", "outcome"))
                          for _ in range(rng.randint(1, 2)))
        consequence = tuple(random_atom(("outcome",))
                            for _ in range(rng.randint(1, 2)))
        otherwise = (tuple(random_atom(("outcome",))
                           for _ in range(rng.randint(1, 2)))
                     if rng.random() < 0.3 else ())
        rules.append(Rule(condition, consequence, otherwise))
    utilities = tuple(UtilityDef(p.name,
                                 tuple(v.name for v in variables
                                       if v.owner == p.name))
                      for p in players)
    return GameSpec("random", players, variables,
                    _naming(rng, named, players, variables, rules), utilities)


def random_rich_game(rng: random.Random, named=None) -> GameSpec:
    """A random game with what ``random_small_game`` never draws: player
    and variable aliases, two- and three-valued variables with negative
    scores and a value alias, utilities naming variables by alias, and
    lenient-mode inert atoms in conditions, consequences and
    otherwise-branches; ``named`` as in ``random_small_game``."""
    players = tuple(
        PlayerDef(f"P{i}", tuple(f"a{i}{j}"
                                 for j in range(rng.randint(1, 3))),
                  (f"Alias{i}",) if rng.random() < 0.7 else ())
        for i in range(rng.randint(1, 3)))
    variables = []
    for i in range(rng.randint(1, 3)):
        names = ("Hi", "Mid", "Lo")[:rng.randint(2, 3)]
        variables.append(OutcomeVarDef(
            f"V{i}", rng.choice(players).name,
            tuple((n, rng.randint(-3, 3)) for n in names),
            (f"Var {i}",), (("Top", names[0]),)))

    def random_atom(with_actions):
        roll = rng.random()
        if roll < 0.2:  # what lenient mode keeps of an unresolved atom
            if with_actions and roll < 0.07:
                return Atom(ACTION, rng.choice(players).name, "bogus", True)
            subject = rng.choice([v.name for v in variables] + ["Nowhere"])
            return Atom(OUTCOME, subject, "Bogus", True)
        if with_actions and roll < 0.6:
            p = rng.choice(players)
            return Atom(ACTION, p.name, rng.choice(p.actions))
        v = rng.choice(variables)
        return Atom(OUTCOME, v.name, rng.choice(v.value_names()))

    def atoms(with_actions):
        return tuple(random_atom(with_actions)
                     for _ in range(rng.randint(1, 2)))

    rules = _naming(rng, named, players, variables, [
        Rule(atoms(named != "none"), atoms(False),
             atoms(False) if rng.random() < 0.4 else ())
        for _ in range(rng.randint(0, 5))])
    utilities = tuple(
        UtilityDef(p.name, tuple(rng.choice((v.name, v.aliases[0]))
                                 for v in variables if v.owner == p.name))
        for p in players)
    return GameSpec("rich", players, tuple(variables), rules, utilities)


def _deviations(table: PayoffTable, cells: dict, profile, idx: int):
    """``(action, cell)`` of each feasible profile that differs from
    ``profile`` at most in player ``idx``'s action, in action order."""
    for action in table.actions[idx]:
        alt = profile[:idx] + (action,) + profile[idx + 1:]
        if cells[alt] is not None:
            yield action, cells[alt]


def best_responses(table: PayoffTable, player: str,
                   others: dict[str, str]) -> tuple[str, ...]:
    """The player's argmax over the feasible cells of the slice, in action
    order; () when every cell of the slice is infeasible."""
    idx = table.players.index(player)
    profile = tuple(None if p == player else others[p] for p in table.players)
    cells = dict(zip(table.profiles(), table.cells))
    utilities = [(a, cell[idx])
                 for a, cell in _deviations(table, cells, profile, idx)]
    best = max((u for _, u in utilities), default=None)
    return tuple(a for a, u in utilities if u == best)


def pure_nash(table: PayoffTable) -> list[EquilibriumCertificate]:
    """Every feasible profile that no unilateral deviation to a feasible
    cell improves for the deviating player, in canonical profile order,
    each figure the table's own number (an int or a ``Fraction``)."""
    cells = dict(zip(table.profiles(), table.cells))
    certs = []
    for profile, cell in cells.items():
        if cell is None:
            continue
        verification = []
        is_eq = True
        for idx in range(len(table.players)):
            record = []
            for action, alt in _deviations(table, cells, profile, idx):
                record.append((action, alt[idx]))
                is_eq = is_eq and alt[idx] <= cell[idx]
            verification.append(tuple(record))
        if is_eq:
            certs.append(EquilibriumCertificate(
                "pure",
                tuple(MixedStrategy.pure(p, a)
                      for p, a in zip(table.players, profile)),
                tuple(cell),
                tuple(verification)))
    return certs


def _dominates(table: PayoffTable, live: list[list[str]], idx: int,
               a: str, b: str, notion: str) -> bool:
    """Does action ``a`` beat ``b`` for player ``idx`` wherever ``b``'s
    cell is feasible, over the others' live actions?"""
    for profile in itertools.product(*live):
        if profile[idx] != b:
            continue
        ub = table.payoff(profile)
        if ub is None:
            continue
        ua = table.payoff(profile[:idx] + (a,) + profile[idx + 1:])
        if ua is None or ua[idx] < ub[idx] or (
                notion == "strict" and ua[idx] == ub[idx]):
            return False
    return True


def dominance_analysis(table: PayoffTable, notion: str) -> DominanceResult:
    """Remove the first dominated action, by player, then dominated action,
    then dominator, in declaration order; start over until none is left."""
    live = [list(actions) for actions in table.actions]
    trace = []
    while True:
        found = [(idx, b, a) for idx in range(len(live))
                 for b in live[idx] for a in live[idx]
                 if a != b and _dominates(table, live, idx, a, b, notion)]
        if not found:
            return DominanceResult(tuple(trace), tuple(map(tuple, live)))
        idx, b, a = found[0]
        trace.append(Elimination(table.players[idx], b, a, notion))
        live[idx].remove(b)


def _solve_linear(matrix: list[list[Fraction]],
                  rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over exact rationals; None when singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _indifference_mix(
    payoffs: list[list[Fraction]], support_own: tuple[int, ...],
    support_opp: tuple[int, ...]
) -> tuple[list[Fraction], Fraction] | None:
    """Opponent mix over ``support_opp`` equalizing our payoff on
    ``support_own``; returns (mix, common value) or None if singular."""
    k = len(support_opp)
    matrix = []
    rhs = []
    for i in support_own:
        matrix.append([payoffs[i][j] for j in support_opp] + [Fraction(-1)])
        rhs.append(Fraction(0))
    matrix.append([Fraction(1)] * k + [Fraction(0)])
    rhs.append(Fraction(1))
    if len(matrix) != k + 1:
        return None
    solution = _solve_linear(matrix, rhs)
    if solution is None:
        return None
    return solution[:k], solution[k]


def support_enumeration(
    table: PayoffTable
) -> tuple[list[EquilibriumCertificate], bool]:
    """All equilibria of a two-player table found by equal-size support
    enumeration, plus a degeneracy flag (singular indifference systems or
    off-support ties)."""
    if None in table.cells:
        raise ValueError("mixed analysis requires a fully feasible bimatrix")
    (row_player, col_player), (row_actions, col_actions) = (table.players,
                                                            table.actions)
    m, n = len(row_actions), len(col_actions)
    if m > SUPPORT_LIMIT or n > SUPPORT_LIMIT:
        raise ValueError(f"support enumeration limited to {SUPPORT_LIMIT} "
                         f"actions per side")
    a = [[Fraction(table.payoff((r, c))[0]) for c in col_actions]
         for r in row_actions]
    b = [[Fraction(table.payoff((r, c))[1]) for c in col_actions]
         for r in row_actions]
    b_t = [[b[i][j] for i in range(m)] for j in range(n)]

    certs: list[EquilibriumCertificate] = []
    degenerate = False
    for k in range(1, min(m, n) + 1):
        for sup_r in itertools.combinations(range(m), k):
            for sup_c in itertools.combinations(range(n), k):
                col_mix = _indifference_mix(a, sup_r, sup_c)
                row_mix = _indifference_mix(b_t, sup_c, sup_r)
                if col_mix is None or row_mix is None:
                    degenerate = True
                    continue
                y, v_row = col_mix
                x, v_col = row_mix
                if any(p <= 0 for p in x) or any(p <= 0 for p in y):
                    if any(p == 0 for p in x) or any(p == 0 for p in y):
                        degenerate = True
                    continue
                # Off-support pure deviations must not be profitable.
                row_alts = [sum(y[jj] * a[i][j]
                                for jj, j in enumerate(sup_c))
                            for i in range(m)]
                col_alts = [sum(x[ii] * b[i][j]
                                for ii, i in enumerate(sup_r))
                            for j in range(n)]
                if any(row_alts[i] > v_row for i in range(m)
                       if i not in sup_r):
                    continue
                if any(col_alts[j] > v_col for j in range(n)
                       if j not in sup_c):
                    continue
                tie = (any(row_alts[i] == v_row for i in range(m)
                           if i not in sup_r)
                       or any(col_alts[j] == v_col for j in range(n)
                              if j not in sup_c))
                degenerate = degenerate or tie
                row_strategy = MixedStrategy(row_player, tuple(
                    (row_actions[i], x[ii])
                    for ii, i in enumerate(sup_r)))
                col_strategy = MixedStrategy(col_player, tuple(
                    (col_actions[j], y[jj])
                    for jj, j in enumerate(sup_c)))
                certs.append(EquilibriumCertificate(
                    "pure" if k == 1 else "mixed",
                    (row_strategy, col_strategy),
                    (v_row, v_col),
                    (tuple(zip(row_actions, row_alts)),
                     tuple(zip(col_actions, col_alts))),
                    degenerate=tie))
    return certs, degenerate


def _fixed_width_table(records: list[dict]) -> list[str]:
    headers = list(records[0].keys())
    cells = [[str(r.get(h, "")) for h in headers] for r in records]
    widths = [max(len(h), *(len(row[i]) for row in cells))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return lines


def _is_records(value) -> bool:
    return isinstance(value, list) and bool(value) and isinstance(
        value[0], dict)


def table_report(report: dict) -> str:
    """``report`` in the fixed-width table layout."""
    out = []
    for key, value in report.items():
        if _is_records(value):
            lines = [f"{key}:"]
            lines.extend("  " + ln for ln in _fixed_width_table(value))
        elif isinstance(value, list):
            lines = [f"{key}: {', '.join(str(v) for v in value)}"]
        elif isinstance(value, dict):
            lines = [f"{key}:"]
            lines.extend(f"  {k}: {v}" for k, v in value.items())
        else:
            lines = [f"{key}: {value}"]
        out.append("\n".join(lines) + "\n")
    return "".join(out)


def delimited_report(report: dict) -> str:
    """``report`` in the tab-separated layout."""
    out = []
    for key, value in report.items():
        if _is_records(value):
            headers = list(value[0].keys())
            lines = ["\t".join(headers)]
            lines.extend("\t".join(str(rec.get(h, "")) for h in headers)
                         for rec in value)
        elif isinstance(value, dict):
            lines = [f"{key}.{k}\t{v}" for k, v in value.items()]
        else:
            lines = [f"{key}\t{value}"]
        if lines:
            out.append("\n".join(lines) + "\n")
    return "".join(out)


def strip_comment(line: str) -> str:
    """``line`` up to its first '#' after an even number of '"'."""
    idx = line.find("#")
    while idx >= 0 and line.count('"', 0, idx) % 2:
        idx = line.find("#", idx + 1)
    return line if idx < 0 else line[:idx]


def split_list(text: str) -> list[str]:
    """Split on ',' outside double quotes; items stripped, empties dropped."""
    items, buf, quoted = [], [], False
    for ch in text:
        if ch == '"':
            quoted = not quoted
            buf.append(ch)
        elif ch == "," and not quoted:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    items.append("".join(buf))
    return [s.strip() for s in items if s.strip()]


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


_WORD_RE = re.compile(r"[^\s=,]+")


def _peek_word(s: str, i: int) -> tuple[str, int]:
    m = _WORD_RE.match(s, i)
    return (m.group(0), m.end()) if m else ("", i)


def _error(line: int, col: int, kind: str, message: str, token: str = ""):
    return ParseError(SourceSpan(line, col), kind, message, token)


def parse_value(s: str, i: int, line: int):
    """A quoted or bare value starting at ``i``: (value, index, error)."""
    i = _skip_ws(s, i)
    if i < len(s) and s[i] in _QUOTE_CLOSERS:
        positions = [p for p in (s.find(c, i + 1)
                                 for c in _QUOTE_CLOSERS[s[i]]) if p >= 0]
        if not positions:
            return None, len(s), _error(line, i + 1, "lex",
                                        "unterminated quote", s[i])
        j = min(positions)
        return s[i + 1:j], j + 1, None
    words = []
    while i < len(s):
        if s[i] == ",":
            break
        w, j = _peek_word(s, i)
        if not w or w.lower() in ("and", "then", "otherwise"):
            break
        words.append(w)
        i = _skip_ws(s, j)
    if not words:
        return None, i, _error(line, i + 1, "syntax",
                               "expected a value after '='")
    return " ".join(words), i, None


def parse_atom_list(s: str, i: int, stops: frozenset, line: int):
    """``name = value`` atoms separated by ',' / 'and' until a stop word:
    (raw atoms, index, stop word consumed or None, errors)."""
    atoms, errors = [], []
    while True:
        i = start = _skip_ws(s, i)
        w, j = _peek_word(s, i)
        while atoms and (w.lower() == "and" or s.startswith(",", i)):
            i = _skip_ws(s, j if w else i + 1)
            w, j = _peek_word(s, i)
        if w.lower() in stops:
            return atoms, j, w.lower(), errors
        if i == start:
            if i >= len(s):
                return atoms, i, None, errors
            if atoms:
                second = s.startswith("=", i)
                errors.append(_error(line, i + 1, "syntax", (
                    f"unexpected '=' after the value of {atoms[-1][0]!r}"
                    if second else "expected ',' or 'and' between atoms"),
                    "=" if second else w))
                return atoms, i, None, errors
        eq = s.find("=", i)
        if eq < 0:
            errors.append(_error(line, i + 1, "syntax",
                                 "expected '=' in atom", s[i:i + 20]))
            return atoms, len(s), None, errors
        name = s[i:eq].strip()
        if not name:
            errors.append(_error(line, i + 1, "syntax",
                                 "empty name before '='"))
            return atoms, len(s), None, errors
        value, i, err = parse_value(s, eq + 1, line)
        if err:
            errors.append(err)
            return atoms, i, None, errors
        atoms.append((re.sub(r"\s+", " ", name), value))
