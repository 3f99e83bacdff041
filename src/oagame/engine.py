"""Scenario enumeration, rule semantics, completion policies, payoff tables.

A scenario row is admissible when it violates no rule.  A rule is a material
implication: when every condition atom holds, every consequence atom must
hold; when the condition fails and the rule has an otherwise-branch, every
otherwise atom must hold.  An inert (unresolved, lenient-mode) atom never
holds in a condition and is always satisfied as an assignment.  The naive
re-check of that reading lives in ``tests/oracle.py``, and the engine must
agree with it.

The engine runs on the game's compiled form (``compile_game``), built once
per ``GameSpec`` and kept on it.  Players, actions, variables and values
become indices, each variable has a score tuple, and each rule atom is a
``(player or variable index, action or value index)`` pair with inert atoms
folded in, so a rule with an inert condition atom keeps only its
otherwise-branch and inert assignment atoms are gone.  For each
action profile, the rules decided by the profile alone force variable
values up front; the rules that test outcome variables are checked once per
assignment of the variables they mention (the coupled block), and the
candidates are filtered by the admissible assignments found.  Every other
variable is free, independent of the rest, so a profile's admissible
count, and its greatest key and the completions attaining it for any key
that sums per-value weights, follow in closed form: ``enumeration_report``
counts without building a row, ``top_gu_rows`` generates only the rows at
the greatest global utility, and policy picks (and through them payoff
tables and projections) are the first completions of greatest key.
Both row lists (``admissible_rows`` and ``top_gu_rows``) expand the census
they read, enumerating each block's completions once.  A row is a
``(profile, completion)`` pair of index tuples; names come back only in
``record_cells``, which names each distinct profile and each distinct
completion of a row list once, so a row dump is rendered from those cells
without building one record per row; ``rows_as_records`` expands them into
per-row dicts.
"""

from __future__ import annotations

import itertools
import math
from operator import getitem, itemgetter
from typing import NamedTuple

from .model import (
    ACTION,
    OUTCOME,
    Atom,
    GameError,
    GameSpec,
    NameResolutionError,
    PayoffTable,
    Rule,
)


class _PolicyFields(NamedTuple):
    kind: str = "max-global-utility"  # | optimistic | pessimistic | fixed
    player: str | None = None
    fixed_actions: tuple[tuple[str, str], ...] = ()
    fixed_outcomes: tuple[tuple[str, str], ...] = ()


class CompletionPolicy(_PolicyFields):
    """How a set of admissible completions collapses to one payoff vector.

    Ties break lexicographically in declaration order (players then
    variables, action and value order as declared).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, *fields, **named):
        if self.kind not in ("max-global-utility", "optimistic",
                             "pessimistic", "fixed"):
            raise ValueError(f"unknown completion policy {self.kind!r}")
        if self.kind in ("optimistic", "pessimistic") and not self.player:
            raise ValueError(f"{self.kind} policy requires a player")


class EnumerationReport(NamedTuple):
    action_profile_count: int
    row_space_count: int
    admissible_count: int
    max_global_utility: int | None
    max_global_utility_count: int


def _selector(pairs):
    """(getter, wanted) such that ``getter(t) == wanted`` exactly when
    ``t[i] == j`` for every ``(i, j)`` in ``pairs``."""
    if not pairs:
        return (lambda t: ()), ()
    indices, wanted = zip(*pairs)
    return itemgetter(*indices), wanted if len(pairs) > 1 else wanted[0]


def _index(names) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


class CompiledGame:
    """Index form of a ``GameSpec``; get it with ``compile_game``.

    A profile is a tuple of action indices and a completion a tuple of value
    indices, one per player or variable in declaration order.  Each rule is
    ``(action test, outcome tests, consequence, otherwise)``: the action
    test is a ``_selector`` of the condition's action pairs, or None when
    the condition can never hold, and the rest are index pairs.
    Utility terms are resolved the first time a player's utility is asked
    for, so a player without a utility definition is an error only for
    the consumers that need one.  Profile blocks (``_Block``) are kept per
    (deferred rules, forced values), at most one per profile.
    """

    def __init__(self, game: GameSpec):
        self.game = game
        self.players = game.player_names()
        self.actions = tuple(p.actions for p in game.players)
        self.variables = game.variable_names()
        self.values = tuple(v.value_names() for v in game.variables)
        self.scores = tuple(tuple(s for _, s in v.values)
                            for v in game.variables)
        self._player_index = _index(self.players)
        self._action_index = tuple(map(_index, self.actions))
        self._variable_index = _index(self.variables)
        self._value_index = tuple(map(_index, self.values))
        self.ranges = tuple(range(len(v)) for v in self.values)
        self.rules = tuple(self._rule(r) for r in game.rules)
        # (deferred rule indices, forced values) -> _block(...)
        self._blocks: dict[tuple, _Block] = {}
        self._weights: dict[str, tuple[tuple[int, ...], ...]] = {}

    def _pair(self, kind: str, subject: str,
              value: str) -> tuple[int, int] | None:
        """(subject index, value index) of an action or outcome test, or
        None when its names are not declared exactly (then it never holds)."""
        if kind == ACTION:
            i = self._player_index.get(subject)
            index = self._action_index
        else:
            i = self._variable_index.get(subject)
            index = self._value_index
        j = None if i is None else index[i].get(value)
        return None if j is None else (i, j)

    def _assignments(self, rule: Rule, atoms: tuple[Atom, ...]):
        pairs = []
        for atom in atoms:
            if atom.inert:
                continue
            pair = (None if atom.kind == ACTION
                    else self._pair(OUTCOME, atom.subject, atom.value))
            if pair is None:
                raise NameResolutionError(
                    f"assignment of rule {rule.source!r}",
                    f"{atom.subject}={atom.value}")
            pairs.append(pair)
        return tuple(pairs)

    def _rule(self, rule: Rule):
        acts, tests = [], []
        for atom in rule.condition:
            pair = (None if atom.inert
                    else self._pair(atom.kind, atom.subject, atom.value))
            if pair is None:
                acts = None
                break
            (acts if atom.kind == ACTION else tests).append(pair)
        return (None if acts is None else _selector(acts), tuple(tests),
                self._assignments(rule, rule.consequence),
                self._assignments(rule, rule.otherwise))

    def profiles(self):
        """Every profile, in canonical order."""
        return itertools.product(*(range(len(a)) for a in self.actions))

    def action_names(self, profile) -> tuple[str, ...]:
        return tuple(map(getitem, self.actions, profile))

    def value_names(self, completion) -> tuple[str, ...]:
        return tuple(map(getitem, self.values, completion))

    def global_utility(self, completion) -> int:
        return sum(map(getitem, self.scores, completion))

    def _utility_weights(self, player: str) -> tuple[tuple[int, ...], ...]:
        """Per variable, what each value adds to ``player``'s utility (its
        score times the utility terms naming the variable); ``player`` may
        be an alias.  Resolved on first use."""
        weights = self._weights.get(player)
        if weights is None:
            counts = [0] * len(self.variables)
            for term in self.game.utility_for(player).terms:
                var = self.game.variable(term)
                if var is None:
                    raise NameResolutionError(f"utility of {player!r}", term)
                counts[self._variable_index[var.name]] += 1
            weights = self._weights[player] = tuple(
                tuple(k * s for s in scores)
                for k, scores in zip(counts, self.scores))
        return weights


def compile_game(game: GameSpec) -> CompiledGame:
    """The game's compiled form, built on first use and kept in the
    instance dict, like ``OutcomeVarDef``'s lookup table."""
    compiled = game.__dict__.get("_compiled")
    if compiled is None:
        compiled = game._compiled = CompiledGame(game)
    return compiled


def _holds(pairs, values) -> bool:
    return all(values[i] == j for i, j in pairs)


class RowBudgetError(GameError):
    """A row list would hold more than ``ROW_BUDGET`` rows."""


# The most rows ``admissible_rows`` or ``top_gu_rows`` builds; above it they
# raise ``RowBudgetError`` before building any row.
ROW_BUDGET = 10**6


class _Block(NamedTuple):
    """What every profile with the same (deferred rules, forced values)
    shares.  The variables the deferred rules mention are coupled; the
    others are free, each independent of the rest."""

    domains: list  # per variable, its forced value or its range
    coupled: list  # the coupled variables, ascending
    select: object  # getter of the coupled values; None when none are
    passing: dict  # ``select`` value -> values, of each passing assignment
    count: int  # admissible completions


def _profile_block(cg: CompiledGame, profile) -> _Block | None:
    """The block of one profile, or None when its forced values conflict.
    Rules whose conditions are decided by the profile alone force variable
    values; rules that test outcome variables are deferred."""
    forced = [None] * len(cg.values)
    deferred = []
    for r, (acts, tests, then, otherwise) in enumerate(cg.rules):
        if acts is None or acts[0](profile) != acts[1]:
            assigns = otherwise
        elif tests:
            deferred.append(r)
            continue
        else:
            assigns = then
        for v, x in assigns:
            if forced[v] is None:
                forced[v] = x
            elif forced[v] != x:
                return None
    key = (tuple(deferred), tuple(forced))
    block = cg._blocks.get(key)
    if block is None:
        block = cg._blocks[key] = _block(cg, *key)
    return block


def _block(cg: CompiledGame, deferred, forced) -> _Block:
    """Checks every assignment of the coupled variables once against the
    deferred rules; a completion is a passing one times any free values."""
    domains = [r if f is None else (f,) for f, r in zip(forced, cg.ranges)]
    rules = [cg.rules[r][1:] for r in deferred]
    coupled = sorted({v for rule in rules for pairs in rule
                      for v, _ in pairs})
    passing = {}
    for sub in itertools.product(*(domains[v] for v in coupled)):
        values = dict(zip(coupled, sub))
        if all(_holds(then if _holds(tests, values) else otherwise, values)
               for tests, then, otherwise in rules):
            passing[sub if len(coupled) != 1 else sub[0]] = sub
    count = len(passing) * math.prod(
        len(d) for v, d in enumerate(domains) if v not in coupled)
    return _Block(domains, coupled,
                  itemgetter(*coupled) if coupled else None, passing, count)


def _optimum(block: _Block, weights):
    """``(best, at_best, argmax, top)`` of the key adding ``weights[v][x]``
    for value ``x`` of each variable ``v``: the greatest key over the
    block's (one or more) completions, how many reach it, the ``passing``
    keys that do, and ``domains`` with free variables cut to their values
    of greatest weight; the free maxima add (bucket elimination)."""
    gains = {k: sum(weights[v][x] for v, x in zip(block.coupled, sub))
             for k, sub in block.passing.items()}
    best = max(gains.values())
    argmax = {k for k, gain in gains.items() if gain == best}
    at_best, top = len(argmax), list(block.domains)
    for v, domain in enumerate(block.domains):
        if v not in block.coupled:
            gains = [weights[v][x] for x in domain]
            high = max(gains)
            best += high
            at_best *= gains.count(high)
            top[v] = [x for x, gain in zip(domain, gains) if gain == high]
    return best, at_best, argmax, top


def _filtered(select, domains, keep):
    """The completions over ``domains`` whose coupled values are in
    ``keep`` (every one when nothing is coupled), canonical order."""
    if select is None:
        return itertools.product(*domains)
    return itertools.compress(
        itertools.product(*domains),
        map(keep.__contains__, map(select, itertools.product(*domains))))


def _census(cg: CompiledGame, weights):
    """``(profile, block, optimum)`` of each profile with an admissible
    completion, canonical order; ``_optimum`` runs once per block."""
    optima = {}
    for profile in cg.profiles():
        block = _profile_block(cg, profile)
        if block is not None and block.count:
            if id(block) not in optima:
                optima[id(block)] = _optimum(block, weights)
            yield profile, block, optima[id(block)]


def _within_budget(count: int, what: str) -> None:
    if count > ROW_BUDGET:
        raise RowBudgetError(f"{count} {what} exceed the row budget of "
                             f"{ROW_BUDGET}")


def _report(cg: CompiledGame, census) -> EnumerationReport:
    count, best, at_best = 0, None, 0
    for _, block, (high, at_high, _, _) in census:
        count += block.count
        if best is None or high > best:
            best, at_best = high, 0
        if high == best:
            at_best += at_high
    profile_count = math.prod(map(len, cg.actions))
    return EnumerationReport(profile_count,
                             profile_count * math.prod(map(len, cg.values)),
                             count, best, at_best)


def enumeration_report(game: GameSpec) -> EnumerationReport:
    """The counts of the admissible set, summed over the profiles' blocks
    without building a row."""
    cg = compile_game(game)
    return _report(cg, _census(cg, cg.scores))


def _expand(entries) -> list[tuple]:
    """The rows of ``(profile, block, domains, keep)`` entries, in order;
    each block's ``_filtered`` completions are enumerated once."""
    shared, done, rows = {}, {}, []  # done: id(block) -> its completions
    for p, b, domains, keep in entries:
        if id(b) not in done:
            done[id(b)] = tuple(shared.setdefault(c, c)
                                for c in _filtered(b.select, domains, keep))
        rows += zip(itertools.repeat(p), done[id(b)])
    return rows


def admissible_rows(game: GameSpec) -> tuple[list[tuple], EnumerationReport]:
    """All admissible rows in canonical order, as ``(profile, completion)``
    index pairs of ``compile_game(game)``, plus the count report.  The rows
    expand the census: each block's completions are enumerated once, and
    rows with equal completions share one completion tuple.  Raises
    ``RowBudgetError``, building no row, above ``ROW_BUDGET`` rows."""
    cg = compile_game(game)
    census = list(_census(cg, cg.scores))
    report = _report(cg, census)
    _within_budget(report.admissible_count, "admissible rows")
    return _expand((p, b, b.domains, b.passing) for p, b, _ in census), report


def top_gu_rows(game: GameSpec) -> tuple[int | None, list[tuple]]:
    """Maximum global utility over the admissible set and the rows attaining
    it, expanded from the census like ``admissible_rows``: ``(profile,
    completion)`` pairs in canonical order, or (None, []) when the set is
    empty.  Raises ``RowBudgetError``, building no row, above the budget."""
    cg = compile_game(game)
    census = list(_census(cg, cg.scores))
    report = _report(cg, census)
    best = report.max_global_utility
    _within_budget(report.max_global_utility_count,
                   "rows at max global utility")
    return best, _expand((p, b, top, argmax) for p, b, (high, _, argmax, top)
                         in census if high == best)


def _payoff_table(game: GameSpec, policy: CompletionPolicy,
                  players) -> PayoffTable:
    """The payoff table of ``players`` (declared names, in the table's
    order) under the completion policy.  A game profile's pick is its first
    admissible completion of greatest policy key; under the fixed policy
    only completions matching the fragment qualify, at key 0, as a value
    that a fixed outcome pair rules out weighs -1 (naming anything
    undeclared matches nothing).  A cell holds the utilities at the first
    pick of strictly greatest key over the game profiles extending it, the
    policy applied to all of their completions at once, or None when they
    have no pick.  Each block's ``_optimum`` gives its pick, and the pick's
    utilities are one tuple shared by every profile in the block."""
    cg = compile_game(game)
    kept = [cg.players.index(p) for p in players]
    acts, weights, utilities = (), None, None
    if policy.kind == "fixed":
        acts = [cg._pair(ACTION, s, x) for s, x in policy.fixed_actions]
        outs = [cg._pair(OUTCOME, s, x) for s, x in policy.fixed_outcomes]
        acts = None if None in acts + outs else acts
        weights = tuple(tuple(-sum(w == v and y != x
                                   for w, y in filter(None, outs))
                              for x in r) for v, r in enumerate(cg.ranges))
    picks = {}  # id(block) -> (key, cell), or None when it has no pick
    best = {}  # profile of ``players`` -> (key, cell) of its first best pick
    for profile in cg.profiles():
        block = (None if acts is None or not _holds(acts, profile)
                 else _profile_block(cg, profile))
        if block is None or not block.count:
            continue
        if weights is None:  # no admissible row, no utility needed
            weights = cg.scores if policy.kind == "max-global-utility" else [
                [w if policy.kind == "optimistic" else -w for w in ws]
                for ws in cg._utility_weights(policy.player)]
        if id(block) not in picks:
            key, _, argmax, top = _optimum(block, weights)
            pick = None
            if policy.kind != "fixed" or not key:
                first = [domain[0] for domain in top]
                for v, x in zip(block.coupled, block.passing[min(argmax)]):
                    first[v] = x
                if utilities is None:
                    utilities = [cg._utility_weights(p) for p in players]
                pick = key, tuple(sum(map(getitem, w, first))
                                  for w in utilities)
            picks[id(block)] = pick
        pick, own = picks[id(block)], tuple(map(profile.__getitem__, kept))
        if pick is not None and (own not in best or pick[0] > best[own][0]):
            best[own] = pick
    actions = tuple(cg.actions[i] for i in kept)
    return PayoffTable(tuple(players), actions, tuple(
        best[own][1] if own in best else None
        for own in itertools.product(*map(range, map(len, actions)))))


def derive_payoff_table(
    game: GameSpec,
    policy: CompletionPolicy = CompletionPolicy(),
) -> PayoffTable:
    """One utility vector per action profile under the completion policy,
    in canonical profile order (``PayoffTable.profiles()``); profiles
    without an admissible completion are marked infeasible."""
    return _payoff_table(game, policy, compile_game(game).players)


def record_cells(game: GameSpec, rows) -> tuple[tuple[str, ...], dict, dict]:
    """Row dump record keys and cells of ``(profile, completion)`` rows.

    Returns ``(keys, heads, tails)``: ``heads`` maps each profile in
    ``rows`` to its action names and ``tails`` maps each completion to its
    value names, GU and per-player utilities, so that a row's record is
    ``dict(zip(keys, heads[profile] + tails[completion]))``.  Every
    player's utility is resolved, even when ``rows`` is empty.  Raises
    ValueError when a key repeats, which parsing and validation refuse.
    """
    keys = game.record_keys()
    if len(set(keys)) < len(keys):
        raise ValueError(f"cannot write the row records of game "
                         f"{game.name!r}: their keys {list(keys)!r} repeat")
    cg = compile_game(game)
    weights = [cg._utility_weights(p) for p in cg.players]
    heads = {p: cg.action_names(p)
             for p in dict.fromkeys(map(itemgetter(0), rows))}
    tails = {c: (*cg.value_names(c), cg.global_utility(c),
                 *[sum(map(getitem, w, c)) for w in weights])
             for c in dict.fromkeys(map(itemgetter(1), rows))}
    return keys, heads, tails


def rows_as_records(game: GameSpec, rows) -> list[dict]:
    """Row dump records of ``(profile, completion)`` pairs, one dict per
    row: players, variables, GU, per-agent utilities.  The reference
    expansion of ``record_cells``; the CLI renders the cells directly."""
    keys, heads, tails = record_cells(game, rows)
    return [dict(zip(keys, heads[p] + tails[c])) for p, c in rows]
