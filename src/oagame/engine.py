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
otherwise-branch and inert assignment atoms are gone.  Compiling raises
``NameResolutionError`` for an atom of ``GameSpec.rule_faults``, naming its
part as ``validate_game`` does, such as ``consequence of rule '...'``.
For each
action profile, the rules decided by the profile alone force variable
values up front; the rules that test outcome variables are checked once per
assignment of the variables they mention (the coupled block), and the
candidates are filtered by the admissible assignments found.  Every other
variable is free, independent of the rest, so a profile's admissible
count, and its greatest key and the completions attaining it for any key
that sums per-value weights, follow in closed form: ``enumeration_report``
counts without building a row, ``top_gu_rows`` generates only the rows at
the greatest global utility, and policy picks (and through them payoff
tables and projections) are the first completions of greatest key; the
tables are built in ``oagame._payoffs``, which only the commands that
build one compile.
The census is the engine's one walk over the profiles: the counts, the
payoff tables and both row lists (``admissible_rows`` and ``top_gu_rows``)
read it, and the row lists expand it, enumerating each block's completions
once.  A row list holds one ``(profile, completions)`` group of index
tuples per profile, a block's profiles sharing one completions tuple;
names come back only in ``record_cells``, which turns each group into
``(head, tails)`` cells, naming each profile and each distinct completion
once, a block's profiles sharing one ``tails`` tuple, so a row dump is
rendered from those cells a group at a time without building one record
per row; ``rows_as_records`` flattens the groups into per-row dicts.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import getitem, itemgetter

from .model import (
    ACTION,
    OUTCOME,
    GameError,
    GameSpec,
    NameResolutionError,
    PayoffTable,
    Rule,
)


class CompletionPolicy(namedtuple("CompletionPolicy", (
        "kind", "player", "fixed_actions", "fixed_outcomes"),
        defaults=("max-global-utility", None, (), ()))):
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


class EnumerationReport(namedtuple("EnumerationReport", (
        "action_profile_count", "row_space_count", "admissible_count",
        "max_global_utility", "max_global_utility_count"))):
    __slots__ = ()


def _selector(pairs):
    """(getter, wanted) such that ``getter(t) == wanted`` exactly when
    ``t[i] == j`` for every ``(i, j)`` in ``pairs``."""
    if not pairs:
        return (lambda t: ()), ()
    indices, wanted = zip(*pairs)
    return itemgetter(*indices), wanted if len(pairs) > 1 else wanted[0]


class CompiledGame:
    """Index form of a ``GameSpec``; get it with ``compile_game``.

    A profile is a tuple of action indices and a completion a tuple of value
    indices, one per player or variable in declaration order.  Each rule is
    ``(action test, outcome tests, consequence, otherwise)``: the action
    test is a ``_selector`` of the condition's action pairs, or None when
    the condition has an inert atom and can never hold, and the rest are
    ``atom_index`` pairs.  A rule with a ``GameSpec.rule_faults`` fault
    raises ``NameResolutionError`` for its first.
    A player's utility terms are resolved each time its utility is asked
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
        self.ranges = tuple(range(len(v)) for v in self.values)
        self.rules = tuple(self._rule(r) for r in game.rules)
        # (deferred rule indices, forced values) -> _block(...)
        self._blocks: dict[tuple, _Block] = {}

    def _rule(self, rule: Rule):
        for part, atom in self.game.rule_faults(rule):
            raise NameResolutionError(f"{part} of rule {rule.source!r}",
                                      f"{atom.subject}={atom.value}")

        def pairs(atoms, kind=None):
            return tuple(self.game.atom_index(*a[:3]) for a in atoms
                         if not a.inert and kind in (None, a.kind))
        never = any(a.inert for a in rule.condition)
        return (None if never else _selector(pairs(rule.condition, ACTION)),
                pairs(rule.condition, OUTCOME), pairs(rule.consequence),
                pairs(rule.otherwise))

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
        be an alias.  Resolved at each call."""
        counts = [0] * len(self.variables)
        for term in self.game.utility_for(player).terms:
            var = self.game.variable(term)
            if var is None:
                raise NameResolutionError(f"utility of {player!r}", term)
            counts[self.variables.index(var.name)] += 1
        return tuple(tuple(k * s for s in scores)
                     for k, scores in zip(counts, self.scores))


def compile_game(game: GameSpec) -> CompiledGame:
    """The game's compiled form, built on first use and kept in the
    ``GameSpec``'s instance dict."""
    compiled = game.__dict__.get("_compiled")
    if compiled is None:
        compiled = game._compiled = CompiledGame(game)
    return compiled


def _holds(pairs, values) -> bool:
    return all(values[i] == j for i, j in pairs)


class RowBudgetError(GameError):
    """A row list would hold more than ``ROW_BUDGET`` rows, or a payoff
    table more than ``ROW_BUDGET`` cells."""


# The most rows ``admissible_rows`` or ``top_gu_rows`` builds, and the most
# cells of a payoff table; above it they raise ``RowBudgetError`` before
# building any row or cell.
ROW_BUDGET = 10**6


class _Block(namedtuple("_Block", (
        "domains",  # per variable, its forced value or its range
        "coupled",  # the coupled variables, ascending
        "select",  # getter of the coupled values; None when none are
        "passing",  # ``select`` value -> values, of each passing assignment
        "count",  # admissible completions
        "gu"))):  # ``_optimum`` of the global utility; None if no count
    """What every profile with the same (deferred rules, forced values)
    shares.  The variables the deferred rules mention are coupled; the
    others are free, each independent of the rest."""

    __slots__ = ()


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
    block = _Block(domains, coupled, itemgetter(*coupled) if coupled else None,
                   passing, count, None)
    return block._replace(gu=_optimum(block, cg.scores)) if count else block


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


def _census(cg: CompiledGame, profiles=None):
    """``(profile, block)`` of each of ``profiles`` (default: all) with an
    admissible completion, in order: the engine's one walk over profiles."""
    for profile in cg.profiles() if profiles is None else profiles:
        block = _profile_block(cg, profile)
        if block is not None and block.count:
            yield profile, block


def _within_budget(count: int, what: str) -> None:
    if count > ROW_BUDGET:
        raise RowBudgetError(f"{count} {what} exceed the row budget of "
                             f"{ROW_BUDGET}")


def _report(cg: CompiledGame, census) -> EnumerationReport:
    count, best, at_best = 0, None, 0
    for _, block in census:
        high, at_high, _, _ = block.gu
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
    return _report(cg, _census(cg))


def _expand(entries) -> list[tuple]:
    """The ``(profile, completions)`` group of each ``(profile, block,
    domains, keep)`` entry, in order; each block's ``_filtered`` completions
    are enumerated once, into one tuple that its profiles share."""
    shared, done, groups = {}, {}, []  # done: id(block) -> its completions
    for p, b, domains, keep in entries:
        if id(b) not in done:
            done[id(b)] = tuple(shared.setdefault(c, c)
                                for c in _filtered(b.select, domains, keep))
        groups.append((p, done[id(b)]))
    return groups


def admissible_rows(game: GameSpec) -> tuple[list[tuple], EnumerationReport]:
    """All admissible rows in canonical order, as ``(profile, completions)``
    groups of ``compile_game(game)`` index tuples, one per profile with a
    row, plus the count report.  A block's profiles share its completions
    tuple, and equal completions are one tuple.  Raises
    ``RowBudgetError``, building no row, above ``ROW_BUDGET`` rows."""
    cg = compile_game(game)
    census = list(_census(cg))
    report = _report(cg, census)
    _within_budget(report.admissible_count, "admissible rows")
    return _expand((p, b, b.domains, b.passing) for p, b in census), report


def top_gu_rows(game: GameSpec) -> tuple[int | None, list[tuple]]:
    """Maximum global utility over the admissible set and the rows attaining
    it, grouped by profile like ``admissible_rows``: ``(profile,
    completions)`` groups in canonical order, or (None, []) when the set is
    empty.  Raises ``RowBudgetError``, building no row, above the budget."""
    cg = compile_game(game)
    census = list(_census(cg))
    report = _report(cg, census)
    best = report.max_global_utility
    _within_budget(report.max_global_utility_count,
                   "rows at max global utility")
    return best, _expand((p, b, b.gu[3], b.gu[2]) for p, b in census
                         if b.gu[0] == best)


def derive_payoff_table(
    game: GameSpec,
    policy: CompletionPolicy = CompletionPolicy(),
) -> PayoffTable:
    """One utility vector per action profile under the completion policy,
    in canonical profile order (``PayoffTable.profiles()``); profiles
    without an admissible completion are marked infeasible."""
    from ._payoffs import _payoff_table
    return _payoff_table(game, policy, compile_game(game).players)


def record_cells(game: GameSpec, groups) -> tuple[tuple[str, ...], list]:
    """Row dump record keys and cells of ``(profile, completions)`` groups.

    Returns ``(keys, cell groups)``: one ``(head, tails)`` per group, where
    ``head`` is the profile's action names and ``tails`` holds, per
    completion, its value names, GU and per-player utilities, so that a
    row's record is ``dict(zip(keys, head + tail))``.  Groups that share a
    completions tuple share one ``tails`` tuple, and equal completions one
    tail.  Every player's utility is resolved, even when ``groups`` is
    empty.  Raises ValueError when a key repeats, which parsing and
    validation refuse.
    """
    keys = game.record_keys()
    if len(set(keys)) < len(keys):
        raise ValueError(f"cannot write the row records of game "
                         f"{game.name!r}: their keys {list(keys)!r} repeat")
    cg = compile_game(game)
    weights = [cg._utility_weights(p) for p in cg.players]
    blocks = {id(cs): cs for _, cs in groups}.values()
    cells = {c: (*cg.value_names(c), cg.global_utility(c),
                 *[sum(map(getitem, w, c)) for w in weights])
             for c in dict.fromkeys(itertools.chain.from_iterable(blocks))}
    tails = {id(cs): tuple(map(cells.__getitem__, cs)) for cs in blocks}
    return keys, [(cg.action_names(p), tails[id(cs)]) for p, cs in groups]


def rows_as_records(game: GameSpec, groups) -> list[dict]:
    """Row dump records of ``(profile, completions)`` groups, one dict per
    row: players, variables, GU, per-agent utilities.  The reference
    flattening of ``record_cells``; the CLI renders the cells directly."""
    keys, cells = record_cells(game, groups)
    return [dict(zip(keys, head + tail)) for head, tails in cells
            for tail in tails]
