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
A profile fires the rules whose action tests its actions all pass; the
fired rules that test outcome variables are deferred, and every other rule
forces its consequence if fired, else its otherwise-branch.  Each fired
set is scanned once, on its first profile.  A profile's block is a product
of independent factors: each group of variables that deferred rules link,
with its assignments that pass its own rules, and each variable that none
mentions.  So the admissible count, and the greatest key of any per-value
weighting with the completions reaching it, follow from the factors' own
(bucket elimination): ``enumeration_report`` counts without building a
row, ``top_gu_rows`` takes the product of each variable's values at the
greatest global utility, kept where each linked group holds one of its
best assignments, and policy picks, the first completions of greatest key,
make the payoff tables (``derive_payoff_table``, ``project_bimatrix``) in
``oagame._payoffs``, which only the commands that build one compile.
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
from functools import reduce
from operator import and_, getitem, itemgetter

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


class CompiledGame:
    """Index form of a ``GameSpec``; get it with ``compile_game``.

    A profile is a tuple of action indices and a completion a tuple of value
    indices, one per player or variable in declaration order.  Each rule
    ``r`` is ``(outcome tests, consequence, otherwise)``, ``atom_index``
    pairs, and its action test is bit ``r`` of ``live`` (no inert condition
    atom) and of ``masks[i][a]`` (action ``a`` passes the condition's atoms
    on player ``i``), so a player's distinct masks are its classes of
    actions.  A rule with a ``GameSpec.rule_faults`` fault raises
    ``NameResolutionError`` for its first.  A player's utility terms are
    resolved each time its utility is asked for, so a player without a
    utility definition is an error only for the consumers that need one.
    Profile blocks (``_Block``) are kept per fired set and shared per
    (deferred rules, forced values).
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
        rules = [self._rule(r) for r in game.rules]
        self.rules = tuple(r[1:] for r in rules)
        self.live = sum(1 << r for r, rule in enumerate(game.rules)
                        if not any(a.inert for a in rule.condition))
        self.masks = tuple(tuple(
            sum(1 << r for r, (acts, *_) in enumerate(rules)
                if all(j == a for k, j in acts if k == i))
            for a in range(len(names))) for i, names in enumerate(self.actions))
        self._fired, self._blocks = {}, {}

    def _rule(self, rule: Rule):
        for part, atom in self.game.rule_faults(rule):
            raise NameResolutionError(f"{part} of rule {rule.source!r}",
                                      f"{atom.subject}={atom.value}")

        def pairs(atoms, kind=None):
            return tuple(self.game.atom_index(*a[:3]) for a in atoms
                         if not a.inert and kind in (None, a.kind))
        return (pairs(rule.condition, ACTION), pairs(rule.condition, OUTCOME),
                pairs(rule.consequence), pairs(rule.otherwise))

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
        "factors",  # (variables, passing assignments) of each factor
        "count",  # admissible completions
        "gu"))):  # ``_optimum`` of the global utility; None if no count
    """What every profile with the same (deferred rules, forced values)
    shares: its completions are one passing assignment (a value tuple) of
    each factor, in canonical order; factors go by first variable."""

    __slots__ = ()


def _profile_block(cg: CompiledGame, profile) -> _Block | None:
    """``_fired_block`` of the rules that ``profile`` fires, kept per game."""
    fired = reduce(and_, map(getitem, cg.masks, profile), cg.live)
    if fired not in cg._fired:
        cg._fired[fired] = _fired_block(cg, fired)
    return cg._fired[fired]


def _fired_block(cg: CompiledGame, fired: int) -> _Block | None:
    """The block of the profiles that fire the rules of ``fired``, or None
    when forced values conflict: a fired rule that tests outcome variables
    is deferred, other rules force their consequence if fired, else their
    otherwise-branch."""
    forced, deferred = {}, []
    for r, (tests, then, otherwise) in enumerate(cg.rules):
        fires = fired >> r & 1
        if fires and tests:
            deferred.append(r)
            continue
        for v, x in then if fires else otherwise:
            if forced.setdefault(v, x) != x:
                return None
    key = (tuple(deferred), tuple(map(forced.get, range(len(cg.values)))))
    if key not in cg._blocks:
        cg._blocks[key] = _block(cg, *key)
    return cg._blocks[key]


def _block(cg: CompiledGame, deferred, forced) -> _Block:
    """Joins the factors of each deferred rule's variables, every variable
    starting as a factor alone, and checks every assignment of a factor
    once against its own rules."""
    domains = [r if f is None else (f,) for f, r in zip(forced, cg.ranges)]
    factor = {v: ((v,), ()) for v in range(len(domains))}  # (variables, rules)
    for rule in map(cg.rules.__getitem__, deferred):
        variables, own = zip(*{factor[v] for pairs in rule for v, _ in pairs})
        joined = tuple(sorted(sum(variables, ()))), sum(own, (rule,))
        factor.update(dict.fromkeys(joined[0], joined))
    factors = tuple((variables, tuple(
        sub for sub in itertools.product(*map(domains.__getitem__, variables))
        if not own or all(  # a free variable passes as it is
            _holds(then if _holds(tests, values) else otherwise, values)
            for values in [dict(zip(variables, sub))]
            for tests, then, otherwise in own)))
        for variables, own in dict.fromkeys(factor.values()))
    count = math.prod(len(passing) for _, passing in factors)
    return _Block(factors, count,
                  _optimum(factors, cg.scores) if count else None)


def _optimum(factors, weights):
    """``(best, at_best, picks)`` of the key adding ``weights[v][x]`` for
    value ``x`` of each variable ``v``: the greatest key over the
    completions of ``factors``, how many reach it, and each factor cut to
    its assignments of greatest key; the factors' maxima add, and their
    counts at the maxima multiply (bucket elimination)."""
    best, at_best, picks = 0, 1, []
    for variables, passing in factors:
        w = [weights[v] for v in variables]
        gains = [sum(map(getitem, w, sub)) for sub in passing]
        high = max(gains)
        top = tuple(sub for sub, gain in zip(passing, gains) if gain == high)
        best, at_best = best + high, at_best * len(top)
        picks.append((variables, top))
    return best, at_best, tuple(picks)


def _filtered(factors):
    """The completions made of one assignment of each of ``factors``, in
    canonical order: the product of each variable's values, kept where
    each factor of several variables holds one of its assignments."""
    allowed = {v: sorted(set(values)) for variables, kept in factors
               for v, values in zip(variables, zip(*kept))}
    rows = itertools.product(*map(allowed.__getitem__, sorted(allowed)))
    for variables, kept in (f for f in factors if len(f[0]) > 1):
        rows, copy = itertools.tee(rows)
        rows = itertools.compress(rows, map(
            set(kept).__contains__, map(itemgetter(*variables), copy)))
    return rows


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


def _report(cg: CompiledGame, census, rows=None,
            tops=None) -> EnumerationReport:
    """The counts of ``census``, walked to its end, and the entries a row
    list expands while their rows are within ``ROW_BUDGET``: to ``rows``
    each entry, to ``tops`` each at the running max, emptied as it rises."""
    count, best, at_best = 0, None, 0
    for entry in census:
        high, at_high, _ = entry[1].gu
        count += entry[1].count
        if rows is not None and count <= ROW_BUDGET:
            rows.append(entry)
        if best is None or high > best:
            best, at_best = high, 0
            if tops is not None:
                tops.clear()
        if high == best:
            at_best += at_high
            if tops is not None and at_best <= ROW_BUDGET:
                tops.append(entry)
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
    factors)`` entry, in order; each block's ``_filtered`` completions are
    enumerated once, into one tuple that its profiles share."""
    shared, done, groups = {}, {}, []  # done: id(block) -> its completions
    for p, b, factors in entries:
        if id(b) not in done:
            done[id(b)] = tuple(shared.setdefault(c, c)
                                for c in _filtered(factors))
        groups.append((p, done[id(b)]))
    return groups


def admissible_rows(game: GameSpec) -> tuple[list[tuple], EnumerationReport]:
    """All admissible rows in canonical order, as ``(profile, completions)``
    groups of ``compile_game(game)`` index tuples, one per profile with a
    row, plus the count report.  A block's profiles share its completions
    tuple, and equal completions are one tuple.  Raises
    ``RowBudgetError``, building no row, above ``ROW_BUDGET`` rows."""
    cg, census = compile_game(game), []
    report = _report(cg, _census(cg), rows=census)
    _within_budget(report.admissible_count, "admissible rows")
    return _expand((p, b, b.factors) for p, b in census), report


def top_gu_rows(game: GameSpec) -> tuple[int | None, list[tuple]]:
    """Maximum global utility over the admissible set and the rows attaining
    it, grouped by profile like ``admissible_rows``: ``(profile,
    completions)`` groups in canonical order, or (None, []) when the set is
    empty.  Raises ``RowBudgetError``, building no row, above the budget."""
    cg, census = compile_game(game), []
    report = _report(cg, _census(cg), tops=census)
    _within_budget(report.max_global_utility_count,
                   "rows at max global utility")
    return report.max_global_utility, _expand((p, b, b.gu[2])
                                              for p, b in census)


def derive_payoff_table(
    game: GameSpec,
    policy: CompletionPolicy = CompletionPolicy(),
) -> PayoffTable:
    """One utility vector per action profile under the completion policy,
    in canonical profile order (``PayoffTable.profiles()``); profiles
    without an admissible completion are marked infeasible."""
    from ._payoffs import _payoff_table
    return _payoff_table(game, policy, compile_game(game).players)


def project_bimatrix(
    game: GameSpec,
    policy: CompletionPolicy,
    row_player: str,
    col_player: str,
) -> PayoffTable:
    """Two-player table: complete the other players and the outcome per the
    policy for each action pair and record the pair's utilities, as ints.
    A pair's completion is the first profile's pick with the greatest
    policy key, which is the policy applied to all of the pair's
    completions at once.  ``oagame.equilibrium`` serves this function
    too."""
    rp = game.player(row_player)
    cp = game.player(col_player)
    if rp is None or cp is None or rp.name == cp.name:
        raise ValueError("projection needs two distinct declared players")
    from ._payoffs import _payoff_table
    return _payoff_table(game, policy, (rp.name, cp.name))


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
