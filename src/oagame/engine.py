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
assignment of the variables they mention, and the candidates are filtered
by the admissible assignments found.  Completions stream out as tuples of
value indices and are never kept between calls.  Enumeration, top rows,
policy picks (and through them payoff tables and projections) and row
records all read that one stream.  A row is a ``(profile, completion)``
pair of index tuples; names come back only in ``record_cells`` and
``CompiledGame.row``.  ``record_cells`` names each distinct profile and
each distinct completion of a row list once, so a row dump is rendered
from those cells without building one record per row; ``rows_as_records``
expands them into per-row dicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import getitem, itemgetter

from .model import (
    ACTION,
    OUTCOME,
    Atom,
    GameSpec,
    NameResolutionError,
    Rule,
    ScenarioRow,
)


@dataclass(frozen=True)
class CompletionPolicy:
    """How a set of admissible completions collapses to one payoff vector.

    Ties break lexicographically in declaration order (players then
    variables, action and value order as declared).
    """

    kind: str = "max-global-utility"  # | optimistic | pessimistic | fixed
    player: str | None = None
    fixed_actions: tuple[tuple[str, str], ...] = ()
    fixed_outcomes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.kind not in ("max-global-utility", "optimistic",
                             "pessimistic", "fixed"):
            raise ValueError(f"unknown completion policy {self.kind!r}")
        if self.kind in ("optimistic", "pessimistic") and not self.player:
            raise ValueError(f"{self.kind} policy requires a player")


@dataclass(frozen=True)
class EnumerationReport:
    action_profile_count: int
    row_space_count: int
    admissible_count: int
    max_global_utility: int | None
    max_global_utility_count: int


@dataclass(frozen=True)
class PayoffTable:
    """Per-action-profile utility vectors; None marks an infeasible cell."""

    players: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    cells: dict[tuple[str, ...], tuple[int, ...] | None]

    def profiles(self):
        return itertools.product(*self.actions)

    def payoff(self, profile: tuple[str, ...]) -> tuple[int, ...] | None:
        return self.cells[profile]


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
    the consumers that need one.  The checks of outcome-testing rules are
    kept per (active rules, forced values), at most one per profile.
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
        # (deferred rule indices, forced values) -> _deferred_check(...)
        self._deferred_checks: dict[tuple, tuple] = {}
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

    def row(self, profile, completion) -> ScenarioRow:
        return ScenarioRow(
            dict(zip(self.players, self.action_names(profile))),
            dict(zip(self.variables, self.value_names(completion))))

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

    def utility(self, player: str, completion) -> int:
        return sum(map(getitem, self._utility_weights(player), completion))


def compile_game(game: GameSpec) -> CompiledGame:
    """The game's compiled form, built on first use and kept on the
    (frozen) instance, like ``OutcomeVarDef``'s lookup tables."""
    compiled = game.__dict__.get("_compiled")
    if compiled is None:
        compiled = CompiledGame(game)
        object.__setattr__(game, "_compiled", compiled)
    return compiled


def _holds(pairs, values) -> bool:
    return all(values[i] == j for i, j in pairs)


def _profile_completions(cg: CompiledGame, profile):
    """Admissible completions of one profile, canonical order.

    Rules whose conditions are decided by the profile alone force variable
    values up front; rules that test outcome variables are checked on every
    assignment of the variables they mention, and each candidate is kept
    when its assignment of those variables passed.
    """
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
                return  # conflicting forced values: no admissible completion
    domains = [r if f is None else (f,) for f, r in zip(forced, cg.ranges)]
    if not deferred:
        yield from itertools.product(*domains)
        return
    key = (tuple(deferred), tuple(forced))
    check = cg._deferred_checks.get(key)
    if check is None:
        check = cg._deferred_checks[key] = _deferred_check(
            [cg.rules[r][1:] for r in deferred], domains)
    select, passing = check
    yield from itertools.compress(
        itertools.product(*domains),
        map(passing.__contains__, map(select, itertools.product(*domains))))


def _deferred_check(deferred, domains):
    """(selector, passing set): the variables the deferred rules mention and
    their assignments, over ``domains``, that satisfy every one of them."""
    coupled = sorted({v for rule in deferred for pairs in rule
                      for v, _ in pairs})
    passing = set()
    for sub in itertools.product(*(domains[v] for v in coupled)):
        values = dict(zip(coupled, sub))
        if all(_holds(then if _holds(tests, values) else otherwise, values)
               for tests, then, otherwise in deferred):
            passing.add(sub if len(coupled) > 1 else sub[0])
    return itemgetter(*coupled), passing


def _top(cg: CompiledGame, rows) -> tuple[int | None, list[tuple]]:
    """The maximum global utility over ``rows`` and the rows attaining it,
    in their order; (None, []) when there are no rows."""
    best, top = None, []
    gus: dict[tuple, int] = {}  # completion -> GU, summed once
    for row in rows:
        gu = gus.get(row[1])
        if gu is None:
            gu = gus[row[1]] = cg.global_utility(row[1])
        if best is None or gu > best:
            best, top = gu, [row]
        elif gu == best:
            top.append(row)
    return best, top


def admissible_rows(game: GameSpec) -> tuple[list[tuple], EnumerationReport]:
    """All admissible rows in canonical order, as ``(profile, completion)``
    index pairs of ``compile_game(game)``, plus the count report.  Rows
    with equal completions share one completion tuple."""
    cg = compile_game(game)
    shared: dict[tuple, tuple] = {}
    rows = [(p, shared.setdefault(c, c)) for p in cg.profiles()
            for c in _profile_completions(cg, p)]
    best, top = _top(cg, rows)
    profile_count = math.prod(map(len, cg.actions))
    report = EnumerationReport(profile_count,
                               profile_count * math.prod(map(len, cg.values)),
                               len(rows), best, len(top))
    return rows, report


def top_gu_rows(game: GameSpec) -> tuple[int | None, list[tuple]]:
    """Maximum global utility over the admissible set and the rows attaining
    it, as ``(profile, completion)`` pairs in canonical order.  (None, [])
    when the admissible set is empty."""
    cg = compile_game(game)
    return _top(cg, ((p, c) for p in cg.profiles()
                     for c in _profile_completions(cg, p)))


def _fixed_fragment(cg: CompiledGame, policy: CompletionPolicy):
    """The fixed policy's (action pairs, value pairs), every pair kept, or
    None when it names a player, variable, action or value not declared
    exactly, so that no completion matches it.  A fragment giving one
    subject two values matches nothing either."""
    fragment = []
    for kind, pairs in ((ACTION, policy.fixed_actions),
                        (OUTCOME, policy.fixed_outcomes)):
        resolved = [cg._pair(kind, s, x) for s, x in pairs]
        if None in resolved:
            return None
        fragment.append(resolved)
    return fragment


def chosen_completions(
    game: GameSpec, policy: CompletionPolicy = CompletionPolicy()
):
    """The completion the policy picks for each action profile.

    Yields ``(profile, completion, key)`` in canonical profile order, as
    index tuples of ``compile_game(game)``: ``completion`` is the first
    admissible completion with the greatest policy key, or None when no
    completion qualifies (then ``key`` is None too).  Under the fixed
    policy only completions matching the fragment qualify and every key is
    0.  Picking over several profiles at once therefore means keeping the
    first profile's completion with the strictly greatest key.
    """
    cg = compile_game(game)
    if policy.kind == "fixed":
        fragment = _fixed_fragment(cg, policy)

        def pick(profile):
            if fragment is None or not _holds(fragment[0], profile):
                return None
            return next((c for c in _profile_completions(cg, profile)
                         if _holds(fragment[1], c)), None)

        key = lambda c: 0
    else:
        if policy.kind == "max-global-utility":
            key = cg.global_utility
        elif policy.kind == "optimistic":
            key = lambda c: cg.utility(policy.player, c)
        else:  # pessimistic
            key = lambda c: -cg.utility(policy.player, c)

        def pick(profile):
            # max keeps the first of equal maxima.
            return max(_profile_completions(cg, profile), key=key,
                       default=None)

    for profile in cg.profiles():
        best = pick(profile)
        yield profile, best, None if best is None else key(best)


def derive_payoff_table(
    game: GameSpec,
    policy: CompletionPolicy = CompletionPolicy(),
) -> PayoffTable:
    """One utility vector per action profile under the completion policy;
    profiles without an admissible completion are marked infeasible."""
    cg = compile_game(game)
    cells = {
        cg.action_names(profile):
            None if completion is None
            else tuple(cg.utility(p, completion) for p in cg.players)
        for profile, completion, _ in chosen_completions(game, policy)
    }
    return PayoffTable(cg.players, cg.actions, cells)


def record_cells(game: GameSpec, rows) -> tuple[tuple[str, ...], dict, dict]:
    """Row dump record keys and cells of ``(profile, completion)`` rows.

    Returns ``(keys, heads, tails)``: ``heads`` maps each profile in
    ``rows`` to its action names and ``tails`` maps each completion to its
    value names, GU and per-player utilities, so that a row's record is
    ``dict(zip(keys, heads[profile] + tails[completion]))``.  Every
    player's utility is resolved, even when ``rows`` is empty.
    """
    cg = compile_game(game)
    weights = [cg._utility_weights(p) for p in cg.players]
    keys = (*cg.players, *cg.variables, "GU",
            *(f"U_{p}" for p in cg.players))
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
