"""Scenario enumeration, rule semantics, completion policies, payoff tables.

A scenario row is admissible when it violates no rule, where a rule is read
as a material implication (plus an optional otherwise-branch enforced exactly
when the condition is false).  The engine prunes per-profile by propagating
assignments forced by action-only conditions, then filters the remaining
product space with the rules whose conditions test outcome variables.  The
naive re-check lives in the test tree and the two must agree set-wise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    ACTION,
    Atom,
    GameSpec,
    NameResolutionError,
    Rule,
    ScenarioRow,
    agent_utility,
    global_utility,
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


def enumerate_profiles(game: GameSpec):
    """All action profiles in lexicographic declaration order."""
    names = game.player_names()
    for combo in itertools.product(*(p.actions for p in game.players)):
        yield dict(zip(names, combo))


def _atom_holds(atom: Atom, row: ScenarioRow) -> bool:
    if atom.kind == ACTION:
        return row.actions.get(atom.subject) == atom.value
    return row.outcomes.get(atom.subject) == atom.value


def _condition_holds(atoms: tuple[Atom, ...], row: ScenarioRow) -> bool:
    # An inert condition atom is never satisfiable.
    return all(not a.inert and _atom_holds(a, row) for a in atoms)


def _assignments_hold(atoms: tuple[Atom, ...], row: ScenarioRow) -> bool:
    # An inert assignment atom counts as satisfied.
    return all(a.inert or _atom_holds(a, row) for a in atoms)


def rule_satisfied(rule: Rule, row: ScenarioRow) -> bool:
    """Implication check: condition true => consequence holds; condition
    false and an otherwise-branch present => the otherwise atoms hold."""
    if _condition_holds(rule.condition, row):
        return _assignments_hold(rule.consequence, row)
    if rule.otherwise:
        return _assignments_hold(rule.otherwise, row)
    return True


def _profile_completions(game: GameSpec, profile: dict[str, str]):
    """Admissible outcome assignments for one profile, canonical order.

    Rules whose conditions are decided by the profile alone force variable
    values up front; rules that test outcome variables are re-checked on each
    candidate row.
    """
    forced: dict[str, str] = {}
    deferred: list[Rule] = []
    for rule in game.rules:
        if any(a.inert for a in rule.condition):
            cond = False
        else:
            action_atoms = [a for a in rule.condition if a.kind == ACTION]
            if not all(profile[a.subject] == a.value for a in action_atoms):
                cond = False
            elif any(a.kind != ACTION for a in rule.condition):
                deferred.append(rule)
                continue
            else:
                cond = True
        if cond:
            assigns = rule.consequence
        elif rule.otherwise:
            assigns = rule.otherwise
        else:
            continue
        for a in assigns:
            if a.inert:
                continue
            if forced.get(a.subject, a.value) != a.value:
                return  # conflicting forced values: no admissible completion
            forced[a.subject] = a.value
    names = game.variable_names()
    domains = [(forced[v.name],) if v.name in forced else v.value_names()
               for v in game.variables]
    for combo in itertools.product(*domains):
        row = ScenarioRow(profile, dict(zip(names, combo)))
        if all(rule_satisfied(r, row) for r in deferred):
            yield row


def admissible_rows(game: GameSpec) -> tuple[list[ScenarioRow],
                                            EnumerationReport]:
    """All admissible rows in canonical order, plus the count report."""
    profiles = list(enumerate_profiles(game))
    rows = [row for profile in profiles
            for row in _profile_completions(game, profile)]
    row_space = len(profiles)
    for v in game.variables:
        row_space *= len(v.values)
    if rows:
        gus = [global_utility(game, r) for r in rows]
        max_gu = max(gus)
        max_count = sum(1 for g in gus if g == max_gu)
    else:
        max_gu, max_count = None, 0
    report = EnumerationReport(len(profiles), row_space, len(rows),
                               max_gu, max_count)
    return rows, report


def top_gu_rows(game: GameSpec) -> tuple[int | None, list[ScenarioRow]]:
    """Maximum global utility over the admissible set and the rows attaining
    it, in canonical order.  (None, []) when the admissible set is empty."""
    rows, report = admissible_rows(game)
    if not rows:
        return None, []
    best = report.max_global_utility
    return best, [r for r in rows if global_utility(game, r) == best]


def chosen_completions(
    game: GameSpec, policy: CompletionPolicy = CompletionPolicy()
):
    """The completion the policy picks for each action profile.

    Yields ``(profile, row, key)`` in canonical profile order: ``row`` is the
    first admissible completion with the greatest policy key, or None when
    no completion qualifies (then ``key`` is None too).  Under the fixed
    policy only completions matching the fragment qualify and every key is
    0.  Picking over several profiles at once therefore means keeping the
    first profile's row with the strictly greatest key.
    """
    if policy.kind == "max-global-utility":
        key = lambda r: global_utility(game, r)
    elif policy.kind == "optimistic":
        key = lambda r: agent_utility(game, policy.player, r)
    elif policy.kind == "pessimistic":
        key = lambda r: -agent_utility(game, policy.player, r)
    else:  # fixed
        key = lambda r: 0
    fixed = policy.kind == "fixed"
    fixed_a = dict(policy.fixed_actions) if fixed else {}
    fixed_o = dict(policy.fixed_outcomes) if fixed else {}
    for profile in enumerate_profiles(game):
        best, best_key = None, None
        if all(profile.get(p) == a for p, a in fixed_a.items()):
            for row in _profile_completions(game, profile):
                if any(row.outcomes.get(v) != x for v, x in fixed_o.items()):
                    continue
                k = key(row)
                if best is None or k > best_key:
                    best, best_key = row, k
        yield profile, best, best_key


def derive_payoff_table(
    game: GameSpec,
    policy: CompletionPolicy = CompletionPolicy(),
) -> PayoffTable:
    """One utility vector per action profile under the completion policy;
    profiles without an admissible completion are marked infeasible."""
    players = game.player_names()
    cells = {
        tuple(profile[p] for p in players):
            None if row is None
            else tuple(agent_utility(game, p, row) for p in players)
        for profile, row, _ in chosen_completions(game, policy)
    }
    return PayoffTable(players, tuple(p.actions for p in game.players), cells)


def rows_as_records(game: GameSpec, rows: list[ScenarioRow]) -> list[dict]:
    """Row dump records: players, variables, GU, per-agent utilities."""
    players = game.player_names()
    variables = game.variables
    # Resolve utility terms to variable objects once, not per row.
    terms = {}
    for p in players:
        resolved = []
        for t in game.utility_for(p).terms:
            var = game.variable(t)
            if var is None:
                raise NameResolutionError(f"utility of {p!r}", t)
            resolved.append(var)
        terms[p] = tuple(resolved)
    out = []
    for row in rows:
        rec: dict = {}
        for p in players:
            rec[p] = row.actions[p]
        for v in variables:
            rec[v.name] = row.outcomes[v.name]
        rec["GU"] = sum(v.score(row.outcomes[v.name]) for v in variables)
        for p in players:
            rec[f"U_{p}"] = sum(v.score(row.outcomes[v.name])
                                for v in terms[p])
        out.append(rec)
    return out
