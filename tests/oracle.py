"""Naive brute-force oracle for admissible-row enumeration.

Plain nested loops over the full profile x assignment space, re-checking
every rule with its own atom evaluation.  Deliberately independent of the
engine's pruning path; the two must agree as sets.
"""

from __future__ import annotations

import itertools
import random

from oagame.model import ACTION, Atom, GameSpec, OutcomeVarDef, PlayerDef, Rule, ScenarioRow, UtilityDef


def _atom_true(atom, actions, outcomes):
    if atom.inert:
        return None  # caller decides by position
    mapping = actions if atom.kind == ACTION else outcomes
    return mapping.get(atom.subject) == atom.value


def _rule_ok(rule, actions, outcomes):
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
            if all(_rule_ok(r, actions, outcomes) for r in game.rules):
                rows.append(ScenarioRow(actions, outcomes))
    return rows


def _score(game: GameSpec, row: ScenarioRow, variables) -> int:
    return sum(v.score(row.outcomes[v.name]) for v in game.variables
               if v.name in variables)


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
        score = lambda r: _score(game, r, game.variable_names())
    else:
        terms = set(game.utility_for(policy.player).terms)
        sign = 1 if policy.kind == "optimistic" else -1
        score = lambda r: sign * _score(game, r, terms)
    best = None
    for r in rows:
        if best is None or score(r) > score(best):
            best = r
    return best


def brute_force_projection(game: GameSpec, policy, row: str, col: str):
    """{(row action, col action): chosen row or None}, the policy applied to
    every brute-force admissible row of each action pair at once."""
    pools = {(ra, ca): [] for ra in game.player(row).actions
             for ca in game.player(col).actions}
    for r in brute_force_admissible(game):
        pools[(r.actions[row], r.actions[col])].append(r)
    return {pair: brute_force_pick(game, policy, rows)
            for pair, rows in pools.items()}


def row_key(row: ScenarioRow) -> tuple:
    return (tuple(sorted(row.actions.items())),
            tuple(sorted(row.outcomes.items())))


def random_small_game(rng: random.Random) -> GameSpec:
    """A random game with <=3 players x <=3 actions, <=3 binary variables
    and <=4 random implication rules."""
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
        condition = tuple(random_atom(("action", "outcome"))
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
    return GameSpec("random", players, variables, tuple(rules), utilities)
