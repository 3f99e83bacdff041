"""The payoff tables of ``oagame.engine``: ``derive_payoff_table`` and
``project_bimatrix`` import this module inside the call, so only the
commands that build a table compile it."""

import itertools
import math

from .engine import (CompletionPolicy, _census, _optimum, _within_budget,
                     compile_game)
from .model import ACTION, OUTCOME, GameSpec, PayoffTable


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
    have no pick.  Actions of one class have equal cells, so the census
    gives each profile of ``players``' classes its first best pick, keyed
    by their least actions and copied to its member cells.  Each census
    block's optimum (``gu`` under max-GU) gives its pick, the first best
    assignment of each factor, and the pick's utilities are one tuple
    shared by every profile in the block.  Raises ``RowBudgetError``,
    building no cell, above ``ROW_BUDGET`` cells."""
    cg = compile_game(game)
    kept = [cg.players.index(p) for p in players]
    _within_budget(math.prod(len(cg.actions[i]) for i in kept), "payoff cells")
    census, classes, weights, utilities = _census(cg), cg.classes, None, None
    if policy.kind == "fixed":
        acts = [game.atom_index(ACTION, *f) for f in policy.fixed_actions]
        outs = [game.atom_index(OUTCOME, *f) for f in policy.fixed_outcomes]
        # Classes keep the allowed actions: a fixed player's one (or none).
        classes = [tuple(filter(None, (tuple(a for a in c if all(
            j == a for k, j in filter(None, acts) if k == i)) for c in cs)))
            for i, cs in enumerate(cg.classes)]
        census = () if None in acts + outs else _census(cg, classes)
        weights = tuple(tuple(-sum(w == v and y != x
                                   for w, y in filter(None, outs))
                              for x in r) for v, r in enumerate(cg.ranges))
    picks = {}  # id(block) -> (key, cell), or None when it has no pick
    best = {}  # class profile, by least actions -> (key, cell) of best pick
    for actions, _, block in census:
        if id(block) not in picks:
            # Resolved here, so a game with no admissible row needs no utility.
            if weights is None and policy.kind != "max-global-utility":
                weights = [[w if policy.kind == "optimistic" else -w
                            for w in ws]
                           for ws in cg._utility_weights(policy.player)]
            key, _, top = (block.gu if weights is None
                           else _optimum(block.factors, weights))
            pick = None
            if policy.kind != "fixed" or not key:
                if utilities is None:
                    utilities = [cg._utility_weights(p) for p in players]
                pick = key, tuple(sum(w[v][x] for variables, subs in top
                                      for v, x in zip(variables, subs[0]))
                                  for w in utilities)
            picks[id(block)] = pick
        pick, own = picks[id(block)], tuple(actions[i][0] for i in kept)
        if pick is not None and (own not in best or pick[0] > best[own][0]):
            best[own] = pick
    of = [{a: c[0] for c in classes[i] for a in c} for i in kept]
    actions = tuple(cg.actions[i] for i in kept)
    return PayoffTable(tuple(players), actions, tuple(
        best[own][1] if own in best else None
        for own in itertools.product(*[list(map(o.get, range(len(names))))
                                       for o, names in zip(of, actions)])))
