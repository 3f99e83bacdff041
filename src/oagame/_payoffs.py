"""The payoff tables of ``oagame.engine``: ``derive_payoff_table`` and
``project_bimatrix`` import this module inside the call, so only the
commands that build a table compile it."""

from __future__ import annotations

import itertools
import math

from .engine import (CompletionPolicy, _census, _holds, _optimum,
                     _within_budget, compile_game)
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
    have no pick.  Each census block's optimum (``gu`` under max-GU) gives
    its pick, the first best assignment of each factor, and the pick's
    utilities are one tuple shared by every profile in the block.  Raises
    ``RowBudgetError``, building no cell, above ``ROW_BUDGET`` cells."""
    cg = compile_game(game)
    kept = [cg.players.index(p) for p in players]
    _within_budget(math.prod(len(cg.actions[i]) for i in kept), "payoff cells")
    profiles, weights, utilities = None, None, None
    if policy.kind == "fixed":
        acts = [game.atom_index(ACTION, *f) for f in policy.fixed_actions]
        outs = [game.atom_index(OUTCOME, *f) for f in policy.fixed_outcomes]
        profiles = () if None in acts + outs else (
            p for p in cg.profiles() if _holds(acts, p))
        weights = tuple(tuple(-sum(w == v and y != x
                                   for w, y in filter(None, outs))
                              for x in r) for v, r in enumerate(cg.ranges))
    picks = {}  # id(block) -> (key, cell), or None when it has no pick
    best = {}  # profile of ``players`` -> (key, cell) of its first best pick
    for profile, block in _census(cg, profiles):
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
        pick, own = picks[id(block)], tuple(map(profile.__getitem__, kept))
        if pick is not None and (own not in best or pick[0] > best[own][0]):
            best[own] = pick
    actions = tuple(cg.actions[i] for i in kept)
    return PayoffTable(tuple(players), actions, tuple(
        best[own][1] if own in best else None
        for own in itertools.product(*map(range, map(len, actions)))))
