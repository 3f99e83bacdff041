"""The public record types: construction, defaults, value equality,
immutability, validation and repr."""

import itertools
from fractions import Fraction as F

import pytest

from oagame import Diagnostic, DominanceResult, Elimination, ValidatedGame
from oagame.dsl import ParseError, ParseResult, SourceSpan
from oagame.engine import CompletionPolicy, EnumerationReport, _Block
from oagame.equilibrium import (
    Bimatrix,
    BimatrixFormatError,
    EquilibriumCertificate,
    MixedStrategy,
)
from oagame.model import (
    ACTION,
    OUTCOME,
    Atom,
    GameSpec,
    OutcomeVarDef,
    PayoffTable,
    PlayerDef,
    Rule,
    UtilityDef,
)

PLAYER = PlayerDef("Editors", ("Grant TA", "Grant OA"))
VARIABLE = OutcomeVarDef("Income", "Editors", (("Less", 0), ("More", 1)))
ATOM = Atom(ACTION, "Editors", "Grant TA")
RULE = Rule((ATOM,), (Atom(OUTCOME, "Income", "More"),))
UTILITY = UtilityDef("Editors", ("Income",))
GAME = GameSpec("g", (PLAYER,), (VARIABLE,), (RULE,), (UTILITY,))
BIMATRIX = Bimatrix("A", ("x",), "B", ("y",), (((F(1), F(2)),),))
TABLE = PayoffTable(("A", "B"), (("x", "y"), ("u", "v")),
                    ((1, 2), (2, 1), (0, 0), (1, 1)))
MIX = MixedStrategy.pure("A", "x")
ELIMINATION = Elimination("A", "x", "y", "strict")

# Per type: its required fields with sample values, then its defaulted
# fields with their defaults, each in declaration order.
RECORDS = [
    (PlayerDef, {"name": "Editors", "actions": ("Grant TA",)},
     {"aliases": ()}),
    (OutcomeVarDef, {"name": "Income", "owner": "Editors",
                     "values": (("Less", 0), ("More", 1))},
     {"aliases": (), "value_aliases": ()}),
    (UtilityDef, {"player": "Editors", "terms": ("Income",)}, {}),
    (Atom, {"kind": ACTION, "subject": "Editors", "value": "Grant TA"},
     {"inert": False}),
    (Rule, {"condition": (ATOM,), "consequence": (ATOM,)},
     {"otherwise": (), "source": ""}),
    (GameSpec, {"name": "g", "players": (PLAYER,), "variables": (VARIABLE,),
                "rules": (RULE,), "utilities": (UTILITY,)}, {}),
    (PayoffTable, {"players": ("Editors",), "actions": (("Grant TA",),),
                   "cells": ((1,),)}, {}),
    (SourceSpan, {"line": 1, "col_start": 2}, {}),
    (ParseError, {"span": SourceSpan(1, 2), "kind": "syntax",
                  "message": "bad"}, {"token": ""}),
    (Diagnostic, {"severity": "warning", "message": "odd"}, {}),
    (ParseResult, {"game": GAME, "errors": ()}, {}),
    (ValidatedGame, {"game": GAME, "action_profile_count": 2,
                     "row_space_count": 4},
     {"errors": (), "warnings": ()}),
    (CompletionPolicy, {},
     {"kind": "max-global-utility", "player": None, "fixed_actions": (),
      "fixed_outcomes": ()}),
    (EnumerationReport, {"action_profile_count": 64,
                         "row_space_count": 17640, "admissible_count": 8,
                         "max_global_utility": 30,
                         "max_global_utility_count": 2}, {}),
    (Bimatrix, {"row_player": "A", "row_actions": ("x",), "col_player": "B",
                "col_actions": ("y",), "rows": (((F(1), F(2)),),)}, {}),
    (MixedStrategy, {"player": "A", "probs": (("x", F(1, 3)),
                                              ("y", F(2, 3)))}, {}),
    (EquilibriumCertificate, {"kind": "pure", "strategies": (MIX, MIX),
                              "expected_utilities": (F(1), F(2)),
                              "verification": ((("x", F(1)),),
                                               (("y", F(2)),))},
     {"degenerate": False}),
    (Elimination, {"player": "A", "action": "x", "dominator": "y",
                   "notion": "strict"}, {}),
    (DominanceResult, {"trace": (ELIMINATION,),
                       "surviving": (("y",), ("z", "w"))}, {}),
]


@pytest.mark.parametrize("cls, required, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_construction_equality_and_immutability(cls, required,
                                                       defaults):
    fields = {**required, **defaults}
    record = cls(*required.values())
    assert record == cls(**required)
    assert record == cls(*fields.values()) == cls(**fields)
    assert hash(record) == hash(cls(**fields))
    if cls is Bimatrix:  # its rows are kept as the table's cells
        assert record.cells == tuple(itertools.chain(*fields.pop("rows")))
    assert {name: getattr(record, name) for name in fields} == fields
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Bimatrix("A", ("x", "y"), "B", ("z",), (((F(1), F(1)),),)),
     BimatrixFormatError, "payoff matrix shape does not match"),
    (lambda: Bimatrix("A", ("x",), "B", ("y", "z"), (((F(1), F(1)),),)),
     BimatrixFormatError, "payoff matrix shape does not match"),
    (lambda: MixedStrategy("A", (("x", F(-1, 2)), ("y", F(3, 2)))),
     ValueError, "negative probability"),
    (lambda: MixedStrategy("A", (("x", F(1, 2)),)),
     ValueError, "probabilities sum to 1/2, not 1"),
    (lambda: CompletionPolicy("bogus"),
     ValueError, "unknown completion policy 'bogus'"),
    (lambda: CompletionPolicy(kind="pessimistic"),
     ValueError, "pessimistic policy requires a player"),
    (lambda: CompletionPolicy("optimistic", None),
     ValueError, "optimistic policy requires a player"),
    (lambda: BIMATRIX._replace(actions=(("x",), ("y", "z"))),
     ValueError, "1 cells for 2 action profiles"),
    (lambda: PayoffTable(("A", "B"), (("x", "y"),), ((1, 2), (2, 1))),
     ValueError, "2 players but 1 action lists"),
    (lambda: PayoffTable(*TABLE[:2], TABLE.cells[:3]),
     ValueError, "3 cells for 4 action profiles"),
    (lambda: PayoffTable(*TABLE[:2], TABLE.cells + ((0, 0),)),
     ValueError, "5 cells for 4 action profiles"),
    (lambda: TABLE._replace(players=("A",)),
     ValueError, "1 players but 2 action lists"),
    (lambda: TABLE._replace(cells=TABLE.cells[:3]),
     ValueError, "3 cells for 4 action profiles"),
    (lambda: MIX._replace(probs=(("x", F(1, 2)),)),
     ValueError, "probabilities sum to 1/2, not 1"),
    (lambda: CompletionPolicy()._replace(kind="bogus"),
     ValueError, "unknown completion policy 'bogus'"),
    (lambda: PayoffTable._make((*TABLE[:2], TABLE.cells[:3])),
     ValueError, "3 cells for 4 action profiles"),
    (lambda: MixedStrategy._make(("A", (("x", F(1, 2)),))),
     ValueError, "probabilities sum to 1/2, not 1"),
    (lambda: CompletionPolicy._make(("optimistic", None, (), ())),
     ValueError, "optimistic policy requires a player"),
], ids=["bimatrix-rows", "bimatrix-cols", "mix-negative", "mix-sum",
        "policy-kind", "policy-player-keyword", "policy-player",
        "bimatrix-replace", "table-players", "table-three-cells",
        "table-five-cells", "table-replace-players", "table-replace-cells",
        "mix-replace", "policy-replace", "table-make", "mix-make",
        "policy-make"])
def test_record_validation_still_fires(make, error, message):
    with pytest.raises(error, match=message):
        make()


# Every record type with a sample: the public ones of ``RECORDS``, and the
# engine's profile block: one factor, a variable with two passing values.
SAMPLES = [cls(*required.values()) for cls, required, _ in RECORDS] + [
    _Block((((0,), ((0,), (1,))),), 2, None)]


@pytest.mark.parametrize("record", SAMPLES,
                         ids=[type(r).__name__ for r in SAMPLES])
def test_record_keeps_the_named_tuple_contract(record):
    """Each record, a ``collections.namedtuple`` or, where it adds a
    method, property, validation or docstring, a subclass of one, keeps
    its fields and their defaults, ``_make`` and ``_replace``, a repr by
    its own name, value equality and hash with its plain tuple, and no
    instance dict, except ``GameSpec``, which keeps its compiled form in
    one.  A ``Bimatrix`` is a table whose copies are the plain table."""
    cls, plain = type(record), tuple(record)
    assert record == plain and hash(record) == hash(plain)
    assert record._make(plain) == record._replace() == record
    assert type(record._replace()) is (PayoffTable if cls is Bimatrix
                                       else cls)
    assert record._asdict() == dict(zip(cls._fields, plain))
    assert set(cls._field_defaults) <= set(cls._fields)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in record._asdict().items()) + ")"
    assert hasattr(record, "__dict__") == (cls is GameSpec)


def test_record_fields_and_defaults_are_declared_in_order():
    for cls, required, defaults in RECORDS:
        if cls is not Bimatrix:  # built from rows; its fields are a table's
            assert cls._fields == (*required, *defaults), cls
            assert cls._field_defaults == defaults, cls


def test_replace_rebuilds_outcome_variable_lookups():
    """A game ``_replace``d with a changed variable binds its values
    through fresh name tables, and the original keeps its own."""
    game = GameSpec("g", (PLAYER,), (VARIABLE,), (), ())
    assert game.bind("Income", "more") == (OUTCOME, "Income", "More")
    renamed = game._replace(variables=(VARIABLE._replace(
        values=(("Low", 0), ("High", 2)), value_aliases=(("Up", "High"),)),))
    assert renamed.bind("income", "up")[2] == "High"
    assert renamed.bind("Income", "low")[2] == "Low"
    assert game.bind("Income", "more")[2] == "More"
    assert renamed.bind("Income", "More")[2] is None


@pytest.mark.parametrize("record, text", [
    (PlayerDef("Academics", ("Publish TA", "Publish OA"), ("Researchers",)),
     "PlayerDef(name='Academics', actions=('Publish TA', 'Publish OA'), "
     "aliases=('Researchers',))"),
    (Atom(ACTION, "Academics", "Publish OA"),
     "Atom(kind='action', subject='Academics', value='Publish OA', "
     "inert=False)"),
    (CompletionPolicy(),
     "CompletionPolicy(kind='max-global-utility', player=None, "
     "fixed_actions=(), fixed_outcomes=())"),
    (MixedStrategy.pure("Editors", "Grant TA"),
     "MixedStrategy(player='Editors', probs=(('Grant TA', 1),))"),
    (EnumerationReport(64, 17640, 8, 30, 2),
     "EnumerationReport(action_profile_count=64, row_space_count=17640, "
     "admissible_count=8, max_global_utility=30, "
     "max_global_utility_count=2)"),
], ids=["PlayerDef", "Atom", "CompletionPolicy", "MixedStrategy",
        "EnumerationReport"])
def test_record_repr(record, text):
    assert repr(record) == text
