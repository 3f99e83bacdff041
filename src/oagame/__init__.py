"""Workbench for declaratively specified publishing games: rule-constrained
scenario enumeration, payoff derivation, and Nash equilibrium certification.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ACTION,
    OUTCOME,
    Atom,
    GameError,
    GameSpec,
    MissingUtilityError,
    NameResolutionError,
    OutcomeVarDef,
    PlayerDef,
    Rule,
    ScenarioRow,
    UtilityDef,
    agent_utility,
    global_utility,
    value_of,
)
from .dsl import (  # noqa: F401
    Diagnostic,
    ParseError,
    ParseResult,
    SourceSpan,
    ValidatedGame,
    game_from_dict,
    game_to_dict,
    parse_game_spec,
    parse_rule,
    serialize_game,
    validate_game,
)
from .engine import (  # noqa: F401
    CompletionPolicy,
    EnumerationReport,
    PayoffTable,
    admissible_rows,
    chosen_completions,
    derive_payoff_table,
    enumerate_profiles,
    rule_satisfied,
    top_gu_rows,
)
from .equilibrium import (  # noqa: F401
    Bimatrix,
    DominanceResult,
    EquilibriumCertificate,
    InfeasibleSliceError,
    MixedStrategy,
    best_responses,
    dominance_analysis,
    expected_utility,
    mixed_nash_2p,
    parse_bimatrix,
    project_bimatrix,
    pure_nash,
    serialize_bimatrix,
)
