"""Workbench for declaratively specified publishing games: rule-constrained
scenario enumeration, payoff derivation, and Nash equilibrium certification.

Every public name is exported here and imported from its submodule on first
access (PEP 562), so a program that uses only bimatrix analysis never loads
the game parser or the enumeration engine.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "ACTION", "OUTCOME", "Atom", "GameSpec", "MissingUtilityError",
        "NameResolutionError", "OutcomeVarDef", "PlayerDef", "Rule",
        "UtilityDef",
    ), "model"),
    **dict.fromkeys(("GameError", "PayoffTable"), "_table"),
    **dict.fromkeys((
        "ParseError", "ParseResult", "SourceSpan", "parse_game_spec",
        "parse_rule",
    ), "dsl"),
    **dict.fromkeys((
        "Diagnostic", "ValidatedGame", "serialize_game", "validate_game",
    ), "_validator_writer"),
    **dict.fromkeys((
        "CompiledGame", "CompletionPolicy", "EnumerationReport",
        "RowBudgetError", "admissible_rows", "compile_game",
        "derive_payoff_table", "enumeration_report", "project_bimatrix",
        "top_gu_rows",
    ), "engine"),
    **dict.fromkeys((
        "Bimatrix", "EquilibriumCertificate", "MixedStrategy",
        "expected_utility", "parse_bimatrix",
    ), "equilibrium"),
    **dict.fromkeys(("InfeasibleSliceError", "best_responses", "pure_nash"),
                    "_pure"),
    **dict.fromkeys(("DominanceResult", "dominance_analysis",
                     "mixed_nash_2p"), "_support"),
    "serialize_bimatrix": "_bmx_writer",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
