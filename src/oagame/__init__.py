"""Workbench for declaratively specified publishing games: rule-constrained
scenario enumeration, payoff derivation, and Nash equilibrium certification.

Every public name is exported here and imported from its submodule on first
access (PEP 562), so a program that uses only bimatrix analysis never loads
the game parser or the enumeration engine.  ``_EXPORTS`` is the one table
of where each public name lives; ``oagame.equilibrium`` and ``oagame.dsl``
serve the names they moved out through it.
"""

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
        "Diagnostic", "ValidatedGame", "serialize_game", "serialize_rule",
        "validate_game",
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
    **dict.fromkeys(("SUPPORT_LIMIT", "DominanceResult", "Elimination",
                     "dominance_analysis", "mixed_nash_2p"), "_support"),
    "serialize_bimatrix": "_bmx_writer",
}

__all__ = list(_EXPORTS)


def _serve(namespace: dict, name: str, served=None):
    """``name`` from the module that ``_EXPORTS`` names for it, bound in
    ``namespace`` so that later lookups skip its PEP 562 hook; refused
    unless ``served``, where given, holds the name or that module."""
    module = _EXPORTS.get(name)
    if module is None or served is not None and not {module, name} & served:
        raise AttributeError(f"module {namespace['__name__']!r} has no "
                             f"attribute {name!r}")
    # ``__import__``, unlike ``importlib.import_module``, shows in the
    # import times that ``python -X importtime`` reports.
    module = __import__(f"{__name__}.{module}", fromlist=[name])
    value = namespace[name] = getattr(module, name)
    return value


def __getattr__(name: str):
    return _serve(globals(), name)
