import pytest

from oagame import fixtures, parse_bimatrix, parse_game_spec, validate_game

from .oracle import brute_force_admissible


@pytest.fixture(scope="session")
def oa_game():
    result = parse_game_spec(fixtures.fixture_text("oa.game"))
    assert result.ok, [str(e) for e in result.errors]
    return result.game


@pytest.fixture(scope="session")
def oa_oracle_rows(oa_game):
    """Brute-force admissible rows for the bundled game, computed once."""
    return brute_force_admissible(oa_game)


@pytest.fixture(scope="session")
def oa_validated(oa_game):
    return validate_game(oa_game)


@pytest.fixture(scope="session")
def table5():
    return parse_bimatrix(fixtures.fixture_text("table5.bmx"))


@pytest.fixture(scope="session")
def table6():
    return parse_bimatrix(fixtures.fixture_text("table6.bmx"))
