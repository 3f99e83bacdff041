"""What the handlers that read a ``.bmx`` file or report equilibria share:
the bimatrix loader and the writing of exact numbers and certificates."""

from .._table import MAX_DIGITS, GameError, PayoffTable, too_many_digits
from . import DIAG_ERROR, _CliError, _read_input

TABLE6_EU_NOTE = (
    "the printed 2x2 collapse lists expected utilities '3q' (row TA) "
    "and 'p' (Editors' TA column) that do not follow from the standard "
    "bilinear expectation over its own cells; this tool reports the "
    "standard expectation (row TA gives the constant 3, Editors' TA "
    "column gives the constant 1)."
)


def _load_bimatrix(path: str) -> tuple[PayoffTable, str]:
    from ..equilibrium import BimatrixFormatError, parse_bimatrix
    text, digest = _read_input(path)
    try:
        return parse_bimatrix(text), digest
    except BimatrixFormatError as exc:
        raise _CliError(f"{path}: {exc}", DIAG_ERROR)


def _has_publish_oa_grant_ta(certs) -> bool:
    """Is (Publish OA, Grant TA) among the pure equilibria ``certs``?"""
    return ("Publish OA", "Grant TA") in [c.pure_profile() for c in certs]


def number(x) -> int | str:
    """JSON-native scalar for an exact number (an int or a ``Fraction``):
    int when integral, else 'a/b'.  GameError when a part has more than
    ``MAX_DIGITS`` digits, which Python would refuse to write as text."""
    if too_many_digits(max(abs(x.numerator), x.denominator)):
        raise GameError(f"a figure of more than {MAX_DIGITS} digits")
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def certificate_to_obj(cert) -> dict:
    """An ``EquilibriumCertificate`` as a JSON-native record."""
    return {
        "kind": cert.kind,
        "degenerate": cert.degenerate,
        "strategies": [
            {"player": s.player,
             "probabilities": {a: number(p) for a, p in s.probs}}
            for s in cert.strategies
        ],
        "expected_utilities": {
            s.player: number(u)
            for s, u in zip(cert.strategies, cert.expected_utilities)
        },
        "verification": [
            {"player": s.player,
             "alternatives": {a: number(u) for a, u in record}}
            for s, record in zip(cert.strategies, cert.verification)
        ],
    }
