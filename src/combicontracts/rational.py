"""Exact rational arithmetic helpers and k-bit value checks.

Every quantity the solver manipulates (success probabilities, costs,
contract values) is an exact ``fractions.Fraction``.  Floating point never
enters a solver path; it may appear only in explicit display helpers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

__all__ = [
    "is_k_valid",
    "in_bounded_set",
    "as_fraction",
    "parse_rational",
    "format_rational",
    "decimal_string",
]


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or rational string to an exact Fraction.

    Floats are rejected: they would smuggle rounding into exact paths.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise DomainError(f"not an exact rational: {x!r} ({type(x).__name__})")


def _check_k(k: int) -> int:
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"bit precision must be a positive integer, got {k!r}")
    return k


def is_k_valid(r, k: int) -> bool:
    """True iff r * 2**k is an integer, i.e. r is a multiple of 2**-k."""
    _check_k(k)
    den = as_fraction(r).denominator
    return den & (den - 1) == 0 and den <= (1 << k)


def in_bounded_set(r, k: int) -> bool:
    """True iff reduced r = a/b has 1 <= a <= 2**k and 1 <= b <= 2**k.

    Requires r > 0; the bounded set contains only positive fractions.
    """
    _check_k(k)
    r = as_fraction(r)
    if r <= 0:
        raise DomainError(f"in_bounded_set requires a positive rational, got {r}")
    bound = 1 << k
    return r.numerator <= bound and r.denominator <= bound


def parse_rational(text: str, k: int | None = None) -> Fraction:
    """Parse "a/b", "a", or (when k is declared) a finite-binary decimal.

    Decimal strings are accepted only with a declared bit precision and must
    be exact multiples of 2**-k; anything else is a DomainError.
    """
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from exc
    if any(ch in text for ch in ".eE"):
        if k is None:
            raise DomainError(
                f"decimal literal {text!r} needs a declared bit precision; "
                "write it as a fraction a/b instead"
            )
        if not is_k_valid(value, k):
            raise DomainError(f"{text!r} is not a multiple of 2**-{k}")
    return value


def format_rational(r) -> str:
    """Serialize reduced "a/b", or "a" when integral."""
    return str(as_fraction(r))


def decimal_string(r, digits: int = 6) -> str:
    """Rounded decimal rendering for display columns; exact integer math."""
    if digits < 0:
        raise DomainError("digits must be non-negative")
    r = as_fraction(r)
    sign = "-" if r < 0 else ""
    num, den = abs(r.numerator), r.denominator
    scaled, rem = divmod(num * 10**digits, den)
    if 2 * rem >= den:
        scaled += 1
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"
