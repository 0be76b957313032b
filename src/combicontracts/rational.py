"""Exact rational arithmetic helpers and k-bit value checks.

Every quantity the solver manipulates (success probabilities, costs,
contract values) is an exact ``fractions.Fraction``.  Floating point never
enters a solver path; it may appear only in explicit display helpers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, ResourceLimitError

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


# Largest k for which numbers of size 2**k are built (grids, gaps, bounds).
MAX_K = 1024


_STR_LIMIT = 10**4300  # int() and str() stop at 4300 digits


def _shown(x) -> str:
    """x for an error message: str() of a rational, repr() of anything else,
    and only the digit count of a rational with a part over 4300 digits,
    which str() refuses (counted in ints)."""
    if not isinstance(x, (int, Fraction)):
        return repr(x)
    t = max(abs(x.numerator), x.denominator)
    if t < _STR_LIMIT:
        return str(x)
    d = (t.bit_length() - 1) * 3 // 10  # at most floor(log10 t)
    p = 10 ** (d + 1)
    while p <= t:
        d, p = d + 1, p * 10
    kind = "integer" if x.denominator == 1 else "fraction"
    return f"<{'negative ' if x < 0 else ''}{kind} of {d + 1} digits>"


def _check_k(k: int) -> int:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError(f"bit precision must be a positive integer, got {_shown(k)}")
    return k


def _bounded_k(k: int) -> int:
    """k, refused above MAX_K before anything of size 2**k is built."""
    if _check_k(k) > MAX_K:
        raise ResourceLimitError(
            f"bit precision k = {_shown(k)} exceeds the limit {MAX_K}"
        )
    return k


def is_k_valid(r, k: int) -> bool:
    """True iff r * 2**k is an integer, i.e. r is a multiple of 2**-k.

    Decided from the denominator alone (a power of two at most 2**k), so a
    huge k costs nothing.
    """
    _check_k(k)
    den = as_fraction(r).denominator
    return den & (den - 1) == 0 and den.bit_length() <= k + 1


def in_bounded_set(r, k: int) -> bool:
    """True iff reduced r = a/b has 1 <= a <= 2**k and 1 <= b <= 2**k.

    Requires r > 0; the bounded set contains only positive fractions.
    Decided from bit lengths (x <= 2**k iff x - 1 has at most k bits), so a
    huge k costs nothing.
    """
    _check_k(k)
    r = as_fraction(r)
    if r <= 0:
        raise DomainError(
            f"in_bounded_set requires a positive rational, got {_shown(r)}"
        )
    return (r.numerator - 1).bit_length() <= k and (r.denominator - 1).bit_length() <= k


_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_EXPONENT = re.compile(r"[\d.][eE][-+]?([\d_]+)\Z")


def parse_rational(text: str, k: int | None = None) -> Fraction:
    """Parse "a/b", "a", or (when k is declared) a finite-binary decimal.

    Decimal strings are accepted only with a declared bit precision and must
    be exact multiples of 2**-k; anything else is a DomainError.  ASCII "a/b"
    and "a" skip Fraction's regex for int(): same values, same error text.
    A decimal must expand to at most 4300 digits, the most a plain literal
    has, and its exponent is refused above five digits before 10**exp is built.
    """
    text = text.strip()
    plain = _PLAIN.fullmatch(text)
    decimal = not plain and any(ch in text for ch in ".eE")
    if decimal and k is None:
        # refused before Fraction() would expand an exponent like 1e999999999
        raise DomainError(
            f"decimal literal {text!r} needs a declared bit precision; "
            "write it as a fraction a/b instead"
        )
    exp = decimal and _EXPONENT.search(text)
    if exp and len(exp[1].replace("_", "").lstrip("0")) > 5:
        raise DomainError(f"cannot parse rational {text!r}: exponent over five digits")
    try:
        value = Fraction(int(plain[1]), int(plain[2] or 1)) if plain else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from exc
    if decimal and max(abs(value.numerator), value.denominator) >= _STR_LIMIT:
        raise DomainError(f"cannot parse rational {text!r}: over 4300 digits")
    if decimal and not is_k_valid(value, k):
        raise DomainError(f"{text!r} is not a multiple of 2**-{k}")
    return value


def format_rational(r) -> str:
    """Serialize reduced "a/b", or "a" when integral; a part over 4300
    digits, which no file could parse back, is refused."""
    r = as_fraction(r)
    if max(abs(r.numerator), r.denominator) >= _STR_LIMIT:
        raise DomainError(f"cannot format {_shown(r)}: over 4300 digits")
    return str(r)


def decimal_string(r, digits: int = 6) -> str:
    """Rounded decimal rendering for display columns; exact integer math."""
    if not 0 <= digits <= 4000:  # int's str() stops at 4300 digits
        raise DomainError(f"digits must lie in 0..4000, got {_shown(digits)}")
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
