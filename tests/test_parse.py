"""Differential test: ``parse_rational`` against the plain ``Fraction(text)`` rule.

The reference below is the parser as it was before plain ASCII "a/b" and
"a" strings went straight to int(): every string through ``Fraction(text)``.
Both must give the same value, or a ``DomainError`` with the same message.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import DomainError  # noqa: E402
from combicontracts.rational import is_k_valid, parse_rational  # noqa: E402

ALPHABET = "-+0123456789/ ._eE٣"  # ٣ is the Arabic-Indic digit three
MAX_SIZE = 7  # keeps an exponent like 1e99999 cheap to expand
LONG = "1" * 5000  # over int()'s 4300-digit limit


def reference_parse(text, k=None):
    text = text.strip()
    decimal = any(ch in text for ch in ".eE")
    if decimal and k is None:
        raise DomainError(
            f"decimal literal {text!r} needs a declared bit precision; "
            "write it as a fraction a/b instead"
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from exc
    if decimal and max(abs(value.numerator), value.denominator) >= 10**4300:
        raise DomainError(f"cannot parse rational {text!r}: over 4300 digits")
    if decimal and not is_k_valid(value, k):
        raise DomainError(f"{text!r} is not a multiple of 2**-{k}")
    return value


def outcome(parse, text, k):
    try:
        return ("value", parse(text, k))
    except DomainError as exc:
        return ("error", str(exc))


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(text=st.text(ALPHABET, max_size=MAX_SIZE), k=st.sampled_from((None, 1, 3, 40)))
@example("+3", None)
@example("2 / 3", None)
@example("1_000", None)
@example("1/0", None)
@example("-3/0", None)
@example("-0/0", None)
@example(" -007/012 ", None)
@example("٣/4", None)
@example("0.375", 3)
@example("1e4299", 1)
@example("1e4300", 1)
@example("1e-9999", 40)
@example("0e99999", 3)
@example(LONG, None)
@example("-" + LONG, None)
@example("1/" + LONG, None)
@example(LONG + "/0", None)
@example("-" + "1" * 4300, None)
def test_parse_rational_matches_fraction_rule(text, k):
    assert outcome(parse_rational, text, k) == outcome(reference_parse, text, k)


def test_plain_strings_parse_exactly():
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational("0/5") == 0
    with pytest.raises(DomainError, match=r"cannot parse rational '1/0': Fraction\(1, 0\)"):
        parse_rational("1/0")
    with pytest.raises(DomainError, match="4300 digits"):
        parse_rational(LONG)


def test_decimal_exponents_are_refused_before_expansion():
    # a plain literal stops at 4300 digits, and so does a decimal spelling
    with pytest.raises(DomainError, match="over 4300 digits"):
        parse_rational("1e99999", 4)
    with pytest.raises(DomainError, match="exponent over five digits"):
        parse_rational("1e999999999", 4)
    with pytest.raises(DomainError, match="exponent over five digits"):
        parse_rational("0.5e-1_000_000", 4)
    assert parse_rational("1e00000000001", 4) == 10
