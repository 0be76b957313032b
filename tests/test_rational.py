import random
from fractions import Fraction

import pytest

from combicontracts import DomainError
from combicontracts.rational import (
    decimal_string,
    format_rational,
    in_bounded_set,
    is_k_valid,
    parse_rational,
)


def test_exact_addition_roundtrip():
    rng = random.Random(12)
    for _ in range(300):
        r = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        s = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (r + s) - s == r


def test_is_k_valid_examples():
    assert is_k_valid(Fraction(3, 8), 3)
    assert not is_k_valid(Fraction(1, 3), 8)
    assert is_k_valid(Fraction(0), 1)
    assert is_k_valid(Fraction(5, 4), 2)
    assert not is_k_valid(Fraction(1, 8), 2)
    # decided from the denominator: a huge k never builds 2**k
    assert is_k_valid(Fraction(3, 8), 1 << 62)
    assert not is_k_valid(Fraction(1, 3), 1 << 62)


def test_k_valid_closed_under_subtraction():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.randint(1, 10)
        r = Fraction(rng.randint(0, 1 << k), 1 << k)
        s = Fraction(rng.randint(0, 1 << k), 1 << k)
        assert is_k_valid(r, k) and is_k_valid(s, k)
        assert is_k_valid(r - s, k)


def test_in_bounded_set_examples():
    assert in_bounded_set(Fraction(1, 2), 1)
    assert not in_bounded_set(Fraction(3, 5), 2)  # 5 > 2**2
    assert in_bounded_set(Fraction(1, 1), 1)
    assert in_bounded_set(Fraction(4, 3), 2) and not in_bounded_set(Fraction(5, 3), 2)
    assert in_bounded_set(Fraction(3, 8), 1 << 62)  # decided from bit lengths
    with pytest.raises(DomainError):
        in_bounded_set(Fraction(0), 3)
    with pytest.raises(DomainError):
        in_bounded_set(Fraction(-1, 2), 3)


def test_bad_bit_precision():
    with pytest.raises(DomainError):
        is_k_valid(Fraction(1, 2), 0)


def test_parse_and_format():
    assert parse_rational("3/8") == Fraction(3, 8)
    assert parse_rational(" -2/6 ") == Fraction(-1, 3)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(6, 3)) == "2"


def test_parse_decimal_needs_k():
    assert parse_rational("0.375", 3) == Fraction(3, 8)
    with pytest.raises(DomainError):
        parse_rational("0.375")
    with pytest.raises(DomainError):
        parse_rational("0.3", 8)  # 3/10 is not a dyadic rational
    with pytest.raises(DomainError):
        parse_rational("nonsense")


def test_decimal_string():
    assert decimal_string(Fraction(1, 3), 4) == "0.3333"
    assert decimal_string(Fraction(-1, 2), 2) == "-0.50"
    assert decimal_string(Fraction(2, 3), 2) == "0.67"
    assert decimal_string(Fraction(5), 0) == "5"


def test_decimal_string_digit_cap():
    # int's str() refuses more than 4300 digits; the cap stays below that
    assert decimal_string(Fraction(1, 3), 4000) == "0." + "3" * 4000
    for digits in (-1, 4001, 4301, 100000):
        with pytest.raises(DomainError, match="0..4000"):
            decimal_string(Fraction(1, 3), digits)
