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
    with pytest.raises(DomainError, match="positive integer, got True"):
        is_k_valid(Fraction(1, 2), True)  # a bool is not a bit precision


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


BIG = 10**5000  # str() refuses more than 4300 digits


def _big_value_calls():
    from combicontracts import (
        Additive,
        BudgetAdditive,
        ExplicitTable,
        GeneralContract,
        GeneralInstance,
        Instance,
        UniformMatroid,
        brute_force_critical_set,
        brute_force_demand,
        embed_binary,
        fptas,
        greedy_demand,
        grid_spec,
        sample_instance,
        succ_gs,
        successor_from_profile,
        v_value,
        worst_case_utility_twopoint,
    )
    from combicontracts.functions import action_set

    inst = sample_instance("additive", 3, 4, 1)
    f, costs = inst.f, inst.costs
    return {
        "v_value": lambda: v_value(inst, Fraction(BIG)),
        "v_value negative": lambda: v_value(inst, -BIG),
        "greedy_demand": lambda: greedy_demand(inst, BIG),
        "succ_gs": lambda: succ_gs(inst, BIG),
        "brute_force_demand": lambda: brute_force_demand(inst, -BIG),
        "successor_from_profile": lambda: successor_from_profile(
            brute_force_critical_set(inst), Fraction(1, 2) + BIG
        ),
        "additive value": lambda: Additive((Fraction(1, 2), -BIG)),
        "budget": lambda: BudgetAdditive((Fraction(1, 2),), Fraction(-1, BIG)),
        "matroid rank": lambda: UniformMatroid(-BIG),
        "table size": lambda: ExplicitTable(-BIG, ()),
        "table mask": lambda: ExplicitTable(1, (0, 1)).value_mask(BIG),
        "action": lambda: action_set(3, [BIG]),
        "marginal": lambda: f.marginal(BIG, ()),
        "cost": lambda: Instance(f, (-BIG,) + costs[1:]),
        "scale": lambda: Instance(f, costs, scale=-BIG),
        "k": lambda: Instance(f, costs, k=-BIG),
        "k above the limit": lambda: grid_spec(Fraction(1, 2), BIG),
        "epsilon": lambda: grid_spec(BIG, 4),
        "tiny epsilon": lambda: grid_spec(Fraction(1, BIG), 4),
        "fptas epsilon": lambda: fptas(inst, -BIG),
        "in_bounded_set": lambda: in_bounded_set(-BIG, 4),
        "is_k_valid k": lambda: is_k_valid(1, -BIG),
        "unobserved level": lambda: worst_case_utility_twopoint(
            GeneralContract.tabular({BIG: 1}), embed_binary(inst)
        ),
        "reward": lambda: GeneralInstance(costs, (0, -BIG), expected=f),
        "format_rational": lambda: format_rational(BIG),
        "format_rational fraction": lambda: format_rational(Fraction(1, BIG)),
        "decimal_string digits": lambda: decimal_string(1, BIG),
    }


@pytest.mark.parametrize("name", sorted(_big_value_calls()))
def test_values_too_long_to_print_are_refused(name):
    from combicontracts import ContractError

    with pytest.raises(ContractError) as info:
        _big_value_calls()[name]()
    assert "digits" in str(info.value)


def test_shown_values_print_as_before():
    from combicontracts.rational import _shown

    for x in (0, -3, True, Fraction(7, 3), Fraction(-1, 2), 10**4300 - 1, "x", None, 1.5):
        assert _shown(x) == (str(x) if isinstance(x, (int, Fraction)) else repr(x))
    assert _shown(BIG) == "<integer of 5001 digits>"
    assert _shown(BIG - 1) == "<integer of 5000 digits>"
    assert _shown(Fraction(-1, BIG)) == "<negative fraction of 5001 digits>"
