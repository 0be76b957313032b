from fractions import Fraction

import pytest

from combicontracts import (
    Additive,
    BudgetAdditive,
    Coverage,
    DomainError,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    PrecisionError,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
    cost,
    marginal,
    validate,
    value,
)
from combicontracts.functions import actions_of, mask_of, value_table

from conftest import make_small_corpus


def test_value_examples(worked_additive, example_three_action):
    assert value(worked_additive.f, {1, 2}) == Fraction(9, 10)
    assert value(example_three_action.f, {1, 2}) == Fraction(1, 2)
    f = BudgetAdditive((Fraction(3, 8), Fraction(5, 8)), Fraction(1))
    assert value(f, {1, 2}) == Fraction(1)


def test_marginal_examples(example_three_action):
    f = UnitDemand((Fraction(3, 5), Fraction(4, 5)))
    assert marginal(f, 2, {1}) == Fraction(1, 5)
    assert marginal(example_three_action.f, 3, {1, 2}) == Fraction(1, 10)
    # monotonicity: last marginal is non-negative for every class instance
    for inst in make_small_corpus(12):
        full = set(range(1, inst.n + 1))
        for a in list(full):
            assert marginal(inst.f, a, full - {a}) >= 0


def test_marginal_rejects_members():
    f = Additive((Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(DomainError):
        marginal(f, 1, {1})
    with pytest.raises(DomainError):
        value(f, {3})


def test_cost_examples(example_three_action):
    assert cost(example_three_action, {1, 2}) == Fraction(1, 5)
    assert cost(example_three_action, set()) == 0
    inst = Instance(
        Additive((Fraction(3, 8), Fraction(5, 8))),
        (Fraction(3, 64), Fraction(5, 64)),
    )
    assert cost(inst, {1, 2}) == Fraction(1, 8)


def test_validate_examples(example_three_action):
    assert validate(example_three_action).ok

    # construction refuses f(empty set) != 0; with f(empty set) = 1/2,
    # alpha = 0 already earns 1/2, which the walk from V(0) = 0 would miss
    for table, cost in (
        ((Fraction(1, 10), Fraction(1, 2)), Fraction(1, 10)),
        ((Fraction(1, 2), Fraction(3, 5)), Fraction(1, 2)),
    ):
        with pytest.raises(DomainError, match="empty set"):
            Instance(ExplicitTable(1, table), (cost,))

    with pytest.raises(DomainError, match="non-positive cost"):
        Instance(Additive((Fraction(1, 2),)), (Fraction(0),))


def test_validate_monotonicity_and_k():
    non_monotone = Instance(
        ExplicitTable(2, (Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 3))),
        (Fraction(1, 10), Fraction(1, 10)),
    )
    assert any("monotone" in v for v in validate(non_monotone).violations)

    with pytest.raises(PrecisionError, match=r"multiple of 2\*\*-4"):
        Instance(Additive((Fraction(1, 3),)), (Fraction(1, 4),), k=4)

    over_scale = Instance(Additive((Fraction(2), Fraction(2))), (Fraction(1), Fraction(1)))
    assert any("scale" in v for v in validate(over_scale).violations)


def test_gs_certification_tags():
    assert Additive((Fraction(1, 2),)).gs_certified
    assert UnitDemand((Fraction(1, 2),)).gs_certified
    assert WeightedMatroidRank((Fraction(1, 2),), UniformMatroid(1)).gs_certified
    assert not BudgetAdditive((Fraction(1, 2),), Fraction(1)).gs_certified
    assert not Coverage((Fraction(1, 2),), (frozenset({0}),)).gs_certified
    assert not ExplicitTable(1, (Fraction(0), Fraction(1, 2))).gs_certified


def test_matroid_rank_values():
    uniform = WeightedMatroidRank(
        (Fraction(5, 8), Fraction(3, 8), Fraction(1, 8)), UniformMatroid(2)
    )
    assert value(uniform, {1, 2, 3}) == Fraction(1)
    assert value(uniform, {2, 3}) == Fraction(1, 2)
    partition = WeightedMatroidRank(
        (Fraction(5, 8), Fraction(3, 8), Fraction(1, 8)),
        PartitionMatroid((frozenset({1, 2}), frozenset({3})), (1, 1)),
    )
    assert value(partition, {1, 2, 3}) == Fraction(5, 8) + Fraction(1, 8)
    assert value(partition, {2}) == Fraction(3, 8)


def test_partition_must_cover_ground_set():
    with pytest.raises(DomainError, match="do not cover the actions 1..2"):
        WeightedMatroidRank(
            (Fraction(1, 2), Fraction(1, 2)),
            PartitionMatroid((frozenset({1}),), (1,)),
        )


HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Additive((HALF, -HALF)), "negative value -1/2"),
        (lambda: UnitDemand((-HALF,)), "negative value"),
        (lambda: BudgetAdditive((HALF,), -HALF), "negative budget"),
        (lambda: Coverage((-HALF,), (frozenset({0}),)), "negative value"),
        (lambda: Coverage((HALF,), (frozenset({1}),)), "outside 0..0"),
        (lambda: WeightedMatroidRank((-HALF,), UniformMatroid(1)), "negative value"),
        (lambda: UniformMatroid(-1), "negative matroid rank"),
        (lambda: PartitionMatroid((frozenset({1}),), (-1,)), "negative partition"),
        (lambda: PartitionMatroid((frozenset({1}), frozenset({1})), (1, 1)), "overlap"),
        (lambda: Instance(Additive(()), ()), "empty action set"),
        (lambda: Instance(Additive((HALF,)), (HALF,), scale=0), "non-positive scale"),
    ],
)
def test_constructors_refuse_invalid_parameters(build, match):
    with pytest.raises(DomainError, match=match):
        build()


def test_partition_needs_one_capacity_per_block():
    with pytest.raises(DomainError, match="capacities"):
        PartitionMatroid((frozenset({1}), frozenset({2})), (1,))
    with pytest.raises(DomainError, match="negative action count"):
        ExplicitTable(-1, (Fraction(0),))


def test_monotone_and_submodular_exhaustively():
    # every sampled class instance is monotone and submodular, n up to 10
    from conftest import make_gs_corpus

    big = [i for i in make_gs_corpus(60) if i.n >= 9][:6]
    for inst in make_small_corpus(18) + big:
        table = value_table(inst.f)
        n = inst.n
        full = (1 << n) - 1
        for mask in range(1 << n):
            rest = full & ~mask
            m = rest
            while m:
                low = m & -m
                assert table[mask | low] >= table[mask]
                m ^= low
        for mask in range(1 << n):
            others = full & ~mask
            m = others
            while m:
                i = m & -m
                sup = mask | i
                mm = others & ~i
                while mm:
                    j = mm & -mm
                    # marginal of j shrinks when i joins the base set
                    assert (
                        table[mask | j] - table[mask]
                        >= table[sup | j] - table[sup]
                    )
                    mm ^= j
                m ^= i


def test_to_table_round_trip(worked_additive):
    table = worked_additive.f.to_table()
    for mask in range(4):
        assert table.value_mask(mask) == worked_additive.f.value_mask(mask)


def test_scaled_preserves_class():
    for inst in make_small_corpus(6):
        scaled = inst.f.scaled(Fraction(1, 2))
        assert type(scaled) is type(inst.f)
        for mask in range(1 << inst.n):
            assert scaled.value_mask(mask) == inst.f.value_mask(mask) / 2


def test_mask_helpers():
    assert mask_of(4, {1, 3}) == 0b101
    assert actions_of(0b101) == frozenset({1, 3})
    assert actions_of(0) == frozenset()
    with pytest.raises(DomainError):
        mask_of(2, {3})
