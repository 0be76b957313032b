import dataclasses
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
    ResourceLimitError,
    SuccessFunction,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
    validate,
)
from combicontracts.demand import GreedyKernel
from combicontracts.functions import (
    _lift,
    _monotone,
    actions_of,
    cost_table,
    mask_of,
)
from combicontracts.generators import SAMPLE_CLASSES, sample_instance

from conftest import Doubled, make_small_corpus


def test_value_examples(worked_additive, example_three_action):
    assert worked_additive.f.value({1, 2}) == Fraction(9, 10)
    assert example_three_action.f.value({1, 2}) == Fraction(1, 2)
    f = BudgetAdditive((Fraction(3, 8), Fraction(5, 8)), Fraction(1))
    assert f.value({1, 2}) == Fraction(1)


def test_marginal_examples(example_three_action):
    f = UnitDemand((Fraction(3, 5), Fraction(4, 5)))
    assert f.marginal(2, {1}) == Fraction(1, 5)
    assert example_three_action.f.marginal(3, {1, 2}) == Fraction(1, 10)
    # monotonicity: last marginal is non-negative for every class instance
    for inst in make_small_corpus(12):
        full = set(range(1, inst.n + 1))
        for a in list(full):
            assert inst.f.marginal(a, full - {a}) >= 0


def test_marginal_rejects_members():
    f = Additive((Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(DomainError):
        f.marginal(1, {1})
    with pytest.raises(DomainError):
        f.value({3})
    for a in (1.5, "1"):  # a non-int action is refused as value refuses one in a set
        with pytest.raises(DomainError, match=f"action {a!r} outside ground set 1..2"):
            f.marginal(a, set())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: f.value([[1]]), r"action \[1\] outside ground set 1..1"),
        (lambda f: f.marginal([1], set()), r"action \[1\] outside ground set 1..1"),
        (lambda f: f.value(5), "actions 5 are not an iterable"),
        (lambda f: f.value([True]), "action True outside ground set 1..1"),
        (lambda f: f.marginal(True, set()), "action True outside ground set 1..1"),
    ],
    ids=["unhashable-in-value", "unhashable-marginal", "not-iterable", "bool-in-value", "bool-marginal"],
)
def test_action_sets_refuse_what_is_not_a_set_of_actions(call, message):
    # each raised a raw TypeError, or read True as action 1
    with pytest.raises(DomainError, match=message):
        call(Additive((1,)))


def test_cost_examples(example_three_action):
    assert cost_table(example_three_action)[0b011] == Fraction(1, 5)
    assert cost_table(example_three_action)[0] == 0
    inst = Instance(
        Additive((Fraction(3, 8), Fraction(5, 8))),
        (Fraction(3, 64), Fraction(5, 64)),
    )
    assert cost_table(inst)[0b11] == Fraction(1, 8)


def test_validate_examples(example_three_action):
    validate(example_three_action)

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
    with pytest.raises(DomainError, match=r"^f is not monotone$"):
        validate(non_monotone)

    with pytest.raises(PrecisionError, match=r"multiple of 2\*\*-4"):
        Instance(Additive((Fraction(1, 3),)), (Fraction(1, 4),), k=4)

    over_scale = Instance(Additive((Fraction(2), Fraction(2))), (Fraction(1), Fraction(1)))
    with pytest.raises(DomainError, match=r"^f\(full set\) exceeds the declared scale$"):
        validate(over_scale)


@pytest.mark.parametrize(
    "table, costs, k, den",
    [
        (("0", "1/3", "1/4", "1/2"), ("1/8", "1/8"), 4, 3),
        (("0", "1/64", "1/4", "1/2"), ("1/8", "1/8"), 4, 64),
        (("0", "1/64", "1/4", "1/2"), ("1/8", "1/8"), 6, None),
        (("0", "1/8", "1/4", "1/2"), ("1/8", "1/5"), 4, 5),
        (("0", "-1/8", "1/4", "1/2"), ("1/8", "1/8"), 3, None),
    ],
)
def test_k_check_of_a_table_reads_every_entry(table, costs, k, den):
    """A table's entries are on the 2**-k grid iff their LCM, the lifted D, is;
    the error still names an off-grid denominator."""
    if den is None:
        assert Instance(ExplicitTable(2, table), costs, k=k).k == k
        return
    with pytest.raises(PrecisionError, match=f"denominator {den} is not a multiple"):
        Instance(ExplicitTable(2, table), costs, k=k)


def per_mask_monotone(table, n):
    return all(
        table[mask] <= table[mask | 1 << j]
        for mask in range(1 << n)
        for j in range(n)
        if not mask >> j & 1
    )


def test_monotone_scan_matches_per_mask_scan():
    # n = 0..5; at every (mask, bit j) pair, one decrease is planted twice:
    # f(mask + j) lowered below f(mask), or f(mask) raised above f(mask + j)
    for n in range(6):
        base = [Fraction(bin(mask).count("1")) for mask in range(1 << n)]
        flat = [Fraction(0)] * (1 << n)
        tables, planted = [base, flat], []
        for mask in range(1 << n):
            for j in range(n):
                if not mask >> j & 1:
                    lowered, raised = list(base), list(base)
                    lowered[mask | 1 << j] = base[mask] - Fraction(1, 2)
                    raised[mask] = base[mask | 1 << j] + Fraction(1, 2)
                    planted += [lowered, raised]
        assert len(planted) == n << n  # two for each of the n * 2**(n-1) pairs
        for table in tables + planted:
            expected = per_mask_monotone(table, n)
            assert expected == (table in tables)
            assert _monotone(ExplicitTable(n, table)) == expected


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
    assert uniform.value({1, 2, 3}) == Fraction(1)
    assert uniform.value({2, 3}) == Fraction(1, 2)
    partition = WeightedMatroidRank(
        (Fraction(5, 8), Fraction(3, 8), Fraction(1, 8)),
        PartitionMatroid((frozenset({1, 2}), frozenset({3})), (1, 1)),
    )
    assert partition.value({1, 2, 3}) == Fraction(5, 8) + Fraction(1, 8)
    assert partition.value({2}) == Fraction(3, 8)


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
        # refused before a mask is built: 1 << j would raise or exhaust memory
        pytest.param(lambda: Coverage((HALF,), ({-1},)), "outside 0..0", id="negative element"),
        pytest.param(lambda: Coverage((HALF,), ({2**62},)), "outside 0..0", id="huge element"),
        (lambda: WeightedMatroidRank((-HALF,), UniformMatroid(1)), "negative value"),
        (lambda: UniformMatroid(-1), "negative matroid rank"),
        (lambda: PartitionMatroid((frozenset({1}),), (-1,)), "negative partition"),
        (lambda: PartitionMatroid((frozenset({1}), frozenset({1})), (1, 1)), "overlap"),
        # integer fields take ints only: no float, bool or numeric string
        (lambda: UniformMatroid(1.5), "matroid rank: expected an integer, got 1.5"),
        (lambda: UniformMatroid(True), "matroid rank: expected an integer, got True"),
        (lambda: PartitionMatroid(({1},), (1.5,)), "capacities: expected an integer, got 1.5"),
        (lambda: PartitionMatroid(({1},), ("2",)), "capacities: expected an integer, got '2'"),
        (lambda: PartitionMatroid(({1.0},), (1,)), "entries: expected an integer, got 1.0"),
        (lambda: Coverage((HALF, HALF), ({1.7},)), "entries: expected an integer, got 1.7"),
        (lambda: WeightedMatroidRank((HALF,), None), "expected a uniform or partition matroid"),
        # its file would write "n": true, which the loader refuses
        (lambda: ExplicitTable(True, (0, 1)), "action count: expected an integer, got True"),
        (lambda: ExplicitTable("2", (0,) * 4), "action count: expected an integer, got '2'"),
        # a sequence field takes an iterable only
        (lambda: Additive(5), "values: expected a sequence, got 5"),
        # a string is not split into its characters: "12" is not (1, 2)
        (lambda: Additive("12"), "values: expected a sequence, got '12'"),
        (lambda: Coverage((1,), (0,)), "cover: expected a sequence, got 0"),
        (lambda: PartitionMatroid((1,), (1,)), "block: expected a sequence, got 1"),
        (lambda: ExplicitTable(1, 5), "table: expected a sequence, got 5"),
        (lambda: Instance(Additive((HALF,)), 5), "costs: expected a sequence, got 5"),
        # only the listed classes: a subclass would be solved as its parent
        (lambda: Instance(Doubled((HALF, HALF)), (HALF, HALF)), "unknown function class Doubled"),
        (lambda: Instance(type("Bare", (SuccessFunction,), {})(), (HALF,)), "class Bare"),
        (lambda: Instance(None, (HALF,)), "unknown function class NoneType"),
        (lambda: Instance(Additive(()), ()), "empty action set"),
        (lambda: Instance(Additive((HALF,)), (HALF,), scale=0), "non-positive scale"),
        (lambda: Instance(Additive((HALF, HALF)), (HALF,)), "1 costs for 2 actions"),
        # its file would write "k": true, which the loader refuses
        pytest.param(lambda: Instance(Additive((HALF,)), (HALF,), k=True), "got True", id="bool k"),
    ],
)
def test_constructors_refuse_invalid_parameters(build, match):
    with pytest.raises(DomainError, match=match):
        build()


@pytest.mark.parametrize(
    "build, name",
    [
        (Additive, "values"),
        (UnitDemand, "values"),
        (lambda v: WeightedMatroidRank(v, UniformMatroid(1)), "weights"),
        (lambda v: BudgetAdditive(v, 1), "values"),
        (lambda v: Coverage(v, [[0, 2], [], [1, 2]]), "weights"),
    ],
)
def test_the_per_action_field_is_derived_by_the_base_class(build, name):
    f = build([1, "1/2", 0])
    values = getattr(f, name)
    assert values == (1, HALF, 0) and type(values) is tuple
    assert all(type(v) is Fraction for v in values)
    assert f.n == 3
    if isinstance(f, Coverage):
        assert f._masks == tuple(mask_of(3, [j + 1 for j in c]) for c in f.covers)
    with pytest.raises(DomainError, match=f"^{name} include the negative value -1/2$"):
        build([1, "-1/2", 0])


def test_to_table_refuses_past_the_enumeration_limit():
    # refused before any of the 2**21 entries is read
    def entries():
        raise AssertionError("an entry was read")
        yield

    text = "^an enumeration of 21 actions needs over 1048576 rows$"
    with pytest.raises(ResourceLimitError, match=text):
        ExplicitTable(21, entries())
    with pytest.raises(ResourceLimitError, match=text):
        ExplicitTable._from_ints(21, 1, entries())


@pytest.mark.parametrize(
    "f",
    [
        Additive((HALF, HALF)),
        UnitDemand((HALF, HALF)),
        WeightedMatroidRank((HALF, HALF), UniformMatroid(1)),
        WeightedMatroidRank((HALF, HALF), PartitionMatroid(({1}, {2}), (1, 1))),
        BudgetAdditive((HALF, HALF), HALF),
        Coverage((HALF,), ({0}, {0})),
        ExplicitTable(2, (0, HALF, HALF, 1)),
    ],
    ids=["additive", "unit-demand", "uniform", "partition", "budget-additive", "coverage",
         "table"],
)
def test_value_mask_refuses_a_mask_outside_the_subsets(f):
    for mask in (-1, 1 << f.n, HALF):
        with pytest.raises(DomainError, match=f"subset mask {mask} outside the table"):
            f.value_mask(mask)


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
        n = inst.n
        table = [inst.f.value_mask(mask) for mask in range(1 << n)]
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


def test_mask_helpers():
    assert mask_of(4, {1, 3}) == 0b101
    assert actions_of(0b101) == frozenset({1, 3})
    assert actions_of(0) == frozenset()
    with pytest.raises(DomainError):
        mask_of(2, {3})


def _written_out_parameters(f):
    """The parameter tuple of each class, written out per class."""
    if isinstance(f, BudgetAdditive):
        return f.values + (f.budget,)
    if isinstance(f, (Additive, UnitDemand)):
        return f.values
    if isinstance(f, (WeightedMatroidRank, Coverage)):
        return f.weights
    return f.table


def _written_out_scaled(f, c):
    """f with every value times c, built through each class's constructor."""
    if isinstance(f, Additive):
        return Additive(tuple(v * c for v in f.values))
    if isinstance(f, UnitDemand):
        return UnitDemand(tuple(v * c for v in f.values))
    if isinstance(f, WeightedMatroidRank):
        return WeightedMatroidRank(tuple(w * c for w in f.weights), f.matroid)
    if isinstance(f, BudgetAdditive):
        return BudgetAdditive(tuple(v * c for v in f.values), f.budget * c)
    if isinstance(f, Coverage):
        return Coverage(tuple(w * c for w in f.weights), f.covers)
    return ExplicitTable(f.n_actions, tuple(v * c for v in f.table))


Q = Fraction
# hand-made functions (zero weights, zero-capacity blocks, n = 1) with their
# matroid form (block of each action, capacities), None when not certified
HAND_MADE = {
    "additive": (Additive((Q(1, 2), Q(0), Q(3, 4))), ((0, 0, 0), (3,))),
    "additive n=1": (Additive((Q(2, 3),)), ((0,), (1,))),
    "additive zero": (Additive((Q(0), Q(0))), ((0, 0), (2,))),
    "unit demand": (UnitDemand((Q(0), Q(1, 3), Q(1, 5))), ((0, 0, 0), (1,))),
    "unit demand n=1": (UnitDemand((Q(1, 7),)), ((0,), (1,))),
    "uniform": (
        WeightedMatroidRank((Q(1, 2), Q(0), Q(1, 4)), UniformMatroid(2)),
        ((0, 0, 0), (2,)),
    ),
    "uniform rank 0": (
        WeightedMatroidRank((Q(1, 2), Q(1, 3)), UniformMatroid(0)),
        ((0, 0), (0,)),
    ),
    "uniform n=1": (WeightedMatroidRank((Q(2, 7),), UniformMatroid(1)), ((0,), (1,))),
    "partition zero-capacity block": (
        WeightedMatroidRank(
            (Q(3, 4), Q(1, 8), Q(1, 2), Q(1, 4), Q(5, 8)),
            PartitionMatroid((frozenset({1, 3}), frozenset({2, 4, 5})), (0, 2)),
        ),
        ((0, 1, 0, 1, 1), (0, 2)),
    ),
    "partition blocks out of order": (
        WeightedMatroidRank(
            (Q(1, 2), Q(0), Q(1, 6)),
            PartitionMatroid((frozenset({2}), frozenset({1, 3})), (1, 1)),
        ),
        ((1, 0, 1), (1, 1)),
    ),
    "partition n=1": (
        WeightedMatroidRank((Q(1, 3),), PartitionMatroid((frozenset({1}),), (1,))),
        ((0,), (1,)),
    ),
    "budget additive": (BudgetAdditive((Q(1, 2), Q(0), Q(1, 4)), Q(1, 2)), None),
    "budget zero": (BudgetAdditive((Q(1, 2),), Q(0)), None),
    "coverage": (
        Coverage((Q(1, 2), Q(0), Q(1, 3)), (frozenset({0, 1}), frozenset(), frozenset({2}))),
        None,
    ),
    "table": (ExplicitTable(2, (Q(0), Q(1, 4), Q(1, 2), Q(1, 2))), None),
    "table n=1": (ExplicitTable(1, (Q(0), Q(0))), None),
}
SAMPLED = {
    f"{klass} seed {seed}": sample_instance(klass, 2 + seed, 4 + seed, seed).f
    for klass in SAMPLE_CLASSES
    for seed in (0, 1, 5)
}
ALL_FUNCTIONS = {name: f for name, (f, _) in HAND_MADE.items()} | SAMPLED


def test_scaled_preserves_class():
    # the declared parameters and the scaling of every class, against the
    # per-class tuples and constructions written out above
    corpus = [inst.f for inst in make_small_corpus(6)]
    for f in list(ALL_FUNCTIONS.values()) + corpus:
        params = f.parameter_fractions()
        assert params == _written_out_parameters(f)
        for c in (Q(0), Q(1, 2), Q(3)):
            scaled = f.scaled(c)
            assert scaled == _written_out_scaled(f, c)
            assert type(scaled) is type(f)
            for mask in range(1 << f.n):
                assert scaled.value_mask(mask) == c * f.value_mask(mask)
        if not isinstance(f, ExplicitTable) and any(params):
            with pytest.raises(DomainError, match="negative"):
                f.scaled(-1)


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_matroid_form_feeds_the_kernel(name):
    f, form = HAND_MADE[name]
    assert f.gs_certified == (form is not None)
    if form is None:
        assert not hasattr(f, "_matroid_form")
        return
    assert f._matroid_form() == form
    kernel = GreedyKernel(Instance(f, (Q(1, 8),) * f.n))
    assert (kernel.blocks, kernel.caps) == form


@pytest.mark.parametrize("name", sorted(n for n, f in SAMPLED.items() if f.gs_certified))
def test_sampled_matroid_forms_name_each_actions_block(name):
    f = SAMPLED[name]
    blocks, caps = f._matroid_form()
    assert len(blocks) == f.n and all(0 <= b < len(caps) for b in blocks)
    if isinstance(f, WeightedMatroidRank) and isinstance(f.matroid, PartitionMatroid):
        for a, b in enumerate(blocks, 1):
            assert a in f.matroid.blocks[b]
        assert caps == f.matroid.capacities
    kernel = GreedyKernel(Instance(f, (Q(1, 8),) * f.n))
    assert (kernel.blocks, kernel.caps) == (blocks, caps)



def test_instance_hash_is_taken_once_and_ignores_meta(monkeypatch):
    inst = make_small_corpus()[5]
    twin = Instance(inst.f, inst.costs, k=inst.k, scale=inst.scale, meta={"seed": 1})
    assert twin == inst and hash(twin) == hash(inst)
    f_hash, calls = type(inst.f).__hash__, []
    monkeypatch.setattr(type(inst.f), "__hash__", lambda f: calls.append(f) or f_hash(f))
    fresh = Instance(inst.f, inst.costs, k=inst.k, scale=inst.scale)
    assert hash(fresh) == hash(fresh) == hash(inst) and len(calls) == 1


@pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS))
def test_an_instance_is_lifted_once_over_one_denominator(name):
    """``_lifted`` is the lift the kernel and the exhaustive scans used to take
    per solve: every parameter and cost over the LCM of their denominators
    (for a table, its own D and the costs' LCM, the same number)."""
    f = ALL_FUNCTIONS[name]
    for costs in ((Q(1, 8),) * f.n, tuple(Q(a, 2 + a) for a in range(1, f.n + 1))):
        inst = Instance(f, costs)
        params = f.parameter_fractions()
        D, ints = _lift(params + costs)
        assert inst._lifted == (D, ints[: len(params)], ints[len(params) :])
        if isinstance(f, ExplicitTable) and D == f._lifted[0]:
            assert inst._lifted[1] is f._lifted[1]  # no rescaled copy


def test_a_replaced_instance_is_lifted_again():
    inst = Instance(Additive((Q(1, 2), Q(1, 4))), (Q(1, 8), Q(1, 8)))
    assert inst._lifted == (8, (4, 2), (1, 1))
    assert dataclasses.replace(inst, costs=(Q(1, 3), Q(1, 8)))._lifted == (24, (12, 6), (8, 3))
    other = dataclasses.replace(inst, f=Additive((Q(1, 5), Q(1, 2))))
    assert other._lifted == (40, (8, 20), (5, 5))
    assert dataclasses.replace(inst, meta="kept")._lifted == inst._lifted


@pytest.mark.parametrize(
    "f, costs, den",
    [
        (Additive((Q(1, 2), Q(1, 12))), (Q(1, 8), Q(1, 8)), 12),
        (UnitDemand((Q(1, 2), Q(1, 4))), (Q(1, 8), Q(1, 5)), 5),
        (WeightedMatroidRank((Q(1, 3), Q(1, 4)), UniformMatroid(1)), (Q(1, 8),) * 2, 3),
        (BudgetAdditive((Q(1, 2), Q(1, 4)), Q(3, 7)), (Q(1, 8), Q(1, 8)), 7),
        (Coverage((Q(1, 2), Q(1, 64)), (frozenset({0}), frozenset({1}))), (Q(1, 8),) * 2, 64),
    ],
)
def test_an_off_grid_value_names_its_denominator(f, costs, den):
    with pytest.raises(PrecisionError, match=f"denominator {den} is not a multiple of 2\\*\\*-4"):
        Instance(f, costs, k=4)

