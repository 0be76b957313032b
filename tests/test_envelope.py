"""Property tests for the integer subset tables and the profile-backed V oracle.

The references avoid the code under test: lifted tables are checked against
``value_mask`` and ``cost_mask`` (per-set Fraction sums), and the V oracle,
which bisects over the envelope's critical values, against the separate
argmax scan of ``brute_force_demand``.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import (  # noqa: E402
    Additive,
    BudgetAdditive,
    ContractError,
    Coverage,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    UnitDemand,
    VOracle,
    WeightedMatroidRank,
    brute_force_critical_set,
    brute_force_demand,
    canonical_best_response,
    sample_instance,
    validate,
)
from combicontracts.functions import _lift, bit_indices, lifted_values  # noqa: E402

DYADIC = (1, 2, 4, 8, 16)
# dyadic (with or without k = 4), non-dyadic and mixed denominators
DENOMINATORS = (DYADIC, (3, 5, 7), (2, 3, 4, 5, 7))
UNCERTIFIED = ("budget-additive", "coverage", "table")
CLASSES = ("additive", "unit-demand", "matroid-rank") + UNCERTIFIED


@st.composite
def rationals(draw, dens, positive):
    den = draw(st.sampled_from(dens))
    return Fraction(draw(st.integers(1 if positive else 0, den)), den)


@st.composite
def instances(draw, classes):
    klass = draw(st.sampled_from(classes))
    n = draw(st.integers(1, 6 if klass == "table" else 8))
    dens = draw(st.sampled_from(DENOMINATORS))

    def values(count):
        return [draw(rationals(dens, positive=False)) for _ in range(count)]

    if klass == "additive":
        f = Additive(values(n))
    elif klass == "unit-demand":
        f = UnitDemand(values(n))
    elif klass == "matroid-rank":
        if draw(st.booleans()):
            matroid = UniformMatroid(draw(st.integers(0, n)))
        else:
            owner = [draw(st.integers(0, 1)) for _ in range(n)]
            blocks = tuple(frozenset(a + 1 for a in range(n) if owner[a] == b) for b in (0, 1))
            matroid = PartitionMatroid(blocks, (draw(st.integers(0, 2)), draw(st.integers(0, 2))))
        f = WeightedMatroidRank(values(n), matroid)
    elif klass == "budget-additive":
        f = BudgetAdditive(values(n), values(1)[0] * draw(st.integers(1, n)))
    elif klass == "coverage":
        size = draw(st.integers(1, 6))
        covers = [draw(st.frozensets(st.integers(0, size - 1))) for _ in range(n)]
        f = Coverage(values(size), covers)
    else:
        # monotone: each entry is at least every entry one action below it
        table = [Fraction(0)]
        for mask, extra in enumerate(values((1 << n) - 1), 1):
            table.append(max([extra] + [table[mask ^ (1 << j)] for j in bit_indices(mask)]))
        f = ExplicitTable(n, table)
    singles = f.singleton_values()
    # a cost equal to its own value puts a critical value at 1 or on a tie
    costs = [
        v if v > 0 and draw(st.booleans()) else draw(rationals(dens, positive=True))
        for v in singles
    ]
    k = draw(st.sampled_from((None, 4))) if dens == DYADIC else None
    return Instance(f, costs, k=k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=instances(UNCERTIFIED), data=st.data())
def test_v_oracle_matches_brute_force_demand(inst, data):
    criticals = brute_force_critical_set(inst).alphas
    edges = (Fraction(0),) + criticals + (Fraction(1),)
    midpoints = [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])]
    randoms = data.draw(
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=4)
    )
    points = list(edges) + midpoints + randoms
    oracle = VOracle(inst)
    assert oracle.kernel is None
    for alpha in points:
        reference = brute_force_demand(inst, alpha)
        assert oracle(alpha) == reference.v
        assert oracle.best_response(alpha) == canonical_best_response(reference)
    assert oracle.queries == len(points)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=instances(CLASSES))
def test_lifted_tables_match_per_set_values(inst):
    masks = range(1 << inst.n)
    D, table = lifted_values(inst.f)
    assert [Fraction(v, D) for v in table] == [inst.f.value_mask(m) for m in masks]
    D, table = lifted_values(Additive(inst.costs))
    assert [Fraction(c, D) for c in table] == [inst.cost_mask(m) for m in masks]


def _uniform(weights, rank):
    return WeightedMatroidRank(weights, UniformMatroid(rank))


def _partition(weights, blocks, capacities):
    return WeightedMatroidRank(weights, PartitionMatroid(blocks, capacities))


F = Fraction
MATROID_EDGE_CASES = {
    "tied weights": _uniform([F(1, 2), F(1, 4), F(1, 2), F(1, 4), F(1, 2)], 2),
    "tied across blocks": _partition(
        [F(1, 3)] * 5, ({1, 3, 5}, {2, 4}), (2, 1)
    ),
    "zero weights": _uniform([F(0), F(1, 3), F(0), F(2, 3), F(0)], 3),
    "all zero": _partition([F(0)] * 4, ({1, 2}, {3, 4}), (1, 1)),
    "rank 0": _uniform([F(1, 2), F(1, 3), F(1, 5)], 0),
    "rank n": _uniform([F(1, 2), F(1, 3), F(1, 5), F(1, 7)], 4),
    "rank above n": _uniform([F(1, 2), F(1, 3), F(1, 5)], 9),
    "zero-capacity block": _partition(
        [F(3, 4), F(1, 8), F(1, 2), F(1, 4), F(5, 8)], ({1, 3}, {2, 4, 5}), (0, 2)
    ),
    "singleton blocks": _partition(
        [F(1, 2), F(2, 3), F(1, 6), F(5, 6)], ({1}, {2}, {3}, {4}), (1, 0, 1, 1)
    ),
    "one action": _uniform([F(2, 7)], 1),
}


@pytest.mark.parametrize("case", sorted(MATROID_EDGE_CASES))
def test_matroid_table_matches_value_mask(case):
    f = MATROID_EDGE_CASES[case]
    D, table = lifted_values(f)
    assert [Fraction(v, D) for v in table] == [f.value_mask(m) for m in range(1 << f.n)]


def test_matroid_table_makes_no_value_mask_calls(monkeypatch):
    cases = list(MATROID_EDGE_CASES.values())
    calls = []
    original = WeightedMatroidRank.value_mask

    def counted(self, mask):
        calls.append(mask)
        return original(self, mask)

    monkeypatch.setattr(WeightedMatroidRank, "value_mask", counted)
    for f in cases:
        lifted_values(f)
    assert calls == []
    cases[0].value_mask(3)  # the counter sees a direct call
    assert calls == [3]


def assert_stored_lift(tab):
    """The table's stored lift is a fresh lift of its entries, as tuples."""
    stored = lifted_values(tab)
    D, ints = _lift(tab.table)
    assert stored == (D, tuple(ints))
    assert type(stored) is tuple and type(stored[1]) is tuple
    assert D == math.lcm(*(x.denominator for x in tab.table))
    assert [Fraction(v, D) for v in stored[1]] == list(tab.table)
    with pytest.raises(TypeError):
        stored[1][0] = 0  # no caller can change what the next one reads


@st.composite
def raw_tables(draw):
    """Any table: negative entries and mixed denominators, n = 0 included."""
    n = draw(st.integers(0, 5))
    dens = st.sampled_from((1, 2, 3, 4, 7, 12))
    return ExplicitTable(
        n, [Fraction(draw(st.integers(-30, 30)), draw(dens)) for _ in range(1 << n)]
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tab=raw_tables())
def test_stored_lift_of_any_table(tab):
    assert_stored_lift(tab)


@st.composite
def int_tables(draw):
    """(n, D, ints) with any signs, an all-zero table, or D and ints scaled by
    3 so that (D, ints) is not reduced."""
    n = draw(st.integers(0, 6))
    D = draw(st.sampled_from((1, 2, 3, 4, 7, 12, 16)))
    ints = draw(st.one_of(
        st.just([0] * (1 << n)),
        st.lists(st.integers(-40, 40), min_size=1 << n, max_size=1 << n),
    ))
    c = draw(st.sampled_from((1, 3)))
    return n, c * D, [c * v for v in ints]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=int_tables())
def test_table_from_ints_is_the_table_of_its_fractions(case):
    n, D, ints = case
    made = ExplicitTable._from_ints(n, D, ints)
    ref = ExplicitTable(n, [Fraction(v, D) for v in ints])
    assert made == ref and hash(made) == hash(ref) and repr(made) == repr(ref)
    assert made._lifted == ref._lifted
    assert_stored_lift(made)
    assert len({id(x) for x in made.table}) == len(set(ints))  # one object per value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(-3, 30), count=st.integers(0, 70))
@example(n=0, count=1)
@example(n=3, count=8)
@example(n=6, count=64)
@example(n=-1, count=1)
@example(n=24, count=5)
@example(n=25, count=0)
def test_table_from_ints_refuses_what_the_constructor_refuses(n, count):
    def outcome(make):
        try:
            return make(), None
        except ContractError as exc:
            return None, (type(exc), str(exc))

    made, error = outcome(lambda: ExplicitTable._from_ints(n, 4, [1] * count))
    ref, ref_error = outcome(lambda: ExplicitTable(n, [Fraction(1, 4)] * count))
    assert (made, error) == (ref, ref_error)
    assert (error is None) == (0 <= n <= 6 and count == 1 << n)


def test_stored_lift_of_seeded_tables():
    tables = [ExplicitTable(0, (0,)), ExplicitTable(0, ("-1/3",))]
    for n in range(1, 9):
        for k in (4, 8):
            tables.append(sample_instance("table", n, k, seed=n).f)
    tables.append(ExplicitTable(2, ("0", "-1/6", "3/4", "2/7")))
    for tab in tables:
        assert_stored_lift(tab)
    assert lifted_values(tables[1]) == (3, (-1,))


def test_equally_valued_tables_compare_and_hash_equal():
    written = [
        ExplicitTable(2, ("0", "2/4", "1/2", "4/4")),
        ExplicitTable(2, (0, Fraction(1, 2), Fraction(2, 4), 1)),
        ExplicitTable(2, (Fraction(0), "1/2", Fraction(1, 2), "2/2")),
    ]
    for tab in written:
        assert tab == written[0] and hash(tab) == hash(written[0])
        assert lifted_values(tab) == (2, (0, 1, 1, 2))
    costs = (Fraction(1, 8), Fraction(1, 8))
    assert len({Instance(tab, costs) for tab in written}) == 1
    assert ExplicitTable(2, ("0", "1/2", "1/2", "3/4")) != written[0]


def test_scaled_and_replaced_tables_lift_afresh():
    tab = ExplicitTable(2, ("0", "1/3", "1/4", "1/2"))
    assert lifted_values(tab) == (12, (0, 4, 3, 6))
    assert lifted_values(tab.scaled(Fraction(1, 2))) == (24, (0, 4, 3, 6))
    other = dataclasses.replace(tab, table=(0, Fraction(1, 5), Fraction(1, 5), 1))
    assert lifted_values(other) == (5, (0, 1, 1, 5))
    smaller = dataclasses.replace(tab, n_actions=1, table=("0", "7/9"))
    assert lifted_values(smaller) == (9, (0, 7))
    assert lifted_values(tab) == (12, (0, 4, 3, 6))
    for t in (tab.scaled(3), other, smaller):
        assert_stored_lift(t)


def test_table_consumers_read_the_stored_lift(monkeypatch):
    from combicontracts import functions

    inst = sample_instance("table", 6, 4, seed=3)
    lifted = lifted_values(inst.f)

    def lift(fracs):
        assert fracs is not inst.f.table, "a table was lifted again"
        return _lift(fracs)

    monkeypatch.setattr(functions, "_lift", lift)
    brute_force_critical_set.cache_clear()
    assert validate(inst).ok
    assert brute_force_critical_set(inst).size > 0
    brute_force_demand(inst, Fraction(1, 2))
    assert lifted_values(inst.f) is lifted
