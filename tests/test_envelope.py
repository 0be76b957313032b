"""Property tests for the integer subset tables, the envelope and the V oracle.

The references avoid the code under test: lifted tables are checked against
``value_mask`` and ``references.cost_of`` (per-set Fraction sums), and the
certified classes' ``value_mask`` against the heaviest independent subset of
each set (``references.matroid_value_by_subsets``); the envelope
against a naive one built here from every pair of subset lines in
Fractions; and the V oracle, whose int levels come from the greedy kernel
or from an int binary search over the envelope's critical values, and the
profile read as an evaluator on every class, against the separate argmax
scan of ``brute_force_demand``.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import (  # noqa: E402
    ENUMERATION_LIMIT,
    Additive,
    BudgetAdditive,
    ContractError,
    Coverage,
    CriticalProfile,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    ResourceLimitError,
    UniformMatroid,
    UnitDemand,
    VOracle,
    WeightedMatroidRank,
    brute_force_critical_set,
    brute_force_demand,
    canonical_best_response,
    gen_exponential_coverage,
    optimal_contract,
    sample_instance,
    validate,
)
from combicontracts import demand, functions  # noqa: E402
from combicontracts.cli import main  # noqa: E402
from combicontracts.demand import GreedyKernel  # noqa: E402
from combicontracts.functions import (  # noqa: E402
    _before,
    _lift,
    _scan_tables,
    actions_of,
    _least_cost_states,
    bit_indices,
    lifted_values,
)
from combicontracts.instancefile import dumps_instance  # noqa: E402
from conftest import GS_CLASSES, make_small_corpus, rationals  # noqa: E402
from references import cost_of, matroid_value_by_subsets  # noqa: E402

DYADIC = (1, 2, 4, 8, 16)
# dyadic (with or without k = 4), non-dyadic and mixed denominators
DENOMINATORS = (DYADIC, (3, 5, 7), (2, 3, 4, 5, 7))
CERTIFIED = ("additive", "unit-demand", "matroid-rank")
UNCERTIFIED = ("budget-additive", "coverage", "table")
CLASSES = CERTIFIED + UNCERTIFIED


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


def edges_and_midpoints(profile) -> list:
    """0, every critical value and 1, then the midpoint of each gap."""
    edges = [Fraction(0), *profile.alphas, Fraction(1)]
    return edges + [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=instances(UNCERTIFIED), certified=instances(CERTIFIED), data=st.data())
def test_v_oracle_matches_brute_force_demand(inst, certified, data):
    # the profile is an evaluator on every class: read directly here, as a
    # certified instance's oracle takes the kernel instead
    for each in (inst, certified):
        profile = brute_force_critical_set(each)
        for alpha in edges_and_midpoints(profile):
            reference, p, q = brute_force_demand(each, alpha), alpha.numerator, alpha.denominator
            assert Fraction(profile.level(p, q), profile.D) == reference.v
            assert profile.best_response(p, q) == canonical_best_response(reference)
    randoms = data.draw(
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=4)
    )
    points = edges_and_midpoints(brute_force_critical_set(inst)) + randoms
    oracle = VOracle(inst)
    assert type(oracle.evaluator) is CriticalProfile
    for alpha in points:
        reference = brute_force_demand(inst, alpha)
        assert oracle(alpha) == reference.v
        assert oracle.best_response(alpha) == canonical_best_response(reference)
    assert oracle.queries == len(points)


@st.composite
def duplicated_instances(draw):
    """n <= 6 actions, each a copy of one of at most three prototypes (the
    same value parameters and the same cost), so that many masks share one
    (F, C) line and D* has several members on most segments.  Prototype 1
    may double prototype 0, and a budget may be a multiple of its value, so
    that sets of different prototypes tie too: {2} and {1, 3} under a
    budget of twice prototype 0's value when actions 1 and 3 copy it and
    action 2 copies prototype 1.  Then the first mask on a line is not the
    canonical set."""
    n, kinds = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    proto = [draw(st.integers(0, kinds - 1)) for _ in range(n)]
    dens = draw(st.sampled_from(DENOMINATORS))
    doubled = kinds > 1 and draw(st.booleans())

    def copies(positive):
        drawn = [draw(rationals(dens, positive)) for _ in range(kinds)]
        if doubled:
            drawn[1] = 2 * drawn[0]
        return [drawn[p] for p in proto], drawn[0]

    klass = draw(st.sampled_from(CLASSES))
    values, first = copies(positive=False)
    if klass == "additive":
        f = Additive(values)
    elif klass == "unit-demand":
        f = UnitDemand(values)
    elif klass == "matroid-rank":
        f = WeightedMatroidRank(values, UniformMatroid(draw(st.integers(0, n))))
    elif klass == "budget-additive":
        unit = first if first > 0 and draw(st.booleans()) else draw(rationals(dens, True))
        f = BudgetAdditive(values, unit * draw(st.integers(1, n)))
    else:  # a coverage function, or its table
        size = draw(st.integers(1, 4))
        covers = [draw(st.frozensets(st.integers(0, size - 1))) for _ in range(kinds)]
        weights = [draw(rationals(dens, positive=False)) for _ in range(size)]
        f = Coverage(weights, [covers[p] for p in proto])
        if klass == "table":
            f = ExplicitTable(n, [f.value_mask(m) for m in range(1 << n)])
    at_value = [draw(st.booleans()) for _ in range(kinds)]  # a crossing at 1
    singles, costs = f.singleton_values(), copies(positive=True)[0]
    costs = [v if v > 0 and at_value[p] else c for v, c, p in zip(singles, costs, proto)]
    return Instance(f, costs)


# {2} and {1, 3} share the line of the only critical value, 1/2: the first
# mask on it is {2}, the canonical set {1, 3}
TIED_ACROSS_PROTOTYPES = Instance(
    BudgetAdditive([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], Fraction(1, 2)),
    [Fraction(1, 8), Fraction(1, 4), Fraction(1, 8)],
)
# {2} and {3} share the line of the first critical value, 1/4, through the
# covered sets {0, 1} and {1, 2}; {1, 2} is found first (by action 1), so the
# canonical set {2} lies in the state found second
TIED_ACROSS_COVERED_SETS = Instance(
    Coverage([Fraction(1, 4)] * 3, [{1, 2}, {0, 1}, {1, 2}]),
    [Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
)
# {2} (sum 1/2) and {1, 3} (sum 3/4) share the line of the critical value 1
# only under the budget: they merge at the capped sum 1/2, {1, 3} second
TIED_AT_THE_CAP = Instance(
    BudgetAdditive([Fraction(3, 8), Fraction(1, 2), Fraction(3, 8)], Fraction(1, 2)),
    [Fraction(1, 16), Fraction(3, 16), Fraction(1, 8)],
)


def naive_envelope(inst):
    """(alphas, values, demand sets) from every pair of subset lines in
    Fractions.  Each crossing x in (0, 1] is a candidate.  V(x) is the
    largest f among the agent's optima at x, and V is constant between
    candidates, so x is critical iff V(x) exceeds V at the candidate before
    it (V = 0 up to the first).  The set is the lexicographically smallest
    optimum with f = V(x)."""
    masks = range(1 << inst.n)
    lines = [(inst.f.value_mask(m), cost_of(inst, m)) for m in masks]
    distinct = set(lines)
    crossings = {(c1 - c0) / (f1 - f0) for f0, c0 in distinct for f1, c1 in distinct if f1 > f0}
    rows, v_before = [], Fraction(0)
    for x in sorted(a for a in crossings if 0 < a <= 1):
        utils = [x * f - c for f, c in lines]
        top = max(utils)
        v = max(f for (f, _), u in zip(lines, utils) if u == top)
        if v > v_before:
            tied = [m for m in masks if utils[m] == top and lines[m][0] == v]
            best = min(sorted(i + 1 for i in bit_indices(m)) for m in tied)
            rows.append((x, v, frozenset(best)))
        v_before = v
    return tuple(map(tuple, zip(*rows))) or ((), (), ())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inst=st.one_of(duplicated_instances(), instances(CLASSES).filter(lambda i: i.n <= 5)))
@example(inst=TIED_ACROSS_PROTOTYPES)
@example(inst=TIED_ACROSS_COVERED_SETS)
@example(inst=TIED_AT_THE_CAP)
def test_envelope_matches_the_naive_pairwise_envelope(inst):
    profile = brute_force_critical_set(inst)
    expected = naive_envelope(inst)
    assert (profile.alphas, profile.values, profile.demand_sets) == expected


def test_the_tie_examples_are_decided_by_the_canonical_set():
    assert brute_force_critical_set(TIED_ACROSS_COVERED_SETS).demand_sets == (
        frozenset({2}), frozenset({2, 3}))
    assert brute_force_critical_set(TIED_AT_THE_CAP).demand_sets == (
        frozenset({1}), frozenset({1, 3}))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.integers(0, 1 << 10), b=st.integers(0, 1 << 10))
@example(a=0b0110, b=0b1001)
@example(a=0b0101, b=0b0011)
def test_before_is_the_order_of_sorted_action_tuples(a, b):
    """For masks neither of which contains the other (equal-cost sets, as
    costs are positive), ``_before`` is the canonical order."""
    assume(a & b not in (a, b))
    assert _before(a, b) == (sorted(actions_of(a)) < sorted(actions_of(b)))
    assert _before(b, a) != _before(a, b)


def test_envelope_matches_the_naive_envelope_on_seeded_instances():
    insts = [i for i in make_small_corpus(30) if i.n <= 5][:18]
    assert len(insts) >= 12
    for inst in insts:
        profile = brute_force_critical_set(inst)
        assert (profile.alphas, profile.values, profile.demand_sets) == naive_envelope(inst)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inst=st.one_of(duplicated_instances(), instances(CLASSES)), m=st.integers(2, 5))
def test_int_pair_query_on_both_backends(inst, m):
    """``oracle(p, q)`` is V(p/q) * D in ints: the same for an unreduced pair,
    one count per call in either form, and the Fraction view is level / D
    at each critical value and just below it."""
    oracle = VOracle(inst)
    assert type(oracle.evaluator) is (GreedyKernel if inst.f.gs_certified else CriticalProfile)
    criticals = brute_force_critical_set(inst).alphas
    below = [a - (a - prev) / 1024 for prev, a in zip((0,) + criticals, criticals)]
    points = [Fraction(0), Fraction(1), *criticals, *below]
    for alpha in points:
        p, q = alpha.numerator, alpha.denominator
        before = oracle.queries
        level = oracle(p, q)
        assert type(level) is int and oracle.queries == before + 1
        assert oracle(m * p, m * q) == level and oracle.queries == before + 2
        v = oracle(alpha)
        assert v == Fraction(level, oracle.D) and oracle.queries == before + 3
        assert v == brute_force_demand(inst, alpha).v


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=instances(CLASSES))
@example(inst=Instance(ExplicitTable(2, ("0", "1/2", "1/4", "3/4")), ["1/3", "1/5"]))
def test_lifted_tables_match_per_set_values(inst):
    """The lifted f and cost tables, and the scan tables of the envelope and
    ``brute_force_demand``, which put both over one D, the LCM of theirs
    (the example's f table is rescaled: D = 60 against its own 4)."""
    masks = range(1 << inst.n)
    Df, table = lifted_values(inst.f)
    values = [inst.f.value_mask(m) for m in masks]
    assert [Fraction(v, Df) for v in table] == values
    Dc, table = lifted_values(Additive(inst.costs))
    costs = [cost_of(inst, m) for m in masks]
    assert [Fraction(c, Dc) for c in table] == costs
    D, F, C = _scan_tables(inst)
    assert D == math.lcm(Df, Dc)
    assert [Fraction(v, D) for v in F] == values
    assert [Fraction(c, D) for c in C] == costs


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


CERTIFIED_SAMPLES = {
    f"{klass} n={n} seed={seed}": sample_instance(klass, n, 6, seed=seed).f
    for klass in GS_CLASSES
    for n in range(1, 9)
    for seed in (70, 71)
}


@pytest.mark.parametrize("case", [*MATROID_EDGE_CASES, *CERTIFIED_SAMPLES])
def test_value_mask_is_the_heaviest_independent_subset(case):
    """The one ``value_mask`` of the certified classes, read from their
    matroid form, against the definition: the heaviest independent subset
    of the mask, by enumerating the mask's subsets."""
    f = MATROID_EDGE_CASES.get(case) or CERTIFIED_SAMPLES[case]
    for mask in range(1 << f.n):
        assert f.value_mask(mask) == matroid_value_by_subsets(f, mask)


def test_certified_samples_reach_both_matroids():
    fs = CERTIFIED_SAMPLES.values()
    kinds = {type(f.matroid) for f in fs if isinstance(f, WeightedMatroidRank)}
    assert kinds == {UniformMatroid, PartitionMatroid}


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


def outcome(make):
    """(result, None), or (None, (class, text)) of the ContractError raised."""
    try:
        return make(), None
    except ContractError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    case=st.one_of(int_tables(), raw_tables().map(lambda tab: (tab.n, *tab._lifted))),
    mask=st.integers(-2, 1 << 6),
    factor=st.sampled_from((0, 1, Fraction(2, 3), 5)),
)
def test_table_from_ints_is_the_table_of_its_fractions(case, mask, factor):
    """A table from ints stores only its lift until ``table`` is read, and
    behaves as the table of the same Fractions in every other respect."""
    n, D, ints = case
    made = ExplicitTable._from_ints(n, D, ints)
    ref = ExplicitTable(n, [Fraction(v, D) for v in ints])
    assert made == ref and hash(made) == hash(ref) and made._lifted == ref._lifted
    got = outcome(lambda: made.value_mask(mask))
    assert got == outcome(lambda: ref.value_mask(mask))
    assert got[0] is None or type(got[0]) is Fraction
    assert "table" not in made.__dict__  # nothing above built the Fractions
    assert repr(made) == repr(ref) and made.table == ref.table
    assert made.__dict__["table"] is made.table  # built once, then kept
    assert all(type(x) is Fraction for x in made.table)
    assert_stored_lift(made)
    assert len({id(x) for x in made.table}) == len(set(ints))  # one object per value
    for a, b in ((made.scaled(factor), ref.scaled(factor)),
                 (dataclasses.replace(made), dataclasses.replace(ref)),
                 (dataclasses.replace(made, table=ints), dataclasses.replace(ref, table=ints))):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(-3, 30), count=st.integers(0, 70))
@example(n=0, count=1)
@example(n=3, count=8)
@example(n=6, count=64)
@example(n=-1, count=1)
@example(n=24, count=5)
@example(n=25, count=0)
def test_table_from_ints_refuses_what_the_constructor_refuses(n, count):
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
    inst = sample_instance("table", 6, 4, seed=3)
    lifted = lifted_values(inst.f)

    def lift(fracs):
        assert fracs is not inst.f.table, "a table was lifted again"
        return _lift(fracs)

    monkeypatch.setattr(functions, "_lift", lift)
    brute_force_critical_set.cache_clear()
    validate(inst)
    assert brute_force_critical_set(inst).size > 0
    brute_force_demand(inst, Fraction(1, 2))
    assert lifted_values(inst.f) is lifted


def assert_jump_bound(profile, unit):
    """Each critical value is (C1 - C0) / (F1 - F0) for the lines demanded
    at it and just below it, both differences multiples of 1/unit, and
    F1 - F0 is the jump of V there: its reduced denominator is at most
    that jump times unit."""
    below = Fraction(0)
    for beta, v in zip(profile.alphas, profile.values):
        jump = (v - below) * unit
        assert jump.denominator == 1 and 0 < beta.denominator <= jump.numerator
        below = v


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    klass=st.sampled_from(CLASSES),
    n=st.integers(1, 7),
    k=st.integers(1, 8),
    scale=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_a_critical_value_has_a_denominator_within_its_v_jump(klass, n, k, scale, seed):
    inst = sample_instance(klass, n, k, seed=seed)
    inst = Instance(inst.f.scaled(scale), inst.costs, k=k, scale=scale)
    assert_jump_bound(brute_force_critical_set(inst), 2**k)


def test_the_coverage_tower_meets_the_jump_bound():
    for n in range(1, 6):
        inst = gen_exponential_coverage(n)  # integer values and costs: k = 0
        profile = brute_force_critical_set(inst)
        assert profile.size == 2**n - 1
        assert_jump_bound(profile, 1)


def test_state_classes_never_tabulate_their_subsets(monkeypatch):
    """The envelope and the V oracle of budget additive, coverage and unit
    demand build no 2**n table; ``brute_force_demand`` still scans one."""
    calls = []
    for module, name in ((functions, "lifted_values"), (functions, "_scan_tables"),
                         (demand, "_scan_tables")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    insts = [sample_instance(klass, 8, 6, seed=3)
             for klass in ("budget-additive", "coverage", "unit-demand")]
    brute_force_critical_set.cache_clear()
    for inst in insts:
        assert brute_force_critical_set(inst).size > 0
        assert VOracle(inst)(Fraction(1)) > 0
    assert calls == []
    brute_force_demand(insts[0], Fraction(1, 2))
    assert calls == ["_scan_tables", "lifted_values"]


@pytest.mark.parametrize("klass", ["unit-demand", "budget-additive", "coverage"])
def test_state_classes_are_refused_past_the_brute_force_limit(tmp_path, capsys, monkeypatch, klass):
    # past 2**n rows a state class answers while its states fit, and is refused
    # once an action's step leaves more states than the limit (lowered here)
    n = ENUMERATION_LIMIT.bit_length()
    inst = sample_instance(klass, n, 5, seed=2)
    assert brute_force_critical_set(inst).size > 0
    states = len(_least_cost_states(inst)[1])
    path = tmp_path / "inst.json"
    path.write_text(dumps_instance(inst))
    monkeypatch.setattr(functions, "ENUMERATION_LIMIT", states - 1)
    brute_force_critical_set.cache_clear()
    text = f"an enumeration of {n} actions needs over {states - 1} rows"
    with pytest.raises(ResourceLimitError) as caught:
        brute_force_critical_set(inst)
    assert str(caught.value) == text
    if not inst.f.gs_certified:  # a certified class's oracle is the greedy
        with pytest.raises(ResourceLimitError) as caught:
            VOracle(inst)
        assert str(caught.value) == text
    assert main(["critical-set", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == f"resource limit: {text}"


@pytest.mark.parametrize("n", [13, 40, 200])
def test_unit_demand_envelope_is_the_gs_profile_past_12_actions(n):
    # at most n + 1 states, so the envelope answers at any n the gs walk does
    inst = sample_instance("unit-demand", n, 12, seed=n)
    envelope = brute_force_critical_set(inst)
    assert envelope.size > 0
    assert envelope == optimal_contract(inst, "gs").profile
