"""Property tests for the integer greedy kernel against Fraction references.

Every reference here avoids the kernel: brute-force demand enumerates all
subsets through ``value_table``, step utilities are rebuilt from
``SuccessFunction.marginal`` (two ``value_mask`` calls in Fractions), and
successors come from the envelope sweep.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import (  # noqa: E402
    Additive,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
    brute_force_critical_set,
    brute_force_demand,
    greedy_demand,
    succ_gs,
    successor_from_profile,
    v_value,
)

# dyadic, non-dyadic (no k, so the common denominator is a true LCM), mixed
DENOMINATORS = ((1, 2, 4, 8, 16), (3, 5, 7), (2, 3, 4, 5, 7))


@st.composite
def rationals(draw, dens, positive):
    den = draw(st.sampled_from(dens))
    return Fraction(draw(st.integers(1 if positive else 0, den)), den)


@st.composite
def certified_instances(draw):
    n = draw(st.integers(1, 7))
    dens = draw(st.sampled_from(DENOMINATORS))
    params = tuple(draw(rationals(dens, positive=False)) for _ in range(n))
    # a cost equal to its own value puts a critical value at exactly 1
    costs = tuple(
        v if v > 0 and draw(st.booleans()) else draw(rationals(dens, positive=True))
        for v in params
    )
    klass = draw(st.sampled_from(["additive", "unit-demand", "uniform", "partition"]))
    if klass == "additive":
        f = Additive(params)
    elif klass == "unit-demand":
        f = UnitDemand(params)
    elif klass == "uniform":
        f = WeightedMatroidRank(params, UniformMatroid(draw(st.integers(0, n + 1))))
    else:
        count = draw(st.integers(1, 3))
        owner = [draw(st.integers(0, count - 1)) for _ in range(n)]
        blocks = tuple(frozenset(a + 1 for a in range(n) if owner[a] == b) for b in range(count))
        caps = tuple(draw(st.integers(0, 2)) for _ in range(count))
        f = WeightedMatroidRank(params, PartitionMatroid(blocks, caps))
    return Instance(f, costs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=certified_instances(), data=st.data())
def test_kernel_matches_fraction_references(inst, data):
    profile = brute_force_critical_set(inst)
    alpha = data.draw(
        st.one_of(
            st.sampled_from((Fraction(0), Fraction(1)) + profile.alphas),
            st.fractions(min_value=0, max_value=1, max_denominator=60),
        )
    )
    reference = brute_force_demand(inst, alpha)

    ordered = greedy_demand(inst, alpha)
    assert ordered.set in reference.d_star
    for i, a in enumerate(ordered.actions):
        marginal = inst.f.marginal(a, ordered.actions[:i])
        assert ordered.step_utilities[i] == alpha * marginal - inst.costs[a - 1]

    assert v_value(inst, alpha) == reference.v
    assert succ_gs(inst, alpha) == successor_from_profile(profile, alpha)


def test_zero_capacity_and_rank_zero_demand_nothing():
    # every marginal is 0, so only zero-utility steps can be taken; none are,
    # because every cost is positive
    params, costs = (Fraction(1, 3), Fraction(2, 5)), (Fraction(1, 7), Fraction(1, 7))
    for matroid in (UniformMatroid(0), PartitionMatroid((frozenset({1, 2}),), (0,))):
        inst = Instance(WeightedMatroidRank(params, matroid), costs)
        assert greedy_demand(inst, 1).actions == ()
        assert v_value(inst, 1) == 0
        assert succ_gs(inst, 0) is None


def test_successors_at_one_and_lcm_lift():
    # denominators 3, 5 and 15: critical values 1/3 (action 2) and 1 (action 1)
    inst = Instance(
        Additive((Fraction(2, 3), Fraction(1, 5))), (Fraction(2, 3), Fraction(1, 15))
    )
    assert succ_gs(inst, 0) == Fraction(1, 3)
    assert succ_gs(inst, Fraction(1, 3)) == 1
    assert succ_gs(inst, 1) is None
    assert v_value(inst, 1) == Fraction(13, 15)
    assert greedy_demand(inst, 1).step_utilities == (Fraction(2, 15), Fraction(0))

    # unit demand: the jump at 1 is a replacement ratio (3/4 - 1/4) / (1 - 1/2)
    # of action 2 against action 1; the entry ratio of action 2 is 3/2
    inst = Instance(UnitDemand((Fraction(1, 2), Fraction(1))), (Fraction(1, 4), Fraction(3, 4)))
    assert succ_gs(inst, 0) == Fraction(1, 2)
    assert succ_gs(inst, Fraction(1, 2)) == 1
    assert v_value(inst, 1) == 1
