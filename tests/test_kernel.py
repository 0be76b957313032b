"""Property tests for the integer greedy kernel against Fraction references.

Every reference here avoids the kernel: brute-force demand enumerates all
subsets through ``lifted_values``, step utilities are rebuilt from
``SuccessFunction.marginal`` (two ``value_mask`` calls in Fractions),
successors come from the envelope sweep, and the greedy order comes from a
Fraction greedy written here.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import (  # noqa: E402
    Additive,
    DomainError,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    UnitDemand,
    VOracle,
    WeightedMatroidRank,
    brute_force_critical_set,
    brute_force_demand,
    greedy_demand,
    optimal_contract,
    sample_instance,
    succ_gs,
    successor_from_profile,
    v_value,
)
from combicontracts.demand import GreedyKernel, _rank  # noqa: E402
from conftest import RecordingOracle, rationals  # noqa: E402

# dyadic, non-dyadic (no k, so the common denominator is a true LCM), mixed
DENOMINATORS = ((1, 2, 4, 8, 16), (3, 5, 7), (2, 3, 4, 5, 7))


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
    return Instance(certified_f(draw, params), costs)


@st.composite
def coarse_instances(draw):
    """Values on the 2**-k grid for k = 1 or 2: equal weights, equal costs,
    zero weights and equal marginal utilities are common."""
    n = draw(st.integers(1, 7))
    unit = 1 << draw(st.integers(1, 2))
    params = tuple(Fraction(draw(st.integers(0, unit)), unit) for _ in range(n))
    costs = tuple(Fraction(draw(st.integers(1, unit)), unit) for _ in range(n))
    return Instance(certified_f(draw, params), costs)


def certified_f(draw, params):
    """A certified f over params; partition capacities include 0."""
    n = len(params)
    klass = draw(st.sampled_from(["additive", "unit-demand", "uniform", "partition"]))
    if klass == "additive":
        return Additive(params)
    if klass == "unit-demand":
        return UnitDemand(params)
    if klass == "uniform":
        return WeightedMatroidRank(params, UniformMatroid(draw(st.integers(0, n + 1))))
    count = draw(st.integers(1, 3))
    owner = [draw(st.integers(0, count - 1)) for _ in range(n)]
    blocks = tuple(frozenset(a + 1 for a in range(n) if owner[a] == b) for b in range(count))
    caps = tuple(draw(st.integers(0, 2)) for _ in range(count))
    return WeightedMatroidRank(params, PartitionMatroid(blocks, caps))


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


def reference_greedy(inst, alpha):
    """The documented rule in Fractions: add an action of largest marginal
    utility while it is >= 0; ties go to the costlier action, then to the
    smaller index."""
    chosen, utils = [], []
    rest = list(range(1, inst.n + 1))
    while rest:
        best_u, _, neg_a = max(
            (alpha * inst.f.marginal(a, chosen) - inst.costs[a - 1], inst.costs[a - 1], -a)
            for a in rest
        )
        if best_u < 0:
            break
        chosen.append(-neg_a)
        utils.append(best_u)
        rest.remove(-neg_a)
    return tuple(chosen), tuple(utils)


def contract_values(draw, inst):
    profile = brute_force_critical_set(inst)
    return draw(
        st.one_of(
            st.sampled_from((Fraction(0), Fraction(1)) + profile.alphas),
            st.fractions(min_value=0, max_value=1, max_denominator=12),
        )
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(inst=st.one_of(coarse_instances(), certified_instances()), data=st.data())
def test_greedy_order_matches_fraction_greedy(inst, data):
    alpha = contract_values(data.draw, inst)
    ordered = greedy_demand(inst, alpha)
    assert (ordered.actions, ordered.step_utilities) == reference_greedy(inst, alpha)


@pytest.mark.parametrize("klass", ["additive", "unit-demand", "matroid-rank"])
def test_greedy_matches_fraction_greedy_at_workload_sizes(klass):
    # the sizes the benchmark solves: at 0, 1, every critical value of the
    # walk and every midpoint between them
    for n in (13, 20, 25):
        for seed in range(4):
            inst = sample_instance(klass, n, 12, seed)
            alphas = optimal_contract(inst, "gs").profile.alphas
            points = (0,) + alphas + (1,)
            mids = tuple((a + b) / 2 for a, b in zip(points, points[1:]))
            kernel = GreedyKernel(inst)
            for alpha in set(map(Fraction, points + mids)):
                ordered = greedy_demand(inst, alpha)
                assert (ordered.actions, ordered.step_utilities) == reference_greedy(
                    inst, alpha
                ), (n, seed, alpha)
                total = kernel.greedy(alpha.numerator, alpha.denominator)[1]
                assert Fraction(total, kernel.D) == inst.f.value(ordered.actions)


def test_repeat_at_the_same_contract_value_keeps_validation():
    # a repeat at the last run's value, reduced or not, is free, and every
    # entry point still refuses a contract value outside [0, 1] after it
    inst = sample_instance("matroid-rank", 6, 4, 0)
    oracle = VOracle(inst)
    last = oracle.evaluator.greedy(1, 2)
    for bad in (0.5, Fraction(3, 2), -1):
        for call in (oracle, oracle.best_response, lambda a: greedy_demand(inst, a)):
            with pytest.raises(DomainError):
                call(bad)
    for pair in ((1, 0), (-1, 2), (3, 2), (0.5, 1), (Fraction(1, 2), 1)):
        with pytest.raises(DomainError):
            oracle(*pair)
    assert oracle(2, 4) == last[1] and oracle.evaluator.greedy(2, 4) is last


def assert_probes_ascend(inst, alpha, profile):
    """succ_gs probes distinct values above alpha in ascending order, and
    every probe before the successor it returns has V = V(alpha)."""
    v_alpha = v_value(inst, alpha)
    oracle = RecordingOracle(inst)
    beta = succ_gs(inst, alpha, oracle=oracle)
    assert beta == successor_from_profile(profile, alpha)
    probes = [(Fraction(p, q), Fraction(level, oracle.D)) for p, q, level in oracle.asked]
    probed = [a for a, _ in probes]
    assert probed == sorted(set(probed)) and all(a > alpha for a in probed)
    misses = probes if beta is None else probes[:-1]
    assert all(v == v_alpha for _, v in misses)
    if beta is not None:
        assert probes[-1] == (beta, v_value(inst, beta)) and v_value(inst, beta) > v_alpha
    return len(misses)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=st.one_of(coarse_instances(), certified_instances()), data=st.data())
def test_succ_gs_probes_strictly_increase(inst, data):
    assert_probes_ascend(inst, contract_values(data.draw, inst), brute_force_critical_set(inst))


def test_succ_gs_probes_strictly_increase_along_sampled_walks():
    # at n >= 8 many candidates are not critical, so probes miss before a hit
    misses = 0
    for klass in ("additive", "unit-demand", "matroid-rank"):
        for k in (3, 6, 12):
            for seed in range(4):
                inst = sample_instance(klass, 9, k, seed)
                profile = brute_force_critical_set(inst)
                for alpha in (Fraction(0),) + profile.alphas:
                    misses += assert_probes_ascend(inst, alpha, profile)
    assert misses > 0


def test_one_greedy_run_per_contract_value(monkeypatch):
    # A solve runs the greedy at most once per probe (none where the level
    # alone answers), once at 0 and at most once for the reported set; the
    # re-query at each successor and the replay's greedy at it reuse the
    # last run.  A call is a run when it returns a new tuple rather than the
    # kernel's previous one.
    runs = []
    greedy = GreedyKernel.greedy

    def counted(kernel, p, q):
        last = kernel._last
        result = greedy(kernel, p, q)
        if result is not last:
            runs.append(Fraction(p, q))
        return result

    monkeypatch.setattr(GreedyKernel, "greedy", counted)
    for klass in ("additive", "unit-demand", "matroid-rank"):
        for seed in range(4):
            inst = sample_instance(klass, 8, 6, seed)
            assert brute_force_critical_set(inst).size > 0
            runs.clear()
            sol = optimal_contract(inst, "gs")
            assert 0 < len(runs) <= sol.v_queries + 3, (klass, seed)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ratio_keys_order_as_the_ratios(data):
    # num * W**2 // den, the key of succ_gs's candidates and of the kernel's
    # entry order, for dens in [1, W]: W = 1 and den = W included
    W = data.draw(st.one_of(st.just(1), st.integers(1, 1 << 14)))
    dens = st.one_of(st.just(W), st.integers(1, W))
    n1, n2 = data.draw(st.integers(0, 3 * W)), data.draw(st.integers(0, 3 * W))
    d1, d2 = data.draw(dens), data.draw(dens)
    k1, k2 = n1 * W * W // d1, n2 * W * W // d2
    assert (k1 < k2) == (Fraction(n1, d1) < Fraction(n2, d2))
    assert (k1 == k2) == (Fraction(n1, d1) == Fraction(n2, d2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=st.one_of(coarse_instances(), certified_instances()), data=st.data())
def test_level_is_the_greedy_total(inst, data):
    # on fresh kernels, so neither reads the other's last run; reduced or not
    alpha, m = contract_values(data.draw, inst), data.draw(st.integers(1, 3))
    p, q = alpha.numerator, alpha.denominator
    kernel = GreedyKernel(inst)
    assert kernel.level(p * m, q * m) == GreedyKernel(inst).greedy(p, q)[1]
    assert kernel.key_scale == max(1, *kernel.weights) ** 2
    entry = [Fraction(c, w) for c, w, _ in kernel._table]
    assert entry == sorted(entry)


@pytest.mark.parametrize("klass", ["additive", "unit-demand", "matroid-rank"])
def test_level_is_the_greedy_total_on_walks(klass):
    # at 0, 1, every critical value and every midpoint, where the eligible
    # actions often exceed the smallest capacity and the greedy runs
    for seed in range(6):
        inst = sample_instance(klass, 12, 8, seed)
        points = (Fraction(0),) + optimal_contract(inst, "gs").profile.alphas + (Fraction(1),)
        mids = tuple((a + b) / 2 for a, b in zip(points, points[1:]))
        for alpha in points + mids:
            p, q = alpha.numerator, alpha.denominator
            level = GreedyKernel(inst).level(p, q)
            assert level == GreedyKernel(inst).greedy(p, q)[1], (seed, alpha)


def test_level_answers_a_whole_prefix_from_sums():
    # blocks {1, 2} (capacity 2) and {3, 4} (capacity 1): at 1/2 the two
    # eligible actions are more than the smallest capacity, yet they fit
    # their block, so the level is their prefix sum and keeps no run
    matroid = PartitionMatroid((frozenset({1, 2}), frozenset({3, 4})), (2, 1))
    weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    costs = (Fraction(1, 8), Fraction(1, 32), Fraction(1, 5), Fraction(9, 40))
    inst = Instance(WeightedMatroidRank(weights, matroid), costs)
    kernel = GreedyKernel(inst)
    assert _rank(kernel._table, 1, 2) == 2 > min(kernel.caps)
    level = kernel.level(1, 2)
    assert kernel._last is None and Fraction(level, kernel.D) == Fraction(3, 4)
    assert level == GreedyKernel(inst).greedy(1, 2)[1]
    # at 1 all four are eligible and the second block overfills: the greedy runs
    assert kernel.level(1, 1) == GreedyKernel(inst).greedy(1, 1)[1]
    assert kernel._last is not None
