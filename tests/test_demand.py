from fractions import Fraction

import pytest

from combicontracts import (
    ENUMERATION_LIMIT,
    Additive,
    Coverage,
    Instance,
    ResourceLimitError,
    UnitDemand,
    UnsupportedClassError,
    VOracle,
    brute_force_demand,
    canonical_best_response,
    greedy_demand,
    v_value,
)
from combicontracts.contract import CriticalProfile, brute_force_critical_set
from combicontracts.demand import GreedyKernel

from conftest import make_gs_corpus


def probe_points(profile):
    """{0} + criticals + midpoints between consecutive criticals + {1}."""
    points = [Fraction(0)] + list(profile.alphas) + [Fraction(1)]
    for i in range(1, len(profile.alphas)):
        points.append((profile.alphas[i - 1] + profile.alphas[i]) / 2)
    if profile.alphas:
        points.append(profile.alphas[0] / 2)
    return sorted(set(points))


def test_greedy_examples(worked_additive):
    ordered = greedy_demand(worked_additive, Fraction(1, 2))
    assert ordered.actions == (1, 2)
    assert ordered.step_utilities == (Fraction(3, 20), Fraction(0))

    assert greedy_demand(worked_additive, Fraction(1, 10)).actions == ()

    ud = Instance(
        UnitDemand((Fraction(3, 5), Fraction(4, 5))),
        (Fraction(1, 10), Fraction(3, 10)),
    )
    ordered = greedy_demand(ud, Fraction(1, 2))
    assert ordered.actions == (1,)
    assert ordered.step_utilities == (Fraction(1, 5),)


def test_greedy_rejects_uncertified():
    cov = Instance(Coverage((Fraction(1, 2),), (frozenset({0}),)), (Fraction(1, 4),))
    with pytest.raises(UnsupportedClassError):
        greedy_demand(cov, Fraction(1, 2))


def test_greedy_tie_breaking_prefers_costly_then_low_index():
    # both actions have marginal utility 0 at alpha = 1/2; action 2 is costlier
    inst = Instance(
        Additive((Fraction(1, 4), Fraction(1, 2))),
        (Fraction(1, 8), Fraction(1, 4)),
    )
    assert greedy_demand(inst, Fraction(1, 2)).actions == (2, 1)
    # equal costs: the smaller index goes first
    inst2 = Instance(
        Additive((Fraction(1, 4), Fraction(1, 4))),
        (Fraction(1, 8), Fraction(1, 8)),
    )
    assert greedy_demand(inst2, Fraction(1, 2)).actions == (1, 2)


def test_brute_force_demand_worked_table(example_three_action):
    prof = brute_force_demand(example_three_action, Fraction(1))
    assert prof.demand == (frozenset({1, 2}), frozenset({3}))
    assert prof.d_star == (frozenset({3}),)
    assert prof.v == Fraction(3, 5)
    assert canonical_best_response(prof) == frozenset({3})

    # at 1/2 the pair {1,2} ties the singletons and carries the higher f
    prof = brute_force_demand(example_three_action, Fraction(1, 2))
    assert frozenset({1}) in prof.demand
    assert frozenset({2}) in prof.demand
    assert frozenset({1, 2}) in prof.demand
    assert prof.u_agent == Fraction(1, 20)
    assert prof.d_star == (frozenset({1, 2}),)
    assert prof.v == Fraction(1, 2)

    prof = brute_force_demand(example_three_action, 0)
    assert prof.demand == (frozenset(),)
    assert prof.v == 0


def test_v_oracle_examples(example_three_action, worked_additive):
    assert v_value(example_three_action, 1) == Fraction(3, 5)
    assert v_value(example_three_action, Fraction(1, 4)) == 0
    assert v_value(worked_additive, Fraction(1, 2)) == Fraction(9, 10)


def test_canonical_best_response_lexicographic():
    # two disjoint unit-demand ties: {1} and {2} both optimal with equal f
    inst = Instance(
        UnitDemand((Fraction(1, 2), Fraction(1, 2))),
        (Fraction(1, 4), Fraction(1, 4)),
    )
    prof = brute_force_demand(inst, Fraction(1, 2))
    assert prof.d_star == (frozenset({1}), frozenset({2}))
    assert canonical_best_response(prof) == frozenset({1})


def test_voracle_counts_and_dispatch(worked_additive, example_three_action):
    oracle = VOracle(worked_additive)
    assert type(oracle.evaluator) is GreedyKernel
    oracle(Fraction(1, 2))
    oracle(Fraction(1))
    assert oracle.queries == 2
    oracle2 = VOracle(example_three_action)
    assert type(oracle2.evaluator) is CriticalProfile
    with pytest.raises(UnsupportedClassError):
        greedy_demand(example_three_action, Fraction(1, 2))


def test_brute_force_limit():
    def inst(n):
        return Instance(Additive((Fraction(1, 16),) * n), (Fraction(1, 64),) * n)

    # 2**20 rows are the most a scan holds
    n = ENUMERATION_LIMIT.bit_length() - 1
    assert brute_force_demand(inst(n), Fraction(1, 2)).v == Fraction(n, 16)
    with pytest.raises(ResourceLimitError, match=f"^an enumeration of {n + 1} actions needs over"):
        brute_force_demand(inst(n + 1), Fraction(1, 2))


def test_greedy_step_utilities_sane(gs_corpus):
    for inst in gs_corpus[:40]:
        profile = brute_force_critical_set(inst)
        for alpha in probe_points(profile):
            ordered = greedy_demand(inst, alpha)
            utils = ordered.step_utilities
            assert all(u >= 0 for u in utils)
            assert all(utils[i] >= utils[i + 1] for i in range(len(utils) - 1))


def test_demand_monotonicity_and_v_steps():
    # f over any pair from D(alpha1) x D(alpha2) is ordered when alpha1 < alpha2
    for inst in make_gs_corpus(12) + make_gs_corpus(6)[:3]:
        if inst.n > 6:
            continue
        profile = brute_force_critical_set(inst)
        points = probe_points(profile)
        profiles = [brute_force_demand(inst, a) for a in points]
        for p1, p2 in zip(profiles, profiles[1:]):
            max_f1 = max(inst.f.value(s) for s in p1.demand)
            min_f2 = min(inst.f.value(s) for s in p2.demand)
            assert max_f1 <= min_f2
            assert p1.v <= p2.v
        # V equals V at the largest critical value <= alpha (step structure)
        for a, prof in zip(points, profiles):
            below = [v for crit, v in zip(profile.alphas, profile.values) if crit <= a]
            expected = below[-1] if below else Fraction(0)
            assert prof.v == expected


def test_greedy_agrees_with_brute_force(gs_corpus):
    # operational certificate on a slice of the corpus (full corpus: acceptance)
    for inst in gs_corpus[:30]:
        profile = brute_force_critical_set(inst)
        for alpha in probe_points(profile):
            prof = brute_force_demand(inst, alpha)
            greedy_set = greedy_demand(inst, alpha).set
            assert greedy_set in prof.d_star
            assert inst.f.value(greedy_set) == prof.v
