import hashlib
from fractions import Fraction

import pytest

from combicontracts import (
    Coverage,
    DomainError,
    SubsetSumSpec,
    brute_force_critical_set,
    brute_force_demand,
    coverage_lift_weights,
    coverage_tower,
    gen_exponential_coverage,
    gen_subset_sum,
    normalize,
    optimal_contract,
    perturb_costs,
    sample_instance,
    validate,
)
from combicontracts.functions import value_table
from combicontracts.generators import SAMPLE_CLASSES
from combicontracts.instancefile import dumps_instance

# SHA-256 over the files of every class at n in {1, 3, 8, 12}, k in {4, 8},
# seeds 0-2: a changed draw changes the stored perfbench references too
SAMPLE_DIGEST = "da4d34cc6fb1615a3eb83654841f11a2991b2c06f3454fa5897301daf60d41a7"


def subset_sum_decider(values, target) -> bool:
    """Independent exhaustive decider (bitset dynamic program)."""
    reachable = 1
    for x in values:
        reachable |= reachable << x
    return bool((reachable >> target) & 1)


def test_subset_sum_spec_invariants():
    with pytest.raises(DomainError):
        SubsetSumSpec((3, 9), 8)  # value >= target
    with pytest.raises(DomainError):
        SubsetSumSpec((1, 2), 8)  # sums below target
    with pytest.raises(DomainError):
        SubsetSumSpec((0, 5), 8)
    SubsetSumSpec((3, 5), 8)  # sum == target is allowed (trivially YES)


def test_gen_subset_sum_example():
    inst = gen_subset_sum(SubsetSumSpec((3, 5), 8))
    assert inst.f.values == (Fraction(3, 8), Fraction(5, 8))
    assert inst.f.budget == 1
    # joint scaling by 1/Z: unnormalized costs x/Z**2 become x/Z**3
    assert inst.costs == (Fraction(3, 512), Fraction(5, 512))
    assert validate(inst).ok
    assert inst.meta["target"] == 8

    sol = optimal_contract(inst, "brute")
    assert sol.alpha_star == Fraction(1, 64)
    assert sol.utility == Fraction(63, 64)
    assert sol.actions == frozenset({1, 2})


def test_gen_subset_sum_no_instance_two_criticals():
    inst = gen_subset_sum(SubsetSumSpec((3, 5), 7))
    profile = brute_force_critical_set(inst)
    z, z1, z2 = 7, 8, 5
    # the construction's two predicted criticals (joint scaling keeps them)
    assert profile.alphas == (
        Fraction(1, z * z),
        Fraction(z1 - z2, z * z * (z - z2)),
    )
    sol = optimal_contract(inst, "brute")
    assert sol.alpha_star == profile.alphas[1] != Fraction(1, z * z)


def test_subset_sum_scaled_f_only_would_break_fidelity():
    # X = {2, 7}, Z = 8 is a NO instance (sums 2, 7, 9); with costs x/Z**2
    # against f/Z the first critical 1/Z would win, wrongly flagging YES.
    # The jointly scaled construction keeps the second critical optimal.
    assert not subset_sum_decider([2, 7], 8)
    inst = gen_subset_sum(SubsetSumSpec((2, 7), 8))
    sol = optimal_contract(inst, "brute")
    assert sol.alpha_star != Fraction(1, 64)


def test_subset_sum_reduction_fidelity_small():
    import random

    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(2, 6)
        target = rng.randint(4, 30)
        values = [rng.randint(1, target - 1) for _ in range(n)]
        if sum(values) < target:
            continue
        spec = SubsetSumSpec(tuple(values), target)
        inst = gen_subset_sum(spec)
        sol = optimal_contract(inst, "brute")
        assert (
            sol.alpha_star == Fraction(1, target * target)
        ) == subset_sum_decider(values, target)


def test_tower_base_level():
    inst = gen_exponential_coverage(1)
    assert isinstance(inst.f, Coverage)
    assert inst.f.value([1]) == 2
    assert inst.costs == (Fraction(1),)
    profile = brute_force_critical_set(inst)
    assert profile.alphas == (Fraction(1, 2),)


def test_tower_two_levels_exact():
    inst = gen_exponential_coverage(2)
    f = inst.f
    assert f.value([1]) == 20
    assert f.value([2]) == 200
    assert f.value([1, 2]) == 202
    assert inst.costs == (Fraction(1), Fraction(20))
    profile = brute_force_critical_set(inst)
    assert profile.alphas == (Fraction(1, 20), Fraction(19, 180), Fraction(1, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tower_critical_count(n):
    profile = brute_force_critical_set(gen_exponential_coverage(n))
    assert profile.size == 2**n - 1


def test_tower_rejects_out_of_range():
    with pytest.raises(DomainError):
        gen_exponential_coverage(0)
    with pytest.raises(DomainError):
        gen_exponential_coverage(6)


def test_lift_weights_example():
    lifted = coverage_lift_weights({frozenset({1}): Fraction(2)}, 10, 100)
    assert lifted == {
        frozenset({1}): Fraction(2),
        frozenset({1, 2}): Fraction(18),
        frozenset({2}): Fraction(182),
    }
    assert sum(lifted.values()) == 202


def test_lift_weights_degenerate_betas():
    lifted = coverage_lift_weights({frozenset({1}): Fraction(2)}, 1, 1)
    assert lifted == {frozenset({1}): Fraction(2), frozenset({2}): Fraction(2)}
    with pytest.raises(DomainError):
        coverage_lift_weights({frozenset({1}): Fraction(2)}, 2, 1)
    with pytest.raises(DomainError):
        coverage_lift_weights({frozenset({1}): Fraction(2)}, Fraction(1, 2), 1)


def test_lift_reproduces_level_values():
    tower = coverage_tower(3)
    for prev, cur in zip(tower.levels, tower.levels[1:]):
        prev_f = prev.instance().f
        cur_f = cur.instance().f
        beta_1, beta_2 = cur.beta_1, cur.beta_2
        full_prev = prev_f.value(range(1, prev.n + 1))
        assert all(w >= 0 for _, w in cur.group_weights)
        for mask in range(1 << cur.n):
            actions = [a for a in range(1, cur.n + 1) if mask & (1 << (a - 1))]
            got = cur_f.value(actions)
            inner = [a for a in actions if a != cur.n]
            if cur.n in actions:
                expected = beta_2 * full_prev + prev_f.value(inner)
            else:
                expected = beta_1 * prev_f.value(inner)
            assert got == expected


def test_normalize_tower():
    inst = gen_exponential_coverage(2)
    norm = normalize(inst)
    assert norm.scale == 1
    table = value_table(norm.f)
    assert table[-1] == 1
    assert norm.f.value([1]) == Fraction(20, 202)
    assert norm.f.value([2]) == Fraction(200, 202)
    assert norm.costs == (Fraction(1, 202), Fraction(20, 202))
    assert validate(norm).ok
    # critical set invariant under joint scaling
    assert brute_force_critical_set(norm).alphas == brute_force_critical_set(inst).alphas

    base = normalize(gen_exponential_coverage(1))
    assert base.f.value([1]) == 1
    assert base.costs == (Fraction(1, 2),)
    assert brute_force_critical_set(base).alphas == (Fraction(1, 2),)


def test_normalize_identity_when_normalized():
    inst = sample_instance("additive", 3, 4, seed=2)
    scaled = normalize(inst)
    full = inst.f.value(range(1, 4))
    if full == 1:
        assert scaled == inst


def test_perturb_identity_and_determinism(worked_additive):
    assert perturb_costs(worked_additive, 0, seed=1) == worked_additive
    a = perturb_costs(worked_additive, Fraction(1, 100), seed=7)
    b = perturb_costs(worked_additive, Fraction(1, 100), seed=7)
    c = perturb_costs(worked_additive, Fraction(1, 100), seed=8)
    assert a == b
    assert a != c
    assert all(
        0 <= pc - oc <= Fraction(1, 100)
        for pc, oc in zip(a.costs, worked_additive.costs)
    )
    assert a.f == worked_additive.f


def halve_until(check, inst, seed, start=Fraction(1, 4), tries=40):
    eps = start
    for _ in range(tries):
        if check(perturb_costs(inst, eps, seed=seed)):
            return eps
        eps /= 2
    raise AssertionError("perturbation property did not stabilize")


def test_perturbation_properties_small(example_three_action):
    original = brute_force_critical_set(example_three_action)

    def containment(perturbed):
        for alpha in original.alphas:
            allowed = set(brute_force_demand(example_three_action, alpha).demand)
            got = set(brute_force_demand(perturbed, alpha).demand)
            if not got <= allowed:
                return False
        return True

    def count_monotone(perturbed):
        return (
            brute_force_critical_set(perturbed, beyond_one=True).size
            >= brute_force_critical_set(example_three_action, beyond_one=True).size
        )

    halve_until(containment, example_three_action, seed=21)
    halve_until(count_monotone, example_three_action, seed=22)


def test_sample_instance_valid_all_classes():
    for klass in SAMPLE_CLASSES:
        for seed in (0, 1):
            inst = sample_instance(klass, 5, 6, seed=seed)
            assert validate(inst).ok
            assert inst.k == 6
            assert inst.f.kind == klass
            same = sample_instance(klass, 5, 6, seed=seed)
            assert same == inst
    # many items on a coarse grid, where each per-item cap floors at 2**-k
    for klass, n, k in (("additive", 20, 4), ("matroid-rank", 20, 4), ("coverage", 6, 3),
                        ("coverage", 40, 6), ("table", 8, 4), ("table", 12, 4)):
        for seed in range(8):
            assert validate(sample_instance(klass, n, k, seed)).ok
    assert sample_instance("additive", 3, 4, 0).f.gs_certified
    assert sample_instance("unit-demand", 3, 4, 0).f.gs_certified
    assert sample_instance("matroid-rank", 3, 4, 0).f.gs_certified
    assert not sample_instance("budget-additive", 3, 4, 0).f.gs_certified
    assert not sample_instance("coverage", 3, 4, 0).f.gs_certified
    with pytest.raises(DomainError):
        sample_instance("mystery", 3, 4, 0)

    digest = hashlib.sha256()
    for klass in SAMPLE_CLASSES:
        for n in (1, 3, 8, 12):
            for k in (4, 8):
                for seed in range(3):
                    digest.update(dumps_instance(sample_instance(klass, n, k, seed)).encode())
    assert digest.hexdigest() == SAMPLE_DIGEST
