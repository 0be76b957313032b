import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import combicontracts
from combicontracts import (
    Additive,
    Coverage,
    DomainError,
    Instance,
    ResourceLimitError,
    SubsetSumSpec,
    brute_force_critical_set,
    brute_force_demand,
    coverage_lift_weights,
    coverage_tower,
    gen_exponential_coverage,
    gen_subset_sum,
    normalize,
    optimal_contract,
    sample_instance,
    validate,
)
from combicontracts.functions import _CLASSES
from combicontracts.generators import SAMPLE_CLASSES
from combicontracts.instancefile import dumps_instance

from conftest import uncapped_profile
from references import perturb_costs, subset_sum_decider

# SHA-256 over the files of every class at n in {1, 3, 8, 12}, k in {4, 8},
# seeds 0-2: a changed draw changes the stored perfbench references too
SAMPLE_DIGEST = "da4d34cc6fb1615a3eb83654841f11a2991b2c06f3454fa5897301daf60d41a7"
# the same over coarse grids, seeds 0-7: there per-item caps floor at 2**-k,
# so the sampler cuts the values to f(A) = 1 (the table refuses n = 40)
CUT_CASES = ((17, 4), (20, 4), (40, 6), (6, 3), (12, 4), (1, 1), (2, 1))
CUT_DIGEST = "e6e81fd090ea60010b3bb87d6c807f48e3903bc3a0b6e1d362fc498104f9ef1a"


def test_subset_sum_spec_invariants():
    with pytest.raises(DomainError):
        SubsetSumSpec((3, 9), 8)  # value >= target
    with pytest.raises(DomainError):
        SubsetSumSpec((1, 2), 8)  # sums below target
    with pytest.raises(DomainError):
        SubsetSumSpec((0, 5), 8)
    with pytest.raises(DomainError, match="needs at least one value"):
        SubsetSumSpec((), 3)
    # ints only: int() would cut 1.5 and 2.7 to 1 and 2, a different instance
    with pytest.raises(DomainError, match="values: expected an integer, got 1.5"):
        SubsetSumSpec((1.5, 2.7), 3)
    with pytest.raises(DomainError, match="values: expected a sequence, got 5"):
        SubsetSumSpec(5, 3)
    with pytest.raises(DomainError, match="target: expected an integer, got 2.5"):
        SubsetSumSpec((1, 2), 2.5)
    SubsetSumSpec((3, 5), 8)  # sum == target is allowed (trivially YES)


def test_gen_subset_sum_example():
    inst = gen_subset_sum(SubsetSumSpec((3, 5), 8))
    assert inst.f.values == (Fraction(3, 8), Fraction(5, 8))
    assert inst.f.budget == 1
    # joint scaling by 1/Z: unnormalized costs x/Z**2 become x/Z**3
    assert inst.costs == (Fraction(3, 512), Fraction(5, 512))
    validate(inst)
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
    with pytest.raises(DomainError, match="expected an integer, got True"):
        gen_exponential_coverage(True)


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
    with pytest.raises(DomainError, match="over nonempty action sets"):
        coverage_lift_weights({frozenset(): Fraction(2)}, 1, 1)
    with pytest.raises(DomainError, match="must be non-negative"):
        coverage_lift_weights({frozenset({1}): Fraction(-2)}, 1, 1)
    # the new action n + 1 must be new, and every action a positive int
    with pytest.raises(DomainError, match="^n = 1 is below the group action 2$"):
        coverage_lift_weights({frozenset({1, 2}): 1}, 2, 3, n=1)
    for group, match in (({0}, "sets of positive ints"), ({1.5}, "got 1.5"), ({"x"}, "got 'x'")):
        with pytest.raises(DomainError, match=match):
            coverage_lift_weights({frozenset(group): 1}, 2, 3)
    with pytest.raises(DomainError, match="expected a mapping"):
        coverage_lift_weights([(frozenset({1}), 1)], 2, 3)


def test_lift_reproduces_level_values():
    tower = coverage_tower(3)
    for prev, cur in zip(tower, tower[1:]):
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
    assert norm.f.value_mask((1 << norm.n) - 1) == 1
    assert norm.f.value([1]) == Fraction(20, 202)
    assert norm.f.value([2]) == Fraction(200, 202)
    assert norm.costs == (Fraction(1, 202), Fraction(20, 202))
    validate(norm)
    # critical set invariant under joint scaling
    assert brute_force_critical_set(norm).alphas == brute_force_critical_set(inst).alphas

    base = normalize(gen_exponential_coverage(1))
    assert base.f.value([1]) == 1
    assert base.costs == (Fraction(1, 2),)
    assert brute_force_critical_set(base).alphas == (Fraction(1, 2),)

    with pytest.raises(DomainError, match="f of the full set is not positive"):
        normalize(Instance(Additive((Fraction(0),)), (Fraction(1),)))


def test_normalize_identity_when_normalized():
    norm = normalize(sample_instance("additive", 3, 4, seed=2))  # f(A) = 1/2 there
    assert norm.f.value(range(1, 4)) == 1 and norm.k is None
    assert normalize(norm) is norm
    # an instance already normalized keeps its declared k
    inst = Instance(Additive((Fraction(1, 2), Fraction(1, 2))), (Fraction(1, 8),) * 2, k=3)
    assert normalize(inst) is inst


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
        before = len(uncapped_profile(example_three_action)[0])
        return len(uncapped_profile(perturbed)[0]) >= before

    halve_until(containment, example_three_action, seed=21)
    halve_until(count_monotone, example_three_action, seed=22)


def test_sample_instance_valid_all_classes():
    for klass in SAMPLE_CLASSES:
        for seed in (0, 1):
            inst = sample_instance(klass, 5, 6, seed=seed)
            validate(inst)
            assert inst.k == 6
            assert inst.f.kind == klass
            same = sample_instance(klass, 5, 6, seed=seed)
            assert same == inst
    # many items on a coarse grid, where each per-item cap floors at 2**-k
    for klass, n, k in (("additive", 20, 4), ("matroid-rank", 20, 4), ("coverage", 6, 3),
                        ("coverage", 40, 6), ("table", 8, 4), ("table", 12, 4)):
        for seed in range(8):
            validate(sample_instance(klass, n, k, seed))
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


# A kind added to the class list with no sampler branch; run in a fresh
# interpreter, since reloading ``generators`` here would rebind its names.
UNSAMPLED_KIND = """
import importlib
from combicontracts import functions, generators
from combicontracts.errors import DomainError

class Extra(functions.Additive):
    kind = "extra"

functions._CLASSES["extra"] = Extra
importlib.reload(generators)
try:
    generators.sample_instance("extra", 3, 4, 1)
except DomainError as exc:
    print(exc)
"""


def test_sample_instance_refuses_a_kind_it_has_no_branch_for():
    assert set(SAMPLE_CLASSES) == set(_CLASSES)
    package_root = os.path.dirname(os.path.dirname(combicontracts.__file__))
    run = subprocess.run(
        [sys.executable, "-c", UNSAMPLED_KIND],
        env={**os.environ, "PYTHONPATH": package_root},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("unknown class 'extra'"), run.stdout


def test_sample_instance_cut_draws_are_pinned():
    digest = hashlib.sha256()
    for klass in SAMPLE_CLASSES:
        for n, k in CUT_CASES:
            if klass == "table" and n == 40:
                continue
            for seed in range(8):
                digest.update(dumps_instance(sample_instance(klass, n, k, seed)).encode())
    assert digest.hexdigest() == CUT_DIGEST


def test_sample_instance_refuses_integers_too_long_to_seed():
    # the seed string holds str(n) and str(seed), which stop at 4300 digits
    for n, seed in ((3, 10**5000), (3, -(10**5000)), (10**5000, 0)):
        with pytest.raises(DomainError, match="integer of 5001 digits"):
            sample_instance("additive", n, 4, seed)
    validate(sample_instance("additive", 3, 4, 10**4299))


@pytest.mark.parametrize(
    "args, error, match",
    [
        # a bool k was kept, and its file ("k": true) did not load back
        (("unit-demand", 2, True, 0), DomainError, "bit precision .* got True"),
        # a bool n or seed was read as 1 or 0 and seeded the draw as "True"
        (("additive", True, 4, 0), DomainError, "n: expected an integer, got True"),
        (("additive", 3, 4, False), DomainError, "seed: expected an integer, got False"),
        (("additive", 2.5, 4, 0), DomainError, "n: expected an integer, got 2.5"),
        (("additive", 3, 4, 1.5), DomainError, "seed: expected an integer, got 1.5"),
        (("table", 21, 4, 0), ResourceLimitError, "^an enumeration of 21 actions needs over"),
    ],
    ids=["bool k", "bool n", "bool seed", "float n", "float seed", "table too large"],
)
def test_sample_instance_refuses_what_it_cannot_draw(args, error, match):
    with pytest.raises(error, match=match):
        sample_instance(*args)
