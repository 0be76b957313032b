"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Criteria 1-6 assert on the rows of ``crosscheck.checks``, the
cross-checks ``verify`` prints, over the seeded corpora; each instance's
rows are computed once per session.  The other criteria freeze expected
values from independent hand evaluation or recompute them here by
independent oracles (exhaustive enumeration, bitset dynamic programming).
"""

import functools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from combicontracts import (
    GeneralContract,
    SubsetSumSpec,
    brute_force_critical_set,
    brute_force_demand,
    coverage_tower,
    embed_binary,
    gen_exponential_coverage,
    gen_subset_sum,
    linearize,
    optimal_contract,
    optimal_linear_general,
    worst_case_utility_twopoint,
)
from combicontracts.contract import ContractSolution
from combicontracts.crosscheck import checks

from conftest import uncapped_profile
from references import perturb_costs, random_tabular_contract, subset_sum_decider


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


@pytest.fixture(scope="session")
def crosscheck_rows():
    """rows(inst, epsilon) -> {check: (status, note)}, cached for the session."""

    @functools.cache
    def rows(inst, epsilon=Fraction(1, 2)):
        return {name: (status, note) for name, status, note in checks(inst, epsilon)}

    return rows


def statuses(rows, *names) -> list:
    return [rows[name][0] for name in names]


def test_criterion_1_demand_oracle_equivalence(gs_corpus, crosscheck_rows):
    with criterion(1, "greedy demand equals brute force on the corpus"):
        assert len(gs_corpus) >= 200
        assert all(inst.n <= 10 and inst.k <= 8 for inst in gs_corpus)
        for inst in gs_corpus:
            rows = crosscheck_rows(inst)
            names = ("v-oracle-vs-brute-demand", "greedy-vs-brute-demand")
            assert statuses(rows, *names) == ["PASS", "PASS"]


def test_criterion_2_successor_equivalence(gs_corpus, non_gs_corpus, crosscheck_rows):
    with criterion(2, "succ backends equal the brute-force successor"):
        for inst in gs_corpus + non_gs_corpus:
            rows = crosscheck_rows(inst)
            gs = "PASS" if inst.f.gs_certified else "SKIP"
            names = ("succ-gs-vs-envelope", "succ-search-vs-envelope", "succ-search-query-bound")
            assert statuses(rows, *names) == [gs, "PASS", "PASS"]


def test_criterion_3_optimal_contract(
    gs_corpus, non_gs_corpus, crosscheck_rows, example_three_action, worked_additive
):
    with criterion(3, "optimal contract matches the envelope on all backends"):
        for inst in gs_corpus + non_gs_corpus:
            methods = "brute+gs+search" if inst.f.gs_certified else "brute+search"
            assert crosscheck_rows(inst)["optimal-contract-backends"] == ("PASS", methods)

        sol = optimal_contract(example_three_action, "brute")
        assert (sol.alpha_star, sol.utility) == (Fraction(1, 2), Fraction(1, 4))

        for method in ("gs", "brute"):
            sol = optimal_contract(worked_additive, method)
            assert (sol.alpha_star, sol.utility) == (Fraction(1, 2), Fraction(9, 20))


def test_criterion_4_critical_bound(gs_corpus, crosscheck_rows):
    with criterion(4, "critical-set size within n(n+1)/2"):
        worst = Fraction(0)
        for inst in gs_corpus:
            status, note = crosscheck_rows(inst)["critical-count-bound"]
            assert status == "PASS"
            size, bound = map(int, note.split(" <= "))
            worst = max(worst, Fraction(size, bound))
        print(f"  max observed size/bound ratio: {worst} ({float(worst):.3f})")


def test_criterion_5_k_bit_critical_values(gs_corpus, non_gs_corpus, crosscheck_rows):
    with criterion(5, "critical values are ratios of k-bit integers"):
        for inst in gs_corpus + non_gs_corpus:
            assert crosscheck_rows(inst)["k-bit-critical-values"] == ("PASS", f"k={inst.k}")


def test_criterion_6_fptas_guarantee(gs_corpus, non_gs_corpus, crosscheck_rows):
    with criterion(6, "FPTAS guarantee and exact query counts"):
        pool = gs_corpus[:60] + non_gs_corpus
        for inst in pool:
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                rows = crosscheck_rows(inst, eps)
                names = ("fptas-guarantee", "fptas-query-count")
                assert statuses(rows, *names) == ["PASS", "PASS"]


def test_criterion_7_exponential_coverage():
    with criterion(7, "coverage tower has 2^n - 1 critical values"):
        for n in (1, 2, 3, 4):
            inst = gen_exponential_coverage(n)
            assert brute_force_critical_set(inst).size == 2**n - 1

        two = brute_force_critical_set(gen_exponential_coverage(2))
        assert two.alphas == (Fraction(1, 20), Fraction(19, 180), Fraction(1, 2))

        tower = coverage_tower(4)
        for prev, cur in zip(tower, tower[1:]):
            weights = dict(cur.group_weights)
            assert all(w >= 0 for w in weights.values())
            prev_f = prev.instance().f
            cur_f = cur.instance().f
            full_prev = prev_f.value(range(1, prev.n + 1))
            for mask in range(1 << cur.n):
                actions = [a for a in range(1, cur.n + 1) if mask & (1 << (a - 1))]
                inner = [a for a in actions if a != cur.n]
                if cur.n in actions:
                    expected = cur.beta_2 * full_prev + prev_f.value(inner)
                else:
                    expected = cur.beta_1 * prev_f.value(inner)
                assert cur_f.value(actions) == expected


def seeded_subset_sum_specs(count=50):
    rng = random.Random("acceptance-subset-sum")
    specs = []
    while len(specs) < count:
        n = rng.randint(2, 10)
        target = rng.randint(4, 60)
        values = [rng.randint(1, target - 1) for _ in range(n)]
        if sum(values) >= target:
            specs.append(SubsetSumSpec(tuple(values), target))
    return specs


def test_criterion_8_hardness_reduction_fidelity():
    with criterion(8, "subset-sum reduction decided by the optimal contract"):
        yes = no = 0
        for spec in seeded_subset_sum_specs():
            inst = gen_subset_sum(spec)
            sol = optimal_contract(inst, "brute")
            z = spec.target
            # YES threshold of the jointly scaled construction (see ledger:
            # scaling f alone, as in f/Z with costs x/Z^2, breaks fidelity)
            is_yes = subset_sum_decider(spec.values, z)
            assert (sol.alpha_star == Fraction(1, z * z)) == is_yes
            if is_yes:
                assert sol.utility == (1 - Fraction(1, z * z)) * 1
                yes += 1
            else:
                no += 1
        assert yes >= 5 and no >= 5
        print(f"  {yes} YES / {no} NO instances, all decided correctly")


def test_criterion_9_perturbation_properties(small_corpus):
    with criterion(9, "perturbations keep demand inside and criticals at least"):
        assert len(small_corpus) >= 50
        assert all(inst.n <= 6 for inst in small_corpus)
        for idx, inst in enumerate(small_corpus):
            original = brute_force_critical_set(inst)
            allowed = {
                alpha: set(brute_force_demand(inst, alpha).demand)
                for alpha in original.alphas
            }
            # demand-change counts compare uncapped: perturbing costs shifts
            # every breakpoint upward, so a jump at exactly 1 would otherwise
            # leave the (0, 1] window and hide a preserved demand change
            full_count = len(uncapped_profile(inst)[0])

            eps = Fraction(1, 8)
            for _ in range(60):
                perturbed = perturb_costs(inst, eps, seed=900 + idx)
                contained = all(
                    set(brute_force_demand(perturbed, alpha).demand) <= allowed[alpha]
                    for alpha in original.alphas
                )
                grew = len(uncapped_profile(perturbed)[0]) >= full_count
                if contained and grew:
                    break
                eps /= 2
            else:
                raise AssertionError(f"instance {idx} never stabilized")


def test_criterion_10_robust_dominance(general_corpus, gs_corpus, non_gs_corpus):
    with criterion(10, "linearization dominates against the two-point family"):
        assert len(general_corpus) >= 100
        assert all(g.n <= 6 and g.m <= 4 for g in general_corpus)
        rng = random.Random("acceptance-robust")
        for ginst in general_corpus:
            for _ in range(10):
                t = random_tabular_contract(ginst, rng)
                linear = GeneralContract.linear(linearize(t, ginst))
                assert worst_case_utility_twopoint(
                    linear, ginst
                ) >= worst_case_utility_twopoint(t, ginst)

        for inst in gs_corpus[:20] + non_gs_corpus[:10]:
            binary: ContractSolution = optimal_contract(inst, "brute")
            general = optimal_linear_general(embed_binary(inst), method="brute")
            assert general.alpha_star == binary.alpha_star
            assert general.utility == binary.utility
