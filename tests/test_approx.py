from fractions import Fraction

import pytest

from combicontracts import (
    Additive,
    DomainError,
    ExplicitTable,
    Instance,
    NotFoundError,
    PrecisionError,
    VOracle,
    brute_force_critical_set,
    fptas,
    grid_spec,
    optimal_contract,
    succ_search,
    successor_from_profile,
    unique_rational_in,
)


def test_grid_spec_example():
    spec = grid_spec(Fraction(1, 2), 4)
    assert spec.size == 4
    assert spec.points == (
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(7, 8),
        Fraction(15, 16),
    )


def test_grid_reaches_past_every_feasible_contract():
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 7)):
        for k in (1, 2, 5, 8):
            spec = grid_spec(eps, k)
            assert spec.points[-1] >= 1 - Fraction(1, 2**k)
            # size is the least such m: one fewer power stays above 2**-k
            assert (1 - eps) ** (spec.size - 1) > Fraction(1, 2**k)
            assert (1 - eps) ** spec.size <= Fraction(1, 2**k)


def test_grid_spec_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        grid_spec(Fraction(0), 4)
    with pytest.raises(DomainError):
        grid_spec(Fraction(1), 4)


def test_fptas_single_action_example():
    inst = Instance(Additive((Fraction(1, 2),)), (Fraction(1, 16),), k=4)
    opt = optimal_contract(inst, "brute")
    assert (opt.alpha_star, opt.utility) == (Fraction(1, 8), Fraction(7, 16))
    sol = fptas(inst, Fraction(1, 2))
    assert sol.alpha_star == Fraction(1, 2)
    assert sol.utility == Fraction(1, 4)
    assert sol.utility >= Fraction(1, 2) * opt.utility
    assert sol.v_queries == 4


def test_fptas_exact_when_grid_hits_optimum():
    # critical value 1/2 is itself a grid point for eps = 1/2
    inst = Instance(Additive((Fraction(1, 2),)), (Fraction(1, 4),), k=2)
    opt = optimal_contract(inst, "brute")
    sol = fptas(inst, Fraction(1, 2))
    assert sol.alpha_star == opt.alpha_star == Fraction(1, 2)
    assert sol.utility == opt.utility


def test_fptas_requires_k(worked_additive):
    with pytest.raises(PrecisionError):
        fptas(worked_additive, Fraction(1, 2))


def test_fptas_guarantee_and_query_count(gs_corpus, non_gs_corpus):
    for inst in gs_corpus[:24] + non_gs_corpus[:12]:
        opt = optimal_contract(inst, "brute")
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            sol = fptas(inst, eps)
            assert sol.utility >= (1 - eps) * opt.utility
            assert sol.v_queries == grid_spec(eps, inst.k).size


def enumerate_bounded(lo, hi, k):
    found = set()
    bound = 1 << k
    for b in range(1, bound + 1):
        for a in range(1, bound + 1):
            x = Fraction(a, b)
            if lo < x <= hi:
                found.add(x)
    return found


def test_unique_rational_examples():
    assert unique_rational_in(Fraction(49, 100), Fraction(51, 100), 2) == Fraction(1, 2)
    assert unique_rational_in(Fraction(3, 10), Fraction(17, 50), 2) == Fraction(1, 3)
    with pytest.raises(DomainError):
        unique_rational_in(Fraction(0), Fraction(1), 1)  # width 1 > 1/4


def test_unique_rational_agrees_with_enumeration():
    import random

    rng = random.Random(99)
    for k in (1, 2, 3, 4, 5):
        width_cap = Fraction(1, 1 << (2 * k))
        for _ in range(60):
            target = Fraction(rng.randint(1, 1 << k), rng.randint(1, 1 << k))
            # random half-open window of admissible width ending at/after target
            shrink = Fraction(rng.randint(1, 64), 64)
            width = width_cap * shrink
            offset = width * Fraction(rng.randint(0, 63), 64)
            lo = target - width + offset
            hi = lo + width
            if lo < 0:
                continue
            expected = enumerate_bounded(lo, hi, k)
            if len(expected) == 1:
                assert unique_rational_in(lo, hi, k) == expected.pop()
            elif not expected:
                with pytest.raises(NotFoundError):
                    unique_rational_in(lo, hi, k)


def test_unique_rational_not_found():
    # (1/5, 1/5 + 1/70] contains no fraction with parts <= 4
    lo = Fraction(1, 5)
    hi = lo + Fraction(1, 70)
    with pytest.raises(NotFoundError):
        unique_rational_in(lo, hi, 2)


def test_succ_search_single_action_example():
    inst = Instance(Additive((Fraction(1, 2),)), (Fraction(1, 4),), k=2)
    oracle = VOracle(inst)
    assert succ_search(inst, 0, oracle=oracle) == Fraction(1, 2)
    assert oracle.queries <= 2 * 2 + 1
    assert succ_search(inst, 1) is None


def test_succ_search_needs_valid_k(worked_additive):
    with pytest.raises(PrecisionError):
        succ_search(worked_additive, 0)
    # an instance off its declared grid cannot be built, so never searched
    with pytest.raises(PrecisionError):
        Instance(Additive((Fraction(1, 3),)), (Fraction(1, 4),), k=4)


def test_k_validity_is_checked_on_large_tables():
    # 2**17 parameters, only the last one off the 2**-4 grid
    n = 17
    table = (Fraction(0),) * ((1 << n) - 1) + (Fraction(1, 3),)
    with pytest.raises(PrecisionError):
        Instance(ExplicitTable(n, table), (Fraction(1, 16),) * n, k=4)


def test_succ_search_on_k_valid_three_action_variant():
    # a dyadic variant of the worked 3-action table (k = 6)
    f = ExplicitTable(
        3,
        (
            Fraction(0),
            Fraction(19, 64),
            Fraction(19, 64),
            Fraction(32, 64),
            Fraction(38, 64),
            Fraction(38, 64),
            Fraction(38, 64),
            Fraction(38, 64),
        ),
    )
    inst = Instance(f, (Fraction(7, 64), Fraction(7, 64), Fraction(19, 64)), k=6)
    profile = brute_force_critical_set(inst)
    assert profile.size >= 2
    for alpha in [Fraction(0)] + list(profile.alphas):
        oracle = VOracle(inst)
        assert succ_search(inst, alpha, oracle=oracle) == successor_from_profile(
            profile, alpha
        )
        assert oracle.queries <= 2 * 6 + 1


def test_succ_search_matches_envelope_with_query_bound(gs_corpus, non_gs_corpus):
    for inst in gs_corpus[:20] + non_gs_corpus[:10]:
        profile = brute_force_critical_set(inst)
        for alpha in [Fraction(0)] + list(profile.alphas):
            oracle = VOracle(inst)
            got = succ_search(inst, alpha, oracle=oracle)
            assert got == successor_from_profile(profile, alpha)
            assert oracle.queries <= 2 * inst.k + 1


def test_succ_search_null_costs_one_query():
    inst = Instance(Additive((Fraction(1, 2),)), (Fraction(1, 4),), k=2)
    oracle = VOracle(inst)
    assert succ_search(inst, Fraction(1, 2), oracle=oracle) is None
    assert oracle.queries == 1


def test_fptas_when_nothing_incentivizable():
    # every cost/value ratio above 1: OPT = 0 and the grid returns alpha = 0
    inst = Instance(Additive((Fraction(1, 8),)), (Fraction(3, 8),), k=3)
    assert optimal_contract(inst, "brute").utility == 0
    sol = fptas(inst, Fraction(1, 2))
    assert sol.alpha_star == 0 and sol.utility == 0
    assert sol.actions == frozenset()
    assert sol.v_queries == grid_spec(Fraction(1, 2), 3).size


def test_single_action_end_to_end():
    inst = Instance(Additive((Fraction(3, 4),)), (Fraction(3, 16),), k=4)
    profile = brute_force_critical_set(inst)
    assert profile.alphas == (Fraction(1, 4),)
    for method in ("gs", "search", "brute"):
        sol = optimal_contract(inst, method)
        assert (sol.alpha_star, sol.utility) == (Fraction(1, 4), Fraction(9, 16))
