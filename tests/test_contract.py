from fractions import Fraction

import pytest

from combicontracts import (
    Additive,
    DomainError,
    Instance,
    UnsupportedClassError,
    brute_force_critical_set,
    in_bounded_set,
    optimal_contract,
    succ_gs,
    successor_from_profile,
)
from combicontracts.demand import brute_force_demand
from combicontracts.functions import cost_table, value_table

from conftest import make_gs_corpus, make_small_corpus


def pairwise_critical_set(inst):
    """Independent oracle: pairwise-intersection candidates + midpoint V walks.

    Every critical value is the intersection abscissa of two subset lines,
    so collecting all pairwise ratios (including c(S)/f(S) via the empty
    set) and testing V at each candidate against V at the midpoint to its
    left recovers the critical set exactly.  Exponential in n; tests only.
    """
    ftab = value_table(inst.f)
    ctab = cost_table(inst)
    size = 1 << inst.n
    candidates = set()
    for a in range(size):
        for b in range(a + 1, size):
            df = ftab[a] - ftab[b]
            if df == 0:
                continue
            x = (ctab[a] - ctab[b]) / df
            if 0 < x <= 1:
                candidates.add(x)
    criticals = []
    prev = Fraction(0)
    v_prev = brute_force_demand(inst, 0).v
    for x in sorted(candidates):
        v_left = brute_force_demand(inst, (prev + x) / 2).v
        assert v_left == v_prev  # V constant between consecutive candidates
        v_here = brute_force_demand(inst, x).v
        if v_here > v_left:
            criticals.append((x, v_here))
        prev, v_prev = x, v_here
    return criticals


def test_envelope_matches_pairwise_oracle():
    insts = [i for i in make_small_corpus(30) if i.n <= 5][:18]
    assert len(insts) >= 12
    for inst in insts:
        profile = brute_force_critical_set(inst)
        expected = pairwise_critical_set(inst)
        assert list(zip(profile.alphas, profile.values)) == expected


def test_critical_set_worked_table(example_three_action):
    profile = brute_force_critical_set(example_three_action)
    assert profile.alphas == (Fraction(1, 3), Fraction(1, 2), Fraction(1))
    assert profile.values == (Fraction(3, 10), Fraction(1, 2), Fraction(3, 5))
    assert profile.demand_sets == (
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({3}),
    )


def test_additive_critical_set_is_cost_value_ratios():
    for inst in make_gs_corpus(9):
        if inst.f.kind != "additive" or inst.n > 8:
            continue
        expected = sorted(
            {
                c / v
                for v, c in zip(inst.f.values, inst.costs)
                if v > 0 and c / v <= 1
            }
        )
        profile = brute_force_critical_set(inst)
        assert list(profile.alphas) == expected


def test_empty_critical_set_when_nothing_incentivizable():
    inst = Instance(Additive((Fraction(1, 8),)), (Fraction(1, 2),))
    profile = brute_force_critical_set(inst)
    assert profile.alphas == ()
    sol = optimal_contract(inst, "brute")
    assert sol.alpha_star == 0 and sol.utility == 0 and sol.actions == frozenset()


def test_succ_gs_examples(worked_additive):
    assert succ_gs(worked_additive, 0) == Fraction(1, 5)
    assert succ_gs(worked_additive, Fraction(1, 5)) == Fraction(1, 2)
    assert succ_gs(worked_additive, Fraction(1, 2)) is None


def test_succ_gs_rejects_uncertified(example_three_action):
    with pytest.raises(UnsupportedClassError):
        succ_gs(example_three_action, 0)


def test_succ_gs_equals_envelope_successor(gs_corpus):
    for inst in gs_corpus[:60]:
        profile = brute_force_critical_set(inst)
        starts = [Fraction(0)] + list(profile.alphas)
        for alpha in starts:
            assert succ_gs(inst, alpha) == successor_from_profile(profile, alpha)


def test_optimal_contract_examples(worked_additive, example_three_action):
    sol = optimal_contract(worked_additive, "gs")
    assert (sol.alpha_star, sol.utility) == (Fraction(1, 2), Fraction(9, 20))
    assert sol.actions == frozenset({1, 2})

    # one action: agent indifference resolved in the principal's favor
    single = Instance(Additive((Fraction(3, 5),)), (Fraction(1, 5),))
    sol = optimal_contract(single, "gs")
    assert sol.alpha_star == Fraction(1, 3)
    assert sol.utility == Fraction(3, 5) - Fraction(1, 5)

    sol = optimal_contract(example_three_action, "brute")
    assert (sol.alpha_star, sol.utility) == (Fraction(1, 2), Fraction(1, 4))
    assert sol.profile is not None and sol.profile.size == 3


def test_non_positive_costs_are_refused():
    # a free action gives V(0) = 1/2, so walking successors from V(0) = 0
    # would be wrong: such instances cannot be built
    with pytest.raises(DomainError, match="action 1"):
        Instance(Additive((Fraction(1, 2),)), (0,), k=1)
    with pytest.raises(DomainError, match="action 2"):
        Instance(Additive((Fraction(1, 2), Fraction(1, 4))), (Fraction(1, 8), -1))


def test_backends_agree(gs_corpus):
    for inst in gs_corpus[:45]:
        ref = optimal_contract(inst, "brute")
        for method in ("gs", "search"):
            sol = optimal_contract(inst, method)
            assert (sol.alpha_star, sol.utility) == (ref.alpha_star, ref.utility)


def test_alpha_star_lies_on_profile(gs_corpus):
    for inst in gs_corpus[:40]:
        profile = brute_force_critical_set(inst)
        sol = optimal_contract(inst, "brute")
        options = [(Fraction(0), Fraction(0))] + [
            (a, (1 - a) * v) for a, v in zip(profile.alphas, profile.values)
        ]
        best = max(u for _, u in options)
        assert sol.utility == best
        assert sol.alpha_star in {a for a, u in options if u == best}
        # ties resolve to the smallest alpha
        assert sol.alpha_star == min(a for a, u in options if u == best)


def test_gs_critical_bound(gs_corpus):
    for inst in gs_corpus[:60]:
        profile = brute_force_critical_set(inst)
        assert profile.size <= inst.n * (inst.n + 1) // 2


def test_k_bit_critical_values(gs_corpus):
    for inst in gs_corpus[:60]:
        profile = brute_force_critical_set(inst)
        for alpha in profile.alphas:
            assert in_bounded_set(alpha, inst.k)


def test_profile_rows_match_demand_oracle(gs_corpus, example_three_action):
    from combicontracts.demand import canonical_best_response
    from combicontracts.demand import v_value

    for inst in gs_corpus[:15] + [example_three_action]:
        profile = brute_force_critical_set(inst)
        for alpha, v, dset in zip(profile.alphas, profile.values, profile.demand_sets):
            prof = brute_force_demand(inst, alpha)
            assert prof.v == v
            assert canonical_best_response(prof) == dset
            assert v_value(inst, alpha) == v
