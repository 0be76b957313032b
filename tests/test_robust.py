import random
from fractions import Fraction

import pytest

from combicontracts import (
    Additive,
    DegenerateInstanceError,
    DomainError,
    ExplicitTable,
    GeneralContract,
    GeneralInstance,
    Instance,
    brute_force_critical_set,
    embed_binary,
    linearize,
    optimal_contract,
    optimal_linear_general,
    reduce_binary_contract,
    sample_instance,
    two_point_family,
    utility_under_family,
    validate_general,
    worst_case_utility_twopoint,
)
from combicontracts.demand import brute_force_demand


def single_action(f1=Fraction(1, 2), c1=Fraction(1, 10)) -> Instance:
    return Instance(Additive((f1,)), (c1,))


def test_reduce_binary_contract_examples():
    inst = single_action()
    assert reduce_binary_contract(Fraction(0), Fraction(2, 5), inst) == Fraction(2, 5)
    # best response has f = 1/2; expected payment (1/2)(1/10) + (1/2)(1/2) = 3/10
    assert reduce_binary_contract(Fraction(1, 10), Fraction(1, 2), inst) == Fraction(3, 5)
    assert reduce_binary_contract(Fraction(0), Fraction(0), inst) == Fraction(0)
    with pytest.raises(DomainError):
        reduce_binary_contract(Fraction(-1, 10), Fraction(0), inst)


def binary_best_response(inst, t0, t1):
    """(principal utility, f) at the agent's best response to the binary
    contract (t0, t1), ties to the principal, by a scan over all 2**n sets."""
    best = best_f = None
    for mask in range(1 << inst.n):
        fs = inst.f.value_mask(mask)
        pay = t0 + fs * (t1 - t0)
        key = (pay - inst.cost_mask(mask), fs - pay)
        if best is None or key > best:
            best, best_f = key, fs
    return best[1], best_f


def binary_principal_utility(inst, t0, t1):
    return binary_best_response(inst, t0, t1)[0]


def test_reduce_binary_contract_matches_scan(small_corpus):
    # the payment-preserving slope at the scanned best response, over
    # t1 < t0, s = t1 - t0 = 0, every breakpoint and midpoint, s = 1, s > 1;
    # the last instance's first breakpoint is 1, where the empty set ties
    for inst in small_corpus + [single_action(c1=Fraction(1, 2))]:
        alphas = brute_force_critical_set(inst, beyond_one=True).alphas
        mids = [(a + b) / 2 for a, b in zip(alphas, alphas[1:])]
        slopes = {Fraction(-1, 4), Fraction(0), Fraction(1), Fraction(5, 4), *alphas, *mids}
        for s in slopes:
            for t0 in (Fraction(0), Fraction(1, 8), Fraction(3, 2)):
                if t0 + s < 0:
                    continue
                _, f = binary_best_response(inst, t0, t0 + s)
                expected = 0 if f == 0 else min(max(t0 / f + s, Fraction(0)), Fraction(1))
                assert reduce_binary_contract(t0, t0 + s, inst) == expected


def test_reduce_binary_never_hurts_principal(small_corpus):
    rng = random.Random(17)
    for inst in small_corpus[:18]:
        for _ in range(4):
            t0 = Fraction(rng.randint(0, 8), 16)
            t1 = Fraction(rng.randint(0, 16), 16)
            alpha = reduce_binary_contract(t0, t1, inst)
            before = binary_principal_utility(inst, t0, t1)
            after = binary_principal_utility(inst, Fraction(0), alpha)
            assert after >= before


def test_linearize_examples():
    inst = Instance(
        Additive((Fraction(1, 2), Fraction(1, 2))), (Fraction(1, 10), Fraction(1, 5))
    )
    g = embed_binary(inst)  # R(A) = 1
    t = GeneralContract.tabular({Fraction(0): Fraction(1, 10), Fraction(1): Fraction(1, 2)})
    assert linearize(t, g) == Fraction(2, 5)
    assert linearize(GeneralContract.tabular({}), g) == 0
    flipped = GeneralContract.tabular(
        {Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 10)}
    )
    assert linearize(flipped, g) == 0


def test_linearize_degenerate():
    g = GeneralInstance(
        costs=(Fraction(1, 10),),
        rewards=(Fraction(0), Fraction(1)),
        distributions=(
            ExplicitTable(1, (Fraction(1), Fraction(1))),
            ExplicitTable(1, (Fraction(0), Fraction(0))),
        ),
    )
    with pytest.raises(DegenerateInstanceError):
        linearize(GeneralContract.linear(Fraction(1, 2)), g)


def test_contract_construction_rules():
    with pytest.raises(DomainError):
        GeneralContract(slope=Fraction(1, 2), payments=((Fraction(0), Fraction(0)),))
    with pytest.raises(DomainError):
        GeneralContract.tabular({Fraction(0): Fraction(-1, 2)})
    with pytest.raises(DomainError):
        GeneralContract.linear(Fraction(-1, 2))


def test_unobserved_levels_rejected():
    g = embed_binary(single_action())
    stray = GeneralContract.tabular({Fraction(1, 3): Fraction(1, 10)})
    with pytest.raises(DomainError):
        worst_case_utility_twopoint(stray, g)


def test_worst_case_examples():
    inst = single_action()
    g = embed_binary(inst)  # R(A) = 1/2
    # linear contract: (1 - alpha) * R(best response), distribution-free
    alpha = Fraction(2, 5)
    wc = worst_case_utility_twopoint(GeneralContract.linear(alpha), g)
    prof = brute_force_demand(inst, alpha)
    assert wc == (1 - alpha) * prof.v
    assert worst_case_utility_twopoint(GeneralContract.linear(0), g) == 0
    # binary embedding evaluates to the binary-model utility for (t0, t1)
    t = GeneralContract.tabular(
        {Fraction(0): Fraction(1, 16), Fraction(1): Fraction(1, 4)}
    )
    assert worst_case_utility_twopoint(t, g) == binary_principal_utility(
        inst, Fraction(1, 16), Fraction(1, 4)
    )


def random_tabular_contract(ginst, rng) -> GeneralContract:
    levels = sorted(ginst.observable_levels())
    table = {}
    for level in levels:
        cap = max(level, Fraction(1)) * 2
        table[level] = cap * Fraction(rng.randint(0, 12), 24)
    return GeneralContract.tabular(table)


def test_linearization_dominates_twopoint(general_corpus):
    rng = random.Random(23)
    for ginst in general_corpus[:30]:
        for _ in range(4):
            t = random_tabular_contract(ginst, rng)
            linear = GeneralContract.linear(linearize(t, ginst))
            assert worst_case_utility_twopoint(
                linear, ginst
            ) >= worst_case_utility_twopoint(t, ginst)


def three_point_family(ginst):
    """A compatible family on {0, R(A)/2, R(A)}: mean R(S) for every set."""
    top = ginst.top_reward

    def family(mask):
        rho = ginst.expected_reward_mask(mask) / top
        p_mid = 2 * rho * (1 - rho)
        p_top = rho * rho
        return (
            (Fraction(0), (1 - rho) ** 2),
            (top / 2, p_mid),
            (top, p_top),
        )

    return family


def test_linear_contract_family_independent(general_corpus):
    for ginst in general_corpus[:20]:
        for alpha in (Fraction(0), Fraction(1, 4), Fraction(2, 3)):
            t = GeneralContract.linear(alpha)
            two = utility_under_family(t, ginst, two_point_family(ginst))
            three = utility_under_family(t, ginst, three_point_family(ginst))
            assert two == three


def test_optimal_linear_general_matches_binary(worked_additive, example_three_action):
    for inst in (worked_additive, example_three_action):
        binary = optimal_contract(inst, "brute")
        general = optimal_linear_general(embed_binary(inst), method="brute")
        assert general.alpha_star == binary.alpha_star
        assert general.utility == binary.utility


def test_optimal_linear_general_expected_form(worked_additive):
    # R = 2 * f keeps the ratios: same alpha*, utility scales with R(A)
    doubled = GeneralInstance(
        costs=tuple(2 * c for c in worked_additive.costs),
        rewards=(Fraction(0), Fraction(2)),
        expected=worked_additive.f.scaled(2),
    )
    sol = optimal_linear_general(doubled)
    ref = optimal_contract(worked_additive)
    assert sol.alpha_star == ref.alpha_star
    assert sol.utility == 2 * ref.utility


def test_optimal_linear_general_degenerate():
    g = GeneralInstance(
        costs=(Fraction(1, 10),),
        rewards=(Fraction(0),),
        distributions=(ExplicitTable(1, (Fraction(1), Fraction(1))),),
    )
    with pytest.raises(DegenerateInstanceError):
        optimal_linear_general(g)


def test_validate_general(general_corpus):
    for ginst in general_corpus[:10]:
        assert validate_general(ginst).ok
    bad = GeneralInstance(
        costs=(Fraction(1, 10),),
        rewards=(Fraction(0), Fraction(1)),
        distributions=(
            ExplicitTable(1, (Fraction(1), Fraction(1, 2))),
            ExplicitTable(1, (Fraction(0), Fraction(1, 4))),
        ),
    )
    report = validate_general(bad)
    assert any("sum to" in v for v in report.violations)

    # a structural R is not enumerated: 2**40 sets would never finish
    big = sample_instance("additive", 40, 12, seed=1)
    assert validate_general(embed_binary(big)).ok
    # an expected reward cannot pass the largest reward level
    over = GeneralInstance(
        costs=(Fraction(1, 8),) * 2,
        rewards=(Fraction(0), Fraction(1)),
        expected=Additive((Fraction(3, 4), Fraction(1, 2))),
    )
    assert validate_general(over).violations == (
        "expected reward of the full set exceeds the largest reward level",
    )

    # what one pass over costs and rewards decides is refused at construction
    f = Additive((Fraction(1, 2), Fraction(1, 4)))
    for costs, rewards, match in (
        ((Fraction(1, 8),), (Fraction(0), Fraction(1)), "1 costs for 2 actions"),
        ((Fraction(1, 8), Fraction(0)), (Fraction(0), Fraction(1)), "action 2"),
        ((Fraction(1, 8),) * 2, (Fraction(-1), Fraction(1)), "negative"),
        ((Fraction(1, 8),) * 2, (), "no reward levels"),
    ):
        with pytest.raises(DomainError, match=match):
            GeneralInstance(costs=costs, rewards=rewards, expected=f)
    with pytest.raises(DomainError, match="empty action set"):
        GeneralInstance(costs=(), rewards=(Fraction(1),), expected=Additive(()))
