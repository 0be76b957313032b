import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from combicontracts import (
    BRUTE_FORCE_LIMIT,
    Additive,
    Coverage,
    DegenerateInstanceError,
    DomainError,
    ExplicitTable,
    GeneralContract,
    GeneralInstance,
    Instance,
    ResourceLimitError,
    UnitDemand,
    VOracle,
    embed_binary,
    linearize,
    optimal_contract,
    optimal_linear_general,
    sample_instance,
    validate_general,
    worst_case_utility_twopoint,
)
from combicontracts.demand import brute_force_demand
from combicontracts.generators import SAMPLE_CLASSES

from conftest import Doubled, uncapped_profile
from references import (
    cost_of,
    random_tabular_contract,
    two_point_family,
    utility_under_family,
)


def single_action(f1=Fraction(1, 2), c1=Fraction(1, 10)) -> Instance:
    return Instance(Additive((f1,)), (c1,))


def binary_best_response(inst, t0, t1):
    """(principal utility, f) at the agent's best response to the binary
    contract (t0, t1), ties to the principal, by a scan over all 2**n sets."""
    best = best_f = None
    for mask in range(1 << inst.n):
        fs = inst.f.value_mask(mask)
        pay = t0 + fs * (t1 - t0)
        key = (pay - cost_of(inst, mask), fs - pay)
        if best is None or key > best:
            best, best_f = key, fs
    return best[1], best_f


def binary_principal_utility(inst, t0, t1):
    return binary_best_response(inst, t0, t1)[0]


def test_reduce_binary_never_hurts_principal(small_corpus):
    # the linear slope that keeps the expected payment at the agent's best
    # response f to (t0, t1): alpha f = (1 - f) t0 + f t1, capped at 1
    rng = random.Random(17)
    for inst in small_corpus[:18]:
        for _ in range(4):
            t0 = Fraction(rng.randint(0, 8), 16)
            t1 = Fraction(rng.randint(0, 16), 16)
            before, f = binary_best_response(inst, t0, t1)
            alpha = 0 if f == 0 else min(t0 / f + t1 - t0, Fraction(1))
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
    with pytest.raises(DomainError, match="duplicate reward level"):
        GeneralContract.tabular([(Fraction(1, 2), 0), ("1/2", Fraction(1, 4))])
    with pytest.raises(DomainError, match="payments: expected a sequence, got 5"):
        GeneralContract.tabular(5)
    with pytest.raises(DomainError, match=r"payment rows must be \(level, payment\) pairs"):
        GeneralContract(payments=((1,),))


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
        validate_general(ginst)
    bad = GeneralInstance(
        costs=(Fraction(1, 10),),
        rewards=(Fraction(0), Fraction(1)),
        distributions=(
            ExplicitTable(1, (Fraction(1), Fraction(1, 2))),
            ExplicitTable(1, (Fraction(0), Fraction(1, 4))),
        ),
    )
    with pytest.raises(DomainError, match="sum to"):
        validate_general(bad)

    # a structural R is not enumerated: 2**40 sets would never finish
    big = sample_instance("additive", 40, 12, seed=1)
    validate_general(embed_binary(big))
    # an expected reward cannot pass the largest reward level
    over = GeneralInstance(
        costs=(Fraction(1, 8),) * 2,
        rewards=(Fraction(0), Fraction(1)),
        expected=Additive((Fraction(3, 4), Fraction(1, 2))),
    )
    with pytest.raises(
        DomainError, match="^expected reward of the full set exceeds the largest reward level$"
    ):
        validate_general(over)

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


def three_outcome(tables, n=2):
    return GeneralInstance(
        costs=(Fraction(1, 8),) * n,
        rewards=(Fraction(0), Fraction(1, 2), Fraction(1)),
        distributions=tuple(ExplicitTable(n, t) for t in tables),
    )


@pytest.mark.parametrize(
    "tables, violations",
    [
        (
            [["1", "2/3", "1/2", "1/4"], ["0", "1/3", "1/4", "1/3"], ["0", "0", "1/4", "1/2"]],
            ("outcome probabilities sum to 13/12 on mask 3",),
        ),
        (
            [["1", "2/3", "1/2", "1/4"], ["0", "1/3", "1/4", "1/4"], ["0", "1", "1/4", "1/2"]],
            ("outcome probabilities sum to 2 on mask 1",),
        ),
        (
            [["2", "2/3", "1/2", "1/4"], ["0", "1/3", "1/4", "1/4"], ["0", "0", "1/4", "1/2"]],
            ("outcome probabilities sum to 2 on mask 0",),
        ),
        (
            [["1", "2/3", "3/4", "1/4"], ["0", "1/3", "1/2", "1/4"], ["0", "0", "-1/4", "1/2"]],
            ("negative outcome probability on mask 2",),
        ),
        (
            [["1", "4/3", "1/2", "1/4"], ["0", "-1/3", "1/4", "1/4"], ["0", "0", "1/4", "1/2"]],
            ("negative outcome probability on mask 1",),
        ),
        # a 1/3 grid next to 1/4 grids: one common denominator, 12
        (
            [["1", "2/3", "1/2", "0"], ["0", "1/4", "1/4", "1/4"], ["0", "0", "1/4", "3/4"]],
            ("outcome probabilities sum to 11/12 on mask 1",),
        ),
        ([["1", "2/3", "1/2", "0"], ["0", "1/3", "1/4", "1/4"], ["0", "0", "1/4", "3/4"]], ()),
        # R = (1/4, 1/4, 3/8, 5/8), then R = (0, 1, 0, 1/2)
        (
            [["1/2", "1/2", "1/2", "1/4"], ["1/2", "1/2", "1/4", "1/4"], ["0", "0", "1/4", "1/2"]],
            ("expected reward of the empty set is not 0",),
        ),
        (
            [["1", "0", "1", "1/2"], ["0", "0", "0", "0"], ["0", "1", "0", "1/2"]],
            ("expected reward is not monotone",),
        ),
    ],
)
def test_validate_general_messages(tables, violations):
    """Each row names the one violation ``validate_general`` raises, or none."""
    ginst = three_outcome(tables)
    if not violations:
        validate_general(ginst)
        return
    (violation,) = violations
    with pytest.raises(DomainError, match=f"^{re.escape(violation)}$"):
        validate_general(ginst)


def test_distributions_must_be_tables_of_n_actions():
    half = (Fraction(1, 2),) * 2
    with pytest.raises(DomainError, match="distributions must be explicit tables"):
        GeneralInstance(half, (0, 1), distributions=(Additive(half), Additive(half)))
    subclass = type("Table", (ExplicitTable,), {})
    tables = (subclass(2, (1, 0, 0, 0)), subclass(2, (0, 1, 1, 1)))
    with pytest.raises(DomainError, match="distributions must be explicit tables"):
        GeneralInstance(half, (0, 1), distributions=tables)
    with pytest.raises(DomainError, match="unknown function class Doubled"):
        GeneralInstance(half, (0, 1), expected=Doubled(half))
    one_action = (ExplicitTable(1, (1, Fraction(1, 2))), ExplicitTable(1, (0, Fraction(1, 2))))
    with pytest.raises(DomainError, match="distribution table size mismatch"):
        GeneralInstance(half, (0, 1), distributions=one_action)
    with pytest.raises(DomainError, match="distributions: expected a sequence, got 5"):
        GeneralInstance(half, (0, 1), distributions=5)
    with pytest.raises(DomainError, match="rewards: expected a sequence, got 5"):
        GeneralInstance(half, 5, expected=Additive(half))


def test_reward_table_is_the_fraction_formula(general_corpus):
    """R(S) = sum_j r_j P_j(S), summed here in Fractions, on seeded
    instances with n <= 8 and outcome tables on different denominators."""
    seeded = []
    for n in range(1, 9):
        for seed in range(3):
            f = sample_instance("table", n, 8, seed=seed).f.table
            g = sample_instance("table", n, 4, seed=seed + 10).f.table
            top = [v / 2 for v in f]
            mid = [v / 3 for v in g]
            low = [1 - a - b for a, b in zip(top, mid)]
            ginst = three_outcome([low, mid, top], n)
            seeded.append(ginst)
            seeded.append(replace(ginst, rewards=(Fraction(1, 7), Fraction(2, 5), Fraction(3))))
    for ginst in list(general_corpus) + seeded:
        expected = tuple(
            sum((r * p for r, p in zip(ginst.rewards, col)), Fraction(0))
            for col in zip(*(tab.table for tab in ginst.distributions))
        )
        assert ginst.reward.table == expected
        if ginst.rewards[0] == 0:  # R(empty set) = 0, so the instance is valid
            validate_general(ginst)


def twopoint_reference(t, ginst):
    return utility_under_family(t, ginst, two_point_family(ginst))


def test_worst_case_matches_the_family_scan(general_corpus):
    # the distribution corpus, embedded binary instances of every class up to
    # n = 7, and an expected-form R in [0, R(A)] that is not monotone
    not_monotone = GeneralInstance(
        costs=(Fraction(1, 8), Fraction(1, 16), Fraction(3, 16)),
        rewards=(Fraction(0), Fraction(1)),
        expected=ExplicitTable(3, tuple(map(Fraction, "0 1/2 1/4 1 1/8 1/4 3/4 1".split()))),
    )
    cases = general_corpus[:16] + [not_monotone]
    for i, klass in enumerate(SAMPLE_CLASSES):
        cases.append(embed_binary(sample_instance(klass, 7 - i % 3, 5, seed=50 + i)))
    checked = 0
    for ginst in cases:
        top = ginst.top_reward
        alphas, _ = uncapped_profile(Instance(ginst.reward, ginst.costs, scale=top))
        mids = [(a + b) / 2 for a, b in zip(alphas, alphas[1:])]
        # 1/alpha for each critical alpha, and a point just above each
        inverses = [1 / a for a in alphas]
        above = [x * (1 + Fraction(1, 1 << 20)) for x in inverses]
        slopes = {Fraction(-1, 4), Fraction(0), Fraction(1), Fraction(5, 4), *alphas, *mids}
        slopes.update(inverses, above)
        for s in slopes:
            if s >= 0:
                t = GeneralContract.linear(s)
                assert worst_case_utility_twopoint(t, ginst) == twopoint_reference(t, ginst)
            for t0 in (Fraction(0), Fraction(1, 8), Fraction(3, 2)):
                if t0 + s * top < 0:
                    continue
                t = GeneralContract.tabular({Fraction(0): t0, top: t0 + s * top})
                assert worst_case_utility_twopoint(t, ginst) == twopoint_reference(t, ginst)
                checked += 1
    assert checked > 500


def test_worst_case_refusals():
    def expected_form(*table, n=2):
        return GeneralInstance(
            costs=(Fraction(1, 8),) * n,
            rewards=(Fraction(0), Fraction(1)),
            expected=ExplicitTable(n, tuple(map(Fraction, table))),
        )

    t = GeneralContract.linear(Fraction(1, 2))
    # R(S) above R(A), or below 0, breaks the two-point family
    for ginst in (expected_form(0, 1, "1/4", "1/2"), expected_form(0, "-1/4", "1/4", "1/2")):
        for call in (worst_case_utility_twopoint, twopoint_reference):
            with pytest.raises(DomainError, match=r"outside \[0, R\(A\)\]"):
                call(t, ginst)
    with pytest.raises(DomainError, match=r"f\(empty set\) != 0"):
        worst_case_utility_twopoint(t, expected_form("1/8", "1/4", "1/4", "1/2"))

    def additive_form(n):
        return GeneralInstance(
            costs=(Fraction(1, 64),) * n,
            rewards=(Fraction(0), Fraction(1)),
            expected=Additive((Fraction(1, 16),) * n),
        )

    assert worst_case_utility_twopoint(t, additive_form(BRUTE_FORCE_LIMIT)) == Fraction(3, 8)
    # a certified R answers past the cap; a coverage R is refused there, after
    # linearize's own checks
    n = BRUTE_FORCE_LIMIT + 1
    assert worst_case_utility_twopoint(t, additive_form(n)) == Fraction(13, 32)
    coverage = GeneralInstance(
        costs=(Fraction(1, 64),) * n,
        rewards=(Fraction(0), Fraction(1)),
        expected=Coverage((Fraction(1, 16),) * n, [[i] for i in range(n)]),
    )
    text = f"^brute force limited to {BRUTE_FORCE_LIMIT} actions, instance has {n}$"
    for s in (Fraction(1, 2), Fraction(3, 2)):
        with pytest.raises(ResourceLimitError, match=text):
            worst_case_utility_twopoint(GeneralContract.linear(s), coverage)
    with pytest.raises(DomainError, match="unobserved reward level 1/3"):
        worst_case_utility_twopoint(GeneralContract.tabular({Fraction(1, 3): 1}), coverage)


@pytest.mark.parametrize("klass, n", [("additive", 40), ("matroid-rank", 100)])
def test_worst_case_asks_v_once(monkeypatch, klass, n):
    """One V query at every slope; past 1 it is the level of the last
    critical value below 1 on the costs c/s, read here from the profile."""
    calls = []
    query = VOracle.__call__
    monkeypatch.setattr(VOracle, "__call__", lambda self, *a: calls.append(a) or query(self, *a))
    ginst = embed_binary(sample_instance(klass, n, 12, seed=5))
    for s in (Fraction(1, 3), Fraction(3, 2)):
        calls.clear()
        got = worst_case_utility_twopoint(GeneralContract.linear(s), ginst)
        assert len(calls) == 1
        if s > 1:
            costs = [c / s for c in ginst.costs]
            profile = optimal_contract(Instance(ginst.reward, costs)).profile
            rs = max((v for a, v in zip(profile.alphas, profile.values) if a < 1), default=0)
            assert got == rs * (1 - s)


def certified_optima(klass, w, c, s) -> tuple:
    """(smallest, largest) R among the agent's optima at slope s, in closed form.
    Additive R takes every action with s*w_i > c_i and any with s*w_i = c_i;
    unit-demand R takes the best single action, or none."""
    if klass is Additive:
        return (
            sum(wi for wi, ci in zip(w, c) if s * wi > ci),
            sum(wi for wi, ci in zip(w, c) if s * wi >= ci),
        )
    options = [(Fraction(0), Fraction(0))] + [(s * wi - ci, wi) for wi, ci in zip(w, c)]
    best = max(u for u, _ in options)
    rs = [wi for u, wi in options if u == best]
    return min(rs), max(rs)


@pytest.mark.parametrize("klass", [Additive, UnitDemand])
@pytest.mark.parametrize("n", [BRUTE_FORCE_LIMIT + 1, 40])
def test_worst_case_of_certified_r_past_the_cap(klass, n):
    # costs 2*w_i**2 put ties on both sides of 1 for both classes
    w = tuple(Fraction(1 + 5 * i % 11, 16) for i in range(n))
    c = tuple(2 * wi * wi for wi in w)
    ginst = GeneralInstance(c, (Fraction(0), Fraction(n)), expected=klass(w))
    top = ginst.top_reward
    # ties: where an action's line crosses zero or another action's line
    ties = {
        s
        for s in {ci / wi for wi, ci in zip(w, c)}
        | {(ci - cj) / (wi - wj) for wi, ci in zip(w, c) for wj, cj in zip(w, c) if wi > wj}
        if s != 1 and len(set(certified_optima(klass, w, c, s))) == 2
    }
    assert min(ties) < 1 < max(ties)
    for s in {Fraction(1, 3), Fraction(1), Fraction(3, 2), *ties}:
        lo, hi = certified_optima(klass, w, c, s)
        rs = hi if s < 1 else lo
        for t0 in (Fraction(0), Fraction(1, 8)):
            t = GeneralContract.tabular({Fraction(0): t0, top: t0 + s * top})
            assert worst_case_utility_twopoint(t, ginst) == rs * (1 - s) - t0


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 2)])
@pytest.mark.parametrize("klass, n", [("additive", 40), ("table", 8)])
def test_worst_case_reads_r_of_the_full_set_once(monkeypatch, klass, n, s):
    """R(A) is a fact of the instance: one payment-table call reads it once,
    though the linearization, the observable levels and the scale all use it."""
    f = sample_instance(klass, n, 12, seed=5).f
    full = (1 << n) - 1
    top = f.value_mask(full)
    ginst = GeneralInstance((Fraction(1, 1 << 12),) * n, (Fraction(0), top), expected=f)
    reads = []
    value_mask = type(f).value_mask
    monkeypatch.setattr(
        type(f), "value_mask", lambda self, m: reads.append(m) or value_mask(self, m)
    )
    t = GeneralContract.tabular({Fraction(0): Fraction(0), top: s * top})
    worst_case_utility_twopoint(t, ginst)
    assert reads.count(full) == 1
