from fractions import Fraction

import pytest

from combicontracts import (
    Additive,
    CriticalProfile,
    DomainError,
    Instance,
    InvariantError,
    UnsupportedClassError,
    VOracle,
    brute_force_critical_set,
    embed_binary,
    optimal_contract,
    optimal_linear_general,
    succ_gs,
    succ_search,
)
from combicontracts import approx, contract
from combicontracts.demand import brute_force_demand
from combicontracts.generators import sample_instance

from conftest import make_gs_corpus


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


def test_unknown_method_is_refused(worked_additive):
    with pytest.raises(DomainError, match="unknown successor method 'nope'"):
        optimal_contract(worked_additive, "nope")
    # an unhashable method is refused, not looked up
    with pytest.raises(DomainError, match=r"unknown successor method \[1\]"):
        optimal_contract(worked_additive, [1])
    with pytest.raises(DomainError, match=r"unknown successor method \[1\]"):
        optimal_linear_general(embed_binary(worked_additive), [1])


def test_non_positive_costs_are_refused():
    # a free action gives V(0) = 1/2, so walking successors from V(0) = 0
    # would be wrong: such instances cannot be built
    with pytest.raises(DomainError, match="action 1"):
        Instance(Additive((Fraction(1, 2),)), (0,), k=1)
    with pytest.raises(DomainError, match="action 2"):
        Instance(Additive((Fraction(1, 2), Fraction(1, 4))), (Fraction(1, 8), -1))


def test_every_method_returns_its_profile(gs_corpus, non_gs_corpus):
    """gs, search and brute all answer from a profile equal to the envelope's;
    actions is the profile row at alpha*."""
    for inst in gs_corpus[:45] + non_gs_corpus:
        envelope = brute_force_critical_set(inst)
        methods = ("gs", "search", "brute") if inst.f.gs_certified else ("search", "brute")
        for method in methods:
            sol = optimal_contract(inst, method)
            profile = sol.profile
            assert isinstance(profile, CriticalProfile)
            assert (profile.alphas, profile.values) == (envelope.alphas, envelope.values)
            if method == "brute" or not inst.f.gs_certified:
                assert profile.demand_sets == envelope.demand_sets
            else:  # the greedy set is a principal-favored best response
                for a, v, dset in zip(profile.alphas, profile.values, profile.demand_sets):
                    assert dset in brute_force_demand(inst, a).d_star and inst.f.value(dset) == v
            if sol.alpha_star == 0:
                assert sol.actions == frozenset()
            else:
                row = profile.alphas.index(sol.alpha_star)
                assert sol.actions == profile.demand_sets[row]
                assert sol.utility == (1 - sol.alpha_star) * profile.values[row]


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


def test_pair_forms_agree_with_fraction_forms(gs_corpus, non_gs_corpus):
    """succ_gs, succ_search and best_response at p/q and at (m*p, m*q) answer
    as at the Fraction p/q; the successors return reduced pairs."""
    for inst in gs_corpus[:30] + non_gs_corpus[:12]:
        points = (Fraction(0),) + brute_force_critical_set(inst).alphas + (Fraction(1),)
        mids = tuple((a + b) / 2 for a, b in zip(points, points[1:]))
        successors = (succ_gs, succ_search) if inst.f.gs_certified else (succ_search,)
        for alpha in points + mids:
            for m in (1, 3):
                p, q = alpha.numerator * m, alpha.denominator * m
                for successor in successors:
                    beta = successor(inst, alpha, oracle=VOracle(inst))
                    pair = successor(inst, p, q, oracle=VOracle(inst))
                    assert pair == (None if beta is None else beta.as_integer_ratio())
                assert VOracle(inst).best_response(p, q) == VOracle(inst).best_response(alpha)


# critical values 1/4 and 1/2; k is declared, so search runs too
DYADIC = Instance(Additive((Fraction(1, 2), Fraction(1, 4))), (Fraction(1, 8), Fraction(1, 8)), k=3)


@pytest.mark.parametrize(
    "pair",
    [(1, 0), (-1, 2), (3, 2), (0.5, 1), (Fraction(1, 2), 1), (True, 1), (1, 2.0)],
    ids=["q-zero", "negative", "above-one", "float-p", "fraction-p", "bool-p", "float-q"],
)
def test_pair_forms_refuse_what_the_oracle_refuses(pair):
    oracle = VOracle(DYADIC)
    calls = (
        oracle,
        oracle.best_response,
        lambda p, q: succ_gs(DYADIC, p, q, oracle=oracle),
        lambda p, q: succ_search(DYADIC, p, q, oracle=oracle),
    )
    for call in calls:
        with pytest.raises(DomainError, match="is not an int pair in"):
            call(*pair)


def stalled_after(module, name, steps):
    """The named successor, answering truly for ``steps`` calls and then
    returning its own alpha, which does not advance."""
    real, calls = getattr(module, name), []

    def successor(inst, p, q=None, **kw):
        calls.append((p, q))
        return real(inst, p, q, **kw) if len(calls) <= steps else (p, q)

    return successor


@pytest.mark.parametrize(
    "module, name, method", [(contract, "succ_gs", "gs"), (approx, "succ_search", "search")]
)
def test_walk_errors_name_the_method_and_the_step(monkeypatch, module, name, method):
    for steps, alpha in ((0, "0/1"), (1, "1/4")):
        monkeypatch.setattr(module, name, stalled_after(module, name, steps))
        message = f"^method '{method}', step from alpha {alpha}: successor {alpha} did not advance$"
        with pytest.raises(InvariantError, match=message):
            optimal_contract(DYADIC, method)
        monkeypatch.undo()


def test_walk_errors_name_the_bound_and_a_flat_step(monkeypatch):
    oracle, successor, level_at, _ = contract._gs_backend(DYADIC)
    with pytest.raises(InvariantError, match="^method 'gs', step from alpha 0/1: .* bound 0$"):
        contract._walk(DYADIC, "gs", oracle, successor, level_at, 0)
    # short of the first critical value, V has not moved yet
    monkeypatch.setattr(contract, "succ_gs", lambda inst, p, q=None, **kw: (p + 1, 10 * q))
    with pytest.raises(
        InvariantError, match="^method 'gs', step from alpha 0/1: V did not increase .* to 1/10$"
    ):
        optimal_contract(DYADIC, "gs")


SETS = (frozenset({1}), frozenset({1, 2}))


@pytest.mark.parametrize(
    "cuts, levels, message",
    [
        (((1, 2), (1, 2)), (1, 2), "critical values not strictly increasing"),
        (((1, 2), (2, 4)), (1, 2), "critical values not strictly increasing"),
        (((2, 3), (1, 2)), (1, 2), "critical values not strictly increasing"),
        (((1, 3), (1, 2)), (2, 2), "V not strictly increasing along criticals"),
        (((1, 3), (1, 2)), (3, 1), "V not strictly increasing along criticals"),
    ],
)
def test_a_profile_out_of_order_is_refused(cuts, levels, message):
    with pytest.raises(InvariantError, match=message):
        CriticalProfile(cuts, levels, 4, SETS)


def test_a_profile_is_kept_in_lowest_terms(example_three_action):
    """Cuts are reduced pairs and levels are over the LCM of the V
    denominators, so a profile given over 3 * D (and unreduced cuts) is the
    same profile, equal and of equal hash, with the same Fraction views."""
    profile = brute_force_critical_set(example_three_action)
    assert profile.cuts == ((1, 3), (1, 2), (1, 1)) and profile.D == 10
    assert profile.levels == (3, 5, 6)
    scaled = CriticalProfile(
        tuple((2 * p, 2 * q) for p, q in profile.cuts),
        tuple(3 * v for v in profile.levels),
        3 * profile.D,
        profile.demand_sets,
    )
    assert scaled == profile and hash(scaled) == hash(profile)
    assert (scaled.cuts, scaled.levels, scaled.D) == (profile.cuts, profile.levels, 10)
    assert (scaled.alphas, scaled.values) == (profile.alphas, profile.values)
    empty = CriticalProfile((), (), 12, ())
    assert empty == CriticalProfile((), (), 1, ()) and empty.values == ()


@pytest.mark.parametrize("n", [13, 16])
def test_tables_past_12_actions_agree_on_brute_and_search(n):
    inst = sample_instance("table", n, 8, seed=1)
    brute, search = (optimal_contract(inst, method) for method in ("brute", "search"))
    assert brute.alpha_star > 0
    assert (brute.alpha_star, brute.utility) == (search.alpha_star, search.utility)
    assert brute.actions in brute_force_demand(inst, brute.alpha_star).d_star


@pytest.mark.parametrize("klass", ["additive", "unit-demand", "matroid-rank"])
def test_the_walks_and_the_envelope_give_one_profile(klass):
    inst = sample_instance(klass, 6, 5, seed=4)
    gs, search = (optimal_contract(inst, method).profile for method in ("gs", "search"))
    envelope = brute_force_critical_set(inst)
    assert gs.size > 1
    assert gs == search == envelope and hash(gs) == hash(search) == hash(envelope)

