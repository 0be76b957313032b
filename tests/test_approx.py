import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from combicontracts import (
    Additive,
    DomainError,
    ExplicitTable,
    Instance,
    InvariantError,
    PrecisionError,
    ResourceLimitError,
    VOracle,
    brute_force_critical_set,
    fptas,
    grid_spec,
    optimal_contract,
    sample_instance,
    succ_search,
    successor_from_profile,
)
from combicontracts.cli import main
from combicontracts.instancefile import dump_instance
from combicontracts.rational import MAX_K


def test_grid_spec_example():
    spec = grid_spec(Fraction(1, 2), 4)
    assert spec.size == 4
    assert spec.points == ((1, 2), (3, 4), (7, 8), (15, 16))


def test_grid_reaches_past_every_feasible_contract():
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 7)):
        for k in (1, 2, 5, 8):
            spec = grid_spec(eps, k)
            assert Fraction(*spec.points[-1]) >= 1 - Fraction(1, 2**k)
            # size is the least such m: one fewer power stays above 2**-k
            assert (1 - eps) ** (spec.size - 1) > Fraction(1, 2**k)
            assert (1 - eps) ** spec.size <= Fraction(1, 2**k)


def test_grid_spec_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        grid_spec(Fraction(0), 4)
    with pytest.raises(DomainError):
        grid_spec(Fraction(1), 4)


def test_grid_past_max_grid_is_refused_before_any_query(monkeypatch):
    from combicontracts import approx

    # the cap itself: grids the benchmark and the tests build stay below it
    assert grid_spec(Fraction(1, 100), 12).size < approx.MAX_GRID
    monkeypatch.setattr(approx, "MAX_GRID", 8)
    assert grid_spec(Fraction(1, 2), 8).size == 8  # a grid of exactly the cap
    with pytest.raises(ResourceLimitError, match="over 8 grid points"):
        grid_spec(Fraction(1, 2), 9)

    def no_oracle(inst):
        raise AssertionError("V oracle built for a refused grid")

    monkeypatch.setattr(approx, "VOracle", no_oracle)
    inst = Instance(Additive((Fraction(1, 2),)), (Fraction(1, 4),), k=12)
    with pytest.raises(ResourceLimitError):
        fptas(inst, Fraction(1, 2))


def reference_grid(eps, k):
    """The grid by its definition: 1 - (1-eps)**i until (1-eps)**i <= 2**-k."""
    points, power = [], Fraction(1)
    while power > Fraction(1, 2**k):
        power *= 1 - eps
        points.append(1 - power)
    return tuple(points)


def test_grid_points_match_the_definition():
    for eps in (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
        Fraction(2, 7),
        Fraction(1, 10),
        Fraction(9, 10),
        Fraction(1, 100),
        Fraction(99, 100),
    ):
        for k in range(1, 15):
            spec = grid_spec(eps, k)
            assert tuple(Fraction(*p) for p in spec.points) == reference_grid(eps, k)
            assert spec.size == len(spec.points)
            # int pairs in lowest terms, so each is its Fraction's ratio
            assert all(p == Fraction(*p).as_integer_ratio() for p in spec.points)
            assert all(type(a) is type(b) is int for a, b in spec.points)


def test_grid_size_is_decided_before_any_point(monkeypatch):
    from combicontracts import approx

    # eps = 1/23700 at k = 1 needs about 16427 points: the exact power decides
    for eps, k in ((Fraction(1, 10**5), 4), (Fraction(1, 10**100), 12), (Fraction(1, 23700), 1)):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="needs over 16384 grid points"):
            grid_spec(eps, k)
        assert time.perf_counter() - started < 1
    # around the bounds on the size, against a small cap
    cap = 64
    monkeypatch.setattr(approx, "MAX_GRID", cap)
    by_power = {True: 0, False: 0}
    for k in range(1, 13):
        lo, hi = Fraction(69 * k, 100 * cap), Fraction(7 * k, 10 * cap)
        for i in range(41):
            eps = lo * Fraction(9, 10) + (hi * Fraction(11, 10) - lo * Fraction(9, 10)) * i / 40
            size = len(reference_grid(eps, k))
            if size > cap:
                with pytest.raises(ResourceLimitError):
                    grid_spec(eps, k)
            else:
                assert grid_spec(eps, k).size == size
            if 100 * cap * eps > 69 * k * (1 - eps) and 7 * k > 10 * cap * eps:
                by_power[size > cap] += 1
    assert by_power[True] > 0 and by_power[False] > 0  # both answers of the power


def test_huge_k_is_refused_before_any_grid():
    assert grid_spec(Fraction(1, 2), MAX_K).size == MAX_K
    inst = Instance(Additive((Fraction(1, 2),)), (Fraction(1, 4),), k=1 << 62)
    for call in (
        lambda: grid_spec(Fraction(1, 2), MAX_K + 1),
        lambda: fptas(inst, Fraction(1, 2)),
        lambda: succ_search(inst, Fraction(0)),
        lambda: optimal_contract(inst, "search"),
    ):
        with pytest.raises(ResourceLimitError, match="exceeds the limit"):
            call()


def test_a_range_past_one_at_the_largest_k_names_the_bit_count(tmp_path, capsys):
    # f = 2 at k = 1024 needs 1025 critical bits: the grid is refused by that
    # count, not by a k the file does not declare, and search still answers
    inst = Instance(Additive((2,)), (Fraction(1, 1 << MAX_K),), k=MAX_K, scale=2)
    message = "critical bit count 1025 (k = 1024 plus 1 for the range of f) exceeds the limit 1024"
    with pytest.raises(ResourceLimitError) as info:
        fptas(inst, Fraction(1, 2))
    assert str(info.value) == message
    assert optimal_contract(inst, "search").alpha_star == Fraction(1, 1 << MAX_K + 1)
    path = str(tmp_path / "wide.json")
    dump_instance(inst, path)
    for argv in (["fptas", path, "--epsilon", "1/2"], ["verify", path]):
        capsys.readouterr()
        assert main(argv) == 2
        assert message in capsys.readouterr().err


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


def test_succ_search_null_costs_one_query():
    inst = Instance(Additive((Fraction(1, 2),)), (Fraction(1, 4),), k=2)
    oracle = VOracle(inst)
    assert succ_search(inst, Fraction(1, 2), oracle=oracle) is None
    assert oracle.queries == 1


@pytest.mark.parametrize(
    "levels, match",
    [
        ({0: 2, 1: 1}, "V decreased between alpha and 1"),
        # V(0) < V(1), but V at the first midpoint 1/2 is below V(0)
        ({0: 1, 1: 2}, "V decreased along the bisection"),
    ],
)
def test_succ_search_refuses_a_decreasing_v(levels, match):
    """A stub evaluator answers V(p/q) as levels[p/q] times D, else 0; a
    rise of D leaves the bisection room to halve."""
    inst = sample_instance("coverage", 4, 4, seed=1)
    oracle = VOracle(inst)
    D = oracle.D
    oracle.evaluator = SimpleNamespace(level=lambda p, q: levels.get(Fraction(p, q), 0) * D)
    with pytest.raises(InvariantError, match=match):
        succ_search(inst, 0, oracle=oracle)


def test_succ_search_refuses_a_v_past_the_k_bit_premise():
    """A stub evaluator whose V jumps at 3/17: no fraction with parts at
    most 2**4 lies at the jump, so the bisection narrows to width 2**-8 and
    refuses, after 2k+1 = 9 queries, as only a broken V gets there."""
    inst = sample_instance("additive", 3, 4, seed=1)
    oracle = VOracle(inst)
    D = oracle.D
    oracle.evaluator = SimpleNamespace(level=lambda p, q: D if 17 * p >= 3 * q else 0)
    with pytest.raises(InvariantError, match=r"no fraction .* inside \("):
        succ_search(inst, 0, oracle=oracle)
    assert oracle.queries == 9


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


def fibonacci_instance():
    """(instance, its critical value) at k = 1024: F_1475 / F_1476, the two
    largest consecutive Fibonacci numbers below 2**1024, has about 1475
    continued-fraction terms, all ones, so Stern-Brocot runs have length 1."""
    small, big = 0, 1
    while small + big < 1 << 1024:
        small, big = big, small + big
    k = 1024
    inst = Instance(Additive((Fraction(big, 1 << k),)), (Fraction(small, 1 << k),), k=k)
    return inst, Fraction(small, big)


def test_succ_search_at_k_1024_takes_well_under_a_second():
    inst, critical = fibonacci_instance()
    start = time.perf_counter()
    assert succ_search(inst, 0) == critical
    assert time.perf_counter() - start < 0.5


def test_a_continued_fraction_longer_than_the_recursion_limit(tmp_path, capsys):
    inst, critical = fibonacci_instance()
    assert succ_search(inst, 0) == critical
    path = tmp_path / "fibonacci.json"
    dump_instance(inst, str(path))
    capsys.readouterr()
    assert main(["succ", str(path), "--method", "search", "--alpha", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"successor     {critical}" in lines and "v_queries     2047" in lines
    assert main(["solve", str(path), "--method", "search"]) == 0
    assert f"alpha_star    {critical}" in capsys.readouterr().out.splitlines()
    assert main(["verify", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 10 and all(row.split()[1] == "PASS" for row in rows)
