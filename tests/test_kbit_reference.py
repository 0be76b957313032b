"""The k-bit query path (grid, FPTAS ranking, bisection, Stern-Brocot
descent) runs in ints; these tests pin it to Fraction references written
here: the grid by Fraction powering, V by the separate argmax scan of
``brute_force_demand`` or by the envelope, the bisection by Fraction
halving, and the simplest fraction and an early stop's lone fraction by
enumerating denominators.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import count, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import (  # noqa: E402
    Additive,
    Instance,
    brute_force_critical_set,
    brute_force_demand,
    fptas,
    succ_search,
    successor_from_profile,
)
from combicontracts.approx import _simplest_in, critical_bits  # noqa: E402
from combicontracts.contract import _search_backend, _walk  # noqa: E402
from conftest import (  # noqa: E402
    RecordingOracle,
    make_gs_corpus,
    make_non_gs_corpus,
    make_small_corpus,
)

SEEDED = make_gs_corpus() + make_non_gs_corpus() + make_small_corpus()

EPSILONS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 7), Fraction(1, 10))


def V(inst, alpha):
    return brute_force_demand(inst, alpha).v


def reference_fptas(inst, eps):
    """Fraction max of (1 - a) * V(a) over 1 - (1-eps)**i, ties to the smallest a."""
    best_alpha, best_util, power = Fraction(0), Fraction(0), Fraction(1)
    while power > Fraction(1, 2**inst.k):
        power *= 1 - eps
        alpha = 1 - power
        util = (1 - alpha) * V(inst, alpha)
        if util > best_util:
            best_alpha, best_util = alpha, util
    return best_alpha, best_util


def test_fptas_matches_the_fraction_argmax(small_corpus, non_gs_corpus):
    # two additive actions whose utilities tie at the grid points 1/2 and 3/4
    tie = Instance(
        Additive((Fraction(1, 4), Fraction(1, 4))), (Fraction(1, 16), Fraction(10, 64)), k=6
    )
    assert reference_fptas(tie, Fraction(1, 2)) == (Fraction(1, 2), Fraction(1, 8))
    nothing = Instance(Additive((Fraction(1, 8),)), (Fraction(3, 8),), k=3)
    for inst in [tie, nothing] + small_corpus[:24] + non_gs_corpus[:12]:
        for eps in EPSILONS:
            sol = fptas(inst, eps)
            assert (sol.alpha_star, sol.utility) == reference_fptas(inst, eps)
            assert type(sol.utility) is Fraction


def reference_bisection(V, alpha, k):
    """The plain bisection of (alpha, 1] to width 2**-2k by Fraction halving:
    V(1), then each midpoint, with the interval (lo, hi] left after each."""
    asked, left = [Fraction(1)], [(alpha, Fraction(1))]
    if V(1) == V(alpha):
        return asked, left
    lo, hi, v_lo = alpha, Fraction(1), V(alpha)
    while hi - lo > Fraction(1, 4**k):
        mid = (lo + hi) / 2
        asked.append(mid)
        if V(mid) > v_lo:
            hi = mid
        else:
            lo, v_lo = mid, V(mid)
        left.append((lo, hi))
    return asked, left


def bounded_fractions(lo, hi, order):
    """Every fraction with denominator at most ``order`` in (lo, hi], by denominator."""
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return {
        Fraction(p, q) for q in range(1, order + 1) for p in range(a * q // b + 1, c * q // d + 1)
    }


def check_fresh_call(inst, V, profile, alpha, k):
    """A call with a fresh oracle: the right successor, a prefix of the plain
    bisection's queries within 2k+1, and an early stop only where the
    interval (lo, hi] left holds one fraction with denominator at most the
    jump bound min(2**k, (V(hi) - V(alpha)) * 2**inst.k)."""
    oracle = RecordingOracle(inst)
    got = succ_search(inst, alpha, oracle=oracle)
    assert got == successor_from_profile(profile, alpha)
    # int pairs, equal once reduced to the Fraction midpoints
    assert all(type(p) is type(q) is int for p, q, _ in oracle.asked)
    reduced = [Fraction(p, q) for p, q, _ in oracle.asked]
    asked, left = reference_bisection(V, alpha, k)
    assert reduced == asked[: len(reduced)] and len(reduced) <= 2 * k + 1
    if len(reduced) < len(asked):
        lo, hi = left[len(reduced) - 1]
        jump = (V(hi) - V(alpha)) * 2**inst.k
        assert jump.denominator == 1 and jump > 0
        assert bounded_fractions(lo, hi, min(2**k, jump.numerator)) == {got}


def test_succ_search_asks_the_fraction_midpoints(small_corpus, non_gs_corpus):
    for inst in small_corpus[:20] + non_gs_corpus[:10]:
        profile = brute_force_critical_set(inst)
        mids = [(a + b) / 2 for a, b in zip(profile.alphas, profile.alphas[1:])]
        for alpha in [Fraction(0), Fraction(1, 3), *profile.alphas, *mids]:
            check_fresh_call(inst, partial(V, inst), profile, alpha, inst.k)


def test_succ_search_resumes_from_the_record_on_its_oracle(small_corpus, non_gs_corpus):
    """Two calls on one oracle, at any two of 0, 1/3 and the critical values:
    each returns the envelope's successor within 2k+1 queries, every query
    goes into the oracle's record, and the record stays ascending in p/q
    with V's levels, which never decrease along it."""
    for inst in small_corpus[:20] + non_gs_corpus[:10]:
        profile, bits = brute_force_critical_set(inst), critical_bits(inst)
        starts = [Fraction(0), Fraction(1, 3), *profile.alphas]
        for first, second in product(starts, starts):
            oracle = RecordingOracle(inst)
            for alpha in (first, second):
                before = oracle.queries
                assert succ_search(inst, alpha, oracle=oracle) == successor_from_profile(
                    profile, alpha
                )
                assert oracle.queries - before <= 2 * bits + 1
            record = oracle._probes
            assert sorted(record) == sorted(oracle.asked)
            points = [Fraction(p, q) for p, q, _ in record]
            levels = [level for _, _, level in record]
            assert points == sorted(set(points)) and levels == sorted(levels)
            assert levels == [V(inst, a) * oracle.D for a in points]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SEEDED), st.sampled_from((1, 2, 3, 4)))
def test_search_is_exact_when_f_exceeds_one(inst, scale):
    """f times 1 to 4 with the same costs and k: the critical values need up
    to ceil(log2 scale) bits beyond k.  The walk, which remembers its probes,
    finds the envelope's profile asking V(1) once; each fresh call is checked
    against the plain bisection on the envelope's V."""
    inst = Instance(inst.f.scaled(scale), inst.costs, k=inst.k, scale=scale)
    profile = brute_force_critical_set(inst)
    top, bits = inst.f.value_mask((1 << inst.n) - 1), inst.k
    while top > 2 ** (bits - inst.k):
        bits += 1
    assert critical_bits(inst) == bits

    oracle = RecordingOracle(inst)
    _, successor, level_at, cap = _search_backend(inst)
    walked, _ = _walk(inst, "search", oracle, successor, level_at, cap)
    assert (walked.alphas, walked.values) == (profile.alphas, profile.values)
    # V at a successor is read from the evaluator, so V(1) is asked once
    assert [Fraction(p, q) for p, q, _ in oracle.asked].count(1) == 1

    def envelope_v(alpha):
        i = bisect_right(profile.alphas, alpha)
        return profile.values[i - 1] if i else Fraction(0)

    mids = [(a + b) / 2 for a, b in zip(profile.alphas, profile.alphas[1:])]
    for alpha in [Fraction(0), *profile.alphas, *mids]:
        check_fresh_call(inst, envelope_v, profile, alpha, bits)


@pytest.mark.parametrize("scale", (1, 3))
def test_a_search_walk_asks_v_once_per_contract_value(scale):
    for inst in SEEDED[::3]:
        inst = Instance(inst.f.scaled(scale), inst.costs, k=inst.k, scale=scale)
        oracle = RecordingOracle(inst)
        _, successor, level_at, cap = _search_backend(inst)
        walked, queries = _walk(inst, "search", oracle, successor, level_at, cap)
        asked = [Fraction(p, q) for p, q, _ in oracle.asked]
        assert len(set(asked)) == len(asked) == queries
        assert walked.alphas == brute_force_critical_set(inst).alphas
        # the search stops with no critical value between a successor and
        # the first probe at or above it, so that probe has the row's level
        probes = oracle._probes
        for (p, q), value in zip(walked.cuts, walked.values):
            level = next(lev for pp, pq, lev in probes if pp * q >= p * pq)
            assert Fraction(level, oracle.D) == value


def least_denominator(lo, hi):
    """The fraction of least denominator in (lo, hi], by enumeration."""
    for q in count(1):
        for p in range(math.floor(lo * q) + 1, math.floor(hi * q) + 1):
            return Fraction(p, q)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 40), st.integers(1, 12), st.integers(0, 40), st.integers(1, 12))
@example(2, 1, 3, 1)  # integer ends
@example(1, 3, 2, 4)  # unreduced ends
@example(0, 1, 1, 40)  # one run of forty equal steps
def test_simplest_in_is_the_least_denominator(a, b, c, d):
    lo, hi = sorted([Fraction(a, b), Fraction(c, d)])
    if lo == hi:
        return
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    L, H, Q = ln * hd, hn * ld, ld * hd
    pa, pb, pc, pd = parents = _simplest_in(L, H, Q)
    assert pb * pc - pa * pd == 1  # adjacent, so (pa+pc)/(pb+pd) is in lowest terms
    assert Fraction(pa + pc, pb + pd) == least_denominator(lo, hi)
    # resumed from these parents, each half finds its own simplest fraction
    for half in ((2 * L, L + H, 2 * Q), (L + H, 2 * H, 2 * Q)):
        pa, pb, pc, pd = _simplest_in(*half, parents)
        assert _simplest_in(*half) == (pa, pb, pc, pd)
        assert Fraction(pa + pc, pb + pd) == least_denominator(
            Fraction(half[0], half[2]), Fraction(half[1], half[2])
        )
