"""The k-bit query path (grid, FPTAS ranking, bisection, Stern-Brocot
descent) runs in ints; these tests pin it to Fraction references written
here: the grid by Fraction powering, V by the separate argmax scan of
``brute_force_demand``, the bisection by Fraction halving and the simplest
fraction by enumerating denominators.
"""

import math
from fractions import Fraction
from itertools import count

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import (  # noqa: E402
    Additive,
    DomainError,
    Instance,
    VOracle,
    brute_force_critical_set,
    brute_force_demand,
    fptas,
    succ_search,
    successor_from_profile,
)
from combicontracts.approx import _simplest_in  # noqa: E402

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


class RecordingOracle(VOracle):
    def __init__(self, inst):
        super().__init__(inst)
        self.asked = []

    def __call__(self, p, q=None):
        self.asked.append((p, q))
        return super().__call__(p, q)


def reference_queries(inst, alpha):
    """V(1), then each midpoint of Fraction halving of (alpha, 1] to width 2**-2k."""
    asked = [Fraction(1)]
    if V(inst, 1) == V(inst, alpha):
        return asked
    lo, hi, v_lo = alpha, Fraction(1), V(inst, alpha)
    while hi - lo > Fraction(1, 4**inst.k):
        mid = (lo + hi) / 2
        asked.append(mid)
        if V(inst, mid) > v_lo:
            hi = mid
        else:
            lo, v_lo = mid, V(inst, mid)
    return asked


def test_succ_search_asks_the_fraction_midpoints(small_corpus, non_gs_corpus):
    for inst in small_corpus[:20] + non_gs_corpus[:10]:
        profile = brute_force_critical_set(inst)
        mids = [(a + b) / 2 for a, b in zip(profile.alphas, profile.alphas[1:])]
        for alpha in [Fraction(0), Fraction(1, 3), *profile.alphas, *mids]:
            oracle = RecordingOracle(inst)
            got = succ_search(inst, alpha, oracle=oracle)
            assert got == successor_from_profile(profile, alpha)
            # int pairs, equal once reduced to the Fraction midpoints
            assert all(type(p) is type(q) is int for p, q in oracle.asked)
            reduced = [Fraction(p, q).as_integer_ratio() for p, q in oracle.asked]
            assert reduced == [a.as_integer_ratio() for a in reference_queries(inst, alpha)]


def least_denominator(lo, hi, lo_open, hi_open):
    def inside(x):
        return (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)

    for q in count(1):
        for p in range(math.floor(lo * q), math.ceil(hi * q) + 1):
            if inside(Fraction(p, q)):
                return Fraction(p, q)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 40),
    st.integers(1, 12),
    st.integers(0, 40),
    st.integers(1, 12),
    st.booleans(),
    st.booleans(),
)
@example(2, 1, 3, 1, True, True)  # integer ends, all four flag combinations
@example(2, 1, 3, 1, True, False)
@example(2, 1, 3, 1, False, True)
@example(2, 1, 3, 1, False, False)
@example(1, 3, 2, 4, True, True)  # unreduced ends
@example(3, 3, 3, 3, False, False)  # a single point
@example(3, 3, 3, 3, True, False)  # empty
def test_simplest_in_is_the_least_denominator(a, b, c, d, lo_open, hi_open):
    lo, hi = Fraction(a, b), Fraction(c, d)
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        with pytest.raises(DomainError, match="empty interval"):
            _simplest_in(a, b, c, d, lo_open, hi_open)
        return
    p, q = _simplest_in(a, b, c, d, lo_open, hi_open)
    assert q > 0 and math.gcd(p, q) == 1
    assert Fraction(p, q) == least_denominator(lo, hi, lo_open, hi_open)
