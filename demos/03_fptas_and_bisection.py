"""Approximation on a geometric grid and the bisection successor.

When every value is a multiple of 2**-k, critical contract values are
ratios of k-bit integers.  Two consequences, both demonstrated here:
a geometric grid of ~k/eps contracts contains a (1-eps)-approximate one,
and a successor query needs at most 2k+1 V evaluations -- bisect, and stop
at the first interval that holds a single k-bit rational, which is the
successor.  The stop comes sooner still: a critical value's denominator is
at most the jump of V there times 2**k, so an interval (lo, hi] over which V
rises by J holds the successor among the fractions of denominator at most
J * 2**k, and the bisection stops once it holds one of those.
"""

from fractions import Fraction as F

from combicontracts import (
    VOracle,
    fptas,
    grid_spec,
    in_bounded_set,
    optimal_contract,
    sample_instance,
    succ_search,
)

inst = sample_instance("budget-additive", 6, 6, seed=12)
print(f"random budget-additive instance, n=6, k=6 (not greedy-certified)")

exact = optimal_contract(inst, "brute")
print(f"exact optimum: alpha* = {exact.alpha_star}, utility {exact.utility}")
print()

for eps in (F(1, 2), F(1, 4), F(1, 8)):
    spec = grid_spec(eps, inst.k)
    sol = fptas(inst, eps)
    ratio = sol.utility / exact.utility if exact.utility else F(1)
    print(
        f"eps = {str(eps):>4}: grid of {spec.size:2d} contracts -> "
        f"alpha = {str(sol.alpha_star):>12}, utility {str(sol.utility):>10} "
        f"(>= {1 - eps} of optimal: {ratio >= 1 - eps})"
    )

print()
print("bisection successor from alpha = 0:")
oracle = VOracle(inst)
nxt = succ_search(inst, F(0), oracle=oracle)
print(f"  succ(0) = {nxt} using {oracle.queries} V queries (bound {2 * inst.k + 1})")

print()
print("the bisection stopped at the first interval holding one fraction whose")
print("denominator is at most the jump of V over it times 2**6:")
print(f"  {nxt} has parts in [2**{inst.k}]: {in_bounded_set(nxt, inst.k)}")
jump = VOracle(inst)(nxt) * 2**inst.k  # V(0) = 0
print(f"  V jumps by {jump}/2**{inst.k} up to it, and {nxt.denominator} <= {jump}")
