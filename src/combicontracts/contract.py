"""The optimal-contract engine.

Successor computation for certified gross-substitutes instances, the
critical-set envelope (an integer sweep over all 2**n subset lines, which
verifies everything and serves V queries on the other classes), and the
generic iterate-the-successors algorithm for the optimal linear contract.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop

from .demand import GreedyKernel, VOracle
from .errors import (
    DomainError,
    InvariantError,
    ResourceLimitError,
    UnsupportedClassError,
)
from .functions import (
    Additive,
    Instance,
    actions_of,
    brute_force_limit,
    lifted_values,
)
from .rational import as_fraction

__all__ = [
    "CriticalProfile",
    "ContractSolution",
    "succ_gs",
    "brute_force_critical_set",
    "successor_from_profile",
    "SUCCESSORS",
    "optimal_contract",
]


@dataclass(frozen=True)
class CriticalProfile:
    """Sorted critical contract values with V values and canonical demand sets.

    V strictly increases along the sorted list; the number of rows is always
    below 2**n and at most n(n+1)/2 for certified gross-substitutes classes.
    """

    alphas: tuple
    values: tuple
    demand_sets: tuple

    def __post_init__(self):
        for i in range(1, len(self.alphas)):
            if not self.alphas[i - 1] < self.alphas[i]:
                raise InvariantError("critical values not strictly increasing")
            if not self.values[i - 1] < self.values[i]:
                raise InvariantError("V not strictly increasing along criticals")

    @property
    def size(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class ContractSolution:
    """An optimal (or approximately optimal) linear contract.

    ``utility`` is the principal's (1 - alpha) * V(alpha); ``actions`` the
    incentivized set; ``profile`` is attached when a full enumeration was
    performed; ``v_queries`` counts V-oracle calls where that is contractual.
    """

    alpha_star: Fraction
    utility: Fraction
    actions: frozenset | None = None
    profile: CriticalProfile | None = None
    v_queries: int | None = None


@lru_cache(maxsize=512)
def brute_force_critical_set(inst: Instance, beyond_one: bool = False) -> CriticalProfile:
    """Exact critical set from the upper envelope of all 2**n subset lines.

    Each subset S induces the agent-utility line alpha -> alpha*f(S) - c(S).
    V(alpha) is the slope of the envelope segment at alpha (the maximal
    slope at breakpoints, matching principal-favoring tie-breaks), so the
    critical set is exactly the envelope breakpoints inside (0, 1].  The
    sweep runs on f = F/Df and c = C/Dc lifted to integers: every critical
    value is the intersection abscissa (C1 - C0)*Df / ((F1 - F0)*Dc) of two
    subset lines, the same finite candidate family the definition
    quantifies over, and only the reported alphas and V values are
    Fractions.

    ``beyond_one`` lifts the upper cap and reports every demand change on
    (0, infinity); cost perturbations shift breakpoints upward, so the
    perturbation-monotonicity law compares these uncapped counts (a jump
    sitting exactly at 1 would otherwise leave the capped window).
    """
    limit = brute_force_limit()
    if inst.n > limit:
        raise ResourceLimitError(
            f"brute force limited to {limit} actions, instance has {inst.n}"
        )
    Df, ftab = lifted_values(inst.f)
    Dc, ctab = lifted_values(Additive(inst.costs))

    # One line per distinct slope F: keep the min cost C and every mask
    # attaining it; those masks are exactly D* on the segment.
    best: dict = {}
    for mask, (F, C) in enumerate(zip(ftab, ctab)):
        cur = best.get(F)
        if cur is None or C < cur[0]:
            best[F] = (C, [mask])
        elif C == cur[0]:
            cur[1].append(mask)

    hull: list = []
    for F, (C, masks) in sorted(best.items()):
        while hull:
            F1, C1, _ = hull[-1]
            if C <= C1:
                # Same-or-lower cost with a higher slope dominates the
                # previous line everywhere on alpha >= 0.
                hull.pop()
                continue
            if len(hull) < 2:
                break
            # The new line meets hull[-2] no later than hull[-1] does.
            F0, C0, _ = hull[-2]
            if (C - C0) * (F1 - F0) <= (C1 - C0) * (F - F0):
                hull.pop()
            else:
                break
        hull.append((F, C, masks))

    # Slopes and costs strictly increase along the hull, so every
    # breakpoint is positive.
    alphas: list = []
    values: list = []
    demand_sets: list = []
    for (F0, C0, _), (F1, C1, masks) in zip(hull, hull[1:]):
        num, den = (C1 - C0) * Df, (F1 - F0) * Dc
        if num > den and not beyond_one:
            break
        alphas.append(Fraction(num, den))
        values.append(Fraction(F1, Df))
        demand_sets.append(frozenset(min(tuple(sorted(actions_of(m))) for m in masks)))
    return CriticalProfile(tuple(alphas), tuple(values), tuple(demand_sets))


def successor_from_profile(profile: CriticalProfile, alpha) -> Fraction | None:
    """Smallest critical value strictly above alpha, or None."""
    alpha = as_fraction(alpha)
    idx = bisect_right(profile.alphas, alpha)
    if idx == len(profile.alphas):
        return None
    return profile.alphas[idx]


def succ_gs(inst: Instance, alpha, *, oracle: VOracle | None = None, v_alpha=None):
    """Successor critical value for a certified instance.

    Builds the greedy ordered set at alpha, then enumerates the finite
    candidate family: replacement ratios
    (c(a) - c(s_i)) / (f(a | prefix) - f(s_i | prefix)) over every action a
    and greedy step i with strictly positive denominator, plus the entry
    ratios c(a) / f(a | S) for actions with positive marginal on top of the
    full greedy set.  Candidates are deduplicated, restricted to
    (alpha, 1], and probed in ascending order with early exit at the first
    one whose V exceeds V(alpha); V-equal candidates are not critical.

    Returns None when no critical value above alpha exists.
    """
    _require_certified(inst)
    if oracle is None:
        oracle = VOracle(inst)
    kernel = oracle.kernel or GreedyKernel(inst)
    alpha, order, _, total = kernel.greedy(alpha)
    if v_alpha is None:
        v_alpha = Fraction(total, kernel.D)

    # Replay the greedy order; gains and costs are integers over the same
    # denominator, so each ratio num/den is already the candidate beta and
    # alpha = p/q < beta <= 1 reads p*den < q*num and num <= den.
    p, q = alpha.numerator, alpha.denominator
    costs = kernel.costs
    state = kernel.gains()
    in_prefix = [False] * inst.n
    candidates = set()
    for s in order:
        g_s, c_s = state.gain(s), costs[s]
        for a in range(inst.n):
            if a == s:
                continue
            den = (0 if in_prefix[a] else state.gain(a)) - g_s
            if den > 0:
                num = costs[a] - c_s
                if p * den < q * num and num <= den:
                    candidates.add(Fraction(num, den))
        state.add(s)
        in_prefix[s] = True
    for a in range(inst.n):
        if not in_prefix[a]:
            den, num = state.gain(a), costs[a]
            if den > 0 and p * den < q * num and num <= den:
                candidates.add(Fraction(num, den))

    # V is monotone: probe upward; a heap skips sorting when early probes hit
    heap = list(candidates)
    heapify(heap)
    while heap:
        beta = heappop(heap)
        if oracle(beta) > v_alpha:
            return beta
    return None


def _require_certified(inst: Instance) -> None:
    if not inst.f.gs_certified:
        raise UnsupportedClassError(
            f"succ_gs requires a greedy-certified class, got {inst.f.kind!r}"
        )


def _gs_backend(inst: Instance):
    _require_certified(inst)  # before any oracle is built
    return VOracle(inst), succ_gs, inst.n * (inst.n + 1) // 2


def _search_backend(inst: Instance):
    from .approx import require_k, succ_search

    oracle = VOracle(inst)  # a missing V oracle is reported before a missing k
    return oracle, succ_search, 1 << (2 * require_k(inst))


# The successor backends, by method.  Each entry checks that the backend
# applies to the instance and returns (counted V oracle, successor, bound on
# the number of critical values).  The successor is looked up when the entry
# runs, so a rebound module attribute is the one called.  "brute" is not a
# successor walk: optimal_contract reads the whole envelope for it.
SUCCESSORS = {"gs": _gs_backend, "search": _search_backend}


def optimal_contract(inst: Instance, method: str = "auto") -> ContractSolution:
    """Optimal linear contract by iterating successors from zero.

    Walks alpha(t+1) = succ(alpha(t)) starting at 0, tracking the argmax of
    (1 - alpha) * V(alpha) including the alpha = 0 baseline; ties go to the
    smallest alpha.  ``method`` picks the successor backend: "gs" (greedy,
    certified classes), "search" (bisection, needs declared k), "brute"
    (envelope enumeration), or "auto" ("gs" on certified classes, else
    "brute").
    """
    if method == "auto":
        method = "gs" if inst.f.gs_certified else "brute"

    if method == "brute":
        # one pass over the envelope: each cached lookup re-hashes the instance
        profile = brute_force_critical_set(inst)
        best_alpha, best_util = Fraction(0), Fraction(0)
        best_set: frozenset = frozenset()
        for a, v, dset in zip(profile.alphas, profile.values, profile.demand_sets):
            u = (1 - a) * v
            if u > best_util:
                best_alpha, best_util, best_set = a, u, dset
        return ContractSolution(
            alpha_star=best_alpha,
            utility=best_util,
            actions=best_set,
            profile=profile,
            v_queries=0,
        )

    if method not in SUCCESSORS:
        raise DomainError(f"unknown successor method {method!r}")
    oracle, successor, step_cap = SUCCESSORS[method](inst)
    alpha, v_alpha = Fraction(0), Fraction(0)
    best_alpha, best_util = alpha, Fraction(0)
    steps = 0
    while True:
        nxt = successor(inst, alpha, oracle=oracle, v_alpha=v_alpha)
        if nxt is None:
            break
        if not nxt > alpha:
            raise InvariantError("successor did not advance")
        steps += 1
        if steps > step_cap:
            raise InvariantError(
                f"successor iteration exceeded the critical-set bound {step_cap}"
            )
        v_next = oracle(nxt)
        if not v_next > v_alpha:
            raise InvariantError("V did not increase across a successor step")
        util = (1 - nxt) * v_next
        if util > best_util:
            best_alpha, best_util = nxt, util
        alpha, v_alpha = nxt, v_next

    return ContractSolution(
        alpha_star=best_alpha,
        utility=best_util,
        actions=frozenset() if best_alpha == 0 else oracle.best_response(best_alpha),
        profile=None,
        v_queries=oracle.queries,
    )
