"""Agent demand and the counted V oracle.

Greedy demand (exact for certified gross-substitutes classes), exhaustive
demand and the principal-favoring selection; V's two evaluators,
``GreedyKernel`` and the envelope ``brute_force_critical_set``, the
``VOracle`` that picks between them, and the result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd

from .errors import DomainError, InvariantError, UnsupportedClassError
from .functions import Instance, _before, _least_cost_states, _scan_tables, actions_of
from .rational import _shown, as_fraction

__all__ = [
    "OrderedDemand",
    "DemandProfile",
    "CriticalProfile",
    "ContractSolution",
    "greedy_demand",
    "brute_force_demand",
    "brute_force_critical_set",
    "canonical_best_response",
    "v_value",
    "VOracle",
]


@dataclass(frozen=True)
class OrderedDemand:
    """Greedy pick order with the per-step marginal utilities.

    Step utilities are non-negative and non-increasing; zero-utility steps
    are included, which realizes principal-favoring tie-breaking at the
    contract values where the demand changes.
    """

    actions: tuple
    step_utilities: tuple

    @property
    def set(self) -> frozenset:
        return frozenset(self.actions)


@dataclass(frozen=True)
class DemandProfile:
    """Exhaustive demand at one contract value.

    ``demand`` holds every agent-optimal set, ``d_star`` the f-maximizers
    among them (all sharing success probability ``v``); both are sorted by
    their sorted action tuples for determinism.
    """

    demand: tuple
    d_star: tuple
    u_agent: Fraction
    v: Fraction


def _require_certified(inst: Instance, what: str) -> None:
    if not inst.f.gs_certified:
        raise UnsupportedClassError(
            f"{what} requires a greedy-certified class, got {inst.f.kind!r}"
        )


def _pair(p, q=None) -> tuple:
    """A contract value in [0, 1] as an int pair: a Fraction-like p (q None)
    reduced, or ints p/q (q > 0) as given; anything else is a DomainError."""
    if q is None:
        alpha = as_fraction(p)
        p, q = alpha.numerator, alpha.denominator
        if not 0 <= p <= q:  # the denominator is positive
            raise DomainError(f"contract value {_shown(alpha)} outside [0, 1]")
    elif not (type(p) is type(q) is int and 0 <= p <= q and q):
        raise DomainError(f"contract value {p!r}/{q!r} is not an int pair in [0, 1]")
    return p, q


def _rank(cuts, p: int, q: int) -> int:
    """The number of entries (num, den, ...) of ``cuts``, ascending in
    num/den (den > 0), at or below p/q."""
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        if cuts[mid][0] * q <= p * cuts[mid][1]:
            lo = mid + 1
        else:
            hi = mid
    return lo


class GreedyKernel:
    """Exact integer greedy for one certified instance.

    Every f parameter and every cost is an int over D, the LCM of their
    denominators, as ``Instance._lifted`` holds them.  At alpha = p/q the
    agent's marginal utility alpha*g/D - c/D has the sign and order of
    p*g - q*c, so the greedy compares ints and results become Fractions
    only at the API boundary.  All three certified classes are weighted
    matroid ranks of one form, ``f._matroid_form()``: the block of each
    action (``blocks``) and each block's capacity (``caps``); f(S) sums,
    per block, the heaviest weights of S up to the capacity.  ``greedy()``
    runs at most once per contract value.  As a ``VOracle`` evaluator,
    ``level()`` answers V alone, without the order where it can, and
    ``best_response()`` the greedy set.  Actions are 0-based here.
    """

    def __init__(self, inst: Instance):
        _require_certified(inst, "greedy demand")
        self.D, self.weights, self.costs = inst._lifted
        self.blocks, self.caps = inst.f._matroid_form()
        # num/den with den in [1, W], W the largest weight (at least 1), has
        # the exact key num * W**2 // den: distinct ratios differ by >= 1/W**2.
        # The actions with w > 0 as (c, w, a) by c/w, the first _rank(_table,
        # p, q) eligible (p*w >= q*c), and as (w, c, a) heaviest first.
        self.key_scale = scale = max(1, *self.weights) ** 2
        self._table = sorted(
            ((c, w, a) for a, (w, c) in enumerate(zip(self.weights, self.costs)) if w),
            key=lambda t: t[0] * scale // t[1],
        )
        self._sums = tuple(accumulate((t[1] for t in self._table), initial=0))
        self.heaviest = sorted(((w, c, a) for c, w, a in self._table), reverse=True)
        room, self._whole = list(self.caps), 0  # the longest prefix that no block overfills
        for _, _, a in self._table:
            if not room[b := self.blocks[a]]:
                break
            room[b] -= 1
            self._whole += 1
        self._at, self._last = (1, 0), None  # the last run's p/q (1/0 is none) and result

    def greedy(self, p: int, q: int) -> tuple:
        """(order, total): the ``greedy_demand`` rule at the contract value
        p/q (q > 0, reduced or not), in ints; V(p/q) is ``total / D``.

        Sort and cap: the eligible actions (``_table``) are sorted once
        by (q*c - p*w, -c, a), and each is taken while its block has room.
        While a block has room its actions' gains are their weights.  Once
        it is full with lightest pick m, every action a left in it was not
        preferred to m, so q*c_a - p*w_a >= q*c_m - p*w_m and its key with
        gain w_a - w_m is at least q*c_m > 0 (costs are positive): a full
        block is never picked from again, and the greedy is that capped
        walk.  The last run is kept, and a repeat at its value is free.
        """
        lp, lq = self._at
        if p * lq != q * lp:
            self._run(p, q, _rank(self._table, p, q))
        return self._last

    def _run(self, p: int, q: int, count: int) -> None:
        blocks, room = self.blocks, list(self.caps)
        order, total = [], 0
        for _, _, a, w in sorted((q * c - p * w, -c, a, w) for c, w, a in self._table[:count]):
            if room[b := blocks[a]]:
                room[b] -= 1
                order.append(a)
                total += w
        self._at, self._last = (p, q), (tuple(order), total)

    def level(self, p: int, q: int) -> int:
        """V(p/q)*D, the greedy total.  When no block holds more eligible
        actions than its capacity the greedy takes them all, so the total is
        their prefix weight sum: no sort and no run kept."""
        lp, lq = self._at
        if p * lq == q * lp:
            return self._last[1]
        count = _rank(self._table, p, q)
        if count <= self._whole:
            return self._sums[count]
        self._run(p, q, count)
        return self._last[1]

    def best_response(self, p: int, q: int) -> frozenset:
        """The greedy set at p/q, 1-based."""
        return frozenset(a + 1 for a in self.greedy(p, q)[0])


@dataclass(frozen=True)
class CriticalProfile:
    """Sorted critical contract values with V values and demand sets, in ints.

    ``cuts`` holds the critical values as (num, den) pairs and ``levels`` V
    there over ``D``, both kept in lowest terms (D is then the LCM of the V
    denominators), so ``==`` and the hash agree with the Fraction views
    ``alphas`` and ``values``, built on first read.  Both strictly increase;
    there are below 2**n rows, at most n(n+1)/2 for certified classes.
    Demand sets are best responses: the greedy set on certified classes,
    else the canonical one (lexicographically smallest member of D*).
    As a ``VOracle`` evaluator it answers ``level`` and ``best_response`` at
    an int pair from the row at its ``_rank``, and 0 and the empty set below
    the first cut: V jumps exactly at the cuts, and costs are positive.
    """

    cuts: tuple
    levels: tuple
    D: int
    demand_sets: tuple

    def __post_init__(self):
        cuts = tuple([(p // (g := gcd(p, q)), q // g) for p, q in self.cuts])
        g = gcd(self.D, *self.levels)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "levels", tuple([v // g for v in self.levels]))
        object.__setattr__(self, "D", self.D // g)
        if any(a * d >= c * b for (a, b), (c, d) in zip(cuts, cuts[1:])):
            raise InvariantError("critical values not strictly increasing")
        if any(v >= w for v, w in zip(self.levels, self.levels[1:])):
            raise InvariantError("V not strictly increasing along criticals")

    @cached_property
    def alphas(self) -> tuple:
        return tuple([Fraction(p, q) for p, q in self.cuts])

    @cached_property
    def values(self) -> tuple:
        return tuple([Fraction(v, self.D) for v in self.levels])

    @property
    def size(self) -> int:
        return len(self.cuts)

    def level(self, p: int, q: int) -> int:
        i = _rank(self.cuts, p, q)
        return self.levels[i - 1] if i else 0

    def best_response(self, p: int, q: int) -> frozenset:
        i = _rank(self.cuts, p, q)
        return self.demand_sets[i - 1] if i else frozenset()


@dataclass(frozen=True)
class ContractSolution:
    """An optimal (or approximately optimal) linear contract.

    ``utility`` is the principal's (1 - alpha) * V(alpha); ``actions`` the
    incentivized set; ``profile`` the critical profile the answer was read
    from (every ``optimal_contract`` method has one, ``fptas`` does not);
    ``v_queries`` counts V-oracle calls where that is contractual.
    """

    alpha_star: Fraction
    utility: Fraction
    actions: frozenset | None = None
    profile: CriticalProfile | None = None
    v_queries: int | None = None


@lru_cache(maxsize=512)
def brute_force_critical_set(inst: Instance) -> CriticalProfile:
    """Exact critical set from the upper envelope of the subset lines.

    Each subset S induces the agent-utility line alpha -> alpha*f(S) - c(S).
    V(alpha) is the slope of the envelope segment at alpha (the maximal
    slope at breakpoints, matching principal-favoring tie-breaks), so the
    critical set is exactly the envelope breakpoints inside (0, 1].  Only a
    cheapest line per slope can reach the envelope, so the sweep reads one
    row per f-state (``_least_cost_states``) in ints over one denominator
    D: every critical value is (C1 - C0) / (F1 - F0) for two hull lines,
    and V there is F1 / D; the profile takes these ints as they are.
    """
    D, masks, ftab, ctab = _least_cost_states(inst)

    # Per slope F: the least cost C and the canonical mask on it.  A line
    # with C > F lies under the empty set's on [0, 1].
    least, first = {}, {}
    for mask, F, C in zip(masks, ftab, ctab):
        if C > F:
            continue
        c = least.get(F, C + 1)
        if C < c or C == c and _before(mask, first[F]):
            least[F], first[F] = C, mask

    hull: list = []
    for F, C in sorted(least.items()):
        while hull:
            F1, C1 = hull[-1]
            if C <= C1:
                # Same-or-lower cost with a higher slope dominates the
                # previous line everywhere on alpha >= 0.
                hull.pop()
                continue
            if len(hull) < 2:
                break
            # The new line meets hull[-2] no later than hull[-1] does.
            F0, C0 = hull[-2]
            if (C - C0) * (F1 - F0) <= (C1 - C0) * (F - F0):
                hull.pop()
            else:
                break
        hull.append((F, C))

    # Slopes and costs strictly increase along the hull, so every
    # breakpoint is positive.
    cuts, levels, demand_sets = [], [], []
    for (F0, C0), (F1, C1) in zip(hull, hull[1:]):
        if C1 - C0 > F1 - F0:
            break
        cuts.append((C1 - C0, F1 - F0))
        levels.append(F1)
        demand_sets.append(actions_of(first[F1]))
    return CriticalProfile(tuple(cuts), tuple(levels), D, tuple(demand_sets))


def greedy_demand(inst: Instance, alpha) -> OrderedDemand:
    """Ordered demanded set via greedy with principal-favoring tie-breaks.

    Repeatedly adds an action of maximal marginal utility while that
    maximum is >= 0 (zero included).  Ties break toward the action with
    maximal cost, then the smallest index.  Exact for certified classes
    only; others raise UnsupportedClassError.  alpha lies in [0, 1].  The
    step utility of a picked action a is (p*w_a - q*c_a) / (D*q) in the
    kernel's ints at alpha = p/q.
    """
    kernel, (p, q) = GreedyKernel(inst), _pair(alpha)
    w, c, order = kernel.weights, kernel.costs, kernel.greedy(p, q)[0]
    utils = tuple(Fraction(p * w[a] - q * c[a], kernel.D * q) for a in order)
    return OrderedDemand(tuple(a + 1 for a in order), utils)


def _sorted_sets(masks) -> tuple:
    sets = [tuple(sorted(actions_of(m))) for m in masks]
    sets.sort()
    return tuple(frozenset(s) for s in sets)


def brute_force_demand(inst: Instance, alpha) -> DemandProfile:
    """Exhaustive maximization of alpha*f(S) - c(S) over all 2**n subsets.

    With f = F/D and c = C/D lifted to integers over one D and alpha = p/q,
    the agent's utility is (p*F - q*C) / (q*D), so the scan compares ints.
    """
    return _ranked_demand(*_scan_tables(inst), alpha)


def _ranked_demand(D: int, ftab, ctab, alpha) -> DemandProfile:
    p, q = _pair(alpha)
    utils = [p * F - q * C for F, C in zip(ftab, ctab)]
    best_u = max(utils)
    argmax = [m for m, u in enumerate(utils) if u == best_u]
    best_f = max(ftab[m] for m in argmax)
    star = [m for m in argmax if ftab[m] == best_f]
    return DemandProfile(
        demand=_sorted_sets(argmax),
        d_star=_sorted_sets(star),
        u_agent=Fraction(best_u, q * D),
        v=Fraction(best_f, D),
    )


def canonical_best_response(profile: DemandProfile) -> frozenset:
    """Deterministic representative: lexicographically smallest member of D*."""
    return profile.d_star[0]


def v_value(inst: Instance, alpha) -> Fraction:
    """V(alpha): success probability of the principal-favored best response.

    A throwaway ``VOracle``, so this function does not count queries (wrap
    the instance in one VOracle where query complexity matters).
    """
    return VOracle(inst)(alpha)


class VOracle:
    """Counted access to V; the query counter is part of the contract.

    Query-complexity statements (the 2k+1 successor bound, the FPTAS grid
    size) are phrased in V-oracle calls, so callers that need accounting
    route every evaluation through one oracle instance.  The query
    ``oracle(p, q)`` takes a contract value as an int pair (q > 0, reduced
    or not) and returns the int level V(p/q)*D, for a D fixed per oracle,
    so callers compare levels by cross-multiplication; ``oracle(alpha)``
    is its Fraction view, level / D.  Either form counts once, and
    ``best_response`` takes either form too.  Both read one ``evaluator``,
    built once from the instance, whose ``level(p, q)`` and
    ``best_response(p, q)`` take ints and count nothing: of V's two
    evaluators in this module, a certified class's ``GreedyKernel``, else
    the envelope's ``CriticalProfile``, refused past the brute-force limit.

    ``_probes`` is the record of the bisection successor ``succ_search``:
    its queries as (p, q, level), ascending in p/q, so later calls on the
    same oracle start from them.
    """

    def __init__(self, inst: Instance):
        self.evaluator = (GreedyKernel if inst.f.gs_certified else brute_force_critical_set)(inst)
        self.D, self.queries, self._probes = self.evaluator.D, 0, []

    def __call__(self, p, q=None):
        self.queries += 1
        level = self.evaluator.level(*_pair(p, q))
        return level if q is not None else Fraction(level, self.D)

    def best_response(self, alpha, q=None) -> frozenset:
        """The action set reported at alpha, or at the int pair alpha/q, uncounted."""
        return self.evaluator.best_response(*_pair(alpha, q))
