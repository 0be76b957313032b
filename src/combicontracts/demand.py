"""Agent best-response computation.

The greedy demand oracle (exact for certified gross-substitutes classes),
exhaustive demand over all subsets, the principal-favoring selection, and
the counted V oracle used by the query-complexity results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, UnsupportedClassError
from .functions import Instance, _scan_tables, actions_of
from .rational import _shown, as_fraction

__all__ = [
    "OrderedDemand",
    "DemandProfile",
    "greedy_demand",
    "brute_force_demand",
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
    ``best_response(p, q)`` take ints and count nothing: a certified
    class's ``GreedyKernel``, else the ``CriticalProfile`` of its subset
    lines, refused past the brute-force limit.

    ``_probes`` is the record of the bisection successor ``succ_search``:
    its queries as (p, q, level), ascending in p/q, so later calls on the
    same oracle start from them.
    """

    def __init__(self, inst: Instance):
        if inst.f.gs_certified:
            self.evaluator = GreedyKernel(inst)
        else:
            from .contract import brute_force_critical_set  # contract imports demand

            self.evaluator = brute_force_critical_set(inst)
        self.D, self.queries, self._probes = self.evaluator.D, 0, []

    def __call__(self, p, q=None):
        self.queries += 1
        level = self.evaluator.level(*_pair(p, q))
        return level if q is not None else Fraction(level, self.D)

    def best_response(self, alpha, q=None) -> frozenset:
        """The action set reported at alpha, or at the int pair alpha/q, uncounted."""
        return self.evaluator.best_response(*_pair(alpha, q))
