"""Agent best-response computation.

The greedy demand oracle (exact for certified gross-substitutes classes),
exhaustive demand over all subsets, the principal-favoring selection, and
the counted V oracle used by the query-complexity results.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimitError, UnsupportedClassError
from .functions import (
    Additive,
    Instance,
    UniformMatroid,
    UnitDemand,
    actions_of,
    brute_force_limit,
    cost_table,
    value_table,
)
from .rational import as_fraction

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

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class DemandProfile:
    """Exhaustive demand at one contract value.

    ``demand`` holds every agent-optimal set, ``d_star`` the f-maximizers
    among them (all sharing success probability ``v``); both are sorted by
    their sorted action tuples for determinism.
    """

    alpha: Fraction
    demand: tuple
    d_star: tuple
    u_agent: Fraction
    v: Fraction


def _check_alpha(alpha) -> Fraction:
    alpha = as_fraction(alpha)
    if not 0 <= alpha <= 1:
        raise DomainError(f"contract value {alpha} outside [0, 1]")
    return alpha


class GreedyKernel:
    """Exact integer greedy for one certified instance.

    Every f parameter and every cost is lifted once to an integer over D,
    the LCM of their denominators.  At alpha = p/q the agent's marginal
    utility alpha*g/D - c/D then has the sign and order of p*g - q*c, so
    the greedy compares ints and results become Fractions only at the API
    boundary.  All three certified classes are weighted matroid ranks over
    blocks with capacities: additive is one block the size of the ground
    set, unit demand one block of capacity 1.
    ``gains()`` starts the incremental marginal-gain state.  Actions are
    0-based here.
    """

    def __init__(self, inst: Instance):
        f = inst.f
        if not f.gs_certified:
            raise UnsupportedClassError(
                f"greedy demand is not certified for class {f.kind!r}; "
                "use brute_force_demand"
            )
        params = f.parameter_fractions()
        n = self.n = inst.n
        D = self.D = math.lcm(*(x.denominator for x in params + inst.costs))
        self.costs = tuple(c.numerator * (D // c.denominator) for c in inst.costs)
        self.weights = tuple(x.numerator * (D // x.denominator) for x in params)
        self.blocks = (0,) * n
        if isinstance(f, Additive):
            self.caps = (n,)
        elif isinstance(f, UnitDemand):
            self.caps = (1,)
        elif isinstance(f.matroid, UniformMatroid):
            self.caps = (f.matroid.rank,)
        else:
            self.blocks = tuple(f.matroid.block_of(a) for a in range(1, n + 1))
            self.caps = f.matroid.capacities
        self.cap_of = tuple(self.caps[b] for b in self.blocks)

    def gains(self) -> "_Gains":
        return _Gains(self)

    def greedy(self, alpha):
        """The ``greedy_demand`` rule at alpha = p/q, in ints.

        Returns (alpha, order, utils, total): step i's utility is
        ``utils[i] / (D*q)`` and V(alpha) is ``total / D``.
        """
        alpha = _check_alpha(alpha)
        p, q = alpha.numerator, alpha.denominator
        state = self.gains()
        gain, costs = state.gain, self.costs
        remaining = list(range(self.n))
        order: list = []
        utils: list = []
        total = 0
        while remaining:
            best_a = -1
            for a in remaining:
                c = costs[a]
                g = gain(a)
                u = p * g - q * c
                if best_a < 0 or u > best_u or (u == best_u and c > best_c):
                    best_a, best_u, best_c, best_g = a, u, c, g
            if best_u < 0:
                break
            order.append(best_a)
            utils.append(best_u)
            total += best_g
            state.add(best_a)
            remaining.remove(best_a)
        return alpha, order, utils, total

    def demand(self, alpha) -> OrderedDemand:
        alpha, order, utils, _ = self.greedy(alpha)
        den = self.D * alpha.denominator
        return OrderedDemand(
            tuple(a + 1 for a in order), tuple(Fraction(u, den) for u in utils)
        )

    def v(self, alpha) -> Fraction:
        return Fraction(self.greedy(alpha)[3], self.D)


class _Gains:
    """Marginal gains f(a | S) as S grows: per block, S's heaviest weights
    up to the capacity, sorted ascending (shared by the block's actions)."""

    __slots__ = ("w", "cap_of", "basis_of")

    def __init__(self, kernel: GreedyKernel):
        bases = [[] for _ in kernel.caps]
        self.w, self.cap_of = kernel.weights, kernel.cap_of
        self.basis_of = [bases[b] for b in kernel.blocks]

    def gain(self, a) -> int:
        basis = self.basis_of[a]
        if len(basis) < self.cap_of[a]:
            return self.w[a]
        d = self.w[a] - basis[0] if basis else 0
        return d if d > 0 else 0

    def add(self, a) -> None:
        basis, w = self.basis_of[a], self.w[a]
        if len(basis) < self.cap_of[a]:
            insort(basis, w)
        elif basis and w > basis[0]:
            basis[0] = w
            basis.sort()


def greedy_demand(inst: Instance, alpha) -> OrderedDemand:
    """Ordered demanded set via greedy with principal-favoring tie-breaks.

    Repeatedly adds an action of maximal marginal utility while that
    maximum is >= 0 (zero included).  Ties break toward the action with
    maximal cost, then the smallest index.  Exact for certified classes
    only; others raise UnsupportedClassError.  alpha lies in [0, 1].
    """
    return GreedyKernel(inst).demand(alpha)


def _sorted_sets(masks) -> tuple:
    sets = [tuple(sorted(actions_of(m))) for m in masks]
    sets.sort()
    return tuple(frozenset(s) for s in sets)


def brute_force_demand(inst: Instance, alpha) -> DemandProfile:
    """Exhaustive maximization of alpha*f(S) - c(S) over all 2**n subsets."""
    limit = brute_force_limit()
    if inst.n > limit:
        raise ResourceLimitError(
            f"brute force limited to {limit} actions, instance has {inst.n}"
        )
    alpha = _check_alpha(alpha)
    ftab = value_table(inst.f)
    ctab = cost_table(inst)
    best_u = None
    argmax: list = []
    for mask in range(1 << inst.n):
        u = alpha * ftab[mask] - ctab[mask]
        if best_u is None or u > best_u:
            best_u = u
            argmax = [mask]
        elif u == best_u:
            argmax.append(mask)
    best_f = max(ftab[m] for m in argmax)
    star = [m for m in argmax if ftab[m] == best_f]
    return DemandProfile(
        alpha=alpha,
        demand=_sorted_sets(argmax),
        d_star=_sorted_sets(star),
        u_agent=best_u,
        v=best_f,
    )


def canonical_best_response(profile: DemandProfile) -> frozenset:
    """Deterministic representative: lexicographically smallest member of D*."""
    return profile.d_star[0]


def v_value(inst: Instance, alpha) -> Fraction:
    """V(alpha): success probability of the principal-favored best response.

    Greedy for certified classes and exhaustive search otherwise; this
    function does not count queries (wrap it in a VOracle where query
    complexity matters).
    """
    if inst.f.gs_certified:
        return GreedyKernel(inst).v(alpha)
    return brute_force_demand(inst, alpha).v


class VOracle:
    """Counted access to V; the query counter is part of the contract.

    Query-complexity statements (the 2k+1 successor bound, the FPTAS grid
    size) are phrased in V-oracle calls, so callers that need accounting
    route every evaluation through one oracle instance.  The evaluator
    follows from the instance: a certified class is lifted once
    (``kernel``) and answered by the greedy; any other class is answered by
    brute force (``kernel`` is None), which the limit must allow.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.kernel = None
        if inst.f.gs_certified:
            self.kernel = GreedyKernel(inst)
        elif inst.n > brute_force_limit():
            raise ResourceLimitError(
                "no V oracle available: function class is not certified for "
                f"greedy and {inst.n} actions exceed the brute-force limit"
            )
        self.queries = 0

    def __call__(self, alpha) -> Fraction:
        self.queries += 1
        if self.kernel is None:
            return v_value(self.inst, alpha)
        return self.kernel.v(alpha)

    def best_response(self, alpha) -> frozenset:
        """The action set reported at alpha (not counted as a query): the
        kernel's greedy set, else the canonical brute-force response."""
        if self.kernel is not None:
            return self.kernel.demand(alpha).set
        return canonical_best_response(brute_force_demand(self.inst, alpha))
