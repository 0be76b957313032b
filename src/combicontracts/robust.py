"""Multi-outcome rewards, contract linearization, and worst-case utility.

A general instance maps each action set to a distribution over m reward
levels (or declares only the expected reward R per set).  Linear contracts
hand the agent a fixed fraction of the realized reward; against the
adversarial two-point reward family they weakly dominate every other
contract, and the optimal linear contract is the binary model's optimum
with f = R.  A binary contract (t0, t1) reduces to a linear one through
the envelope of the agent's utility lines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable

from .contract import ContractSolution, brute_force_critical_set, optimal_contract
from .errors import (
    DegenerateInstanceError,
    DomainError,
    InvariantError,
    ResourceLimitError,
)
from .functions import (
    ExplicitTable,
    Instance,
    SuccessFunction,
    ValidationReport,
    _coerce_fractions,
    _monotone,
    _positive_costs,
    bit_indices,
    brute_force_limit,
)
from .rational import as_fraction

__all__ = [
    "GeneralInstance",
    "GeneralContract",
    "embed_binary",
    "validate_general",
    "reduce_binary_contract",
    "linearize",
    "two_point_family",
    "worst_case_utility_twopoint",
    "utility_under_family",
    "optimal_linear_general",
]


@dataclass(frozen=True)
class GeneralInstance:
    """n actions with positive costs and an m-outcome reward structure.

    Either ``distributions`` gives one ExplicitTable per outcome (the
    probability of that outcome under each action set, summing to one), or
    ``expected`` gives the expected-reward function R directly; either
    way ``reward`` is R.  ``k`` is the bit precision of an embedded binary
    instance, if it declared one.  Construction refuses n < 1, a cost
    vector that is not n positive costs, and an empty or negative reward
    list (DomainError); ``validate_general`` checks the per-set conditions.
    """

    costs: tuple
    rewards: tuple
    distributions: tuple | None = None
    expected: SuccessFunction | None = None
    k: int | None = None
    meta: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "costs", _positive_costs(self.costs))
        object.__setattr__(self, "rewards", _coerce_fractions(self.rewards, "rewards"))
        if not self.rewards:
            raise DomainError("no reward levels")
        if (self.distributions is None) == (self.expected is None):
            raise DomainError(
                "provide exactly one of per-outcome distributions or an "
                "expected-reward function"
            )
        if self.distributions is not None:
            object.__setattr__(self, "distributions", tuple(self.distributions))
            if len(self.distributions) != len(self.rewards):
                raise DomainError("one distribution table per reward outcome")
            for tab in self.distributions:
                if not isinstance(tab, ExplicitTable):
                    raise DomainError("distributions must be explicit tables")
                if tab.n != self.n:
                    raise DomainError("distribution table size mismatch")
        if self.n < 1:
            raise DomainError("empty action set")
        if len(self.costs) != self.n:
            raise DomainError(f"{len(self.costs)} costs for {self.n} actions")

    @property
    def n(self) -> int:
        if self.expected is not None:
            return self.expected.n
        return len(self.costs)

    @property
    def m(self) -> int:
        return len(self.rewards)

    @cached_property
    def reward(self) -> SuccessFunction:
        """R, the expected reward: ``expected``, or one table of sum_j r_j P_j(S)."""
        if self.expected is not None:
            return self.expected
        columns = zip(*(tab.table for tab in self.distributions))
        return ExplicitTable(
            self.n,
            tuple(sum(r * p for r, p in zip(self.rewards, col)) for col in columns),
        )

    def expected_reward_mask(self, mask: int) -> Fraction:
        return self.reward.value_mask(mask)

    @property
    def top_reward(self) -> Fraction:
        """R(A), the expected reward of the full action set."""
        return self.reward.value_mask((1 << self.n) - 1)

    def observable_levels(self) -> frozenset:
        levels = {Fraction(0), self.top_reward}
        levels.update(self.rewards)
        return frozenset(levels)


def embed_binary(inst: Instance) -> GeneralInstance:
    """Binary instance as a general instance with rewards (0, 1), R = f and
    the instance's k."""
    return GeneralInstance(
        inst.costs, (Fraction(0), Fraction(1)), expected=inst.f, k=inst.k
    )


def validate_general(ginst: GeneralInstance) -> ValidationReport:
    """Report per-set violations: outcome rows that are not distributions,
    R(empty set) != 0, a non-monotone R and an R(A) above the largest reward.

    Only tables are enumerated: a structural R is monotone by construction.
    """
    out = []
    if ginst.distributions is not None:
        for mask in range(1 << ginst.n):
            probs = [tab.table[mask] for tab in ginst.distributions]
            total = sum(probs)
            if total != 1:
                out.append(f"outcome probabilities sum to {total} on mask {mask}")
                break
            if any(p < 0 for p in probs):
                out.append(f"negative outcome probability on mask {mask}")
                break
    if ginst.expected_reward_mask(0) != 0:
        out.append("expected reward of the empty set is not 0")
    table = isinstance(ginst.reward, ExplicitTable)
    if not out and table and not _monotone(ginst.reward):
        out.append("expected reward is not monotone")
    if ginst.top_reward > max(ginst.rewards):
        out.append("expected reward of the full set exceeds the largest reward level")
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class GeneralContract:
    """Payment rule on observed reward levels; non-negative by limited liability.

    Either ``slope`` makes it linear (t(r) = slope * r everywhere) or
    ``payments`` pins a payment to each observable level; levels missing
    from the table pay zero, and evaluation rejects levels outside the
    instance's observable set.
    """

    slope: Fraction | None = None
    payments: tuple | None = None  # ((level, payment), ...)

    def __post_init__(self):
        if (self.slope is None) == (self.payments is None):
            raise DomainError("a contract is either linear or a payment table")
        if self.slope is not None:
            object.__setattr__(self, "slope", as_fraction(self.slope))
            if self.slope < 0:
                raise DomainError("negative payments are not allowed")
        else:
            rows = tuple(
                (as_fraction(level), as_fraction(pay)) for level, pay in self.payments
            )
            if any(pay < 0 for _, pay in rows):
                raise DomainError("negative payments are not allowed")
            if len({level for level, _ in rows}) != len(rows):
                raise DomainError("duplicate reward level in payment table")
            object.__setattr__(self, "payments", tuple(sorted(rows)))

    @classmethod
    def linear(cls, alpha) -> "GeneralContract":
        return cls(slope=as_fraction(alpha))

    @classmethod
    def tabular(cls, mapping) -> "GeneralContract":
        items = mapping.items() if hasattr(mapping, "items") else mapping
        return cls(payments=tuple(items))

    def pay(self, level) -> Fraction:
        level = as_fraction(level)
        if self.slope is not None:
            return self.slope * level
        for lv, pay in self.payments:
            if lv == level:
                return pay
        return Fraction(0)

    def check_observable(self, ginst: GeneralInstance) -> None:
        if self.payments is None:
            return
        observable = ginst.observable_levels()
        for level, _ in self.payments:
            if level not in observable:
                raise DomainError(
                    f"payment supplied at unobserved reward level {level}"
                )


def _positive_top(ginst: GeneralInstance) -> Fraction:
    """R(A), refused with DegenerateInstanceError unless positive."""
    top = ginst.top_reward
    if top <= 0:
        raise DegenerateInstanceError("R of the full action set must be positive")
    return top


def reduce_binary_contract(t0, t1, inst: Instance) -> Fraction:
    """Linear slope that weakly dominates the binary contract (t0, t1).

    Preserves the expected payment at the agent's original best response
    (alpha * f(S) = (1 - f(S)) * t0 + f(S) * t1), clamped to [0, 1]; with a
    zero-probability best response the all-zero contract already dominates.
    Up to the constant t0 the agent faces the linear contract s = t1 - t0
    and the principal keeps f(S) * (1 - s) - t0, so the best response is
    read from the envelope at s: the largest f among the agent's optima
    when s < 1, the smallest when s >= 1.
    """
    t0, t1 = as_fraction(t0), as_fraction(t1)
    if t0 < 0 or t1 < 0:
        raise DomainError("negative payments are not allowed")
    s = t1 - t0
    profile = brute_force_critical_set(inst, beyond_one=True)
    i = (bisect_left if s >= 1 else bisect_right)(profile.alphas, s)
    if i == 0:
        return Fraction(0)
    return min(t0 / profile.values[i - 1] + s, Fraction(1))


def linearize(t: GeneralContract, ginst: GeneralInstance) -> Fraction:
    """Slope (t(R(A)) - t(0)) / R(A), or 0 when the contract pays more on failure.

    The zero fallback covers the case t(0) > t(R(A)), where the contract's
    worst-case utility is non-positive and any non-negative linear contract
    dominates it.
    """
    top = _positive_top(ginst)
    t.check_observable(ginst)
    ell0 = t.pay(Fraction(0))
    ell1 = t.pay(top)
    if ell0 > ell1:
        return Fraction(0)
    return (ell1 - ell0) / top


def two_point_family(ginst: GeneralInstance) -> Callable:
    """The proof's adversarial family: X_S on {0, R(A)} with mean R(S)."""
    top = _positive_top(ginst)

    def family(mask: int):
        rs = ginst.expected_reward_mask(mask)
        if rs > top or rs < 0:
            raise InvariantError("expected reward outside [0, R(A)]")
        p = rs / top
        return ((Fraction(0), 1 - p), (top, p))

    return family


def utility_under_family(
    t: GeneralContract, ginst: GeneralInstance, family: Callable
) -> Fraction:
    """Principal utility when the agent best-responds under a reward family.

    ``family(mask)`` yields (reward level, probability) pairs for the set's
    distribution; ties in the agent's utility break toward the principal.
    """
    if ginst.n > brute_force_limit():
        raise ResourceLimitError("family evaluation enumerates all subsets")
    t.check_observable(ginst)
    best_key = None
    for mask in range(1 << ginst.n):
        u_agent = -sum((ginst.costs[i] for i in bit_indices(mask)), Fraction(0))
        u_principal = Fraction(0)
        for level, prob in family(mask):
            pay = t.pay(level)
            u_agent += prob * pay
            u_principal += prob * (level - pay)
        key = (u_agent, u_principal)
        if best_key is None or key > best_key:
            best_key = key
    return best_key[1]


def worst_case_utility_twopoint(t: GeneralContract, ginst: GeneralInstance) -> Fraction:
    """Principal utility against the adversarial two-point reward family."""
    return utility_under_family(t, ginst, two_point_family(ginst))


def optimal_linear_general(
    ginst: GeneralInstance, method: str = "auto"
) -> ContractSolution:
    """Optimal linear contract: the binary engine on f = R, with the
    declared k and R(A) as the scale.

    A linear contract pays alpha * R(S) in expectation, so the agent's
    utility lines and the principal's (1 - alpha) * R(S) are the binary
    model's with f = R, and the solution carries over unchanged.
    """
    binary = Instance(ginst.reward, ginst.costs, k=ginst.k, scale=_positive_top(ginst))
    return optimal_contract(binary, method=method)
