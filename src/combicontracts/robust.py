"""Multi-outcome rewards, contract linearization, and worst-case utility.

A general instance maps each action set to a distribution over m reward
levels (or declares only the expected reward R per set).  Linear contracts
hand the agent a fixed fraction of the realized reward; against the
adversarial two-point reward family they weakly dominate every other
contract, and the optimal linear contract reduces exactly to the binary
model on R / R(A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable

from .contract import ContractSolution, optimal_contract
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
    _positive_costs,
    bit_indices,
    brute_force_limit,
    cost_table,
    value_table,
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
    ``expected`` gives the expected-reward function R directly.
    Construction refuses n < 1, a cost vector that is not n positive
    costs, and negative rewards (DomainError); ``validate_general`` checks
    the per-set conditions.
    """

    costs: tuple
    rewards: tuple
    distributions: tuple | None = None
    expected: SuccessFunction | None = None
    meta: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "costs", _positive_costs(self.costs))
        object.__setattr__(self, "rewards", _coerce_fractions(self.rewards, "rewards"))
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

    def expected_reward_mask(self, mask: int) -> Fraction:
        if self.expected is not None:
            return self.expected.value_mask(mask)
        total = Fraction(0)
        for r, tab in zip(self.rewards, self.distributions):
            total += r * tab.value_mask(mask)
        return total

    def expected_reward(self, actions: Iterable[int]) -> Fraction:
        from .functions import mask_of

        return self.expected_reward_mask(mask_of(self.n, actions))

    @property
    def top_reward(self) -> Fraction:
        """R(A), the expected reward of the full action set."""
        return self.expected_reward_mask((1 << self.n) - 1)

    def observable_levels(self) -> frozenset:
        levels = {Fraction(0), self.top_reward}
        levels.update(self.rewards)
        return frozenset(levels)


def embed_binary(inst: Instance) -> GeneralInstance:
    """Binary instance as a two-outcome general instance with rewards (0, 1)."""
    table = value_table(inst.f)
    fail = ExplicitTable(inst.n, tuple(1 - v for v in table))
    succeed = ExplicitTable(inst.n, table)
    return GeneralInstance(
        costs=inst.costs,
        rewards=(Fraction(0), Fraction(1)),
        distributions=(fail, succeed),
    )


def validate_general(ginst: GeneralInstance) -> ValidationReport:
    out = []
    size = 1 << ginst.n
    if ginst.distributions is not None:
        for mask in range(size):
            total = sum(
                (tab.value_mask(mask) for tab in ginst.distributions), Fraction(0)
            )
            if total != 1:
                out.append(f"outcome probabilities sum to {total} on mask {mask}")
                break
            if any(tab.value_mask(mask) < 0 for tab in ginst.distributions):
                out.append(f"negative outcome probability on mask {mask}")
                break
    if ginst.expected_reward_mask(0) != 0:
        out.append("expected reward of the empty set is not 0")
    if not out:
        rewards = [ginst.expected_reward_mask(m) for m in range(size)]
        full = size - 1
        for mask in range(size):
            rest = bit_indices(full & ~mask)
            if any(rewards[mask | 1 << j] < rewards[mask] for j in rest):
                out.append("expected reward is not monotone")
                break
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


def reduce_binary_contract(t0, t1, inst: Instance) -> Fraction:
    """Linear slope that weakly dominates the binary contract (t0, t1).

    Preserves the expected payment at the agent's original best response
    (alpha * f(S) = (1 - f(S)) * t0 + f(S) * t1), clamped to [0, 1]; with a
    zero-probability best response the all-zero contract already dominates.
    """
    t0, t1 = as_fraction(t0), as_fraction(t1)
    if t0 < 0 or t1 < 0:
        raise DomainError("negative payments are not allowed")
    if inst.n > brute_force_limit():
        raise ResourceLimitError("binary contract reduction enumerates all subsets")
    ftab = value_table(inst.f)
    ctab = cost_table(inst)
    best_key = None
    best_f = None
    for mask in range(1 << inst.n):
        fs = ftab[mask]
        expected_pay = t0 + fs * (t1 - t0)
        u_agent = expected_pay - ctab[mask]
        u_principal = fs - expected_pay
        key = (u_agent, u_principal)
        if best_key is None or key > best_key:
            best_key = key
            best_f = fs
    if best_f == 0:
        return Fraction(0)
    expected_pay = t0 + best_f * (t1 - t0)
    alpha = expected_pay / best_f
    return min(max(alpha, Fraction(0)), Fraction(1))


def linearize(t: GeneralContract, ginst: GeneralInstance) -> Fraction:
    """Slope (t(R(A)) - t(0)) / R(A), or 0 when the contract pays more on failure.

    The zero fallback covers the case t(0) > t(R(A)), where the contract's
    worst-case utility is non-positive and any non-negative linear contract
    dominates it.
    """
    top = ginst.top_reward
    if top <= 0:
        raise DegenerateInstanceError("R of the full action set must be positive")
    t.check_observable(ginst)
    ell0 = t.pay(Fraction(0))
    ell1 = t.pay(top)
    if ell0 > ell1:
        return Fraction(0)
    return (ell1 - ell0) / top


def two_point_family(ginst: GeneralInstance) -> Callable:
    """The proof's adversarial family: X_S on {0, R(A)} with mean R(S)."""
    top = ginst.top_reward
    if top <= 0:
        raise DegenerateInstanceError("R of the full action set must be positive")

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
    """Optimal linear contract via the binary engine on R / R(A).

    Dividing both R and the costs by R(A) leaves the agent's comparisons
    (and hence every critical value) untouched; the binary solution maps
    back with its utility rescaled by R(A).
    """
    top = ginst.top_reward
    if top <= 0:
        raise DegenerateInstanceError("R of the full action set must be positive")
    factor = 1 / top
    if ginst.expected is not None:
        f = ginst.expected.scaled(factor)
    else:
        size = 1 << ginst.n
        f = ExplicitTable(
            ginst.n,
            tuple(ginst.expected_reward_mask(m) * factor for m in range(size)),
        )
    binary = Instance(f, tuple(c * factor for c in ginst.costs))
    sol = optimal_contract(binary, method=method)
    return ContractSolution(
        alpha_star=sol.alpha_star,
        utility=sol.utility * top,
        actions=sol.actions,
        profile=sol.profile,
        v_queries=sol.v_queries,
    )
