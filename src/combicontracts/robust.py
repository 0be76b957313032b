"""Multi-outcome rewards, contract linearization, and worst-case utility.

A general instance maps each action set to a distribution over m reward
levels (or declares only the expected reward R per set).  Linear contracts
hand the agent a fixed fraction of the realized reward; against the
adversarial two-point reward family they weakly dominate every other
contract, and the optimal linear contract is the binary model's optimum
with f = R.  Under that family the agent faces t(0) plus a linear
contract on R, so a contract's worst-case utility is the binary model's
utility on f = R at that slope, less t(0), with R(S) from one V query.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any

from .contract import optimal_contract
from .demand import ContractSolution, VOracle
from .errors import DegenerateInstanceError, DomainError
from .functions import (
    ExplicitTable,
    Instance,
    SuccessFunction,
    _CLASSES,
    _coerce_fractions,
    _lift,
    _monotone,
    _positive_costs,
    _sequence,
    lifted_values,
)
from .rational import _check_k, _shown, as_fraction

__all__ = [
    "GeneralInstance",
    "GeneralContract",
    "embed_binary",
    "validate_general",
    "linearize",
    "worst_case_utility_twopoint",
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
    vector that is not n positive costs, an empty or negative reward
    list, an ``expected`` not in ``_CLASSES`` and a declared k that is not
    a positive integer (DomainError); ``validate_general`` refuses the
    per-set conditions.
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
        if self.expected is not None and type(self.expected) not in _CLASSES.values():
            raise DomainError(f"unknown function class {type(self.expected).__name__}")
        if self.distributions is not None:
            dists = _sequence(self.distributions, "distributions")
            object.__setattr__(self, "distributions", dists)
            if len(self.distributions) != len(self.rewards):
                raise DomainError("one distribution table per reward outcome")
            for tab in self.distributions:
                if type(tab) is not ExplicitTable:
                    raise DomainError("distributions must be explicit tables")
                if tab.n != self.n:
                    raise DomainError("distribution table size mismatch")
        if self.n < 1:
            raise DomainError("empty action set")
        if len(self.costs) != self.n:
            raise DomainError(f"{len(self.costs)} costs for {self.n} actions")
        if self.k is not None:
            _check_k(self.k)

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
        """R: ``expected``, or one table of sum_j r_j P_j(S), summed in ints."""
        if self.expected is not None:
            return self.expected
        D, w, columns = _columns(self.distributions, self.rewards)
        sums = [sum(map(operator.mul, w, col)) for col in columns]
        return ExplicitTable._from_ints(self.n, D, sums)

    def expected_reward_mask(self, mask: int) -> Fraction:
        return self.reward.value_mask(mask)

    @cached_property
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


def _columns(tables, coeffs) -> tuple:
    """(D, w, columns), ints: sum_j coeffs[j] P_j(mask) = w . columns[mask] / D."""
    lifts = [lifted_values(tab) for tab in tables]
    D, w = _lift([Fraction(c, d) for c, (d, _) in zip(coeffs, lifts)])
    return D, w, zip(*(t for _, t in lifts))


def validate_general(ginst: GeneralInstance) -> None:
    """Refuse per-set violations with DomainError, at the first: outcome rows
    that are not distributions, R(empty set) != 0, a non-monotone R and an
    R(A) above the largest reward.

    Only tables are enumerated, outcome rows in ints over one denominator:
    a structural R is monotone by construction.
    """
    if ginst.distributions is not None:
        D, w, columns = _columns(ginst.distributions, [1] * ginst.m)
        for mask, col in enumerate(columns):
            total = sum(map(operator.mul, w, col))
            if total != D:
                total = Fraction(total, D)
                raise DomainError(f"outcome probabilities sum to {_shown(total)} on mask {mask}")
            if min(col) < 0:
                raise DomainError(f"negative outcome probability on mask {mask}")
    if ginst.expected_reward_mask(0) != 0:
        raise DomainError("expected reward of the empty set is not 0")
    if isinstance(ginst.reward, ExplicitTable) and not _monotone(ginst.reward):
        raise DomainError("expected reward is not monotone")
    if ginst.top_reward > max(ginst.rewards):
        raise DomainError("expected reward of the full set exceeds the largest reward level")


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
            rows = [_sequence(row, "payment rows") for row in _sequence(self.payments, "payments")]
            if any(len(row) != 2 for row in rows):
                raise DomainError("payment rows must be (level, payment) pairs")
            rows = tuple((as_fraction(level), as_fraction(pay)) for level, pay in rows)
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
        return cls(payments=mapping.items() if hasattr(mapping, "items") else mapping)

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
                    f"payment supplied at unobserved reward level {_shown(level)}"
                )


def _positive_top(ginst: GeneralInstance) -> Fraction:
    """R(A), refused with DegenerateInstanceError unless positive."""
    top = ginst.top_reward
    if top <= 0:
        raise DegenerateInstanceError("R of the full action set must be positive")
    return top


def linearize(t: GeneralContract, ginst: GeneralInstance) -> Fraction:
    """Slope (t(R(A)) - t(0)) / R(A), or 0 when the contract pays more on failure.

    The zero fallback covers the case t(0) > t(R(A)), where the contract's
    worst-case utility is non-positive and any non-negative linear contract
    dominates it.
    """
    top = _positive_top(ginst)
    t.check_observable(ginst)
    return max(t.pay(top) - t.pay(Fraction(0)), Fraction(0)) / top


def worst_case_utility_twopoint(t: GeneralContract, ginst: GeneralInstance) -> Fraction:
    """Principal utility against the adversarial two-point reward family: the
    agent gets t(0) plus the linear contract s = ``linearize(t)`` on R, and
    the principal R(S) * (1 - s) - t(0).  Of the agent's optima it takes the
    largest R while s <= 1, V(s) on f = R, and the smallest once s > 1: as
    s*R - c and R - c/s share their optima, V's left limit at 1 on costs c/s,
    which is V at M/(M + 1), M = R(A)*D over the lift denominator D, as a
    critical value below 1 is (C1 - C0)/(F1 - F0) with 0 < F1 - F0 <= M."""
    s = linearize(t, ginst)  # refuses a non-positive R(A) first
    if isinstance(ginst.reward, ExplicitTable):  # the other classes lie in [0, R(A)]
        table = ginst.reward._lifted[1]
        if min(table) < 0 or max(table) > table[-1]:
            raise DomainError("expected reward outside [0, R(A)]")
    costs = ginst.costs if s <= 1 else [c / s for c in ginst.costs]
    inst = Instance(ginst.reward, costs, scale=ginst.top_reward)
    M = int(inst.scale * inst._lifted[0])
    alpha = s if s <= 1 else Fraction(M, M + 1)
    return VOracle(inst)(alpha) * (1 - s) - t.pay(Fraction(0))


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
