"""Success-probability function classes and problem instances.

Six function classes share one value-oracle interface: additive, unit
demand, weighted matroid rank (uniform or partition matroids), budget
additive, coverage, and explicit tables.  The first three are certified
for the greedy demand oracle (``gs_certified``); budget additive and
coverage are submodular but fall outside that guarantee and must use
brute force.

Action sets are subsets of {1, .., n}.  Public APIs accept any iterable
of action indices; enumeration-heavy internals work on integer bitmasks
(bit i-1 encodes action i).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, ClassVar, Iterable, Union

from .errors import DomainError, PrecisionError, ResourceLimitError
from .rational import as_fraction, is_k_valid

__all__ = [
    "Additive",
    "UnitDemand",
    "UniformMatroid",
    "PartitionMatroid",
    "WeightedMatroidRank",
    "BudgetAdditive",
    "Coverage",
    "ExplicitTable",
    "SuccessFunction",
    "Instance",
    "ValidationReport",
    "action_set",
    "mask_of",
    "actions_of",
    "bit_indices",
    "value",
    "marginal",
    "cost",
    "validate",
    "value_table",
    "cost_table",
    "brute_force_limit",
    "EXPLICIT_TABLE_MAX_ACTIONS",
]

EXPLICIT_TABLE_MAX_ACTIONS = 24
DEFAULT_BRUTE_FORCE_LIMIT = 12
BRUTE_LIMIT_ENV = "COMBICONTRACTS_BRUTE_LIMIT"


def brute_force_limit() -> int:
    """Action-count cap for exhaustive enumeration (env-overridable)."""
    raw = os.environ.get(BRUTE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_BRUTE_FORCE_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise DomainError(f"{BRUTE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if limit < 1:
        raise DomainError(f"{BRUTE_LIMIT_ENV} must be positive")
    return limit


def action_set(n: int, actions: Iterable[int]) -> frozenset:
    """Validate and freeze a subset of the ground set {1, .., n}."""
    s = frozenset(actions)
    for a in s:
        if not isinstance(a, int) or not 1 <= a <= n:
            raise DomainError(f"action {a!r} outside ground set 1..{n}")
    return s


def mask_of(n: int, actions: Iterable[int]) -> int:
    mask = 0
    for a in action_set(n, actions):
        mask |= 1 << (a - 1)
    return mask


def bit_indices(mask: int):
    """0-based positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def actions_of(mask: int) -> frozenset:
    return frozenset(i + 1 for i in bit_indices(mask))


class SuccessFunction:
    """Base value-oracle interface; subclasses implement ``value_mask``."""

    gs_certified: ClassVar[bool] = False
    kind: ClassVar[str] = "abstract"

    @property
    def n(self) -> int:
        raise NotImplementedError

    def value_mask(self, mask: int) -> Fraction:
        raise NotImplementedError

    def value(self, actions: Iterable[int]) -> Fraction:
        return self.value_mask(mask_of(self.n, actions))

    def marginal(self, a: int, actions: Iterable[int]) -> Fraction:
        """f(S + a) - f(S); requires a outside S."""
        s = action_set(self.n, actions)
        if not 1 <= a <= self.n:
            raise DomainError(f"action {a} outside ground set 1..{self.n}")
        if a in s:
            raise DomainError(f"action {a} already in the set")
        mask = mask_of(self.n, s)
        return self.value_mask(mask | (1 << (a - 1))) - self.value_mask(mask)

    def singleton_values(self) -> tuple:
        return tuple(self.value_mask(1 << i) for i in range(self.n))

    def parameter_fractions(self) -> tuple:
        """Every rational parameter entering f values (for k-validity checks)."""
        raise NotImplementedError

    def scaled(self, factor) -> "SuccessFunction":
        """Same class with all values multiplied by a positive factor."""
        raise NotImplementedError

    def to_table(self) -> "ExplicitTable":
        if self.n > EXPLICIT_TABLE_MAX_ACTIONS:
            raise ResourceLimitError(
                f"explicit tables support at most {EXPLICIT_TABLE_MAX_ACTIONS} actions"
            )
        return ExplicitTable(self.n, value_table(self))


def _coerce_fractions(obj, name: str) -> tuple:
    """obj as a tuple of exact Fractions, none of them negative."""
    values = tuple(as_fraction(v) for v in obj)
    for v in values:
        if v < 0:
            raise DomainError(f"{name} include the negative value {v}")
    return values


def _positive_costs(costs) -> tuple:
    """costs as a tuple of positive Fractions: every walk from alpha = 0
    takes V(0) = 0, which a free action would break."""
    costs = tuple(as_fraction(c) for c in costs)
    for a, c in enumerate(costs, 1):
        if c <= 0:
            raise DomainError(f"action {a} has non-positive cost {c}")
    return costs


@dataclass(frozen=True)
class Additive(SuccessFunction):
    """f(S) = sum of per-action values."""

    values: tuple

    kind: ClassVar[str] = "additive"
    gs_certified: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "values", _coerce_fractions(self.values, "values"))

    @property
    def n(self) -> int:
        return len(self.values)

    def value_mask(self, mask: int) -> Fraction:
        return sum((self.values[i] for i in bit_indices(mask)), Fraction(0))

    def parameter_fractions(self) -> tuple:
        return self.values

    def scaled(self, factor) -> "Additive":
        factor = as_fraction(factor)
        return Additive(tuple(v * factor for v in self.values))


@dataclass(frozen=True)
class UnitDemand(SuccessFunction):
    """f(S) = max per-action value in S (0 on the empty set)."""

    values: tuple

    kind: ClassVar[str] = "unit-demand"
    gs_certified: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "values", _coerce_fractions(self.values, "values"))

    @property
    def n(self) -> int:
        return len(self.values)

    def value_mask(self, mask: int) -> Fraction:
        return max([Fraction(0)] + [self.values[i] for i in bit_indices(mask)])

    def parameter_fractions(self) -> tuple:
        return self.values

    def scaled(self, factor) -> "UnitDemand":
        factor = as_fraction(factor)
        return UnitDemand(tuple(v * factor for v in self.values))


@dataclass(frozen=True)
class UniformMatroid:
    """Independent sets are all subsets of size at most ``rank``."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise DomainError(f"negative matroid rank {self.rank}")

    def block_of(self, a: int):
        return 0


@dataclass(frozen=True)
class PartitionMatroid:
    """Ground set split into blocks, each with its own capacity."""

    blocks: tuple
    capacities: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        if len(self.blocks) != len(self.capacities):
            raise DomainError(
                f"{len(self.blocks)} partition blocks, "
                f"{len(self.capacities)} capacities"
            )
        if any(c < 0 for c in self.capacities):
            raise DomainError("negative partition block capacity")
        if sum(map(len, self.blocks)) != len(frozenset().union(*self.blocks)):
            raise DomainError("partition blocks overlap")

    def block_of(self, a: int) -> int:
        for idx, block in enumerate(self.blocks):
            if a in block:
                return idx
        raise DomainError(f"action {a} not covered by any partition block")


@dataclass(frozen=True)
class WeightedMatroidRank(SuccessFunction):
    """f(S) = max weight of an independent subset of S."""

    weights: tuple
    matroid: Union[UniformMatroid, PartitionMatroid]

    kind: ClassVar[str] = "matroid-rank"
    gs_certified: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "weights", _coerce_fractions(self.weights, "weights"))
        m = self.matroid
        actions = frozenset(range(1, self.n + 1))
        if isinstance(m, PartitionMatroid) and frozenset().union(*m.blocks) != actions:
            raise DomainError(f"partition blocks do not cover the actions 1..{self.n}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def value_mask(self, mask: int) -> Fraction:
        members = [i + 1 for i in bit_indices(mask)]
        # Greedy by weight is optimal on matroids.
        members.sort(key=lambda a: self.weights[a - 1], reverse=True)
        total = Fraction(0)
        if isinstance(self.matroid, UniformMatroid):
            for a in members[: self.matroid.rank]:
                total += self.weights[a - 1]
            return total
        used = [0] * len(self.matroid.blocks)
        for a in members:
            b = self.matroid.block_of(a)
            if used[b] < self.matroid.capacities[b]:
                used[b] += 1
                total += self.weights[a - 1]
        return total

    def parameter_fractions(self) -> tuple:
        return self.weights

    def scaled(self, factor) -> "WeightedMatroidRank":
        factor = as_fraction(factor)
        return WeightedMatroidRank(
            tuple(w * factor for w in self.weights), self.matroid
        )


@dataclass(frozen=True)
class BudgetAdditive(SuccessFunction):
    """f(S) = min(budget, sum of per-action values). Not greedy-certified."""

    values: tuple
    budget: Fraction

    kind: ClassVar[str] = "budget-additive"

    def __post_init__(self):
        object.__setattr__(self, "values", _coerce_fractions(self.values, "values"))
        object.__setattr__(self, "budget", as_fraction(self.budget))
        if self.budget < 0:
            raise DomainError(f"negative budget {self.budget}")

    @property
    def n(self) -> int:
        return len(self.values)

    def value_mask(self, mask: int) -> Fraction:
        total = sum((self.values[i] for i in bit_indices(mask)), Fraction(0))
        return min(self.budget, total)

    def parameter_fractions(self) -> tuple:
        return self.values + (self.budget,)

    def scaled(self, factor) -> "BudgetAdditive":
        factor = as_fraction(factor)
        return BudgetAdditive(
            tuple(v * factor for v in self.values), self.budget * factor
        )


@dataclass(frozen=True)
class Coverage(SuccessFunction):
    """Weighted coverage: actions cover universe elements, f sums covered weight.

    ``weights[j]`` is the weight of universe element j; ``covers[i]`` lists the
    element indices covered by action i+1.
    """

    weights: tuple
    covers: tuple

    kind: ClassVar[str] = "coverage"

    def __post_init__(self):
        object.__setattr__(self, "weights", _coerce_fractions(self.weights, "weights"))
        object.__setattr__(
            self, "covers", tuple(frozenset(int(j) for j in c) for c in self.covers)
        )
        size = self.universe_size
        for a, cover in enumerate(self.covers, 1):
            if any(not 0 <= j < size for j in cover):
                raise DomainError(f"action {a} covers an element outside 0..{size - 1}")

    @property
    def n(self) -> int:
        return len(self.covers)

    @property
    def universe_size(self) -> int:
        return len(self.weights)

    def _cover_mask(self, i: int) -> int:
        mask = 0
        for j in self.covers[i]:
            mask |= 1 << j
        return mask

    def value_mask(self, mask: int) -> Fraction:
        covered = 0
        for i in bit_indices(mask):
            covered |= self._cover_mask(i)
        return sum((self.weights[j] for j in bit_indices(covered)), Fraction(0))

    def parameter_fractions(self) -> tuple:
        return self.weights

    def scaled(self, factor) -> "Coverage":
        factor = as_fraction(factor)
        return Coverage(tuple(w * factor for w in self.weights), self.covers)


@dataclass(frozen=True)
class ExplicitTable(SuccessFunction):
    """All 2**n values given explicitly; the universal interchange format."""

    n_actions: int
    table: tuple

    kind: ClassVar[str] = "table"

    def __post_init__(self):
        if self.n_actions < 0:
            raise DomainError(f"negative action count {self.n_actions}")
        if self.n_actions > EXPLICIT_TABLE_MAX_ACTIONS:
            raise ResourceLimitError(
                f"explicit tables support at most {EXPLICIT_TABLE_MAX_ACTIONS} actions"
            )
        object.__setattr__(self, "table", tuple(as_fraction(v) for v in self.table))
        if len(self.table) != 1 << self.n_actions:
            raise DomainError(
                f"table needs {1 << self.n_actions} entries, got {len(self.table)}"
            )

    @property
    def n(self) -> int:
        return self.n_actions

    def value_mask(self, mask: int) -> Fraction:
        if not 0 <= mask < len(self.table):
            raise DomainError(f"subset mask {mask} outside the table")
        return self.table[mask]

    def parameter_fractions(self) -> tuple:
        return self.table

    def scaled(self, factor) -> "ExplicitTable":
        factor = as_fraction(factor)
        return ExplicitTable(self.n_actions, tuple(v * factor for v in self.table))


@dataclass(frozen=True)
class Instance:
    """A binary-outcome problem: success function, positive costs, optional k.

    ``scale`` declares the upper bound for f values (1 unless a generator
    emitted an unnormalized construction); contract values always live in
    [0, 1] regardless of scale.  Construction refuses an empty action set,
    a non-positive cost or scale, f(empty set) != 0 (DomainError) and, when
    k is declared, any parameter or cost off the 2**-k grid
    (PrecisionError); ``validate`` checks the rest.
    """

    f: SuccessFunction
    costs: tuple
    k: int | None = None
    scale: Fraction = Fraction(1)
    meta: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "costs", _positive_costs(self.costs))
        object.__setattr__(self, "scale", as_fraction(self.scale))
        if self.f.n < 1:
            raise DomainError("empty action set")
        if len(self.costs) != self.f.n:
            raise DomainError(
                f"{len(self.costs)} costs for {self.f.n} actions"
            )
        if self.scale <= 0:
            raise DomainError(f"non-positive scale {self.scale}")
        if self.f.value_mask(0) != 0:
            raise DomainError("f(empty set) != 0")
        if self.k is not None:
            if not isinstance(self.k, int) or self.k < 1:
                raise DomainError(f"k must be a positive integer, got {self.k!r}")
            params = self.f.parameter_fractions() + self.costs
            for den in {x.denominator for x in params}:
                if not is_k_valid(Fraction(1, den), self.k):
                    raise PrecisionError(
                        f"a value with denominator {den} is not a multiple "
                        f"of 2**-{self.k}"
                    )

    @property
    def n(self) -> int:
        return self.f.n

    def cost(self, actions: Iterable[int]) -> Fraction:
        return sum(
            (self.costs[a - 1] for a in action_set(self.n, actions)), Fraction(0)
        )

    def cost_mask(self, mask: int) -> Fraction:
        return sum((self.costs[i] for i in bit_indices(mask)), Fraction(0))


def value(f: SuccessFunction, actions: Iterable[int]) -> Fraction:
    """Exact f(S) for a subset of the ground set."""
    return f.value(actions)


def marginal(f: SuccessFunction, a: int, actions: Iterable[int]) -> Fraction:
    """Exact f(a | S) = f(S + a) - f(S); a must lie outside S."""
    return f.marginal(a, actions)


def cost(inst: Instance, actions: Iterable[int]) -> Fraction:
    """Additive cost of a subset; cost of the empty set is 0."""
    return inst.cost(actions)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"violation: {v}" for v in self.violations)


def validate(inst: Instance) -> ValidationReport:
    """Report what construction leaves unchecked; violations are not raised.

    Construction already makes every parameter non-negative and f(empty
    set) = 0, so every class but the explicit table is monotone and largest
    on the full set.  What is left: tables must be monotone, and f of the
    full set must not exceed the declared scale.
    """
    out = []
    f = inst.f
    full = (1 << f.n) - 1
    if isinstance(f, ExplicitTable):
        table = f.table
        for mask in range(1 << f.n):
            if any(table[mask | 1 << j] < table[mask] for j in bit_indices(full & ~mask)):
                out.append("f is not monotone")
                break
    if f.value_mask(full) > inst.scale:
        out.append("f(full set) exceeds the declared scale")
    return ValidationReport(tuple(out))


@lru_cache(maxsize=512)
def value_table(f: SuccessFunction) -> tuple:
    """All 2**n values of f indexed by bitmask (cached per function)."""
    n = f.n
    if n > EXPLICIT_TABLE_MAX_ACTIONS:
        raise ResourceLimitError(f"cannot tabulate {n} actions")
    size = 1 << n
    if isinstance(f, ExplicitTable):
        return f.table
    if isinstance(f, (Additive, BudgetAdditive)):
        sums = [Fraction(0)] * size
        for mask in range(1, size):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + f.values[low.bit_length() - 1]
        if isinstance(f, Additive):
            return tuple(sums)
        return tuple(min(f.budget, s) for s in sums)
    if isinstance(f, UnitDemand):
        vals = [Fraction(0)] * size
        for mask in range(1, size):
            low = mask & -mask
            vals[mask] = max(vals[mask ^ low], f.values[low.bit_length() - 1])
        return tuple(vals)
    if isinstance(f, Coverage):
        cover_masks = [f._cover_mask(i) for i in range(n)]
        union = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            union[mask] = union[mask ^ low] | cover_masks[low.bit_length() - 1]
        weight_sum: dict = {}
        out = []
        for mask in range(size):
            u = union[mask]
            if u not in weight_sum:
                weight_sum[u] = sum((f.weights[j] for j in bit_indices(u)), Fraction(0))
            out.append(weight_sum[u])
        return tuple(out)
    return tuple(f.value_mask(mask) for mask in range(size))


@lru_cache(maxsize=512)
def cost_table(inst: Instance) -> tuple:
    """All 2**n subset costs indexed by bitmask (cached per instance)."""
    n = inst.n
    if n > EXPLICIT_TABLE_MAX_ACTIONS:
        raise ResourceLimitError(f"cannot tabulate {n} actions")
    size = 1 << n
    out = [Fraction(0)] * size
    for mask in range(1, size):
        low = mask & -mask
        out[mask] = out[mask ^ low] + inst.costs[low.bit_length() - 1]
    return tuple(out)
