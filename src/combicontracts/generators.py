"""Constructive instance generators.

The subset-sum hardness reduction, the recursive coverage construction
with exponentially many critical values (plus its explicit group-weight
lift), cost perturbations on a rational grid, and seeded random sampling
of k-valid instances of every class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .contract import brute_force_critical_set
from .errors import DomainError
from .functions import (
    Additive,
    BudgetAdditive,
    Coverage,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
    lifted_values,
)
from .rational import as_fraction

__all__ = [
    "SubsetSumSpec",
    "gen_subset_sum",
    "TowerLevel",
    "CoverageTower",
    "coverage_tower",
    "gen_exponential_coverage",
    "normalize",
    "coverage_lift_weights",
    "perturb_costs",
    "sample_instance",
    "SAMPLE_CLASSES",
]

MAX_TOWER_ACTIONS = 5
_PERTURB_RESOLUTION = 1 << 16


@dataclass(frozen=True)
class SubsetSumSpec:
    """Positive integers X and target Z with x_i < Z and sum(X) > Z."""

    values: tuple
    target: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(x) for x in self.values))
        if not self.values:
            raise DomainError("subset-sum needs at least one value")
        if any(x <= 0 for x in self.values):
            raise DomainError("subset-sum values must be positive integers")
        if self.target <= 0:
            raise DomainError("subset-sum target must be positive")
        if any(x >= self.target for x in self.values):
            raise DomainError("every value must be smaller than the target")
        # sum == target is allowed: such instances are trivially YES but the
        # construction is still well defined
        if sum(self.values) < self.target:
            raise DomainError("values must sum to at least the target")


def gen_subset_sum(spec: SubsetSumSpec) -> Instance:
    """Budget-additive hardness instance, normalized to [0, 1].

    The unnormalized construction sets f(S) = min(Z, sum_{i in S} x_i) and
    c(i) = x_i / Z**2; scaling f and c jointly by 1/Z brings f into [0, 1]
    without moving any critical value, giving f(S) = min(1, sum/Z) and
    c(i) = x_i / Z**3.  The optimal contract equals 1/Z**2 exactly when
    some subset of X sums to Z; a NO instance has exactly two critical
    values, 1/Z**2 and (Z1 - Z2) / (Z**2 * (Z - Z2)) for the closest
    reachable sums Z1 > Z > Z2, and the second is strictly better for the
    principal.  Metadata records the construction.
    """
    z = spec.target
    values = tuple(Fraction(x, z) for x in spec.values)
    costs = tuple(Fraction(x, z**3) for x in spec.values)
    meta = {
        "generator": "subset-sum",
        "values": list(spec.values),
        "target": z,
        "unnormalized_budget": z,
        "cost_epsilon": f"1/{z * z}",
        "alpha_yes": f"1/{z * z}",
    }
    return Instance(BudgetAdditive(values, Fraction(1)), costs, meta=meta)


def coverage_lift_weights(
    weights: Mapping, beta_1, beta_2, n: int | None = None
) -> dict:
    """Group weights of the lifted coverage function over one more action.

    ``weights`` maps nonempty action groups T (frozensets) to non-negative
    weights, representing f(S) = sum of w_T over groups meeting S.  The lift
    realizes g(S) = beta_1 * f(S) for S avoiding the new action and
    g(S) = beta_2 * f(A) + f(S minus the new action) otherwise:

        w_T stays for T inside A,
        (beta_1 - 1) * w_T attaches to T plus the new action,
        (beta_2 - beta_1 + 1) * f(A) weights the new action alone.

    Requires beta_2 >= beta_1 >= 1; zero-weight groups are dropped.
    """
    beta_1 = as_fraction(beta_1)
    beta_2 = as_fraction(beta_2)
    if not (beta_2 >= beta_1 >= 1):
        raise DomainError("need beta_2 >= beta_1 >= 1")
    groups = {}
    top = 0
    for t, w in weights.items():
        t = frozenset(t)
        if not t:
            raise DomainError("group weights must be over nonempty action sets")
        w = as_fraction(w)
        if w < 0:
            raise DomainError("group weights must be non-negative")
        groups[t] = groups.get(t, Fraction(0)) + w
        top = max(top, max(t))
    new_action = (n if n is not None else top) + 1
    full_value = sum(groups.values(), Fraction(0))

    lifted: dict = {}
    for t, w in groups.items():
        if w > 0:
            lifted[t] = w
        extra = (beta_1 - 1) * w
        if extra > 0:
            lifted[t | {new_action}] = extra
    lifted[frozenset({new_action})] = (
        lifted.get(frozenset({new_action}), Fraction(0))
        + (beta_2 - beta_1 + 1) * full_value
    )
    return lifted


def _coverage_from_groups(weights: Mapping, n: int) -> Coverage:
    """Coverage function whose universe is the weighted groups themselves."""
    keys = sorted(weights, key=lambda t: (len(t), tuple(sorted(t))))
    w = tuple(as_fraction(weights[t]) for t in keys)
    covers = tuple(
        frozenset(j for j, t in enumerate(keys) if a in t) for a in range(1, n + 1)
    )
    return Coverage(w, covers)


@dataclass(frozen=True)
class TowerLevel:
    """One level of the recursive construction (betas are None at the base)."""

    n: int
    group_weights: tuple  # ((sorted action tuple, weight), ...)
    costs: tuple
    beta_1: Fraction | None
    beta_2: Fraction | None

    def weights_dict(self) -> dict:
        return {frozenset(t): w for t, w in self.group_weights}

    def instance(self) -> Instance:
        f = _coverage_from_groups(self.weights_dict(), self.n)
        scale = sum((w for _, w in self.group_weights), Fraction(0))
        return Instance(f, self.costs, scale=scale)


@dataclass(frozen=True)
class CoverageTower:
    """The full recursion; the top level has 2**n - 1 critical values."""

    levels: tuple

    @property
    def top(self) -> TowerLevel:
        return self.levels[-1]


def _freeze_groups(weights: Mapping) -> tuple:
    keys = sorted(weights, key=lambda t: (len(t), tuple(sorted(t))))
    return tuple((tuple(sorted(t)), as_fraction(weights[t])) for t in keys)


def coverage_tower(n: int) -> CoverageTower:
    """Build all levels 1..n of the recursive coverage construction.

    The base level is a single action with f(1) = 2 and c(1) = 1.  Each
    subsequent level picks beta_1 = 10 * (largest critical) / (smallest
    critical) of the previous level, beta_2 = 10 * beta_1, lifts the group
    weights, and prices the new action at 20 * (largest critical) * f(A).
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_TOWER_ACTIONS:
        raise DomainError(
            f"tower size must be an integer in 1..{MAX_TOWER_ACTIONS}"
        )
    weights: dict = {frozenset({1}): Fraction(2)}
    costs = (Fraction(1),)
    levels = [TowerLevel(1, _freeze_groups(weights), costs, None, None)]
    for size in range(1, n):
        level_inst = levels[-1].instance()
        profile = brute_force_critical_set(level_inst)
        a_min, a_max = profile.alphas[0], profile.alphas[-1]
        beta_1 = 10 * a_max / a_min
        beta_2 = 10 * beta_1
        full_value = sum(weights.values(), Fraction(0))
        weights = coverage_lift_weights(weights, beta_1, beta_2, n=size)
        costs = costs + (20 * a_max * full_value,)
        levels.append(
            TowerLevel(size + 1, _freeze_groups(weights), costs, beta_1, beta_2)
        )
    return CoverageTower(tuple(levels))


def gen_exponential_coverage(n: int) -> Instance:
    """Unnormalized coverage instance whose critical set has size 2**n - 1."""
    tower = coverage_tower(n)
    inst = tower.top.instance()
    meta = {
        "generator": "coverage-tower",
        "levels": [
            {
                "n": lvl.n,
                "beta_1": None if lvl.beta_1 is None else str(lvl.beta_1),
                "beta_2": None if lvl.beta_2 is None else str(lvl.beta_2),
            }
            for lvl in tower.levels
        ],
    }
    return Instance(inst.f, inst.costs, scale=inst.scale, meta=meta)


def normalize(inst: Instance) -> Instance:
    """Scale f values and costs jointly by 1 / f(A).

    Joint scaling multiplies every agent-utility line by the same positive
    constant, so demand, critical values, and the optimal contract are all
    preserved; only the utility scale changes.  Any declared k is dropped
    unless the instance is already normalized.
    """
    full = inst.f.value_mask((1 << inst.n) - 1)
    if full <= 0:
        raise DomainError("cannot normalize: f of the full set is not positive")
    if full == 1 and inst.scale == 1:
        return inst
    factor = 1 / full
    return Instance(
        inst.f.scaled(factor),
        tuple(c * factor for c in inst.costs),
        k=None,
        scale=Fraction(1),
        meta=inst.meta,
    )


def perturb_costs(inst: Instance, epsilon, seed: int) -> Instance:
    """Seeded draw of perturbed costs from the rational grid [c, c + eps].

    Each cost moves up by eps * j / 2**16 for a uniform integer j in
    [0, 2**16]; eps = 0 returns the instance unchanged.  The declared k is
    dropped (perturbed costs are generally not k-valid).
    """
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise DomainError("perturbation radius must be non-negative")
    if epsilon == 0:
        return inst
    rng = random.Random(seed)
    costs = tuple(
        c + epsilon * Fraction(rng.randint(0, _PERTURB_RESOLUTION), _PERTURB_RESOLUTION)
        for c in inst.costs
    )
    return Instance(inst.f, costs, k=None, scale=inst.scale, meta=inst.meta)


SAMPLE_CLASSES = (
    "additive",
    "unit-demand",
    "matroid-rank",
    "budget-additive",
    "coverage",
    "table",
)


def sample_instance(klass: str, n: int, k: int, seed: int) -> Instance:
    """Seeded random k-valid instance of the requested class, f(A) <= 1.

    All values are multiples of 2**-k.  Costs are biased to sit below the
    matching singleton value so sampled instances have nonempty critical
    sets; zero-value actions fall back to an arbitrary positive cost.
    Per-item caps floor at one grid step, so a draw with many items can
    pass f(A) = 1; its values are then cut, in drawing order, to total 1.
    """
    if klass not in SAMPLE_CLASSES:
        raise DomainError(f"unknown class {klass!r}; choose from {SAMPLE_CLASSES}")
    if not isinstance(n, int) or n < 1:
        raise DomainError("need at least one action")
    if not isinstance(k, int) or k < 1:
        raise DomainError("bit precision must be a positive integer")
    # str seeding is stable across processes (unlike hash() of a str)
    rng = random.Random(f"{klass}|{n}|{k}|{seed}")
    unit = 1 << k

    def k_frac(numer: int) -> Fraction:
        return Fraction(numer, unit)

    def costs_below(numers) -> tuple:
        return tuple(k_frac(rng.randint(1, max(1, v))) for v in numers)

    def fitted(make, numers, most):
        """(f, numers) for f = make(values of numers), whose caps bound f(A)
        by most / 2**k; numers are first cut if f(A) > 1."""
        f = make(tuple(map(k_frac, numers)))
        if most > unit and f.value_mask((1 << n) - 1) > 1:
            left, cut = unit, []
            for v in numers:
                cut.append(min(v, left))
                left -= cut[-1]
            numers, f = cut, make(tuple(map(k_frac, cut)))
        return f, numers

    if klass == "additive":
        cap = max(1, unit // n)
        f, numers = fitted(Additive, [rng.randint(1, cap) for _ in range(n)], cap * n)
        return Instance(f, costs_below(numers), k=k)

    if klass == "unit-demand":
        numers = [rng.randint(1, unit) for _ in range(n)]
        return Instance(
            UnitDemand(tuple(map(k_frac, numers))), costs_below(numers), k=k
        )

    if klass == "matroid-rank":
        if rng.random() < 0.5 or n == 1:
            rank = rng.randint(1, n)
            matroid = UniformMatroid(rank)
            countable = rank
        else:
            actions = list(range(1, n + 1))
            rng.shuffle(actions)
            n_blocks = rng.randint(2, min(n, 4))
            blocks = [[] for _ in range(n_blocks)]
            for i, a in enumerate(actions):
                blocks[i % n_blocks].append(a)
            caps = tuple(rng.randint(1, len(b)) for b in blocks)
            matroid = PartitionMatroid(tuple(map(frozenset, blocks)), caps)
            countable = sum(caps)
        cap = max(1, unit // max(countable, 1))
        numers = [rng.randint(1, cap) for _ in range(n)]
        f, numers = fitted(
            lambda w: WeightedMatroidRank(w, matroid), numers, cap * countable
        )
        return Instance(f, costs_below(numers), k=k)

    if klass == "budget-additive":
        numers = [rng.randint(1, unit) for _ in range(n)]
        budget = k_frac(rng.randint(1, unit))
        return Instance(
            BudgetAdditive(tuple(map(k_frac, numers)), budget),
            costs_below(numers),
            k=k,
        )

    if klass == "coverage":
        universe = rng.randint(n, 2 * n)
        cap = max(1, unit // universe)
        numers = [rng.randint(1, cap) for _ in range(universe)]
        covers = []
        for _ in range(n):
            size = rng.randint(1, universe)
            covers.append(frozenset(rng.sample(range(universe), size)))
        f, _ = fitted(lambda w: Coverage(w, tuple(covers)), numers, cap * universe)
        single_numers = [int(v * unit) for v in f.singleton_values()]
        return Instance(f, costs_below(single_numers), k=k)

    # explicit table: a coverage-plus-additive mixture, so the sampled table
    # is monotone and submodular
    universe = rng.randint(n, 2 * n)
    w_cap = max(1, unit // (2 * universe))
    numers = [rng.randint(1, w_cap) for _ in range(universe)]
    covers = tuple(
        frozenset(rng.sample(range(universe), rng.randint(1, universe)))
        for _ in range(n)
    )
    a_cap = max(1, unit // (2 * n))
    numers += [rng.randint(0, a_cap) for _ in range(n)]

    def table_of(values) -> ExplicitTable:
        weights, addons = values[:universe], values[universe:]
        Dw, cover = lifted_values(Coverage(weights, covers))
        Da, extra = lifted_values(Additive(addons))
        return ExplicitTable(
            n, tuple(Fraction(w, Dw) + Fraction(a, Da) for w, a in zip(cover, extra))
        )

    f, _ = fitted(table_of, numers, w_cap * universe + a_cap * n)
    single_numers = [int(v * unit) for v in f.singleton_values()]
    return Instance(f, costs_below(single_numers), k=k)
