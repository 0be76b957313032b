"""Constructive instance generators.

The subset-sum hardness reduction, the recursive coverage construction
with exponentially many critical values (plus its explicit group-weight
lift), joint normalization, and seeded random sampling of k-valid
instances of every class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from .demand import brute_force_critical_set
from .errors import DomainError
from .functions import (
    _CLASSES,
    Additive,
    BudgetAdditive,
    Coverage,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
    _integer,
    _sequence,
    lifted_values,
)
from .rational import _STR_LIMIT, _bounded_k, _shown, as_fraction

__all__ = [
    "SubsetSumSpec",
    "gen_subset_sum",
    "TowerLevel",
    "coverage_tower",
    "gen_exponential_coverage",
    "normalize",
    "coverage_lift_weights",
    "sample_instance",
    "SAMPLE_CLASSES",
]

MAX_TOWER_ACTIONS = 5


@dataclass(frozen=True)
class SubsetSumSpec:
    """Positive integers X and target Z with x_i < Z and sum(X) > Z."""

    values: tuple
    target: int

    def __post_init__(self):
        values = _sequence(self.values, "subset-sum values")
        values = tuple(_integer(x, "subset-sum values") for x in values)
        object.__setattr__(self, "values", values)
        if not self.values:
            raise DomainError("subset-sum needs at least one value")
        if any(x <= 0 for x in self.values):
            raise DomainError("subset-sum values must be positive integers")
        if _integer(self.target, "subset-sum target") <= 0:
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


@dataclass(frozen=True)
class TowerLevel:
    """One level of the recursive construction (betas are None at the base)."""

    n: int
    group_weights: tuple  # ((sorted action tuple, weight), ...)
    costs: tuple
    beta_1: Fraction | None
    beta_2: Fraction | None

    def instance(self) -> Instance:
        """Coverage whose universe is the weighted groups, in their frozen order."""
        groups = self.group_weights
        w = tuple(w for _, w in groups)
        covers = [
            frozenset(j for j, (t, _) in enumerate(groups) if a in t) for a in range(1, self.n + 1)
        ]
        return Instance(Coverage(w, covers), self.costs, scale=sum(w, Fraction(0)))


def _freeze_groups(weights: Mapping) -> tuple:
    keys = sorted(weights, key=lambda t: (len(t), tuple(sorted(t))))
    return tuple((tuple(sorted(t)), as_fraction(weights[t])) for t in keys)


def coverage_tower(n: int) -> tuple:
    """Build all levels 1..n of the recursive coverage construction, as a
    tuple of ``TowerLevel``s; the last, level n, has 2**n - 1 critical values.

    The base level is a single action with f(1) = 2 and c(1) = 1.  Each
    subsequent level picks beta_1 = 10 * (largest critical) / (smallest
    critical) of the previous level, beta_2 = 10 * beta_1, lifts the group
    weights, and prices the new action at 20 * (largest critical) * f(A).
    """
    if not 1 <= _integer(n, "tower size") <= MAX_TOWER_ACTIONS:
        raise DomainError(f"tower size must be in 1..{MAX_TOWER_ACTIONS}")
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
    return tuple(levels)


def gen_exponential_coverage(n: int) -> Instance:
    """Unnormalized coverage instance whose critical set has size 2**n - 1."""
    tower = coverage_tower(n)
    meta = {
        "generator": "coverage-tower",
        "levels": [
            {
                "n": lvl.n,
                "beta_1": None if lvl.beta_1 is None else str(lvl.beta_1),
                "beta_2": None if lvl.beta_2 is None else str(lvl.beta_2),
            }
            for lvl in tower
        ],
    }
    return replace(tower[-1].instance(), meta=meta)


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


SAMPLE_CLASSES = tuple(_CLASSES)


def sample_instance(klass: str, n: int, k: int, seed: int) -> Instance:
    """Seeded random k-valid instance of the requested class, f(A) <= 1.

    Each class's branch only draws: ``make``, which builds f from its
    values; the values, as numerators over 2**k; and ``most``, the bound on
    f(A) in units of 2**-k.  One shared tail builds f.  Per-item caps floor
    at one grid step, so when ``most`` passes 2**k and f(A) > 1, the values
    are cut, in drawing order, to total 1.  Each cost is then drawn below a
    target: the action's own value, or its singleton value f({a}) for
    coverage and the table, whose values lie over a universe.  So sampled
    instances have nonempty critical sets; a zero target falls back to one
    grid step.
    """
    if klass not in SAMPLE_CLASSES:
        raise DomainError(f"unknown class {klass!r}; choose from {SAMPLE_CLASSES}")
    if _integer(n, "n") < 1:
        raise DomainError("need at least one action")
    _bounded_k(k)
    for name, x in (("n", n), ("seed", _integer(seed, "seed"))):
        if abs(x) >= _STR_LIMIT:  # the seed string needs str(x)
            raise DomainError(f"{name} = {_shown(x)} has over 4300 digits")
    # str seeding is stable across processes (unlike hash() of a str)
    rng = random.Random(f"{klass}|{n}|{k}|{seed}")
    unit = 1 << k

    if klass == "additive":
        cap = max(1, unit // n)
        make, numers, most = Additive, [rng.randint(1, cap) for _ in range(n)], cap * n
    elif klass == "unit-demand":
        make, numers, most = UnitDemand, [rng.randint(1, unit) for _ in range(n)], unit
    elif klass == "matroid-rank":
        if rng.random() < 0.5 or n == 1:
            countable = rng.randint(1, n)
            matroid = UniformMatroid(countable)
        else:
            actions = list(range(1, n + 1))
            rng.shuffle(actions)
            n_blocks = rng.randint(2, min(n, 4))
            blocks = [frozenset(actions[i::n_blocks]) for i in range(n_blocks)]
            caps = tuple(rng.randint(1, len(b)) for b in blocks)
            matroid = PartitionMatroid(tuple(blocks), caps)
            countable = sum(caps)
        cap = max(1, unit // countable)
        numers = [rng.randint(1, cap) for _ in range(n)]
        make, most = (lambda w: WeightedMatroidRank(w, matroid)), cap * countable
    elif klass == "budget-additive":
        numers = [rng.randint(1, unit) for _ in range(n)]
        budget = rng.randint(1, unit)
        make, most = (lambda w: BudgetAdditive(w, Fraction(budget, unit))), budget
    else:  # coverage, and the table as coverage plus additive (monotone, submodular)
        universe = rng.randint(n, 2 * n)
        # the table leaves half of f(A) to its additive part
        cap = max(1, unit // (universe if klass == "coverage" else 2 * universe))
        numers = [rng.randint(1, cap) for _ in range(universe)]
        covers = tuple(
            frozenset(rng.sample(range(universe), rng.randint(1, universe)))
            for _ in range(n)
        )
        if klass == "coverage":
            make, most = (lambda w: Coverage(w, covers)), cap * universe
        else:
            a_cap = max(1, unit // (2 * n))
            numers += [rng.randint(0, a_cap) for _ in range(n)]
            most = cap * universe + a_cap * n

            def make(values) -> ExplicitTable:
                Dw, cover = lifted_values(Coverage(values[:universe], covers))
                Da, extra = lifted_values(Additive(values[universe:]))
                sw, sa = unit // Dw, unit // Da
                return ExplicitTable._from_ints(
                    n, unit, [w * sw + a * sa for w, a in zip(cover, extra)]
                )

    f = make(tuple(Fraction(v, unit) for v in numers))
    if most > unit and f.value_mask((1 << n) - 1) > 1:
        left, cut = unit, []
        for v in numers:
            cut.append(min(v, left))
            left -= cut[-1]
        numers = cut
        f = make(tuple(Fraction(v, unit) for v in numers))
    if klass in ("coverage", "table"):
        numers = [int(v * unit) for v in f.singleton_values()]
    costs = tuple(Fraction(rng.randint(1, max(1, v)), unit) for v in numers)
    return Instance(f, costs, k=k)
