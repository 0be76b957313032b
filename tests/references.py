"""Set-by-set references the tests check the library against.

They take only the package's data types (instances, contracts, errors)
and import nothing from ``contract``, ``demand`` or ``approx``, so they
share no code with the paths they check: a cost is summed here per set,
and a utility is maximized here over all 2**n sets.
"""

import random
from fractions import Fraction

from combicontracts import (
    Additive,
    DomainError,
    GeneralContract,
    Instance,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
)

PERTURB_RESOLUTION = 1 << 16


def cost_of(inst, mask: int) -> Fraction:
    """c(S) for the set S of mask, summed in Fractions."""
    return sum((c for i, c in enumerate(inst.costs) if mask >> i & 1), Fraction(0))


def independent(f, sub: int) -> bool:
    """Whether the action mask sub is independent in the matroid of a
    certified f, read from the class's definition, not its matroid form:
    every set for additive, at most one action for unit demand, at most the
    rank for a uniform matroid, at most the capacity per partition block."""
    if isinstance(f, Additive):
        return True
    if isinstance(f, UnitDemand):
        return sub.bit_count() <= 1
    m = f.matroid
    if isinstance(m, UniformMatroid):
        return sub.bit_count() <= m.rank
    return all(
        sum(sub >> (a - 1) & 1 for a in block) <= cap
        for block, cap in zip(m.blocks, m.capacities)
    )


def matroid_value_by_subsets(f, mask: int) -> Fraction:
    """f(mask) of a certified f by its definition: the largest weight of an
    independent subset of the mask, over every subset, summed in Fractions."""
    w = f.weights if isinstance(f, WeightedMatroidRank) else f.values
    best, sub = Fraction(0), mask
    while True:
        if independent(f, sub):
            best = max(best, sum((w[i] for i in range(f.n) if sub >> i & 1), Fraction(0)))
        if not sub:
            return best
        sub = (sub - 1) & mask


def two_point_family(ginst):
    """The robust proof's adversarial family: X_S on {0, R(A)} with mean R(S)."""
    top = ginst.top_reward

    def family(mask: int):
        rs = ginst.expected_reward_mask(mask)
        if not 0 <= rs <= top:
            raise DomainError("expected reward outside [0, R(A)]")
        return ((Fraction(0), 1 - rs / top), (top, rs / top))

    return family


def utility_under_family(t, ginst, family) -> Fraction:
    """Principal utility when the agent best-responds to the contract t under a
    reward family, by a scan over all 2**n sets.  ``family(mask)`` yields
    (reward level, probability) pairs; ties in the agent's utility break
    toward the principal."""

    def utilities(mask: int) -> tuple:
        agent, principal = -cost_of(ginst, mask), Fraction(0)
        for level, prob in family(mask):
            pay = t.pay(level)
            agent += prob * pay
            principal += prob * (level - pay)
        return agent, principal

    return max(map(utilities, range(1 << ginst.n)))[1]


def subset_sum_decider(values, target) -> bool:
    """Whether some subset of values sums to target, by a bitset dynamic program."""
    reachable = 1
    for x in values:
        reachable |= reachable << x
    return bool((reachable >> target) & 1)


def random_tabular_contract(ginst, rng) -> GeneralContract:
    """A seeded tabular contract: each observable level pays a multiple of
    1/24 of twice max(level, 1)."""
    table = {}
    for level in sorted(ginst.observable_levels()):
        cap = max(level, Fraction(1)) * 2
        table[level] = cap * Fraction(rng.randint(0, 12), 24)
    return GeneralContract.tabular(table)


def perturb_costs(inst: Instance, epsilon, seed: int) -> Instance:
    """Seeded draw of costs from the grid [c, c + eps]: each cost moves up by
    eps * j / 2**16 for a uniform integer j in [0, 2**16].  eps = 0 returns
    the instance; otherwise the declared k is dropped, as perturbed costs are
    generally off the 2**-k grid."""
    if epsilon == 0:
        return inst
    rng = random.Random(seed)
    step = Fraction(epsilon) / PERTURB_RESOLUTION
    costs = tuple(c + step * rng.randint(0, PERTURB_RESOLUTION) for c in inst.costs)
    return Instance(inst.f, costs, scale=inst.scale, meta=inst.meta)
