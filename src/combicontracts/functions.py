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

import heapq
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Any, ClassVar, Iterable, Union

from .errors import DomainError, PrecisionError, ResourceLimitError
from .rational import _check_k, _shown, as_fraction, is_k_valid

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
    "action_set",
    "mask_of",
    "actions_of",
    "bit_indices",
    "validate",
    "value_table",
    "cost_table",
    "lifted_values",
    "BRUTE_FORCE_LIMIT",
    "EXPLICIT_TABLE_MAX_ACTIONS",
]

EXPLICIT_TABLE_MAX_ACTIONS = 24
BRUTE_FORCE_LIMIT = 12  # action cap for exhaustive enumeration, refused in _check_brute_limit


def action_set(n: int, actions: Iterable[int]) -> frozenset:
    """Validate and freeze a subset of the ground set {1, .., n}; anything
    else, a non-iterable or a bool action included, raises DomainError."""
    try:
        actions = tuple(actions)
    except TypeError:
        raise DomainError(f"actions {_shown(actions)} are not an iterable") from None
    for a in actions:
        if isinstance(a, bool) or not isinstance(a, int) or not 1 <= a <= n:
            raise DomainError(f"action {_shown(a)} outside ground set 1..{n}")
    return frozenset(actions)


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


def _check_mask(n: int, mask: int) -> None:
    """Refuse a subset mask of n actions that is no int in 0..2**n - 1."""
    if not isinstance(mask, int) or not 0 <= mask < 1 << n:
        raise DomainError(f"subset mask {_shown(mask)} outside the table")


def _integer(x, name: str) -> int:
    """x, refused unless it is an int (a bool is not one)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{name}: expected an integer, got {_shown(x)}")
    return x


def _sequence(obj, name: str) -> tuple:
    """tuple(obj), refused unless obj is an iterable other than a string
    (whose characters would read as entries: "12" as 1 and 2)."""
    if isinstance(obj, (str, bytes)) or not isinstance(obj, Iterable):
        raise DomainError(f"{name}: expected a sequence, got {_shown(obj)}")
    return tuple(obj)


class SuccessFunction:
    """Base value-oracle interface; subclasses implement ``value_mask``.

    The subclasses are the closed list ``_CLASSES``, keyed by ``kind``, their
    name in files.  Each class states its form once.  ``_params`` names the
    dataclass fields that hold f's rationals (a tuple field or one value),
    which ``parameter_fractions``, ``scaled`` and files read.  ``_params[0]``
    is the per-action tuple: the constructor makes it a tuple of non-negative
    Fractions, and ``n`` is its length (coverage, with one cover per action,
    and the explicit table override ``n``).  The certified classes are
    weighted matroid ranks, and ``_matroid_form()`` gives their blocks and
    capacities, which their one ``value_mask``, the greedy kernel and
    ``lifted_values`` read.
    """

    gs_certified: ClassVar[bool] = False
    kind: ClassVar[str]
    _params: ClassVar[tuple]

    def __post_init__(self):
        name = self._params[0]
        object.__setattr__(self, name, _coerce_fractions(getattr(self, name), name))

    @property
    def n(self) -> int:
        return len(getattr(self, self._params[0]))

    def value(self, actions: Iterable[int]) -> Fraction:
        return self.value_mask(mask_of(self.n, actions))

    def marginal(self, a: int, actions: Iterable[int]) -> Fraction:
        """f(S + a) - f(S); requires a outside S."""
        s = action_set(self.n, actions)
        action_set(self.n, (a,))
        if a in s:
            raise DomainError(f"action {a} already in the set")
        mask = mask_of(self.n, s)
        return self.value_mask(mask | (1 << (a - 1))) - self.value_mask(mask)

    def singleton_values(self) -> tuple:
        return tuple(self.value_mask(1 << i) for i in range(self.n))

    @cached_property
    def _range(self) -> Fraction:
        """max - min of f over all sets, taken once: f of the full set, as
        every class but the table is monotone with f(empty set) = 0."""
        return self.value_mask((1 << self.n) - 1)

    def parameter_fractions(self) -> tuple:
        """Every rational parameter entering f values (for k-validity checks):
        the ``_params`` fields in order, tuples flattened."""
        out = ()
        for name in self._params:
            x = getattr(self, name)
            out += x if isinstance(x, tuple) else (x,)
        return out

    def scaled(self, factor) -> "SuccessFunction":
        """Same class with all values multiplied by a non-negative factor:
        each ``_params`` field scaled, the rest kept, through the constructor."""
        c = as_fraction(factor)
        changes = {}
        for name in self._params:
            x = getattr(self, name)
            changes[name] = tuple(v * c for v in x) if isinstance(x, tuple) else x * c
        return replace(self, **changes)


def _coerce_fractions(obj, name: str) -> tuple:
    """obj as a tuple of exact Fractions, none of them negative."""
    values = tuple(map(as_fraction, _sequence(obj, name)))
    for v in values:
        if v < 0:
            raise DomainError(f"{name} include the negative value {_shown(v)}")
    return values


def _positive_costs(costs) -> tuple:
    """costs as a tuple of positive Fractions: every walk from alpha = 0
    takes V(0) = 0, which a free action would break."""
    costs = tuple(map(as_fraction, _sequence(costs, "costs")))
    for a, c in enumerate(costs, 1):
        if c <= 0:
            raise DomainError(f"action {a} has non-positive cost {_shown(c)}")
    return costs


def _matroid_value(f: SuccessFunction, mask: int) -> Fraction:
    """``value_mask`` of the certified classes, read from their matroid form:
    per block of ``f._matroid_form()``, the mask's heaviest per-action weights
    up to the block's capacity, all of them if they fit.  Greedy by weight is
    optimal on a matroid."""
    _check_mask(f.n, mask)
    blocks, caps = f._matroid_form()
    w, picks = f.parameter_fractions(), [[] for _ in caps]
    for i in bit_indices(mask):
        picks[blocks[i]].append(w[i])
    heaviest = (p if len(p) <= cap else heapq.nlargest(cap, p) for p, cap in zip(picks, caps))
    return sum(map(sum, heaviest), Fraction(0))


@dataclass(frozen=True)
class Additive(SuccessFunction):
    """f(S) = sum of per-action values."""

    values: tuple

    kind: ClassVar[str] = "additive"
    gs_certified: ClassVar[bool] = True
    _params: ClassVar[tuple] = ("values",)

    value_mask = _matroid_value

    def _matroid_form(self) -> tuple:
        return (0,) * self.n, (self.n,)


@dataclass(frozen=True)
class UnitDemand(SuccessFunction):
    """f(S) = max per-action value in S (0 on the empty set)."""

    values: tuple

    kind: ClassVar[str] = "unit-demand"
    gs_certified: ClassVar[bool] = True
    _params: ClassVar[tuple] = ("values",)

    value_mask = _matroid_value

    def _matroid_form(self) -> tuple:
        return (0,) * self.n, (1,)


@dataclass(frozen=True)
class UniformMatroid:
    """Independent sets are all subsets of size at most ``rank``."""

    rank: int

    def __post_init__(self):
        if _integer(self.rank, "matroid rank") < 0:
            raise DomainError(f"negative matroid rank {_shown(self.rank)}")


@dataclass(frozen=True)
class PartitionMatroid:
    """Ground set split into blocks, each with its own capacity."""

    blocks: tuple
    capacities: tuple

    def __post_init__(self):
        blocks = [_sequence(b, "block") for b in _sequence(self.blocks, "partition blocks")]
        blocks = tuple(frozenset(_integer(a, "block entries") for a in b) for b in blocks)
        object.__setattr__(self, "blocks", blocks)
        caps = _sequence(self.capacities, "block capacities")
        caps = tuple(_integer(c, "block capacities") for c in caps)
        object.__setattr__(self, "capacities", caps)
        if len(self.blocks) != len(self.capacities):
            raise DomainError(
                f"{len(self.blocks)} partition blocks, "
                f"{len(self.capacities)} capacities"
            )
        if any(c < 0 for c in self.capacities):
            raise DomainError("negative partition block capacity")
        if sum(map(len, self.blocks)) != len(frozenset().union(*self.blocks)):
            raise DomainError("partition blocks overlap")


@dataclass(frozen=True)
class WeightedMatroidRank(SuccessFunction):
    """f(S) = max weight of an independent subset of S."""

    weights: tuple
    matroid: Union[UniformMatroid, PartitionMatroid]

    kind: ClassVar[str] = "matroid-rank"
    gs_certified: ClassVar[bool] = True
    _params: ClassVar[tuple] = ("weights",)

    def __post_init__(self):
        super().__post_init__()
        m = self.matroid
        if type(m) not in (UniformMatroid, PartitionMatroid):
            raise DomainError(f"matroid: expected a uniform or partition matroid, got {_shown(m)}")
        actions = frozenset(range(1, self.n + 1))
        if isinstance(m, PartitionMatroid) and frozenset().union(*m.blocks) != actions:
            raise DomainError(f"partition blocks do not cover the actions 1..{self.n}")

    value_mask = _matroid_value

    def _matroid_form(self) -> tuple:
        m = self.matroid
        if isinstance(m, UniformMatroid):
            return (0,) * self.n, (m.rank,)
        block = {a: b for b, members in enumerate(m.blocks) for a in members}
        return tuple(map(block.__getitem__, range(1, self.n + 1))), m.capacities


@dataclass(frozen=True)
class BudgetAdditive(SuccessFunction):
    """f(S) = min(budget, sum of per-action values). Not greedy-certified."""

    values: tuple
    budget: Fraction

    kind: ClassVar[str] = "budget-additive"
    _params: ClassVar[tuple] = ("values", "budget")

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "budget", as_fraction(self.budget))
        if self.budget < 0:
            raise DomainError(f"negative budget {_shown(self.budget)}")

    def value_mask(self, mask: int) -> Fraction:
        _check_mask(self.n, mask)
        total = sum((self.values[i] for i in bit_indices(mask)), Fraction(0))
        return min(self.budget, total)


@dataclass(frozen=True)
class Coverage(SuccessFunction):
    """Weighted coverage: actions cover universe elements, f sums covered weight.

    ``weights[j]`` is the weight of universe element j; ``covers[i]`` lists the
    element indices covered by action i+1, and ``_masks[i]`` has their bits.
    """

    weights: tuple
    covers: tuple

    kind: ClassVar[str] = "coverage"
    _params: ClassVar[tuple] = ("weights",)

    def __post_init__(self):
        super().__post_init__()
        covers = [_sequence(c, "cover") for c in _sequence(self.covers, "covers")]
        covers = tuple(frozenset(_integer(j, "cover entries") for j in c) for c in covers)
        object.__setattr__(self, "covers", covers)
        size = len(self.weights)
        for a, cover in enumerate(self.covers, 1):
            if any(not 0 <= j < size for j in cover):
                raise DomainError(f"action {a} covers an element outside 0..{size - 1}")
        # after the check: 1 << j is a raw ValueError for j < 0, a MemoryError for a huge j
        object.__setattr__(self, "_masks", tuple(sum(1 << j for j in c) for c in covers))

    @property
    def n(self) -> int:
        return len(self.covers)

    def value_mask(self, mask: int) -> Fraction:
        _check_mask(self.n, mask)
        covered = 0
        for i in bit_indices(mask):
            covered |= self._masks[i]
        return sum((self.weights[j] for j in bit_indices(covered)), Fraction(0))


@dataclass(frozen=True)
class ExplicitTable(SuccessFunction):
    """All 2**n values given explicitly; the universal interchange format.
    Construction lifts the entries once to ``_lifted``, the (D, ints) tuple that
    ``lifted_values`` returns, ``value_mask``, ``==`` and the hash read.  A table
    made from ints stores only that, and builds its ``table`` on first read."""

    n_actions: int
    table: tuple = field(compare=False)
    _lifted: tuple = field(init=False, repr=False)

    kind: ClassVar[str] = "table"
    _params: ClassVar[tuple] = ("table",)

    def __post_init__(self):
        table = tuple(map(as_fraction, _table_shape(self.n_actions, self.table)))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_lifted", _lift(table))

    @classmethod
    def _from_ints(cls, n: int, D: int, ints) -> "ExplicitTable":
        """The table of T[mask] / D, made from its ints: (D, ints) reduced by
        their gcd is the stored lift, and no Fraction is built."""
        ints = _table_shape(n, ints)
        g = math.gcd(D, *ints)
        D, ints = D // g, tuple([v // g for v in ints]) if g > 1 else ints
        tab = object.__new__(cls)  # frozen: fill the fields __init__ would set
        tab.__dict__.update(n_actions=n, _lifted=(D, ints))
        return tab

    def _fractions(self) -> tuple:  # one Fraction per distinct value
        D, ints = self._lifted
        return tuple(map({v: Fraction(v, D) for v in set(ints)}.__getitem__, ints))

    @cached_property
    def _range(self) -> Fraction:
        D, ints = self._lifted
        return Fraction(max(ints) - min(ints), D)

    @property
    def n(self) -> int:
        return self.n_actions

    def value_mask(self, mask: int) -> Fraction:
        _check_mask(self.n_actions, mask)
        return Fraction(self._lifted[1][mask], self._lifted[0])


# Set after the class body, where dataclass would take it as the field's default.
ExplicitTable.table = cached_property(ExplicitTable._fractions)
ExplicitTable.table.__set_name__(ExplicitTable, "table")

# The closed list of function classes, by kind.  The solvers read f's class, so
# ``Instance`` refuses any other f: a subclass would be solved as its parent.
_CLASSES = {
    cls.kind: cls
    for cls in (Additive, UnitDemand, WeightedMatroidRank, BudgetAdditive, Coverage, ExplicitTable)
}


def _table_shape(n: int, entries) -> tuple:
    """entries as a tuple: a bad n is refused before any is read, then a count but 2**n."""
    if _integer(n, "action count") < 0:
        raise DomainError(f"negative action count {_shown(n)}")
    if n > EXPLICIT_TABLE_MAX_ACTIONS:
        raise ResourceLimitError(
            f"explicit tables support at most {EXPLICIT_TABLE_MAX_ACTIONS} actions"
        )
    entries = _sequence(entries, "table")
    if len(entries) != 1 << n:
        raise DomainError(f"table needs {1 << n} entries, got {len(entries)}")
    return entries


@dataclass(frozen=True)
class Instance:
    """A binary-outcome problem: success function, positive costs, optional k.

    ``scale`` declares the upper bound for f values (1 unless a generator
    emitted an unnormalized construction); contract values always live in
    [0, 1] regardless of scale.  Construction refuses an f not in ``_CLASSES``,
    an empty action set, a non-positive cost or scale, f(empty set) != 0
    (DomainError) and, when k is declared, any parameter or cost off the
    2**-k grid (PrecisionError); ``validate`` refuses the rest.  It also lifts
    f (a table by its own lift) and the costs once to ``_lifted``: (D,
    parameter ints, cost ints) over D, the LCM of all their denominators.
    """

    f: SuccessFunction
    costs: tuple
    k: int | None = None
    scale: Fraction = Fraction(1)
    meta: Any = field(default=None, compare=False, repr=False)
    _lifted: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.f) not in _CLASSES.values():
            raise DomainError(f"unknown function class {type(self.f).__name__}")
        object.__setattr__(self, "costs", _positive_costs(self.costs))
        object.__setattr__(self, "scale", as_fraction(self.scale))
        if self.f.n < 1:
            raise DomainError("empty action set")
        if len(self.costs) != self.f.n:
            raise DomainError(
                f"{len(self.costs)} costs for {self.f.n} actions"
            )
        if self.scale <= 0:
            raise DomainError(f"non-positive scale {_shown(self.scale)}")
        if self.f.value_mask(0) != 0:
            raise DomainError("f(empty set) != 0")
        f = self.f
        Df, w = f._lifted if isinstance(f, ExplicitTable) else _lift(f.parameter_fractions())
        D = math.lcm(Df, *(x.denominator for x in self.costs))
        w = w if D == Df else tuple([x * (D // Df) for x in w])
        c = tuple([x.numerator * (D // x.denominator) for x in self.costs])
        object.__setattr__(self, "_lifted", (D, w, c))
        if self.k is not None:
            _check_k(self.k)
            if not is_k_valid(Fraction(1, D), self.k):  # iff some denominator is not
                params = f.parameter_fractions() + self.costs
                for den in {x.denominator for x in params}:  # name an off-grid one
                    if not is_k_valid(Fraction(1, den), self.k):
                        raise PrecisionError(
                            f"a value with denominator {den} is not a multiple "
                            f"of 2**-{self.k}"
                        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the compared fields (``meta`` is not one), taken once."""
        return hash((self.f, self.costs, self.k, self.scale))

    @property
    def n(self) -> int:
        return self.f.n


def validate(inst: Instance) -> None:
    """Refuse what construction leaves unchecked with DomainError, at the
    first violation.

    Construction already makes every parameter non-negative and f(empty
    set) = 0, so every class but the explicit table is monotone and largest
    on the full set.  What is left: tables must be monotone, and f of the
    full set must not exceed the declared scale.
    """
    f = inst.f
    if isinstance(f, ExplicitTable) and not _monotone(f):
        raise DomainError("f is not monotone")
    if f.value_mask((1 << f.n) - 1) > inst.scale:
        raise DomainError("f(full set) exceeds the declared scale")


def _monotone(tab: ExplicitTable) -> bool:
    """True iff adding an action never lowers an entry of the table: for
    each bit j, the stored int entries without j against those with j, as
    whole slices (strided while h = 2**j is small, blocks of h once large)."""
    t = lifted_values(tab)[1]
    for j in range(tab.n):
        h = 1 << j
        if h * h < len(t):
            halves = ((t[r::2 * h], t[r + h :: 2 * h]) for r in range(h))
        else:
            halves = ((t[s - h : s], t[s : s + h]) for s in range(h, len(t), 2 * h))
        if any(any(map(operator.gt, lo, hi)) for lo, hi in halves):
            return False
    return True


def _lift(fracs) -> tuple:
    """(D, ints): the Fractions as a tuple of ints over D, their denominators' LCM."""
    D = math.lcm(*(x.denominator for x in fracs))
    return D, tuple([x.numerator * (D // x.denominator) for x in fracs])


def _subset_sums(w) -> list:
    """The 2**len(w) subset sums of the ints w, indexed by bitmask, by
    doubling: the masks with bit i set are those below 2**i plus w[i]."""
    t = [0]
    for x in w:
        t += [s + x for s in t]
    return t


def lifted_values(f: SuccessFunction) -> tuple:
    """(D, T): all 2**n values of f as integers over one denominator D (the
    LCM of f's parameter denominators), indexed by bitmask: f(mask) = T[mask]/D.

    A table returns the tuple lifted when it was made; the others grow by
    doubling (``_subset_sums`` for the sums, coverage's by bytes of its
    universe), never through Fractions or ``value_mask``.  Unit demand and
    matroid rank read their ``_matroid_form()`` and add the actions heaviest
    first, each joining a set's basis iff its block has room there.
    """
    if isinstance(f, ExplicitTable):
        return f._lifted
    n = f.n
    if n > EXPLICIT_TABLE_MAX_ACTIONS:
        raise ResourceLimitError(f"cannot tabulate {n} actions")
    D, w = _lift(f.parameter_fractions())
    if isinstance(f, (Additive, BudgetAdditive)):
        t = _subset_sums(w[:n])
        if isinstance(f, BudgetAdditive):
            t = [s if s < w[n] else w[n] for s in t]
    elif isinstance(f, Coverage):
        t = [0]
        for cover in f._masks:
            t += [u | cover for u in t]
        t = list(map(_weigh_covers(w, set(t)).__getitem__, t))
    else:  # unit demand and matroid rank: one member mask per block
        blocks, caps = f._matroid_form()
        members = [0] * len(caps)
        for i, b in enumerate(blocks):
            members[b] |= 1 << i
        masks, t = [0], [0] * (1 << n)
        for i in sorted(range(n), key=w.__getitem__, reverse=True):
            block, cap = members[blocks[i]], caps[blocks[i]]
            for s in masks:
                t[s | 1 << i] = t[s] + w[i] if (s & block).bit_count() < cap else t[s]
            masks += [s | 1 << i for s in masks]
    return D, t


def _weigh_covers(w, covered) -> dict:
    """{u: weight of u} for each covered mask u of a coverage universe whose
    element weights are the ints w: one subset-sum table per byte of u."""
    sums = [_subset_sums(w[j : j + 8]) for j in range(0, len(w), 8)]
    m = len(sums)
    return {u: sum(map(list.__getitem__, sums, u.to_bytes(m, "little"))) for u in covered}


def _check_brute_limit(n: int) -> None:
    if n > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} actions, instance has {n}"
        )


def _scan_tables(inst: Instance) -> tuple:
    """(D, F, C): f(mask) = F[mask]/D and c(mask) = C[mask]/D over all 2**n
    masks for an exhaustive scan, refused past the brute-force limit first.
    D is the instance's lift denominator, a multiple of f's own Df."""
    _check_brute_limit(inst.n)
    (Df, F), (D, _, costs) = lifted_values(inst.f), inst._lifted
    return D, F if D == Df else [x * (D // Df) for x in F], _subset_sums(costs)


def _before(a: int, b: int) -> bool:
    """True iff mask a's sorted actions come before b's, for masks neither of
    which contains the other: the lowest action in exactly one is in a."""
    return bool(a & (a ^ b) & -(a ^ b))


def _least_cost_states(inst: Instance) -> tuple:
    """(D, masks, F, C): per reachable f-state, the canonical least-cost mask,
    f = F/D and c = C/D there, refused past the brute-force limit first.  The
    state is what f reads of a set: the capped sum (budget additive), the
    covered mask (coverage) or the max (unit demand); the other classes keep
    ``_scan_tables``' rows, one per mask.  On a tie the 0/1 doubling keeps the
    mask ``_before`` the other: as costs are positive, tied masks are never
    nested, and adding one highest action keeps their order."""
    f, n = inst.f, inst.n
    if not isinstance(f, (BudgetAdditive, Coverage, UnitDemand)):
        D, F, C = _scan_tables(inst)
        return D, range(len(F)), F, C
    _check_brute_limit(n)
    D, w, costs = inst._lifted
    if isinstance(f, Coverage):
        xs, grow = f._masks, lambda ss, x: [s | x for s in ss]
    elif isinstance(f, UnitDemand):
        xs, grow = w, lambda ss, x: [s if s > x else x for s in ss]
    else:  # budget additive: the sum, capped at the budget
        B = w[n]
        xs, grow = w[:n], lambda ss, x: [s + x if s + x < B else B for s in ss]
    best = {0: (0, 0)}  # per state: the least cost and the canonical mask
    for i, (x, c) in enumerate(zip(xs, costs)):
        bit = 1 << i
        for t, (C, m) in zip(grow(best, x), list(best.values())):
            C, m = C + c, m | bit
            old = best.get(t)
            if old is None or C < old[0] or C == old[0] and _before(m, old[1]):
                best[t] = C, m
    F = list(map(_weigh_covers(w, best).get, best)) if isinstance(f, Coverage) else list(best)
    C, masks = zip(*best.values())
    return D, masks, F, C


@lru_cache(maxsize=512)
def value_table(f: SuccessFunction) -> tuple:
    """All 2**n values of f indexed by bitmask (cached per function), as
    Fractions: the view of ``lifted_values``."""
    D, t = lifted_values(f)
    return tuple(Fraction(v, D) for v in t)


@lru_cache(maxsize=512)
def cost_table(inst: Instance) -> tuple:
    """All 2**n subset costs indexed by bitmask (cached per instance), as
    Fractions: the view of the lifted table of the additive cost function."""
    D, t = lifted_values(Additive(inst.costs))
    return tuple(Fraction(c, D) for c in t)
