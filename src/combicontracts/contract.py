"""The optimal-contract engine.

The greedy successor ``succ_gs`` for certified gross-substitutes instances,
the successor backends by method ("gs", and "search" from ``approx``), and
the iterate-the-successors walk behind ``optimal_contract``, which picks its
optimum in the ints that every critical profile keeps.  The envelope
("brute") is V's other evaluator, so it lives beside ``VOracle`` in ``demand``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import approx
from .demand import (
    ContractSolution,
    CriticalProfile,
    VOracle,
    _pair,
    _rank,
    _require_certified,
    brute_force_critical_set,
)
from .errors import DomainError, InvariantError
from .functions import Instance

__all__ = [
    "succ_gs",
    "successor_from_profile",
    "SUCCESSORS",
    "optimal_contract",
]


def successor_from_profile(profile: CriticalProfile, alpha) -> Fraction | None:
    """Smallest critical value strictly above alpha, or None."""
    idx = _rank(profile.cuts, *_pair(alpha))
    return Fraction(*profile.cuts[idx]) if idx < profile.size else None


def succ_gs(inst: Instance, alpha, q=None, *, oracle: VOracle | None = None):
    """Successor critical value for a certified instance.

    Builds the greedy ordered set at alpha, then enumerates the finite
    candidate family: replacement ratios
    (c(a) - c(s_i)) / (f(a | prefix) - f(s_i | prefix)) over every action a
    and greedy step i with strictly positive denominator, plus the entry
    ratios c(a) / f(a | S) for actions with positive marginal on top of the
    full greedy set.  Candidates in (alpha, 1] are int pairs (num, den)
    with den in [1, W] (g - g_s with g_s >= 1, or g), so the kernel's exact
    int key num * W**2 // den orders them and merges equal values.  Each
    probe, an int-pair V query, takes the next key upward, with early exit
    at the first one whose level exceeds V(alpha)'s, the greedy total at
    alpha (uncounted; in a walk the kernel's last run is there, so it is
    free); V-equal candidates are not critical.

    The replay keeps f(a | prefix) in one list.  It is w(a) while a's
    block has room, 0 once a is picked, and max(w(a) - floor, 0) once the
    block is full, where floor is the lightest weight picked in it.  An
    unpicked entry changes only when its block fills, because costs are
    positive: the greedy picks nothing from a full block (see
    ``GreedyKernel.greedy``).

    ``succ_gs(inst, p, q, oracle=...)``, the int-pair form, returns a
    reduced pair.  Returns None when no critical value above alpha exists.
    """
    _require_certified(inst, "succ_gs")
    if oracle is None:
        oracle = VOracle(inst)
    kernel, pair_form = oracle.evaluator, q is not None
    p, q = _pair(alpha, q)
    order, total = kernel.greedy(p, q)

    # Replay the greedy order; gains and costs are integers over the same
    # denominator, so each ratio num/den is already the candidate beta and
    # alpha = p/q < beta <= 1 reads p*den < q*num <= q*den.  A step's own
    # entry in gains equals g_s, so g > g_s skips it.
    w, costs, blocks = kernel.weights, kernel.costs, kernel.blocks
    room, scale = list(kernel.caps), kernel.key_scale
    gains = [w[a] if room[b] else 0 for a, b in enumerate(blocks)]
    candidates = {}
    for s in order:
        g_s, c_s = gains[s], costs[s]
        for w_a, c, a in kernel.heaviest:  # a gain is at most its weight
            if w_a <= g_s:
                break
            if (g := gains[a]) > g_s:
                num, den = c - c_s, g - g_s
                if p * den < q * num <= q * den:
                    candidates[num * scale // den] = num, den
        gains[s] = 0
        room[b := blocks[s]] -= 1
        if not room[b]:
            floor = min(w[a] for a in order if blocks[a] == b)
            for a, b_a in enumerate(blocks):
                if b_a == b and gains[a]:
                    gains[a] = max(w[a] - floor, 0)
    for c, g in zip(costs, gains):
        if g and p * g < q * c <= q * g:
            candidates[c * scale // g] = c, g

    # V is monotone: probe upward, building a Fraction only for the successor
    for key in sorted(candidates):
        num, den = candidates[key]
        if oracle(num, den) > total:
            d = gcd(num, den)
            return (num // d, den // d) if pair_form else Fraction(num, den)
    return None


def _gs_backend(inst: Instance):
    _require_certified(inst, "method 'gs'")  # before any oracle is built
    return VOracle(inst), succ_gs, VOracle.__call__, inst.n * (inst.n + 1) // 2


def _search_backend(inst: Instance):
    oracle = VOracle(inst)  # a missing V oracle is reported before a missing k
    bound = 1 << (2 * approx.critical_bits(inst))
    # V at a successor is the evaluator's, uncounted, as succ_search reads V(alpha)
    return oracle, approx.succ_search, lambda o, p, q: o.evaluator.level(p, q), bound


# The successor backends, by method.  Each entry checks that the backend
# applies to the instance and returns (counted V oracle, successor, V's level
# at a successor p/q as level_at(oracle, p, q), bound on the number of
# critical values).  The oracle is the walk's only state: a successor is
# called as successor(inst, p, q=q, oracle=oracle) and reads V(p/q) from it.
# Both are looked up when the entry runs, so a rebound attribute is the one
# called.  "brute" is the whole envelope, not a walk.
SUCCESSORS = {"gs": _gs_backend, "search": _search_backend}


def _walk(inst: Instance, method: str, oracle: VOracle, successor, level_at, step_cap: int):
    """(profile, V queries): each successor from zero, V and best response
    there, with alpha as the successors' reduced int pair p/q and V as the
    oracle's int level, as the profile keeps them.  The set is read before the
    level, which then reuses the kernel's run for it.  An InvariantError names
    the method and the alpha of the failing step."""

    def fail(what):
        raise InvariantError(f"method {method!r}, step from alpha {p}/{q}: {what}")

    cuts, levels, sets = [], [], []
    p, q, level = 0, 1, 0
    while (nxt := successor(inst, p, q=q, oracle=oracle)) is not None:
        bp, bq = nxt
        if not bp * q > p * bq:
            fail(f"successor {bp}/{bq} did not advance")
        if len(cuts) == step_cap:
            fail(f"successor iteration exceeded the critical-set bound {step_cap}")
        sets.append(oracle.best_response(bp, bq))
        nxt_level = level_at(oracle, bp, bq)
        if not nxt_level > level:
            fail(f"V did not increase across the successor step to {bp}/{bq}")
        p, q, level = bp, bq, nxt_level
        cuts.append(nxt)
        levels.append(level)
    return CriticalProfile(tuple(cuts), tuple(levels), oracle.D, tuple(sets)), oracle.queries


def optimal_contract(inst: Instance, method: str = "auto") -> ContractSolution:
    """Optimal linear contract: the best critical value of the profile.

    ``method`` picks how the critical profile is found: "gs" (greedy
    successors from zero, certified classes), "search" (bisection
    successors, needs declared k), "brute" (the envelope, no V queries),
    or "auto" ("gs" on certified classes, else "brute").  The argmax of
    (1 - alpha) * V(alpha) includes the alpha = 0 baseline, and ties go to
    the smallest alpha.  The utility at a cut p/q with level L is
    (q - p) * L / (q * D): rows are ranked by cross-multiplication in ints.
    """
    if method == "auto":
        method = "gs" if inst.f.gs_certified else "brute"
    if method == "brute":
        profile, queries = brute_force_critical_set(inst), 0
    elif isinstance(method, str) and method in SUCCESSORS:
        profile, queries = _walk(inst, method, *SUCCESSORS[method](inst))
    else:
        raise DomainError(f"unknown successor method {method!r}")

    best_cut, best_u, best_q, best_set = (0, 1), 0, 1, frozenset()
    for (p, q), level, dset in zip(profile.cuts, profile.levels, profile.demand_sets):
        if (u := (q - p) * level) * best_q > best_u * q:
            best_cut, best_u, best_q, best_set = (p, q), u, q, dset
    utility = Fraction(best_u, best_q * profile.D)
    return ContractSolution(Fraction(*best_cut), utility, best_set, profile, queries)
