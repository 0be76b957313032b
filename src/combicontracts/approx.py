"""The k-bit grid: FPTAS over geometric grids, and the bisection successor.

Both routines need a declared k; ``Instance`` then guarantees every f and
c value is a multiple of 2**-k, which confines critical values to ratios
of ``critical_bits``-bit integers (k when f <= 1), each with denominator at
most V's jump there times 2**k.  V is asked at int pairs and answers int
levels; grid points, interval endpoints and the fractions found are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .demand import ContractSolution, VOracle, _pair
from .errors import (
    DomainError,
    InvariantError,
    PrecisionError,
    ResourceLimitError,
)
from .functions import Instance
from .rational import MAX_K, _bounded_k, _shown, as_fraction

__all__ = [
    "GridSpec",
    "grid_spec",
    "fptas",
    "succ_search",
]


@dataclass(frozen=True)
class GridSpec:
    """Geometric contract grid {1 - (1-eps)**i : i in [m]}.

    m is the least integer with (1-eps)**m <= 2**-k, so the grid reaches
    past every feasible optimal contract below 1.  ``points`` holds the grid
    ascending as int pairs (num, den) in lowest terms.
    """

    size: int
    points: tuple


# Most points a grid may have: about k*ln(2)/eps, with ever longer denominators
MAX_GRID = 2**14


def _check_epsilon(epsilon) -> Fraction:
    epsilon = as_fraction(epsilon)
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must lie in (0, 1), got {_shown(epsilon)}")
    return epsilon


def grid_spec(epsilon, k: int) -> GridSpec:
    """The grid built in ints: for eps = en/qd in lowest terms, (1-eps)**i is
    qn**i / qd**i with qn = qd - en, compared with 2**-k by a shift; refused
    past MAX_GRID points up front.  Each point (qd**i - qn**i, qd**i) is
    reduced, as gcd(qn, qd) = gcd(en, qd) = 1."""
    epsilon = _check_epsilon(epsilon)
    _bounded_k(k)
    en, qd = epsilon.numerator, epsilon.denominator
    qn = qd - en
    # as 69/100 < ln 2 < 7/10, 69k(1-eps)/(100 eps) < m <= ceil(7k/(10 eps))
    if 100 * MAX_GRID * en <= 69 * k * qn or (
        7 * k * qd > 10 * MAX_GRID * en and qn**MAX_GRID << k > qd**MAX_GRID
    ):
        raise ResourceLimitError(
            f"epsilon {_shown(epsilon)} needs over {MAX_GRID} grid points"
        )
    points = []
    a = b = 1
    while a << k > b:
        a, b = a * qn, b * qd
        points.append((b - a, b))
    return GridSpec(len(points), tuple(points))


def critical_bits(inst: Instance) -> int:
    """b with every critical value a/c in lowest terms at a, c <= 2**b: k +
    ceil(log2 W), as a critical value dC/dF <= 1 has dF a multiple of 2**-k
    up to the range W of f.  It is k when f <= 1; the declared k is refused
    first, as ``_bounded_k`` does.
    """
    if inst.k is None:
        raise PrecisionError("instance does not declare a bit precision k")
    _bounded_k(inst.k)
    return inst.k + (max(math.ceil(inst.f._range), 1) - 1).bit_length()


def fptas(inst: Instance, epsilon) -> ContractSolution:
    """(1-eps)-approximation via the geometric grid, using exactly |R| V queries.

    Evaluates (1 - alpha) * V(alpha) at every grid point plus the alpha = 0
    baseline (whose utility is 0 without a query, costs being positive) and
    returns the best; ties go to the smallest alpha.  At num/den the utility
    is (den - num) * level / (den * D) for the oracle's int level, so the
    pairs ((den - num) * level, den) are ranked by cross-multiplication.
    The grid is built at ``critical_bits(inst)``, refused past MAX_K; the
    returned utility is at least (1 - eps) times the optimum.
    """
    bits = critical_bits(inst)
    if bits > MAX_K:  # k itself is bounded; the range of f adds the rest
        raise ResourceLimitError(
            f"critical bit count {bits} (k = {inst.k} plus {bits - inst.k} for the "
            f"range of f) exceeds the limit {MAX_K}"
        )
    spec = grid_spec(epsilon, bits)
    oracle = VOracle(inst)
    best_num, best_den, best_u = 0, 1, 0
    for num, den in spec.points:
        u = (den - num) * oracle(num, den)
        if u * best_den > best_u * den:
            best_num, best_den, best_u = num, den, u
    alpha, util = Fraction(best_num, best_den), Fraction(best_u, best_den * oracle.D)
    return ContractSolution(alpha, util, oracle.best_response(alpha), v_queries=oracle.queries)


def _simplest_in(L: int, H: int, Q: int, parents=(0, 1, 1, 0)) -> tuple:
    """(a, b, c, d): the Stern-Brocot parents a/b < c/d of (a+c)/(b+d), the
    fraction of least denominator (then numerator) in (L/Q, H/Q], 0 <= L < H.

    The descent starts from ``parents`` with a/b <= L/Q and c/d > H/Q: the
    root 0/1, 1/0, or those found for an interval around this one.  Each run
    of equal steps is one integer division: a mediant at or below L/Q moves
    a/b as far towards c/d as stays there, one above H/Q moves c/d likewise.
    """
    a, b, c, d = parents
    while True:
        p, q = a + c, b + d
        if p * Q <= L * q:
            t = (L * b - a * Q) // (c * Q - L * d)
            a, b = a + t * c, b + t * d
        elif p * Q > H * q:
            s = (c * Q - H * d - 1) // (H * b - a * Q)
            c, d = c + s * a, d + s * b
        else:
            return a, b, c, d


def succ_search(inst: Instance, alpha, q=None, *, oracle: VOracle | None = None):
    """Successor critical value by bisection, within 2k+1 counted V queries.

    k is ``critical_bits(inst)``, so every critical value has parts at most
    2**k.  Returns None if V(1) = V(alpha); else halves an interval
    (L/Q, H/Q] holding the successor, keeping the half whose left end sees V
    increase, until it is at most 1/N wide and its simplest fraction p/q,
    from ``_simplest_in`` resumed at the last parents a/b and c/d, is the
    only one with denominator <= N: q <= N and the order-N Farey neighbours
    (a+tp)/(b+tq), t = (N-b)//q, and (c+sp)/(d+sq), s = (N-d)//q, lie
    outside (Graham, Knuth & Patashnik, Concrete Mathematics, 4.5).  Width
    2**-2k always suffices, so an interval that narrow with no answer means
    V broke the k-bit premise: an InvariantError.  N is the jump bound,
    min(2**k, J * 2**inst.k) for the rise J = V(H/Q) - V(alpha): a critical
    value is (C1-C0)/(F1-F0) for the lines demanded below and at it, both
    differences multiples of 2**-inst.k and F1-F0 the jump of V there, at
    most J inside the interval.  So p/q is the successor and no critical
    value lies in (p/q, H/Q].

    V(alpha) is read uncounted from the oracle's evaluator, as the 2k+1
    bound counts, and a walk reads V at each successor the same way.  The
    queries go into the oracle's record (``_probes``, ascending in p/q).  A
    call starts between the last probe at level V(alpha) (else alpha) and
    the first above it and adds its own, so a walk on one oracle asks V(1)
    once; a call on a fresh oracle asks a prefix of the midpoints of the
    plain bisection of (alpha, 1].  A resumed call can ask more queries than
    a fresh one from the same alpha (a narrower bracket can take more
    halvings), still within 2k+1.
    ``succ_search(inst, p, q, oracle=...)``, the int-pair form, returns a
    reduced pair.
    """
    bits = critical_bits(inst)
    pair_form = q is not None
    lp, lq = _pair(alpha, q)
    if oracle is None:
        oracle = VOracle(inst)
    level, probes = oracle.evaluator.level(lp, lq), oracle._probes
    if not probes:
        probes.append((1, 1, oracle(1, 1)))

    # V is monotone, so the levels ascend with the record
    i = bisect_right(probes, level, key=lambda probe: probe[2])
    if i == len(probes):
        if probes[-1][2] < level:
            raise InvariantError("V decreased between alpha and 1")
        return None
    if i and probes[i - 1][2] == level:  # above alpha, or V is flat from it to alpha
        lp, lq, _ = probes[i - 1]
    hp, hq, hlev = probes[i]
    g = math.gcd(lq, hq)
    L, H, Q = lp * (hq // g), hp * (lq // g), lq // g * hq

    parents = (0, 1, 1, 0)
    while True:
        N = min(1 << bits, ((hlev - level) << inst.k) // oracle.D)  # V * 2**k is an int
        if (H - L) * N <= Q:
            parents = a, b, c, d = _simplest_in(L, H, Q, parents)
            p, q = a + c, b + d
            if q <= N:
                t, s = (N - b) // q, (N - d) // q
                if (a + t * p) * Q <= L * (b + t * q) and (c + s * p) * Q > H * (d + s * q):
                    return (p, q) if pair_form else Fraction(p, q)
            if (H - L) << (2 * bits) <= Q:
                raise InvariantError(
                    f"no fraction with numerator and denominator in [{1 << bits}] inside "
                    f"({_shown(Fraction(L, Q))}, {_shown(Fraction(H, Q))}]"
                )
        M = L + H
        L, H, Q = 2 * L, 2 * H, 2 * Q
        at_mid = oracle(M, Q)
        probes.insert(i, (M, Q, at_mid))
        if at_mid > level:
            H, hlev = M, at_mid
        elif at_mid == level:
            L, i = M, i + 1
        else:
            raise InvariantError("V decreased along the bisection")
