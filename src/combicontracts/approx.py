"""FPTAS over geometric contract grids and the binary-search successor.

Both routines need a declared k; ``Instance`` then guarantees every f and
c value is a multiple of 2**-k, which confines critical values to ratios
of k-bit integers.
All grid points, interval endpoints, and reconstructed fractions are exact
rationals; no logarithms or floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .contract import ContractSolution
from .demand import VOracle, _check_alpha, v_value
from .errors import DomainError, InvariantError, NotFoundError, PrecisionError
from .functions import Instance
from .rational import _bounded_k, as_fraction

__all__ = [
    "GridSpec",
    "grid_spec",
    "fptas",
    "unique_rational_in",
    "succ_search",
]


@dataclass(frozen=True)
class GridSpec:
    """Geometric contract grid {1 - (1-eps)**i : i in [m]}.

    m is the least integer with (1-eps)**m <= 2**-k, computed by exact
    rational powering, so the grid reaches past every feasible optimal
    contract below 1.
    """

    epsilon: Fraction
    k: int
    size: int
    points: tuple


def grid_spec(epsilon, k: int) -> GridSpec:
    epsilon = as_fraction(epsilon)
    if not 0 < epsilon < 1:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    _bounded_k(k)
    q = 1 - epsilon
    threshold = Fraction(1, 1 << k)
    points = []
    power = Fraction(1)
    while power > threshold:
        power *= q
        points.append(1 - power)
    return GridSpec(epsilon, k, len(points), tuple(points))


def require_k(inst: Instance) -> int:
    """The declared k, refused before anything of size 2**k is built."""
    if inst.k is None:
        raise PrecisionError("instance does not declare a bit precision k")
    return _bounded_k(inst.k)


def fptas(inst: Instance, epsilon) -> ContractSolution:
    """(1-eps)-approximation via the geometric grid, using exactly |R| V queries.

    Evaluates (1 - alpha) * V(alpha) at every grid point plus the alpha = 0
    baseline (whose utility is 0 without a query, costs being positive) and
    returns the best; ties go to the smallest alpha.  The returned utility
    is at least (1 - eps) times the optimum.
    """
    spec = grid_spec(epsilon, require_k(inst))
    oracle = VOracle(inst)
    best_alpha, best_util = Fraction(0), Fraction(0)
    for alpha in spec.points:
        util = (1 - alpha) * oracle(alpha)
        if util > best_util:
            best_alpha, best_util = alpha, util
    if oracle.queries != spec.size:
        raise InvariantError(f"grid used {oracle.queries} queries, expected {spec.size}")
    return ContractSolution(
        alpha_star=best_alpha,
        utility=best_util,
        actions=frozenset() if best_alpha == 0 else oracle.best_response(best_alpha),
        profile=None,
        v_queries=oracle.queries,
    )


def _simplest_in(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool) -> Fraction:
    """Minimal-denominator (then minimal-numerator) fraction in an interval.

    Stern-Brocot / continued-fraction descent carried out exactly; interval
    endpoints carry open/closed flags so half-open intervals work without
    epsilon fudging.
    """
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        raise DomainError("empty interval")
    floor_lo = math.floor(lo)
    smallest_int = floor_lo if (lo == floor_lo and not lo_open) else floor_lo + 1
    if smallest_int < hi or (smallest_int == hi and not hi_open):
        return Fraction(smallest_int)
    frac_lo = lo - floor_lo
    frac_hi = hi - floor_lo
    if frac_lo == 0:
        # Interval is (floor_lo, floor_lo + frac_hi]; the simplest fractional
        # part is 1/q for the smallest admissible q.
        q = -(-frac_hi.denominator // frac_hi.numerator)  # ceil(1/frac_hi)
        if hi_open and Fraction(1, q) == frac_hi:
            q += 1
        return floor_lo + Fraction(1, q)
    inner = _simplest_in(1 / frac_hi, 1 / frac_lo, hi_open, lo_open)
    return floor_lo + 1 / inner


def unique_rational_in(alpha_l, alpha_r, k: int) -> Fraction:
    """The unique a/b with a, b in [2**k] inside the half-open (alpha_l, alpha_r].

    Requires the interval width to be at most 2**-2k, which guarantees at
    most one such fraction exists (two of them differ by at least 2**-2k).
    Found by exact Stern-Brocot descent: the minimal-denominator fraction in
    the interval is the bounded one whenever a bounded one exists.
    """
    _bounded_k(k)
    lo = as_fraction(alpha_l)
    hi = as_fraction(alpha_r)
    if lo < 0:
        raise DomainError("interval must lie in the non-negative reals")
    if not lo < hi:
        raise DomainError("need alpha_l < alpha_r")
    if hi - lo > Fraction(1, 1 << (2 * k)):
        raise DomainError(
            f"interval width {hi - lo} exceeds 2**-{2 * k}; uniqueness would fail"
        )
    simplest = _simplest_in(lo, hi, True, False)
    bound = 1 << k
    if simplest.numerator > bound or simplest.denominator > bound:
        raise NotFoundError(
            f"no fraction with numerator and denominator in [{bound}] inside "
            f"({lo}, {hi}]"
        )
    return simplest


def succ_search(
    inst: Instance,
    alpha,
    *,
    oracle: VOracle | None = None,
    v_alpha=None,
) -> Fraction | None:
    """Successor critical value by bisection, within 2k+1 counted V queries.

    Returns None if V(1) = V(alpha) (one query).  Otherwise bisects the
    half-open interval (alpha, 1], descending into the half whose left
    boundary sees V increase, until the width is at most 2**-2k; the unique
    k-bit-bounded rational in the final interval is the successor.

    The baseline V(alpha) is taken as known: pass ``v_alpha`` (the iterating
    caller always has it); when omitted it is computed without charging the
    counted oracle, matching the query accounting of the 2k+1 bound.
    """
    k = require_k(inst)
    alpha = _check_alpha(alpha)
    if oracle is None:
        oracle = VOracle(inst)
    if v_alpha is None:
        v_alpha = v_value(inst, alpha)

    v_one = oracle(Fraction(1))
    if v_one == v_alpha:
        return None
    if v_one < v_alpha:
        raise InvariantError("V decreased between alpha and 1")

    lo, hi = alpha, Fraction(1)
    v_lo = v_alpha
    gap = Fraction(1, 1 << (2 * k))
    while hi - lo > gap:
        mid = (lo + hi) / 2
        v_mid = oracle(mid)
        if v_mid > v_lo:
            hi = mid
        elif v_mid == v_lo:
            lo, v_lo = mid, v_mid
        else:
            raise InvariantError("V decreased along the bisection")
    return unique_rational_in(lo, hi, k)
