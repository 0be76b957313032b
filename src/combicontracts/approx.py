"""FPTAS over geometric contract grids and the binary-search successor.

Both routines need a declared k; ``Instance`` then guarantees every f and
c value is a multiple of 2**-k, which confines critical values to ratios
of k-bit integers.  V is asked at int pairs and answers int levels; grid
points, interval endpoints and reconstructed fractions are exact, with no
logarithms or floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .contract import ContractSolution
from .demand import VOracle, _check_alpha, v_value
from .errors import (
    DomainError,
    InvariantError,
    NotFoundError,
    PrecisionError,
    ResourceLimitError,
)
from .functions import Instance
from .rational import _bounded_k, _shown, as_fraction

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

    m is the least integer with (1-eps)**m <= 2**-k, so the grid reaches
    past every feasible optimal contract below 1.
    """

    epsilon: Fraction
    k: int
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
    """The grid built in ints: (1-eps)**i is qn**i / qd**i for 1 - eps = qn/qd,
    compared with 2**-k by a shift; refused past MAX_GRID points up front."""
    epsilon = _check_epsilon(epsilon)
    _bounded_k(k)
    q = 1 - epsilon
    # as 69/100 < ln 2 < 7/10, 69k(1-eps)/(100 eps) < m <= ceil(7k/(10 eps))
    if 100 * MAX_GRID * epsilon <= 69 * k * q or (
        7 * k > 10 * MAX_GRID * epsilon
        and q.numerator**MAX_GRID << k > q.denominator**MAX_GRID
    ):
        raise ResourceLimitError(
            f"epsilon {_shown(epsilon)} needs over {MAX_GRID} grid points"
        )
    qn, qd = q.numerator, q.denominator
    points = []
    a = b = 1
    while a << k > b:
        a, b = a * qn, b * qd
        points.append(Fraction(b - a, b))
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
    returns the best; ties go to the smallest alpha.  At num/den the utility
    is (den - num) * level / (den * D) for the oracle's int level, so the
    pairs ((den - num) * level, den) are ranked by cross-multiplication.
    The returned utility is at least (1 - eps) times the optimum.
    """
    spec = grid_spec(epsilon, require_k(inst))
    oracle = VOracle(inst)
    best_alpha, best_u, best_w = Fraction(0), 0, 1
    for alpha in spec.points:
        num, den = alpha.numerator, alpha.denominator
        u = (den - num) * oracle(num, den)
        if u * best_w > best_u * den:
            best_alpha, best_u, best_w = alpha, u, den
    util, actions = Fraction(best_u, best_w * oracle.D), oracle.best_response(best_alpha)
    return ContractSolution(best_alpha, util, actions, v_queries=oracle.queries)


def _simplest_in(a: int, b: int, c: int, d: int, lo_open, hi_open) -> tuple:
    """(p, q) in lowest terms: the minimal-denominator (then minimal-numerator)
    fraction between a/b and c/d (b, d > 0), each end open or closed by its flag.

    Stern-Brocot descent as an integer loop: strip the floor f, swap to the
    reciprocals of the fractional parts (ends and flags swap; c/0 is an
    infinite end), then fold the terms back as f + 1/(p/q) = (f*p + q)/p.
    """
    if a * d > c * b or (a * d == c * b and (lo_open or hi_open)):
        raise DomainError("empty interval")
    terms = []
    while True:
        f, r = divmod(a, b)
        p = f if (r == 0 and not lo_open) else f + 1  # least admissible integer
        if p * d < c or (p * d == c and not hi_open):
            break
        terms.append(f)
        a, b, c, d = d, c - f * d, b, r
        lo_open, hi_open = hi_open, lo_open
    q = 1
    for f in reversed(terms):
        p, q = f * p + q, p
    return p, q


def unique_rational_in(alpha_l, alpha_r, k: int) -> Fraction:
    """The unique a/b with a, b in [2**k] inside the half-open (alpha_l, alpha_r].

    Requires the interval width to be at most 2**-2k, which guarantees at
    most one such fraction exists (two of them differ by at least 2**-2k).
    Found by exact Stern-Brocot descent: the minimal-denominator fraction in
    the interval is the bounded one whenever a bounded one exists.
    """
    _bounded_k(k)
    lo, hi = as_fraction(alpha_l), as_fraction(alpha_r)
    if lo < 0:
        raise DomainError("interval must lie in the non-negative reals")
    if not lo < hi:
        raise DomainError("need alpha_l < alpha_r")
    if hi - lo > Fraction(1, 1 << (2 * k)):
        raise DomainError(
            f"interval width {_shown(hi - lo)} exceeds 2**-{2 * k}; uniqueness would fail"
        )
    p, q = _simplest_in(*lo.as_integer_ratio(), *hi.as_integer_ratio(), True, False)
    bound = 1 << k
    if p > bound or q > bound:
        raise NotFoundError(
            f"no fraction with numerator and denominator in [{bound}] inside "
            f"({_shown(lo)}, {_shown(hi)}]"
        )
    return Fraction(p, q)


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
    k-bit-bounded rational in the final interval is the successor.  The
    interval is kept in ints as (L/Q, H/Q]; halving doubles all three.

    The baseline V(alpha) is taken as known: pass ``v_alpha`` (the iterating
    caller always has it); when omitted it is computed without charging the
    counted oracle, matching the query accounting of the 2k+1 bound.  A
    level L exceeds V(alpha) = vn/vd iff L*vd > vn*D.
    """
    k = require_k(inst)
    alpha = _check_alpha(alpha)
    if oracle is None:
        oracle = VOracle(inst)
    if v_alpha is None:
        v_alpha = v_value(inst, alpha)
    vn, vd = as_fraction(v_alpha).as_integer_ratio()
    bar = vn * oracle.D

    v_one = oracle(1, 1) * vd
    if v_one == bar:
        return None
    if v_one < bar:
        raise InvariantError("V decreased between alpha and 1")

    L, H, Q = alpha.numerator, alpha.denominator, alpha.denominator
    while (H - L) << (2 * k) > Q:
        M = L + H
        L, H, Q = 2 * L, 2 * H, 2 * Q
        v_mid = oracle(M, Q) * vd
        if v_mid > bar:
            H = M
        elif v_mid == bar:
            L = M
        else:
            raise InvariantError("V decreased along the bisection")
    return unique_rational_in(Fraction(L, Q), Fraction(H, Q), k)
