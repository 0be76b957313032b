"""Cross-checks of every computation path against the brute-force oracles.

``verify`` prints the rows of ``checks`` and the acceptance suite asserts on
them.  The reference optimum is this module's own argmax over the envelope,
so no backend is checked against itself.
"""

from __future__ import annotations

from fractions import Fraction

from . import approx, contract, demand
from .errors import PrecisionError, UnsupportedClassError
from .functions import Instance, _scan_tables
from .rational import format_rational, in_bounded_set


def _optimum(profile: contract.CriticalProfile) -> tuple:
    """(alpha, utility): the argmax of (1 - alpha) * V(alpha) over the alpha = 0
    baseline and the ascending critical values; max keeps the first, smallest alpha."""
    rows = [(a, (1 - a) * v) for a, v in zip(profile.alphas, profile.values)]
    return max([(Fraction(0), Fraction(0)), *rows], key=lambda row: row[1])


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def checks(inst: Instance, epsilon):
    """The ten (check, status, note) rows, streamed in order; an epsilon
    outside (0, 1) is refused before the first."""
    profile = contract.brute_force_critical_set(inst)
    epsilon = approx._check_epsilon(epsilon)
    starts = [Fraction(0), *profile.alphas]
    midpoints = [(a + b) / 2 for a, b in zip(profile.alphas, profile.alphas[1:])]
    probes = starts + [Fraction(1)] + midpoints

    tables = _scan_tables(inst)  # once for every probe
    brute = {a: demand._ranked_demand(*tables, a) for a in probes}
    oracle = demand.VOracle(inst)
    ok = all(
        oracle(a) == prof.v and oracle.best_response(a) in prof.d_star
        for a, prof in brute.items()
    )
    yield "v-oracle-vs-brute-demand", _verdict(ok), f"{len(probes)} probes"

    if inst.f.gs_certified:
        ok = all(
            (s := demand.greedy_demand(inst, a).set) in prof.d_star
            and inst.f.value(s) == prof.v
            for a, prof in brute.items()
        )
        yield "greedy-vs-brute-demand", _verdict(ok), f"{len(probes)} probes"
        ok = all(
            contract.succ_gs(inst, a) == contract.successor_from_profile(profile, a)
            for a in starts
        )
        yield "succ-gs-vs-envelope", _verdict(ok), ""
        bound = inst.n * (inst.n + 1) // 2
        ok = profile.size <= bound
        yield "critical-count-bound", _verdict(ok), f"{profile.size} <= {bound}"
    else:
        yield "greedy-vs-brute-demand", "SKIP", "not gs_certified"
        yield "succ-gs-vs-envelope", "SKIP", "not gs_certified"
        note = f"not applicable (not gs_certified); count = {profile.size}"
        yield "critical-count-bound", "SKIP", note

    expected = _optimum(profile)
    if inst.k is not None:
        bits = approx.critical_bits(inst)  # k, unless f exceeds 1
        ok = all(in_bounded_set(a, bits) for a in profile.alphas)
        note = f"k={inst.k}" if bits == inst.k else f"k={inst.k}, {bits} bits"
        yield "k-bit-critical-values", _verdict(ok), note

        runs = []  # (successor right, queries) from each start
        for a in starts:
            oracle = demand.VOracle(inst)
            got = approx.succ_search(inst, a, oracle=oracle)
            runs.append((got == contract.successor_from_profile(profile, a), oracle.queries))
        yield "succ-search-vs-envelope", _verdict(all(ok for ok, _ in runs)), ""
        bound = 2 * bits + 1
        ok = all(queries <= bound for _, queries in runs)
        yield "succ-search-query-bound", _verdict(ok), f"<= {bound}"

        sol = approx.fptas(inst, epsilon)
        ok = sol.utility >= (1 - epsilon) * expected[1]
        yield "fptas-guarantee", _verdict(ok), f"epsilon={format_rational(epsilon)}"
        spec = approx.grid_spec(epsilon, bits)
        ok = sol.v_queries == spec.size
        yield "fptas-query-count", _verdict(ok), f"{sol.v_queries} == {spec.size}"
    else:
        for name in (
            "k-bit-critical-values",
            "succ-search-vs-envelope",
            "succ-search-query-bound",
            "fptas-guarantee",
            "fptas-query-count",
        ):
            yield name, "SKIP", "no declared k"

    methods, ok = [], True
    for m in ("brute", *contract.SUCCESSORS):
        try:
            sol = contract.optimal_contract(inst, method=m)
        except (UnsupportedClassError, PrecisionError):
            continue  # gs needs a certified class, search a declared k
        methods.append(m)
        ok = ok and (sol.alpha_star, sol.utility) == expected
    yield "optimal-contract-backends", _verdict(ok), "+".join(methods)
