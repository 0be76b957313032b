#!/usr/bin/env python3
"""Benchmark of the combicontracts package: seeded closed-loop workloads.

    python3 perfbench/run.py --workload gs-path [--seed 1] [--seconds 20] [--trace 0]

One process, one thread: each operation (one solve or one CLI command on one
instance) starts when the previous one returns, in a seeded order, cycling
over the corpus until at least one full pass and ``--seconds`` have elapsed.
Caches are cleared and ``gc.collect()`` runs between operations, outside
the timed region.  Timings are scaled to a reference machine speed (see
``probe``).  Every answer is compared with a reference answer; any mismatch
or unexpected exception makes the exit code nonzero.

``--trace 1`` instead runs one untraced and one traced pass and reports the
per-layer metrics (see README.md).  ``--workload all`` runs every workload,
each in its own process.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import tracer as tr
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(BENCH, "refs")
STATE = os.path.join(BENCH, ".state")

DEFAULT_SEED = 1
SETUP_REPEATS = 3
# Machine-speed probe.  On a shared host the speed of one core drifts by up
# to 1.8x within minutes, which swamps any regression bound, so every timing
# is scaled by PROBE_REFERENCE_S / (median of the probes taken around it):
# reported times are wall times at the speed where the probe takes
# PROBE_REFERENCE_S (its typical time on a 2-core x86-64 host, Python 3.11).
# Unscaled figures are printed too.
PROBE_REFERENCE_S = 0.0035
PROBE_WINDOW = 1  # ops on each side whose probes set an op's local speed
PROBE_SETUP_REPEATS = 5
MODULES = ("approx", "cli", "contract", "demand", "functions", "generators", "instancefile", "rational", "robust")
CACHED = {
    "functions.value_table": ("functions", "value_table"),
    "functions.cost_table": ("functions", "cost_table"),
    "contract.brute_force_critical_set": ("contract", "brute_force_critical_set"),
}


class Lib:
    """The freshly imported package, its modules and its three lru caches."""

    def __init__(self):
        self.pkg = importlib.import_module(tr.PKG)
        if not os.path.abspath(self.pkg.__file__).startswith(SRC + os.sep):
            raise ImportError(f"{tr.PKG} was imported from outside {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{tr.PKG}.{name}"))
        # Held directly: while tracing, the module attributes are wrappers.
        self.caches = {key: getattr(getattr(self, m), f) for key, (m, f) in CACHED.items()}

    def clear_caches(self):
        for cache in self.caches.values():
            cache.cache_clear()


def import_package() -> Lib:
    for name in [n for n in sys.modules if n == tr.PKG or n.startswith(tr.PKG + ".")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return Lib()


def probe() -> float:
    """Seconds taken by a fixed stdlib-only workload of exact rationals and
    dicts, the same kind of work the package does."""
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        x = Fraction(i, 4096) * Fraction(4095 - i, 4096) + Fraction(1, i)
        total += x
        seen[x] = frozenset((i, i + 1))
    return perf_counter() - start


def scaled(seconds: list, probes: list) -> list:
    """Timings scaled to the reference speed by the median probe nearby."""
    out = []
    for i, t in enumerate(seconds):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
        out.append(t * PROBE_REFERENCE_S / local)
    return out


def setup(workload: str, seed: int, workdir: str):
    """Import the package and build the corpus (writing files for cli-files)."""
    start = perf_counter()
    lib = import_package()
    ops = wl.CORPORA[workload](lib, seed, workdir)
    return perf_counter() - start, lib, ops


@dataclass
class Result:
    index: int
    seconds: float
    probe: float
    answer: dict | None
    error: str | None


def run_ops(lib: Lib, ops: list, seconds: float, min_ops: int, tracer=None):
    """Closed loop over ``ops`` (cycling) until ``min_ops`` ops and ``seconds``."""
    results, cache_stats = [], Counter()
    started = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - started < seconds:
        op = ops[i % len(ops)]
        lib.clear_caches()
        gc.collect()
        speed = probe()
        if tracer is not None:
            tracer.op = op.op_id
        error = raw = None
        t0 = perf_counter()
        try:
            raw = wl.run_op(lib, op)
        except Exception as exc:  # any exception is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        for key, cache in lib.caches.items():
            info = cache.cache_info()
            cache_stats[key + ".hits"] += info.hits
            cache_stats[key + ".misses"] += info.misses
        if raw is not None:
            try:
                ans = wl.answer(op, raw)
            except (KeyError, ValueError) as exc:
                error = f"unparsable output: {exc}"
                ans = None
        results.append(Result(i % len(ops), elapsed, speed, None if error else ans, error))
        i += 1
    return results, cache_stats


# ------------------------------------------------------------- references


def _read_refs(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def load_refs(lib: Lib, workload: str, seed: int, ops: list):
    """Stored references when their input digest matches, else computed ones.

    Computed references are cached under .state/refs/; copying such a file
    into refs/ pins it.
    """
    name = f"{workload}-seed{seed}.json.gz"
    cache_path = os.path.join(STATE, "refs", name)
    sources = [_read_refs(os.path.join(REFS, name)), _read_refs(cache_path)]
    entries, computed, failed = {}, 0, set()
    for op in ops:
        digest = wl.digest(lib, op)
        entry = next((s[op.op_id] for s in sources if s.get(op.op_id, {}).get("digest") == digest), None)
        if entry is None:
            computed += 1
            try:
                entry = {"digest": digest, "ref": wl.reference(lib, op)}
            except Exception as exc:  # the op fails; nothing is stored
                entry = {"digest": digest, "ref": {"error": f"{type(exc).__name__}: {exc}"}}
                failed.add(op.op_id)
        entries[op.op_id] = entry
    if computed > len(failed):
        stored = {k: v for k, v in entries.items() if k not in failed}
        os.makedirs(os.path.dirname(cache_path), exist_ok=True)
        with gzip.open(cache_path + ".tmp", "wt", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "ops": stored}, fh, indent=0, sort_keys=True)
        os.replace(cache_path + ".tmp", cache_path)
    return {k: v["ref"] for k, v in entries.items()}, computed


def check(ops: list, results: list, refs: dict, failures: dict, tag: str):
    """Compare each result with its reference and with the op's first answer."""
    first = {}
    for n, r in enumerate(results):
        op = ops[r.index]
        ref = refs[op.op_id]
        if r.error is not None:
            reason = r.error
        elif "error" in ref:
            reason = "no reference: " + ref["error"]
        else:
            reason = wl.mismatch(op, r.answer, ref)
            if reason is None and first.setdefault(op.op_id, r.answer) != r.answer:
                reason = "answer changed between repetitions"
        if reason is not None:
            failures[(tag, n)] = f"{op.op_id}: {reason}"
    return first


# ----------------------------------------------------------------- metrics


def timing_metrics(results: list, times: list) -> dict:
    """p50, p90 and throughput over the corpus, each op timed by the median
    of its repetitions (so a partial last pass weighs no op twice)."""
    per_op = defaultdict(list)
    for r, t in zip(results, times):
        per_op[r.index].append(t)
    op_times = [statistics.median(ts) for ts in per_op.values()]
    return {
        "solve_s_p50": (statistics.median(op_times), "s"),
        "solve_s_p90": (statistics.quantiles(op_times, n=10)[-1], "s"),
        "solves_per_s": (len(op_times) / sum(op_times), "ops/s"),
    }


def v_queries(ops: list, first: dict) -> int:
    return sum(first[op.op_id]["v_queries"] for op in ops if op.op_id in first)


def layer_metrics(workload: str, lib: Lib, ops: list, tracer, cache_stats, failures) -> dict:
    """Per-layer metrics of the traced pass, with the paper's bounds checked."""
    spans = tracer.spans
    by_id = {op.op_id: op for op in ops}
    pass_stats = tr.analyse(spans, set(by_id))
    calls, self_s = pass_stats["calls"], pass_stats["self_s"]
    setup_self = tr.analyse(spans, {"setup"})["self_s"]

    def fail(op_id, reason):
        failures[("bound", op_id, reason)] = f"{op_id}: {reason}"

    # 2k+1 queries per bisection successor
    search_q = tr.oracle_children(spans, "approx.succ_search")
    for i, span in enumerate(spans):
        if span[0] == "approx.succ_search" and span[4] in by_id:
            k = by_id[span[4]].inst.k
            if search_q[i] > 2 * k + 1:
                fail(span[4], f"succ_search used {search_q[i]} V queries > 2k+1 = {2 * k + 1}")
    # exactly |grid| queries per FPTAS call
    fptas_q = tr.oracle_children(spans, "approx.fptas")
    for i, span in enumerate(spans):
        if span[0] == "approx.fptas" and span[4] in by_id:
            size = lib.approx.grid_spec(wl.FPTAS_EPS, by_id[span[4]].inst.k).size
            if fptas_q[i] != size:
                fail(span[4], f"fptas used {fptas_q[i]} V queries, grid has {size}")
    # successor steps of each optimal_contract call, at most n(n+1)/2 on gs-path
    steps = Counter()
    for name, _, _, parent, op_id, note in spans:
        if note is True and parent >= 0 and spans[parent][0] == "contract.optimal_contract":
            steps[parent] += 1
    if workload == "gs-path":
        for i, count in steps.items():
            n = by_id[spans[i][4]].inst.n
            if count > n * (n + 1) // 2:
                fail(spans[i][4], f"{count} successor steps > n(n+1)/2 = {n * (n + 1) // 2}")
    # V evaluations at an alpha already evaluated in the same op
    seen, repeats, v_evals = defaultdict(set), 0, 0
    for name, _, _, _, op_id, alpha in spans:
        if name == "demand.v_value" and op_id in by_id:
            v_evals += 1
            repeats += alpha in seen[op_id]
            seen[op_id].add(alpha)
    gs_q = tr.oracle_children(spans, "contract.succ_gs")
    gs_found = sum(1 for s in spans if s[0] == "contract.succ_gs" and s[4] in by_id and s[5])

    def ratio(a, b):
        return a / b if b else 0.0

    def hit(key):
        hits, misses = cache_stats[key + ".hits"], cache_stats[key + ".misses"]
        return ratio(hits, hits + misses)

    m = {}
    for name in (
        "instancefile.loads_instance",
        "demand.greedy_demand",
        "demand.brute_force_demand",
        "contract.succ_gs",
        "approx.succ_search",
        "contract.brute_force_critical_set",
        "cli.main",
    ):
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".self_s"] = (self_s[name], "s")
    for name in (
        "functions.validate",
        "robust.validate_general",
        "functions.value_table",
        "contract.optimal_contract",
        "approx.fptas",
        "robust.optimal_linear_general",
    ):
        m[name + ".self_s"] = (self_s[name], "s")
    m["rational.parse_rational.calls"] = (tracer.counts["rational.parse_rational"], "count")
    m["functions.value_mask.calls"] = (tracer.counts["functions.value_mask"], "count")
    m["functions.marginal.calls"] = (tracer.counts["functions.marginal"], "count")
    m["functions.value_table.hit_ratio"] = (hit("functions.value_table"), "ratio")
    m["functions.cost_table.hit_ratio"] = (hit("functions.cost_table"), "ratio")
    m["contract.brute_force_critical_set.hit_ratio"] = (hit("contract.brute_force_critical_set"), "ratio")
    m["demand.v_value.calls"] = (calls["demand.v_value"], "count")
    m["demand.v_repeat_ratio"] = (ratio(repeats, v_evals), "ratio")
    m["demand.VOracle.calls"] = (calls[tr.ORACLE], "count")
    m["contract.succ_gs.probe_yield"] = (ratio(gs_found, sum(gs_q.values())), "ratio")
    m["approx.succ_search.queries_per_call"] = (
        ratio(sum(search_q.values()), calls["approx.succ_search"]),
        "count",
    )
    m["approx.fptas.queries"] = (sum(fptas_q.values()), "count")
    m["contract.optimal_contract.steps"] = (sum(steps.values()), "count")
    m["generators.sample_instance.self_s"] = (setup_self["generators.sample_instance"], "s")
    return m


# --------------------------------------------------------------------- run


def timed_run(workload, seed, seconds, lib, ops, setups, raw_setups, failures, lines) -> tuple:
    """End-to-end metrics of one closed-loop run, tracing off."""
    results, _ = run_ops(lib, ops, seconds, len(ops))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs, computed = load_refs(lib, workload, seed, ops)
    first = check(ops, results, refs, failures, "timed")
    times = [r.seconds for r in results]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    metrics.update(timing_metrics(results, scaled(times, [r.probe for r in results])))
    metrics["v_queries"] = (v_queries(ops, first), "count")
    metrics["peak_rss_mib"] = (peak_rss, "MiB")

    probe_median = statistics.median(r.probe for r in results)
    lines.append(f"machine speed {PROBE_REFERENCE_S / probe_median:.3f} of the reference (probe median {probe_median * 1e3:.3f} ms)")
    unscaled = {"setup_s": (statistics.median(raw_setups), "s"), **timing_metrics(results, times)}
    lines.extend(f"unscaled {name} {value:.6g} {unit}" for name, (value, unit) in unscaled.items())
    lines.append(f"passes {len(results) / len(ops):.2f} over {len(ops)} corpus ops")
    lines.append(f"references {len(refs) - computed} stored, {computed} computed")
    return metrics, len(results)


def traced_run(workload, seed, workdir, lib, ops, failures, lines) -> tuple:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    untraced, _ = run_ops(lib, ops, 0, len(ops))
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        wl.CORPORA[workload](lib, seed, workdir)
        tracer.op = None
        tracer.counts.clear()
        traced, cache_stats = run_ops(lib, ops, 0, len(ops), tracer)
    finally:
        tracer.uninstall()
    refs, computed = load_refs(lib, workload, seed, ops)
    check(ops, untraced, refs, failures, "untraced")
    first = check(ops, traced, refs, failures, "traced")
    metrics = layer_metrics(workload, lib, ops, tracer, cache_stats, failures)
    untraced_s = sum(scaled([r.seconds for r in untraced], [r.probe for r in untraced]))
    overhead = sum(scaled([r.seconds for r in traced], [r.probe for r in traced])) - untraced_s
    metrics["trace_overhead_s"] = (overhead, "s")

    problems = []
    spanned = [f"{m}.{f}" for m, fs in tr.SPANNED.items() for f in fs]
    unbound = [n for n in spanned + [tr.ORACLE] if tracer.bindings[n] == 0]
    if unbound:
        problems.append(f"never bound: {unbound}")
    leftovers = tracer.leftover_wrappers()
    if leftovers:
        problems.append(f"not restored: {leftovers}")
    nested = tr.containment_errors(tracer.spans)
    if nested:
        problems.append(f"{nested} child spans outside their parent")
    oracle_spans, reported = metrics["demand.VOracle.calls"][0], v_queries(ops, first)
    if oracle_spans != reported:
        problems.append(f"{oracle_spans} traced V queries != {reported} reported")
    if problems:
        failures[("self-check",)] = "trace self-check: " + "; ".join(problems)

    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    trace_path = os.path.join(STATE, "traces", f"{workload}-seed{seed}.jsonl")
    tracer.dump(trace_path)
    lines.append(f"spans {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    lines.append(
        f"trace overhead {overhead:.4f} s on {len(ops)} ops ({overhead / untraced_s:.1%} of the "
        "untraced pass, both scaled to the reference speed)"
    )
    lines.append(f"trace self-check {'failed' if problems else 'passed'}")
    lines.append(f"references {len(refs) - computed} stored, {computed} computed")
    return metrics, len(untraced) + len(traced)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            probes = [probe() for _ in range(PROBE_SETUP_REPEATS)]
            took, lib, ops = setup(workload, seed, workdir)
            probes += [probe() for _ in range(PROBE_SETUP_REPEATS)]
            raw_setups.append(took)
            setups.append(took * PROBE_REFERENCE_S / statistics.median(probes))
        failures, lines = {}, []
        if trace:
            metrics, attempted = traced_run(workload, seed, workdir, lib, ops, failures, lines)
        else:
            metrics, attempted = timed_run(workload, seed, seconds, lib, ops, setups, raw_setups, failures, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    lines.append(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    lines.extend(f"FAIL {reason}" for reason in list(failures.values())[:20])
    lines.extend(f"{workload} {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        code = 0
        for workload in wl.WORKLOADS:
            argv = ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), *argv, "--trace", str(args.trace)])
            code = code or proc.returncode
        return code
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import {tr.PKG} from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
