"""Seeded corpora, the operations run on them, and their reference answers.

Every corpus is a pure function of (workload, seed): the same seed gives the
same instances, files and operation order.  The size schedules and class
rotations below are fixed, so a new seed changes instance contents but not
the shape of the workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("gs-path", "enum-path", "cli-files")

# gs-path: certified classes at k=12, n from 10 to 25, mostly small; the
# 40 instances at n=13 keep the 90th percentile inside one dense group.
GS_K = 12
GS_CLASSES = ("additive", "unit-demand", "matroid-uniform", "matroid-partition")
GS_SIZES = ((10, 100), (11, 40), (12, 40), (13, 40), (14, 8), (16, 2), (18, 1), (20, 1), (22, 1), (25, 1))

# enum-path: non-certified k-bit classes within the default brute-force limit;
# mostly n=8, so that many similar instances set p50 and p90 and a pass fits
# one 20 s run (one search at n=12 costs about as much as 30 at n=8).
ENUM_K = 8
ENUM_CLASSES = ("budget-additive", "coverage", "table")
ENUM_SIZES = ((8, 72), (9, 24), (10, 3), (11, 1), (12, 1))
ENUM_METHODS = ("brute", "search", "fptas")
FPTAS_EPS = Fraction(1, 4)
SUBSET_SUM_SIZES = (8, 10, 12)
TOWER_ACTIONS = 5

# cli-files: one file per instance, several commands per file.
CLI_NONCERT_SIZES = (10, 11, 12)
CLI_NONCERT_PER_SIZE = 3
CLI_CERTIFIED = (("unit-demand", 80), ("unit-demand", 40)) + tuple(
    (klass, n) for klass in ("additive", "matroid-rank") for n in (10, 11, 12)
)
CLI_SUBSET_SUM_SIZES = (10, 12)
CLI_GENERAL_SIZES = (6, 7, 8)

# Reference backends: the envelope up to this many actions, bisection above.
ENVELOPE_MAX_ACTIONS = 12


class RefError(Exception):
    """A reference could not be established (construction facts disagree)."""


@dataclass
class Op:
    """One closed-loop operation: a solve or a CLI command on one instance."""

    op_id: str
    kind: str  # gs | brute | search | fptas | cli
    inst: object  # the in-memory instance (for cli, the one written to the file)
    argv: tuple = ()
    alpha: Fraction | None = None  # cli demand only
    facts: dict = field(default_factory=dict)  # known by construction


def _fmt(x) -> str:
    return str(Fraction(x))


def _set(actions) -> list | None:
    return None if actions is None else sorted(actions)


# ---------------------------------------------------------------- corpora


def _sample(lib, klass: str, n: int, k: int, rng: random.Random):
    """sample_instance with a drawn seed; matroid-* fixes the matroid type."""
    if not klass.startswith("matroid-"):
        return lib.pkg.sample_instance(klass, n, k, rng.randrange(1 << 31))
    want = lib.functions.UniformMatroid if klass == "matroid-uniform" else lib.functions.PartitionMatroid
    while True:
        inst = lib.pkg.sample_instance("matroid-rank", n, k, rng.randrange(1 << 31))
        if isinstance(inst.f.matroid, want):
            return inst


def _subset_sum(lib, n: int, yes: bool, rng: random.Random):
    """YES: the target is a subset sum.  NO: even values, odd target."""
    if yes:
        values = [rng.randint(10, 40) for _ in range(n)]
        target = sum(rng.sample(values, n // 2 + 1))
    else:
        values = [2 * rng.randint(5, 20) for _ in range(n)]
        target = rng.randrange(max(values) + 1, sum(values), 2)
    spec = lib.pkg.SubsetSumSpec(tuple(values), target)
    return lib.pkg.gen_subset_sum(spec), {"subset_sum_yes": yes, "target": target}


def _tower(lib):
    inst = lib.pkg.normalize(lib.pkg.gen_exponential_coverage(TOWER_ACTIONS))
    return inst, {"critical_count": (1 << TOWER_ACTIONS) - 1}


def _general(lib, n: int, rng: random.Random):
    """Three reward levels (0, 1/2, 1) with outcome tables built from two
    sampled monotone tables f, g: P(1) = f/2, P(1/2) = g/2, P(0) = the rest."""
    base = lib.pkg.sample_instance("table", n, ENUM_K, rng.randrange(1 << 31))
    other = lib.pkg.sample_instance("table", n, ENUM_K, rng.randrange(1 << 31))
    top = tuple(v / 2 for v in base.f.table)
    mid = tuple(v / 2 for v in other.f.table)
    low = tuple(1 - a - b for a, b in zip(top, mid))
    table = lib.functions.ExplicitTable
    return lib.pkg.GeneralInstance(
        costs=tuple(c / 4 for c in base.costs),
        rewards=(Fraction(0), Fraction(1, 2), Fraction(1)),
        distributions=(table(n, low), table(n, mid), table(n, top)),
    )


def build_gs_path(lib, seed: int, workdir: str) -> list:
    rng = random.Random(f"gs-path|{seed}")
    ops = []
    index = 0
    for n, count in GS_SIZES:
        for j in range(count):
            klass = GS_CLASSES[index % len(GS_CLASSES)]
            index += 1
            inst = _sample(lib, klass, n, GS_K, rng)
            ops.append(Op(f"{klass}-n{n}-{j}", "gs", inst))
    rng.shuffle(ops)
    return ops


def build_enum_path(lib, seed: int, workdir: str) -> list:
    rng = random.Random(f"enum-path|{seed}")
    ops = []
    index = 0
    for n, count in ENUM_SIZES:
        for j in range(count):
            klass = ENUM_CLASSES[index % len(ENUM_CLASSES)]
            index += 1
            inst = _sample(lib, klass, n, ENUM_K, rng)
            for method in ENUM_METHODS:
                ops.append(Op(f"{klass}-n{n}-{j}-{method}", method, inst))
    for n in SUBSET_SUM_SIZES:
        for yes in (True, False):
            inst, facts = _subset_sum(lib, n, yes, rng)
            ops.append(Op(f"subset-sum-n{n}-{'yes' if yes else 'no'}-brute", "brute", inst, facts=facts))
    inst, facts = _tower(lib)
    ops.append(Op(f"tower-n{TOWER_ACTIONS}-brute", "brute", inst, facts=facts))
    rng.shuffle(ops)
    return ops


def build_cli_files(lib, seed: int, workdir: str) -> list:
    """Writes one instance file per instance into ``workdir``."""
    rng = random.Random(f"cli-files|{seed}")
    ops = []

    def add(name, inst, commands, facts=None):
        path = os.path.join(workdir, name + ".json")
        lib.pkg.dump_instance(inst, path)
        for command in commands:
            alpha = None
            argv = command + (path,)
            if command == ("demand",):
                alpha = Fraction(rng.randrange(1, 1 << ENUM_K), 1 << ENUM_K)
                argv += ("--alpha", _fmt(alpha))
            ops.append(Op(f"{name}-{'-'.join(command)}", "cli", inst, argv, alpha, facts or {}))

    every = (("critical-set",), ("solve",), ("demand",))
    for klass in ENUM_CLASSES:
        for n in CLI_NONCERT_SIZES:
            for j in range(CLI_NONCERT_PER_SIZE):
                add(f"{klass}-n{n}-{j}", _sample(lib, klass, n, ENUM_K, rng), every)
    for n in CLI_SUBSET_SUM_SIZES:
        for yes in (True, False):
            inst, facts = _subset_sum(lib, n, yes, rng)
            add(f"subset-sum-n{n}-{'yes' if yes else 'no'}", inst, every[:2], facts)
    inst, facts = _tower(lib)
    add(f"tower-n{TOWER_ACTIONS}", inst, every[:2], facts)
    for klass, n in CLI_CERTIFIED:
        for j in range(2):
            commands = every[1:] if n <= ENVELOPE_MAX_ACTIONS else every[1:2]
            add(f"{klass}-n{n}-{j}", _sample(lib, klass, n, GS_K, rng), commands)
    for n in CLI_GENERAL_SIZES:
        for j in range(2):
            add(f"general-n{n}-{j}", _general(lib, n, rng), (("robust", "solve-linear"),))
    rng.shuffle(ops)
    return ops


CORPORA = {
    "gs-path": build_gs_path,
    "enum-path": build_enum_path,
    "cli-files": build_cli_files,
}


# ------------------------------------------------------------- operations


def run_op(lib, op: Op):
    """The timed call.  Returns the raw result; parsing happens afterwards."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(op.argv))
        return code, out.getvalue()
    if op.kind == "fptas":
        return lib.approx.fptas(op.inst, FPTAS_EPS)
    return lib.contract.optimal_contract(op.inst, method=op.kind)


def _parse_pairs(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, _, val = line.partition(" ")
        fields[key] = val.strip()
    return fields


def _parse_set(text: str) -> list | None:
    if text == "?":
        return None
    inner = text.strip("{}")
    return sorted(int(a) for a in inner.split(",")) if inner else []


def answer(op: Op, raw) -> dict:
    """Normalized, JSON-able answer of one operation."""
    if op.kind != "cli":
        return {
            "alpha_star": _fmt(raw.alpha_star),
            "utility": _fmt(raw.utility),
            "actions": _set(raw.actions),
            "v_queries": raw.v_queries,
        }
    code, text = raw
    out = {"exit": code, "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(), "v_queries": 0}
    if code != 0:
        return out
    if op.argv[0] == "critical-set":
        rows = [line.split() for line in text.splitlines()[1:]]
        out["rows"] = [[_fmt(a), _fmt(v), _parse_set(d)] for _, a, v, _, d in rows]
        return out
    fields = _parse_pairs(text)
    if op.argv[0] == "demand":
        for key in ("v", "agent_utility"):
            out[key] = _fmt(fields[key])
        out["best_response"] = _parse_set(fields["best_response"])
        return out
    out["alpha_star"] = _fmt(fields["alpha_star"])
    out["utility"] = _fmt(fields["utility"])
    out["actions"] = _parse_set(fields["actions"])
    out["v_queries"] = int(fields["v_queries"])
    return out


# ------------------------------------------------------------- references


def digest(lib, op: Op) -> str:
    """Identity of an operation's input, so stale references are detected."""
    argv = [a for a in op.argv if not a.endswith(".json")]
    text = "\n".join([op.kind, *argv, lib.pkg.dumps_instance(op.inst)])
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _envelope_optimum(profile) -> tuple:
    """(alpha*, utility, canonical set) read off a critical profile."""
    best = (Fraction(0), Fraction(0), frozenset())
    for a, v, dset in zip(profile.alphas, profile.values, profile.demand_sets):
        if (1 - a) * v > best[1]:
            best = (a, (1 - a) * v, dset)
    return best


def _solution_ref(lib, inst) -> dict:
    """Exact optimum: envelope for n <= 12, bisection backend above.

    For certified classes any member of D*(alpha*) is a correct incentivized
    set, so every member is listed; elsewhere the canonical set is required.
    """
    if inst.n <= ENVELOPE_MAX_ACTIONS:
        alpha, util, dset = _envelope_optimum(lib.contract.brute_force_critical_set(inst))
        accepted = [sorted(dset)]
        if inst.f.gs_certified:
            accepted = [sorted(s) for s in lib.demand.brute_force_demand(inst, alpha).d_star]
    else:
        sol = lib.contract.optimal_contract(inst, method="search")
        alpha, util, accepted = sol.alpha_star, sol.utility, [_set(sol.actions)]
    return {"alpha_star": _fmt(alpha), "utility": _fmt(util), "actions": accepted}


def _fptas_ref(lib, inst) -> dict:
    """Best grid point read off the envelope; the grid is rebuilt here."""
    profile = lib.contract.brute_force_critical_set(inst)
    best = (Fraction(0), Fraction(0), frozenset())
    power, floor = Fraction(1), Fraction(1, 1 << inst.k)
    while power > floor:
        power *= 1 - FPTAS_EPS
        alpha = 1 - power
        i = bisect_right(profile.alphas, alpha) - 1
        if i >= 0 and (1 - alpha) * profile.values[i] > best[1]:
            best = (alpha, (1 - alpha) * profile.values[i], profile.demand_sets[i])
    return {"alpha_star": _fmt(best[0]), "utility": _fmt(best[1]), "actions": [sorted(best[2])]}


def _general_ref(lib, ginst) -> dict:
    """Envelope of the unscaled lines alpha * R(S) - c(S)."""
    size = 1 << ginst.n
    rewards = tuple(ginst.expected_reward_mask(m) for m in range(size))
    binary = lib.functions.Instance(lib.functions.ExplicitTable(ginst.n, rewards), ginst.costs, scale=rewards[-1])
    alpha, util, dset = _envelope_optimum(lib.contract.brute_force_critical_set(binary))
    return {"alpha_star": _fmt(alpha), "utility": _fmt(util), "actions": [sorted(dset)]}


def _check_facts(lib, op: Op) -> None:
    """Facts fixed by the generator constructions, checked on the envelope."""
    profile = lib.contract.brute_force_critical_set(op.inst)
    facts = op.facts
    if "subset_sum_yes" in facts:
        hit = _envelope_optimum(profile)[0] == Fraction(1, facts["target"] ** 2)
        if hit != facts["subset_sum_yes"]:
            raise RefError(f"{op.op_id}: envelope optimum contradicts the subset-sum construction")
    if "critical_count" in facts and profile.size != facts["critical_count"]:
        raise RefError(f"{op.op_id}: {profile.size} critical values, expected {facts['critical_count']}")


def reference(lib, op: Op) -> dict:
    """Reference answer, computed outside the timed region with caches cold."""
    lib.clear_caches()
    command = op.argv[0] if op.argv else None
    if op.kind == "fptas":
        ref = _fptas_ref(lib, op.inst)
    elif command == "critical-set":
        p = lib.contract.brute_force_critical_set(op.inst)
        ref = {"rows": [[_fmt(a), _fmt(v), sorted(d)] for a, v, d in zip(p.alphas, p.values, p.demand_sets)]}
    elif command == "demand":
        prof = lib.demand.brute_force_demand(op.inst, op.alpha)
        ref = {"v": _fmt(prof.v), "agent_utility": _fmt(prof.u_agent), "best_response": sorted(prof.d_star[0])}
    elif command == "robust":
        ref = _general_ref(lib, op.inst)
    else:
        ref = _solution_ref(lib, op.inst)
    if op.facts:
        _check_facts(lib, op)
    if op.kind == "cli":
        lib.clear_caches()
        ref["stdout_sha256"] = answer(op, run_op(lib, op))["stdout_sha256"]
    lib.clear_caches()
    return ref


def mismatch(op: Op, got: dict, ref: dict) -> str | None:
    """None when the answer equals the reference, else a short reason."""
    if op.kind == "cli":
        if got["exit"] != 0:
            return f"exit code {got['exit']}"
        if got["stdout_sha256"] != ref["stdout_sha256"]:
            return "stdout bytes differ from the stored output"
    for key, want in ref.items():
        if key == "stdout_sha256":
            continue
        have = got.get(key)
        if key == "actions":
            if have not in want:
                return f"actions {have} not in {want}"
        elif isinstance(want, str):
            if have is None or Fraction(have) != Fraction(want):
                return f"{key} {have} != {want}"
        elif have != want:
            return f"{key} {have} != {want}"
    return None
