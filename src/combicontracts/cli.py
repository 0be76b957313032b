"""Command-line surface.

Subcommands: solve, critical-set, demand, succ, fptas, gen, robust,
verify.  All numeric input and output is exact rational strings; the
optional --decimal flag adds a rounded display column without touching any
computation.  Output on stdout is byte-identical for identical inputs and
flags; wall time goes to stderr.

Exit codes: 0 success, 1 validation failure (or bad usage), 2 resource
limit, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from pathlib import Path

from . import approx, contract, crosscheck, demand, generators, robust
from .errors import (
    ContractError,
    DomainError,
    InvariantError,
    ResourceLimitError,
)
from .functions import Instance, validate
from .instancefile import _read_instance, dump_instance
from .rational import decimal_string, format_rational, parse_rational
from .robust import GeneralContract, GeneralInstance, validate_general

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # usage errors share the validation exit code, keeping 2 for resource limits
    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(message)


def _fmt(value, decimal: int | None) -> str:
    text = format_rational(value)
    if decimal is not None:
        text += f" ({decimal_string(value, decimal)})"
    return text


def _fmt_set(actions) -> str:
    if not actions:
        return "{}"
    return "{" + ",".join(str(a) for a in sorted(actions)) + "}"


def _print_pairs(pairs, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(key for key, _ in pairs))
        print(",".join(str(val) for _, val in pairs))
        return
    width = max(len(key) for key, _ in pairs)
    for key, val in pairs:
        print(f"{key:<{width}}  {val}")


def _print_table(header, rows, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
        return
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _load_binary(path: str) -> tuple[Instance, bytes]:
    inst, data = _read_instance(path)
    if not isinstance(inst, Instance):
        raise DomainError("this command needs a binary-model instance file")
    validate(inst)
    return inst, data


def _load_general(path: str) -> tuple[GeneralInstance, bytes]:
    inst, data = _read_instance(path)
    if isinstance(inst, Instance):
        inst = robust.embed_binary(inst)
    validate_general(inst)
    return inst, data


def _head(command: str, data: bytes) -> list:
    """The rows every command on an instance file opens with, given its bytes."""
    return [("command", command), ("input_digest", _digest(data))]


def _answer(sol, decimal: int | None, alpha_key: str = "alpha_star") -> list:
    """The rows of a solved contract: its value, utility, action set and V queries."""
    return [
        (alpha_key, _fmt(sol.alpha_star, decimal)),
        ("utility", _fmt(sol.utility, decimal)),
        ("actions", _fmt_set(sol.actions)),
        ("v_queries", sol.v_queries),
    ]


# Each handler returns the rows of its answer, or prints a table itself and returns None.


def _cmd_solve(args) -> list:
    inst, data = _load_binary(args.instance)
    sol = contract.optimal_contract(inst, method=args.method)
    return _head("solve", data) + [("method", args.method)] + _answer(sol, args.decimal)


def _cmd_critical_set(args) -> None:
    profile = contract.brute_force_critical_set(_load_binary(args.instance)[0])
    header, d = ["index", "alpha", "v", "utility", "demand"], args.decimal
    rows = [
        [i, _fmt(a, d), _fmt(v, d), _fmt((1 - a) * v, d), _fmt_set(dset)]
        for i, (a, v, dset) in enumerate(
            zip(profile.alphas, profile.values, profile.demand_sets), 1
        )
    ]
    _print_table(header, rows, args.format)


def _cmd_demand(args) -> list:
    inst, data = _load_binary(args.instance)
    alpha = parse_rational(args.alpha, inst.k)
    pairs = _head("demand", data) + [("alpha", _fmt(alpha, args.decimal))]
    if inst.f.gs_certified:
        ordered = demand.greedy_demand(inst, alpha)
        pairs.append(("greedy_order", "[" + ",".join(map(str, ordered.actions)) + "]"))
        pairs.append(
            (
                "greedy_step_utilities",
                "[" + ",".join(format_rational(u) for u in ordered.step_utilities) + "]",
            )
        )
    profile = demand.brute_force_demand(inst, alpha)
    return pairs + [
        ("demand_sets", " ".join(_fmt_set(s) for s in profile.demand)),
        ("d_star", " ".join(_fmt_set(s) for s in profile.d_star)),
        ("best_response", _fmt_set(demand.canonical_best_response(profile))),
        ("agent_utility", _fmt(profile.u_agent, args.decimal)),
        ("v", _fmt(profile.v, args.decimal)),
    ]


def _cmd_succ(args) -> list:
    inst, data = _load_binary(args.instance)
    alpha = parse_rational(args.alpha, inst.k)
    if args.method == "brute":
        profile = contract.brute_force_critical_set(inst)
        result = contract.successor_from_profile(profile, alpha)
        queries = 0
    else:
        oracle, successor, *_ = contract.SUCCESSORS[args.method](inst)
        result = successor(inst, alpha, oracle=oracle)
        queries = oracle.queries
    return _head("succ", data) + [
        ("method", args.method),
        ("alpha", _fmt(alpha, args.decimal)),
        ("successor", "NULL" if result is None else _fmt(result, args.decimal)),
        ("v_queries", queries),
    ]


def _cmd_fptas(args) -> list:
    inst, data = _load_binary(args.instance)
    epsilon = parse_rational(args.epsilon)
    sol = approx.fptas(inst, epsilon)
    grid = approx.grid_spec(epsilon, approx.critical_bits(inst))
    return (
        _head("fptas", data)
        + [("epsilon", format_rational(epsilon)), ("grid_size", grid.size)]
        + _answer(sol, args.decimal, "alpha")
    )


def _cmd_gen(args) -> list:
    if args.generator == "subset-sum":
        try:
            values = tuple(int(x) for x in args.values.split(","))
        except ValueError as exc:
            raise DomainError(f"--values must be comma-separated integers: {exc}") from exc
        spec = generators.SubsetSumSpec(values, args.target)
        inst = generators.gen_subset_sum(spec)
    elif args.generator == "coverage-tower":
        inst = generators.gen_exponential_coverage(args.n)
        if args.normalize:
            inst = generators.normalize(inst)
    else:
        inst = generators.sample_instance(args.klass, args.n, args.k, args.seed)
    try:
        validate(inst)
    except DomainError as exc:
        raise InvariantError(f"generator produced an invalid instance: {exc}") from exc
    dump_instance(inst, args.output)
    return [
        ("command", f"gen {args.generator}"),
        ("output", args.output),
        ("n", inst.n),
        ("class", inst.f.kind),
        ("output_digest", _digest(Path(args.output).read_bytes())),
    ]


def _parse_contract(args) -> GeneralContract:
    """The contract given: ``GeneralContract`` refuses both flags or a repeated level."""
    if args.slope is None and args.payments is None:
        raise DomainError("supply --slope or --payments")
    slope = None if args.slope is None else parse_rational(args.slope)
    payments = None
    if args.payments is not None:
        payments = []
        for piece in args.payments.split(","):
            if "=" not in piece:
                raise DomainError(f"bad payment entry {piece!r}; use level=payment")
            level, pay = piece.split("=", 1)
            payments.append((parse_rational(level), parse_rational(pay)))
    return GeneralContract(slope, payments)


def _cmd_linearize(args) -> list:
    ginst, data = _load_general(args.instance)
    t = _parse_contract(args)
    alpha = robust.linearize(t, ginst)
    original = robust.worst_case_utility_twopoint(t, ginst)
    return _head("robust linearize", data) + [
        ("alpha", _fmt(alpha, args.decimal)),
        ("worst_case_utility_original", _fmt(original, args.decimal)),
        # the linear contract has the same slope and pays 0 at level 0
        ("worst_case_utility_linear", _fmt(original + t.pay(0), args.decimal)),
    ]


def _cmd_solve_linear(args) -> list:
    ginst, data = _load_general(args.instance)
    sol = robust.optimal_linear_general(ginst, method=args.method)
    return _head("robust solve-linear", data) + _answer(sol, args.decimal)


def _cmd_verify(args) -> None:
    inst = _load_binary(args.instance)[0]
    epsilon = parse_rational(args.epsilon)
    checks = []
    try:
        for check in crosscheck.checks(inst, epsilon):
            checks.append(check)
    finally:  # a refusal part-way still shows the rows computed before it
        if checks:
            _print_table(["check", "status", "note"], checks, args.format)
    if any(status == "FAIL" for _, status, _ in checks):
        raise InvariantError("verification uncovered an internal inconsistency")


@functools.cache  # built once; argparse reads the terminal width when it formats
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="combicontracts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []  # (parser, decimal), given --format and --decimal after their own flags

    def command(group, name, func, *, instance=True, decimal=True, **kwargs):
        p = group.add_parser(name, **kwargs)
        if instance:
            p.add_argument("instance")
        p.set_defaults(func=func)
        leaves.append((p, decimal))
        return p

    methods = ["auto", *contract.SUCCESSORS, "brute"]
    p = command(sub, "solve", _cmd_solve, help="optimal linear contract")
    p.add_argument("--method", choices=methods, default="auto")
    command(sub, "critical-set", _cmd_critical_set, help="full critical profile (envelope)")
    p = command(sub, "demand", _cmd_demand, help="agent best response at a contract value")
    p.add_argument("--alpha", required=True)
    p = command(sub, "succ", _cmd_succ, help="successor critical value")
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=methods[1:], default="brute")
    p = command(sub, "fptas", _cmd_fptas, help="(1-eps)-approximate contract on the grid")
    p.add_argument("--epsilon", required=True)

    p = sub.add_parser("gen", help="write a generated instance file")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = command(gsub, "subset-sum", _cmd_gen, instance=False, decimal=False)
    g.add_argument("--values", required=True, help="comma-separated integers")
    g.add_argument("--target", required=True, type=int)
    g = command(gsub, "coverage-tower", _cmd_gen, instance=False, decimal=False)
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--normalize", action="store_true")
    g = command(gsub, "random", _cmd_gen, instance=False, decimal=False)
    g.add_argument("--class", dest="klass", required=True, choices=generators.SAMPLE_CLASSES)
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--k", required=True, type=int)
    g.add_argument("--seed", required=True, type=int)
    for g in gsub.choices.values():
        g.add_argument("-o", "--output", required=True)

    p = sub.add_parser("robust", help="multi-outcome linear contracts")
    rsub = p.add_subparsers(dest="robust_command", required=True)
    r = command(rsub, "linearize", _cmd_linearize)
    r.add_argument("--slope", default=None)
    r.add_argument("--payments", default=None, help="level=payment,level=payment,...")
    r = command(rsub, "solve-linear", _cmd_solve_linear)
    r.add_argument("--method", choices=methods, default="auto")

    p = command(
        sub, "verify", _cmd_verify, decimal=False, help="run the brute-force cross-check suite"
    )
    p.add_argument("--epsilon", default="1/2")

    for p, decimal in leaves:
        p.add_argument("--format", choices=["table", "csv"], default="table")
        if decimal:
            p.add_argument(
                "--decimal",
                type=int,
                default=None,
                metavar="D",
                help="add a rounded display column with D digits",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        pairs = args.func(args)
        if pairs is not None:
            _print_pairs(pairs, args.format)
        code = EXIT_OK
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        code = EXIT_RESOURCE
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        code = EXIT_INVARIANT
    except (ContractError, OSError) as exc:  # after its subclasses above
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    elapsed = time.perf_counter() - started
    print(f"wall_time_s {elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
