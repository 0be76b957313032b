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
import hashlib
import sys
import time
from fractions import Fraction

from . import approx, contract, demand, generators, robust
from .errors import (
    ContractError,
    DomainError,
    InvariantError,
    PrecisionError,
    ResourceLimitError,
    UnsupportedClassError,
)
from .functions import Instance, validate
from .instancefile import dump_instance, load_instance
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
        raise _UsageError(message)


class _UsageError(Exception):
    pass


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


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _load_binary(path: str) -> Instance:
    inst = load_instance(path)
    if not isinstance(inst, Instance):
        raise DomainError("this command needs a binary-model instance file")
    report = validate(inst)
    if not report.ok:
        raise _ValidationFailure(str(report))
    return inst


def _load_general(path: str) -> GeneralInstance:
    inst = load_instance(path)
    if isinstance(inst, Instance):
        inst = robust.embed_binary(inst)
    report = validate_general(inst)
    if not report.ok:
        raise _ValidationFailure(str(report))
    return inst


class _ValidationFailure(Exception):
    pass


def _cmd_solve(args) -> int:
    inst = _load_binary(args.instance)
    sol = contract.optimal_contract(inst, method=args.method)
    pairs = [
        ("command", "solve"),
        ("input_digest", _digest(args.instance)),
        ("method", args.method),
        ("alpha_star", _fmt(sol.alpha_star, args.decimal)),
        ("utility", _fmt(sol.utility, args.decimal)),
        ("actions", _fmt_set(sol.actions)),
        ("v_queries", sol.v_queries),
    ]
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _cmd_critical_set(args) -> int:
    inst = _load_binary(args.instance)
    profile = contract.brute_force_critical_set(inst)
    header = ["index", "alpha", "v", "utility", "demand"]
    rows = []
    for i, (a, v, dset) in enumerate(
        zip(profile.alphas, profile.values, profile.demand_sets), 1
    ):
        rows.append(
            [
                i,
                _fmt(a, args.decimal),
                _fmt(v, args.decimal),
                _fmt((1 - a) * v, args.decimal),
                _fmt_set(dset),
            ]
        )
    _print_table(header, rows, args.format)
    return EXIT_OK


def _cmd_demand(args) -> int:
    inst = _load_binary(args.instance)
    alpha = parse_rational(args.alpha, inst.k)
    pairs = [
        ("command", "demand"),
        ("input_digest", _digest(args.instance)),
        ("alpha", _fmt(alpha, args.decimal)),
    ]
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
    pairs.extend(
        [
            ("demand_sets", " ".join(_fmt_set(s) for s in profile.demand)),
            ("d_star", " ".join(_fmt_set(s) for s in profile.d_star)),
            ("best_response", _fmt_set(demand.canonical_best_response(profile))),
            ("agent_utility", _fmt(profile.u_agent, args.decimal)),
            ("v", _fmt(profile.v, args.decimal)),
        ]
    )
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _cmd_succ(args) -> int:
    inst = _load_binary(args.instance)
    alpha = parse_rational(args.alpha, inst.k)
    if args.method == "brute":
        profile = contract.brute_force_critical_set(inst)
        result = contract.successor_from_profile(profile, alpha)
        queries = 0
    else:
        oracle, successor, _ = contract.SUCCESSORS[args.method](inst)
        result = successor(inst, alpha, oracle=oracle)
        queries = oracle.queries
    pairs = [
        ("command", "succ"),
        ("input_digest", _digest(args.instance)),
        ("method", args.method),
        ("alpha", _fmt(alpha, args.decimal)),
        ("successor", "NULL" if result is None else _fmt(result, args.decimal)),
        ("v_queries", queries),
    ]
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _cmd_fptas(args) -> int:
    inst = _load_binary(args.instance)
    epsilon = parse_rational(args.epsilon)
    sol = approx.fptas(inst, epsilon)
    spec = approx.grid_spec(epsilon, inst.k)
    pairs = [
        ("command", "fptas"),
        ("input_digest", _digest(args.instance)),
        ("epsilon", format_rational(epsilon)),
        ("grid_size", spec.size),
        ("alpha", _fmt(sol.alpha_star, args.decimal)),
        ("utility", _fmt(sol.utility, args.decimal)),
        ("actions", _fmt_set(sol.actions)),
        ("v_queries", sol.v_queries),
    ]
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.generator == "subset-sum":
        values = tuple(int(x) for x in args.values.split(","))
        spec = generators.SubsetSumSpec(values, args.target)
        inst = generators.gen_subset_sum(spec)
    elif args.generator == "coverage-tower":
        inst = generators.gen_exponential_coverage(args.n)
        if args.normalize:
            inst = generators.normalize(inst)
    else:
        inst = generators.sample_instance(args.klass, args.n, args.k, args.seed)
    report = validate(inst)
    if not report.ok:
        raise InvariantError(f"generator produced an invalid instance:\n{report}")
    dump_instance(inst, args.output)
    pairs = [
        ("command", f"gen {args.generator}"),
        ("output", args.output),
        ("n", inst.n),
        ("class", inst.f.kind),
        ("output_digest", _digest(args.output)),
    ]
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _parse_contract(args) -> GeneralContract:
    if args.slope is not None:
        return GeneralContract.linear(parse_rational(args.slope))
    if args.payments is None:
        raise DomainError("supply --slope or --payments")
    table = {}
    for piece in args.payments.split(","):
        if "=" not in piece:
            raise DomainError(f"bad payment entry {piece!r}; use level=payment")
        level, pay = piece.split("=", 1)
        table[parse_rational(level)] = parse_rational(pay)
    return GeneralContract.tabular(table)


def _cmd_robust(args) -> int:
    ginst = _load_general(args.instance)
    if args.robust_command == "linearize":
        t = _parse_contract(args)
        alpha = robust.linearize(t, ginst)
        pairs = [
            ("command", "robust linearize"),
            ("input_digest", _digest(args.instance)),
            ("alpha", _fmt(alpha, args.decimal)),
            (
                "worst_case_utility_original",
                _fmt(robust.worst_case_utility_twopoint(t, ginst), args.decimal),
            ),
            (
                "worst_case_utility_linear",
                _fmt(
                    robust.worst_case_utility_twopoint(
                        GeneralContract.linear(alpha), ginst
                    ),
                    args.decimal,
                ),
            ),
        ]
    else:
        sol = robust.optimal_linear_general(ginst, method=args.method)
        pairs = [
            ("command", "robust solve-linear"),
            ("input_digest", _digest(args.instance)),
            ("alpha_star", _fmt(sol.alpha_star, args.decimal)),
            ("utility", _fmt(sol.utility, args.decimal)),
            ("actions", _fmt_set(sol.actions)),
            ("v_queries", sol.v_queries),
        ]
    _print_pairs(pairs, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load_binary(args.instance)
    epsilon = parse_rational(args.epsilon)
    checks = []
    try:
        for check in _verify_checks(inst, epsilon):
            checks.append(check)
    finally:  # a refusal part-way still shows the rows computed before it
        if checks:
            _print_table(["check", "status", "note"], checks, args.format)
    if any(status == "FAIL" for _, status, _ in checks):
        raise InvariantError("verification uncovered an internal inconsistency")
    return EXIT_OK


def _verify_checks(inst: Instance, epsilon: Fraction):
    """Cross-checks of every computation path against the envelope oracle,
    yielded as (check, status, note) rows."""
    profile = contract.brute_force_critical_set(inst)
    reference = contract.optimal_contract(inst, method="brute")
    probes = [Fraction(0)] + list(profile.alphas) + [Fraction(1)]
    for i in range(1, len(profile.alphas)):
        probes.append((profile.alphas[i - 1] + profile.alphas[i]) / 2)

    brute = {a: demand.brute_force_demand(inst, a) for a in probes}
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
            for a in [Fraction(0)] + list(profile.alphas)
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

    if inst.k is not None:
        from .rational import in_bounded_set

        ok = all(in_bounded_set(a, inst.k) for a in profile.alphas)
        yield "k-bit-critical-values", _verdict(ok), f"k={inst.k}"

        ok = True
        queries_ok = True
        for a in [Fraction(0)] + list(profile.alphas):
            oracle = demand.VOracle(inst)
            got = approx.succ_search(inst, a, oracle=oracle)
            if got != contract.successor_from_profile(profile, a):
                ok = False
            if oracle.queries > 2 * inst.k + 1:
                queries_ok = False
        yield "succ-search-vs-envelope", _verdict(ok), ""
        yield "succ-search-query-bound", _verdict(queries_ok), f"<= {2 * inst.k + 1}"

        sol = approx.fptas(inst, epsilon)
        ok = sol.utility >= (1 - epsilon) * reference.utility
        yield "fptas-guarantee", _verdict(ok), f"epsilon={format_rational(epsilon)}"
        spec = approx.grid_spec(epsilon, inst.k)
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

    expected = (reference.alpha_star, reference.utility)
    methods, ok = ["brute"], True
    for m in contract.SUCCESSORS:
        try:
            sol = contract.optimal_contract(inst, method=m)
        except (UnsupportedClassError, PrecisionError):
            continue  # gs needs a certified class, search a declared k
        methods.append(m)
        ok = ok and (sol.alpha_star, sol.utility) == expected
    yield "optimal-contract-backends", _verdict(ok), "+".join(methods)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="combicontracts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_decimal=True):
        p.add_argument("--format", choices=["table", "csv"], default="table")
        if with_decimal:
            p.add_argument(
                "--decimal",
                type=int,
                default=None,
                metavar="D",
                help="add a rounded display column with D digits",
            )

    p = sub.add_parser("solve", help="optimal linear contract")
    p.add_argument("instance")
    p.add_argument("--method", choices=["auto", "gs", "search", "brute"], default="auto")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("critical-set", help="full critical profile (envelope)")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=_cmd_critical_set)

    p = sub.add_parser("demand", help="agent best response at a contract value")
    p.add_argument("instance")
    p.add_argument("--alpha", required=True)
    common(p)
    p.set_defaults(func=_cmd_demand)

    p = sub.add_parser("succ", help="successor critical value")
    p.add_argument("instance")
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=["gs", "search", "brute"], default="brute")
    common(p)
    p.set_defaults(func=_cmd_succ)

    p = sub.add_parser("fptas", help="(1-eps)-approximate contract on the grid")
    p.add_argument("instance")
    p.add_argument("--epsilon", required=True)
    common(p)
    p.set_defaults(func=_cmd_fptas)

    p = sub.add_parser("gen", help="write a generated instance file")
    gsub = p.add_subparsers(dest="generator", required=True)

    g = gsub.add_parser("subset-sum")
    g.add_argument("--values", required=True, help="comma-separated integers")
    g.add_argument("--target", required=True, type=int)
    g.add_argument("-o", "--output", required=True)
    common(g, with_decimal=False)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("coverage-tower")
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--normalize", action="store_true")
    g.add_argument("-o", "--output", required=True)
    common(g, with_decimal=False)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("random")
    g.add_argument("--class", dest="klass", required=True, choices=generators.SAMPLE_CLASSES)
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--k", required=True, type=int)
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("-o", "--output", required=True)
    common(g, with_decimal=False)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("robust", help="multi-outcome linear contracts")
    rsub = p.add_subparsers(dest="robust_command", required=True)

    r = rsub.add_parser("linearize")
    r.add_argument("instance")
    r.add_argument("--slope", default=None)
    r.add_argument("--payments", default=None, help="level=payment,level=payment,...")
    common(r)
    r.set_defaults(func=_cmd_robust)

    r = rsub.add_parser("solve-linear")
    r.add_argument("instance")
    r.add_argument("--method", choices=["auto", "gs", "search", "brute"], default="auto")
    common(r)
    r.set_defaults(func=_cmd_robust)

    p = sub.add_parser("verify", help="run the brute-force cross-check suite")
    p.add_argument("instance")
    p.add_argument("--epsilon", default="1/2")
    common(p, with_decimal=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except _ValidationFailure as exc:
        print(f"validation failed:\n{exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        code = EXIT_RESOURCE
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        code = EXIT_INVARIANT
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    elapsed = time.perf_counter() - started
    print(f"wall_time_s {elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
