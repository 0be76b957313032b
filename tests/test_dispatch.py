"""Which backend runs, or which error class refuses, for every entry point.

Instances of N = 12 and N + 1 actions fit every enumeration, and instances
of L = 21 actions are one past the enumeration limit of 2**20 rows: there a
2**n scan (additive ``brute``) is refused, while coverage over a 4-element
universe has at most 16 states and answers.  Each row pins the outcome of
every entry point on one instance kind: "ok" for an answer, otherwise the
first letter of the exception class (U UnsupportedClassError, P
PrecisionError, R ResourceLimitError).
"""

from fractions import Fraction

import pytest

from combicontracts import (
    ENUMERATION_LIMIT,
    Additive,
    Coverage,
    Instance,
    PrecisionError,
    ResourceLimitError,
    UnsupportedClassError,
    VOracle,
    brute_force_critical_set,
    fptas,
    optimal_contract,
    sample_instance,
    succ_gs,
    succ_search,
    v_value,
)
from combicontracts import demand
from combicontracts.demand import GreedyKernel

CALLS = {
    "auto": lambda inst: optimal_contract(inst, "auto"),
    "gs": lambda inst: optimal_contract(inst, "gs"),
    "search": lambda inst: optimal_contract(inst, "search"),
    "brute": lambda inst: optimal_contract(inst, "brute"),
    "fptas": lambda inst: fptas(inst, Fraction(1, 2)),
    "succ_gs": lambda inst: succ_gs(inst, 0),
    "succ_search": lambda inst: succ_search(inst, 0),
    "v_value": lambda inst: v_value(inst, Fraction(1, 2)),
    "VOracle": VOracle,
}

N, L = 12, ENUMERATION_LIMIT.bit_length()
#                               auto gs search brute fptas succ_gs succ_search v_value VOracle
EXPECTED = {
    ("additive", N, 4):        "ok   ok ok     ok    ok    ok      ok          ok      ok",
    ("additive", N, None):     "ok   ok P      ok    P     ok      P           ok      ok",
    ("additive", N + 1, 4):    "ok   ok ok     ok    ok    ok      ok          ok      ok",
    ("additive", N + 1, None): "ok   ok P      ok    P     ok      P           ok      ok",
    ("additive", L, 4):        "ok   ok ok     R     ok    ok      ok          ok      ok",
    ("additive", L, None):     "ok   ok P      R     P     ok      P           ok      ok",
    ("coverage", N, 4):        "ok   U  ok     ok    ok    U       ok          ok      ok",
    ("coverage", N, None):     "ok   U  P      ok    P     U       P           ok      ok",
    ("coverage", N + 1, 4):    "ok   U  ok     ok    ok    U       ok          ok      ok",
    ("coverage", N + 1, None): "ok   U  P      ok    P     U       P           ok      ok",
    ("coverage", L, 4):        "ok   U  ok     ok    ok    U       ok          ok      ok",
    ("coverage", L, None):     "ok   U  P      ok    P     U       P           ok      ok",
}

LETTERS = {UnsupportedClassError: "U", PrecisionError: "P", ResourceLimitError: "R"}


def _instance(klass, n, k):
    costs = [Fraction(i, 16) for i in range(1, n + 1)]
    if klass == "additive":
        f = Additive([Fraction(3 + i, 16) for i in range(n)])
    else:
        f = Coverage(
            [Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)],
            [frozenset({i % 4, (i + 1) % 4}) for i in range(n)],
        )
    return Instance(f, costs, k=k)


def _outcome(call, inst) -> str:
    try:
        call(inst)
    except tuple(LETTERS) as exc:
        return LETTERS[type(exc)]
    return "ok"


@pytest.mark.parametrize("kind", list(EXPECTED), ids=lambda kind: "-".join(map(str, kind)))
def test_dispatch_outcomes(kind):
    inst = _instance(*kind)
    got = {name: _outcome(call, inst) for name, call in CALLS.items()}
    assert got == dict(zip(CALLS, EXPECTED[kind].split()))


def test_one_kernel_per_certified_solve(monkeypatch):
    built = []
    init = GreedyKernel.__init__

    def counting_init(self, inst):
        built.append(inst)
        init(self, inst)

    monkeypatch.setattr(GreedyKernel, "__init__", counting_init)
    inst = _instance("additive", 4, 4)
    assert optimal_contract(inst, "gs").actions
    assert len(built) == 1
    built.clear()
    assert fptas(inst, Fraction(1, 2)).actions
    assert len(built) == 1


@pytest.mark.parametrize("klass", ["additive", "coverage"])
def test_fresh_succ_search_asks_only_its_own_oracle(monkeypatch, klass):
    # V(alpha) is read uncounted from the oracle given, not from a second one
    built, calls = [], []
    init, call = GreedyKernel.__init__, VOracle.__call__
    monkeypatch.setattr(GreedyKernel, "__init__", lambda self, i: built.append(i) or init(self, i))
    monkeypatch.setattr(VOracle, "__call__", lambda self, *a: calls.append(a) or call(self, *a))
    inst = sample_instance(klass, 6, 6, 3)
    oracle = VOracle(inst)
    assert succ_search(inst, Fraction(1, 7), oracle=oracle) is not None
    assert len(calls) == oracle.queries > 0
    assert len(built) == (klass == "additive")


def test_one_envelope_per_uncertified_solve(monkeypatch):
    scans = []
    scan = demand.brute_force_demand
    monkeypatch.setattr(
        demand, "brute_force_demand", lambda *args: scans.append(args) or scan(*args)
    )
    inst = _instance("coverage", 3, 4)
    for solve in (lambda: optimal_contract(inst, "search"), lambda: fptas(inst, Fraction(1, 2))):
        brute_force_critical_set.cache_clear()
        assert solve().actions
        assert brute_force_critical_set.cache_info().misses == 1
    assert scans == []
