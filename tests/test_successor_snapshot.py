"""Snapshot of every solver answer and V-query count on a seeded corpus.

For each instance (six classes, n in 3, 5, 7, 9, k in 3, 6, 8, seeds 0-3)
it records each ``optimal_contract`` method's (alpha_star, utility,
actions, v_queries), or the class of the error that refuses it, and each
fresh ``succ_gs`` / ``succ_search`` call's (successor, queries) from 0,
from every critical value and from 1/3, each on a new ``VOracle``.  The
records are pinned by one digest per instance in ``successor_snapshot.json``,
so a change that keeps every answer but moves one query count fails here.

Rebuild the file with ``PYTHONPATH=src python tests/test_successor_snapshot.py``
only when a change of counts is intended.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from combicontracts import (
    ContractError,
    VOracle,
    brute_force_critical_set,
    optimal_contract,
    sample_instance,
    succ_gs,
    succ_search,
)

SNAPSHOT = Path(__file__).with_name("successor_snapshot.json")
CLASSES = ("additive", "unit-demand", "matroid-rank", "budget-additive", "coverage", "table")
METHODS = ("auto", "gs", "search", "brute")


def corpus():
    for klass in CLASSES:
        for n in (3, 5, 7, 9):
            for k in (3, 6, 8):
                for seed in range(4):
                    yield f"{klass} n={n} k={k} seed={seed}", sample_instance(klass, n, k, seed)


def records(inst) -> list:
    rows = []
    for method in METHODS:
        try:
            sol = optimal_contract(inst, method)
        except ContractError as exc:
            rows.append((method, type(exc).__name__))
            continue
        actions = sorted(sol.actions)
        rows.append((method, str(sol.alpha_star), str(sol.utility), actions, sol.v_queries))
    successors = [succ_search] + [succ_gs] * inst.f.gs_certified
    for alpha in (Fraction(0), *brute_force_critical_set(inst).alphas, Fraction(1, 3)):
        for successor in successors:
            oracle = VOracle(inst)
            got = successor(inst, alpha, oracle=oracle)
            rows.append((successor.__name__, str(alpha), str(got), oracle.queries))
    return rows


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_answers_and_query_counts_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    got = {name: digest(records(inst)) for name, inst in corpus()}
    assert len(got) == 288
    changed = [name for name in expected if got.get(name) != expected[name]]
    assert got.keys() == expected.keys() and not changed, changed[:5]


if __name__ == "__main__":
    table = {name: digest(records(inst)) for name, inst in corpus()}
    SNAPSHOT.write_text(json.dumps(table, indent=1) + "\n")
