"""Snapshot of every solver answer and V-query count on a seeded corpus.

For each instance (six classes, n in 3, 5, 7, 9, k in 3, 6, 8, seeds 0-3)
it records each ``optimal_contract`` method's (alpha_star, utility,
actions, v_queries), or the class of the error that refuses it, and each
fresh ``succ_gs`` / ``succ_search`` call's (successor, queries) from 0,
from every critical value and from 1/3, each on a new ``VOracle``.  The
records are pinned in ``successor_snapshot.json`` by two digests per
instance, one over the answers and one over the V-query counts, so a change
that keeps every answer but moves one query count fails here as a count
move alone.

Rebuild the file with ``PYTHONPATH=src python tests/test_successor_snapshot.py``
only when a change of answers or counts is intended.
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
PARTS = ("answers", "queries")


def corpus():
    for klass in CLASSES:
        for n in (3, 5, 7, 9):
            for k in (3, 6, 8):
                for seed in range(4):
                    yield f"{klass} n={n} k={k} seed={seed}", sample_instance(klass, n, k, seed)


def records(inst) -> dict:
    """The answer rows and the V-query count rows of one instance."""
    answers, queries = [], []
    for method in METHODS:
        try:
            sol = optimal_contract(inst, method)
        except ContractError as exc:
            answers.append((method, type(exc).__name__))
            continue
        actions = sorted(sol.actions)
        answers.append((method, str(sol.alpha_star), str(sol.utility), actions))
        queries.append((method, sol.v_queries))
    successors = [succ_search] + [succ_gs] * inst.f.gs_certified
    for alpha in (Fraction(0), *brute_force_critical_set(inst).alphas, Fraction(1, 3)):
        for successor in successors:
            oracle = VOracle(inst)
            got = successor(inst, alpha, oracle=oracle)
            answers.append((successor.__name__, str(alpha), str(got)))
            queries.append((successor.__name__, str(alpha), oracle.queries))
    return {"answers": answers, "queries": queries}


def digests(inst) -> dict:
    return {
        part: hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        for part, rows in records(inst).items()
    }


def test_answers_and_query_counts_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    got = {name: digests(inst) for name, inst in corpus()}
    assert len(got) == 288 and got.keys() == expected.keys()
    moved = {}
    for part in PARTS:
        names = [name for name in expected if got[name][part] != expected[name][part]]
        moved[part] = (len(names), names[:5])
    assert moved == {part: (0, []) for part in PARTS}, moved


if __name__ == "__main__":
    table = {name: digests(inst) for name, inst in corpus()}
    lines = (f" {json.dumps(name)}: {json.dumps(row)}" for name, row in table.items())
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
