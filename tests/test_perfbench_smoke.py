"""The benchmark's own correctness check, run as a test.

``perfbench/run.py --seconds 0`` makes one pass over each workload's corpus
and compares every answer with its stored reference (solutions, CLI stdout
digests); the seed-1 V-query totals are the paper's query counts on that
corpus and must not move.  Every reference must come from storage: one
computed from the code under test would check that code against itself.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
V_QUERIES = {"gs-path": 4906, "enum-path": 3929, "cli-files": 374}


def one_pass(workload, *flags):
    script = os.path.join("perfbench", "run.py")
    run = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seconds", "0", *flags],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    return run, json.loads(run.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(V_QUERIES))
def test_one_pass_matches_the_stored_answers(workload):
    run, result = one_pass(workload)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert f"references {result['attempted']} stored, 0 computed" in run.stdout.splitlines()
    assert result["metrics"]["v_queries"]["value"] == V_QUERIES[workload]


def test_traced_enum_path_keeps_the_query_bounds():
    """The traced pass fails an operation whose succ_search call asks V more
    than 2k+1 times or whose fptas call asks other than |grid| times, and
    checks that the traced V queries are the reported ones."""
    run, result = one_pass("enum-path", "--trace", "1")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "trace self-check passed" in run.stdout.splitlines()
