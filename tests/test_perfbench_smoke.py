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
V_QUERIES = {"gs-path": 4906, "enum-path": 5065, "cli-files": 374}


@pytest.mark.parametrize("workload", sorted(V_QUERIES))
def test_one_pass_matches_the_stored_answers(workload):
    script = os.path.join("perfbench", "run.py")
    run = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert f"references {result['attempted']} stored, 0 computed" in run.stdout.splitlines()
    assert result["metrics"]["v_queries"]["value"] == V_QUERIES[workload]
