"""The benchmark's traced replay runs against the current package.

`perfbench/run.py --trace 1` repeats the CLI's steps through the
package's public names (the world's agents, their devices, positions and
ledgers) and checks the outputs; this runs it on both world workloads,
from the repository root as the benchmark is run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["world-contacts", "world-dispatch"])
def test_traced_replay_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] > 0
