"""The demos that drive the micro-world and the crypto API run to completion.

Demos 01-03 write figures into demos/output/ and are left out.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["04_encrypted_ledger_walkthrough.py", "05_microworld_protocol_run.py"]
)
def test_demo_exits_cleanly(script, tmp_path):
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
