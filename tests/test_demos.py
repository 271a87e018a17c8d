"""Every demo runs to completion.

Each script runs from a copy in a temporary directory, so the figures
demos 01-03 write into output/ next to the script land there too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
def test_demo_exits_cleanly(script, tmp_path):
    copy = tmp_path / script
    shutil.copy(ROOT / "demos" / script, copy)
    paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, str(copy)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
