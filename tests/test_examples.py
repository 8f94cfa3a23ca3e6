"""Every example script runs cleanly as a user would run it.

Each ``examples/*.py`` runs in its own interpreter with ``PYTHONPATH=src``
and an empty temporary working directory: it must exit 0, print something,
and leave no file behind. ``serve_client.py`` needs a live daemon, so CI's
``serve`` job drives it instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path for path in (ROOT / "examples").glob("*.py") if path.name != "serve_client.py")


@pytest.mark.slow
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_cleanly(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()
    assert list(tmp_path.iterdir()) == []
