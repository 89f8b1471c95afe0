"""Smoke test: the quicker demos run to completion.

Demos 01 and 02 are left out; they take about 18 s and 9 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "03_positivity_certificate.py",
    "04_four_unitary_average.py",
    "05_ucp_inequalities.py",
    "06_sentences_and_cli.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
