"""tools/digest.py runs, and two runs on one tree print the same digests.

That equality is the bitwise determinism check: the tool's output on two
source trees diffs clean only if every run is deterministic on each.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ["patch", "two-view", "physenet", "phybonet", "segmentation", "pos-weight",
        "n1-random", "early-stop"]


def digest() -> str:
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py")],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_digest_runs_and_repeats():
    first = digest()
    rows = [line.split() for line in first.splitlines()]
    assert [row[0] for row in rows] == RUNS
    assert all(len(row) == 3 and row[1] == "epochs=3" for row in rows)
    assert digest() == first
