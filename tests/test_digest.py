"""tools/digest.py runs, and prints the same digests with the BLAS thread
count left to phcnet and with it set to 1.

That equality is the bitwise determinism check: the tool's output on two
source trees diffs clean only if every run is deterministic on each, and
one tree's output does not depend on the machine's core count.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ["patch", "two-view", "physenet", "phybonet", "segmentation", "pos-weight",
        "n1-random", "early-stop"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest(**threads) -> str:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py")],
                          capture_output=True, text=True, timeout=600,
                          env={**env, **threads, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_digest_runs_and_repeats():
    first = digest()
    rows = [line.split() for line in first.splitlines()]
    assert [row[0] for row in rows] == RUNS
    assert all(len(row) == 3 and row[1] == "epochs=3" for row in rows)
    assert digest(OPENBLAS_NUM_THREADS="1") == first
