"""tools/digest.py runs, and prints the same digests with the BLAS thread
count left to phcnet, with it set to 1, and in a process allowed one CPU,
which runs no conv worker thread.

That equality is the bitwise determinism check: the tool's output on two
source trees diffs clean only if every run is deterministic on each, and
one tree's output does not depend on the machine's core count.  The test
session itself runs BLAS on the one thread the root conftest.py pins.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNS = ["patch", "two-view", "physenet", "phybonet", "segmentation", "pos-weight",
        "n1-random", "early-stop"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest(preexec_fn=None, **threads) -> str:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py")],
                          capture_output=True, text=True, timeout=600, preexec_fn=preexec_fn,
                          env={**env, **threads, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def default_digest() -> str:
    return digest()


def test_digest_runs_and_repeats(default_digest):
    rows = [line.split() for line in default_digest.splitlines()]
    assert [row[0] for row in rows] == RUNS + ["datasets"]
    assert all(len(row) == 3 and row[1] == "epochs=3" for row in rows[:-1])
    # 16 + 16 + 32 samples: their views, one mask each and the three manifests
    assert rows[-1][1:2] == [f"files={(16 + 16) * 3 + 32 * 5 + 3}"]
    assert digest(OPENBLAS_NUM_THREADS="1") == default_digest


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_digest_on_one_cpu(default_digest):
    cpu = min(os.sched_getaffinity(0))
    assert digest(preexec_fn=lambda: os.sched_setaffinity(0, {cpu})) == default_digest


def test_session_blas_threads_are_pinned():
    import numpy  # noqa: F401  (loads OpenBLAS)

    # the benchmark's own query of the loaded library, which reads and sets nothing
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    threads = bench_run._blas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert "OPENBLAS_NUM_THREADS" in os.environ, "nothing pinned the count before numpy loaded"
    want = int(os.environ["OPENBLAS_NUM_THREADS"])
    # OpenBLAS caps a count set before the session at the cores it sees
    assert threads == want if want == 1 else 1 <= threads <= want


# OpenBLAS's thread count before and after ``import phcnet``, numpy imported first
PROBE = """
import ctypes, sys, numpy
lib = ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__)
count = getattr(lib, "scipy_openblas_get_num_threads64_", None)
if count is None:
    sys.exit(3)
before = count()
import phcnet
print(before, count())
"""


def blas_threads_around_import(**threads) -> tuple[int, int]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          timeout=120, env={**env, **threads, "PYTHONPATH": str(ROOT / "src")})
    if proc.returncode == 3:
        pytest.skip("numpy does not bundle scipy-openblas")
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    return before, after


def test_numpy_first_runs_blas_on_one_thread():
    assert blas_threads_around_import()[1] == 1


def test_numpy_first_keeps_a_count_set_in_the_environment():
    before, after = blas_threads_around_import(OPENBLAS_NUM_THREADS="2")
    # OpenBLAS caps the count at the CPUs the process may use
    assert after == before == min(2, len(os.sched_getaffinity(0)))
