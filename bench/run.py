"""Run one phcnet benchmark workload and print its metrics.

    python3 bench/run.py --workload two-view-train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` wraps every
layer's public functions in spans and reports the per-layer metrics
derived from them, plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment and every check,
goes to ``.bench_out/`` at the repository root, next to the spans of a
traced run.  The exit code is 0 when every check passed, 1 when one
failed, and 2 when phcnet's sources are not found.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

# one BLAS thread next to training's one augmentation worker: two threads
# on a two-core machine
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PHCNET_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_samples_per_s", "1/s"),
    ("stage_s", "s"),
    ("eval_samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
UNTRACED_PASSES = 3


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "PHCNET_THREADS": os.environ["PHCNET_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _import_phcnet():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import phcnet
    except ImportError as exc:
        print(f"error: cannot import phcnet from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(phcnet.__file__).resolve().is_relative_to(src):
        print(f"error: phcnet imported from {phcnet.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(PINNED_ENV)
    _import_phcnet()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    probe_patches, trace_patches = spans.Patches(), spans.Patches()
    tracer = spans.Tracer() if args.trace else None
    try:
        raw = workloads.run(wl, args.seed, args.seconds, work, probe_patches,
                            tracer, trace_patches)
        summary = workloads.summarize(wl, raw)
        if tracer is not None:
            trace_patches.restore()
            layer = spans.per_layer(tracer.spans)
            if len(summary.get("pass_s", ())) > 1:
                untraced = [workloads.timed_pass(wl, raw) for _ in range(UNTRACED_PASSES)]
                traced = statistics.median(summary["pass_s"][1:])
                layer["trace.eval_pass_traced_s"] = traced
                layer["trace.eval_pass_untraced_s"] = statistics.median(untraced)
                layer["trace.overhead_ratio"] = traced / statistics.median(untraced)
            tracer.write(OUT / f"{stem}.spans.jsonl")
    finally:
        trace_patches.restore()
        probe_patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    correct = not summary["checks"] and summary["failed"] == 0
    if args.trace:
        unit_of = {m[0]: m[1] for m in spans.PER_LAYER + spans.OVERHEAD}
        values = {name: layer.get(name) for name in unit_of}
    else:
        unit_of = dict(END_TO_END)
        values = {name: summary.get("metrics", {}).get(name) for name in unit_of}
    work_done = "epochs" if wl.train_count else "passes"
    result = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        work_done: raw["units"],
        **{k: v for k, v in summary.items() if k != "metrics"},
        "metrics": {name: {"value": values[name], "unit": unit_of[name]} for name in unit_of},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{work_done} {raw['units']}")
    for key, value in result["environment"].items():
        print(f"  {key:16s} {value}")
    if "step_count" in summary:
        print(f"  steps timed {summary['step_count']} after warm-up; step_ms_tail is "
              f"p{summary['tail_percentile']:.0f}")
    if "loss_at_step" in summary:
        print(f"  loss after step {workloads.LOSS_STEP}: "
              f"{summary['loss_at_step']['loss']!r} (rtol {workloads.LOSS_RTOL})")
    if args.trace:
        print("per-layer metrics (totals over the run)")
        for name, unit in unit_of.items():
            if values[name] is not None:
                print(f"  {name:40s} {values[name]:14.6g} {unit}")
    elif "metrics" in summary:
        print(f"metrics: times calibrated to a {1000 * workloads.REFERENCE_S:g} ms reference "
              f"kernel; it took {summary['reference_ms']:.3f} ms in this run "
              "(wall-clock figures on the right)")
        for name, value in summary["metrics"].items():
            print(f"  {name:24s} {value:14.6g} {unit_of.get(name, 'ms'):4s}"
                  f" {summary['uncalibrated'][name]:14.6g}"
                  + ("" if name in unit_of else "  (not gated)"))
    failed_ratio = summary["failed"] / summary["attempted"]
    print(f"  {'failed_ratio':40s} {failed_ratio:14.6g} "
          f"({summary['failed']} of {summary['attempted']} steps and passes)")
    for check, detail in summary["checks"].items():
        print(f"CHECK FAILED: {check}: {detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit_of[name]}
                    for name in unit_of if values[name] is not None},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
