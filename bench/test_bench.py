"""Checks of the benchmark itself: tracing changes no result, self times
add up, and BENCHMARK.json names what the code reports.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import math
import os
import sys

import pytest

import run

os.environ.update(run.PINNED_ENV)
sys.path.insert(0, str(run.ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = dataclasses.replace(workloads.WORKLOADS["two-view-train"],
                            train_count=24, eval_count=16)


def _run(tmp_path, traced):
    probe_patches, trace_patches = spans.Patches(), spans.Patches()
    tracer = spans.Tracer() if traced else None
    try:
        raw = workloads.run(SMALL, 3, 0.0, tmp_path / f"traced{int(traced)}",
                            probe_patches, tracer, trace_patches)
    finally:
        trace_patches.restore()
        probe_patches.restore()
    return raw, tracer


@pytest.fixture(scope="module")
def both_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return _run(tmp, False), _run(tmp, True)


def test_tracing_changes_no_result(both_runs):
    (plain, _), (traced, tracer) = both_runs
    assert not plain["checks"] and not traced["checks"]
    steps_per_epoch = math.ceil(plain["n_train"] / workloads.BATCH)
    assert len(plain["probe"].losses) == workloads.MIN_UNITS * steps_per_epoch
    assert plain["probe"].losses == traced["probe"].losses
    assert plain["epoch_losses"] == traced["epoch_losses"]
    assert plain["results"] == traced["results"]
    assert plain["checkpoint_sha256"] == traced["checkpoint_sha256"]
    assert tracer.spans


def test_main_thread_self_times_within_wall(both_runs):
    _, (raw, tracer) = both_runs
    main = [s for s in tracer.spans if s[spans.THREAD] == tracer.main_thread]
    own = spans.self_times(tracer.spans)
    wall = max(s[spans.END] for s in main) - min(s[spans.START] for s in main)
    assert all(own[id(s)] >= -1e-9 for s in main)
    assert sum(own[id(s)] for s in main) <= wall
    layer = spans.per_layer(tracer.spans)
    assert layer["training.steps"] == len(raw["probe"].losses)
    assert layer["tensor.col2im.calls"] > 0


def test_patches_restore_the_library():
    import phcnet

    before = (phcnet.autograd.conv2d, phcnet.nn.Adam.step, phcnet.training.train)
    patches = spans.Patches()
    spans.install(spans.Tracer(), patches, phcnet)
    assert phcnet.autograd.conv2d is not before[0]
    patches.restore()
    assert (phcnet.autograd.conv2d, phcnet.nn.Adam.step, phcnet.training.train) == before


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m[0], m[1], m[2]) for m in spans.PER_LAYER + spans.OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer
