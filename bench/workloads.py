"""The benchmark workloads, run through phcnet's public API.

Each run is one closed loop in one process: ``training.train`` starts a
batch only when the previous step has finished, and an evaluation pass
starts its next batch only when the previous forward has returned.  The
data seed comes from the command line; phcnet only sees the generated
manifests.  The amount of work follows from ``--seconds`` alone (never
from measured speed), so two commits always do the same work.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import phcnet
from phcnet import autograd as ag
from phcnet import checkpoint, data, metrics, models, nn, training
from phcnet.errors import PhcnetError

import spans

BATCH = 8
IMAGE_SIZE = 64
SETUP_REPEATS = 5
MIN_UNITS = 2  # one warm-up epoch or pass, and at least one timed
LOSS_STEP = 10
# the share by which a later commit's loss of training step LOSS_STEP may
# differ from its parent's on the same workload and seed
LOSS_RTOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str
    model: dict
    views: int
    label_rule: str
    train_count: int     # 0 for the evaluation-only workload
    eval_count: int
    unit_s: float        # idle-machine time of one epoch, or of one pass

    def units(self, seconds: float) -> int:
        """Epochs (training) or evaluation passes for a run of ``seconds``."""
        return max(MIN_UNITS, round(seconds / self.unit_s))


# 50 training samples split 40/10 for every seed (a rounded fifth of each
# class always sums to 10), so every epoch is five full batches of 8
WORKLOADS = {w.name: w for w in (
    Workload("two-view-train", "two-view",
             {"kind": "phresnet", "n": 2, "width": 16, "blocks": [2, 2, 2, 2]},
             views=2, label_rule="cross-view-xor", train_count=50, eval_count=32,
             unit_s=3.2),
    Workload("segmentation-train", "segmentation",
             {"kind": "phunet", "n": 2, "width": 8, "depth": 3},
             views=2, label_rule="single-view", train_count=50, eval_count=32,
             unit_s=2.1),
    Workload("four-view-eval", "four-view",
             {"kind": "phybonet", "n_encoder": 2, "n_bottleneck": 4, "width": 16},
             views=4, label_rule="single-view", train_count=0, eval_count=48,
             unit_s=2.0),
)}

TRAIN_EVAL_PASSES = 4  # evaluation passes after training; the first is warm-up
REFERENCE_S = 0.022     # the reference kernel's time on an idle machine


class Reference:
    """A fixed numpy kernel (an im2col copy and two GEMMs, as in a 16-channel
    64x64 conv) that no phcnet change can alter.

    Timed next to each closed-loop unit, it tracks how fast the shared
    machine runs at that moment; dividing a unit's time by it removes the
    slowdowns that other tenants cause.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((8, 16, 66, 66), dtype=np.float32)
        self.w = rng.random((144, 16), dtype=np.float32)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        windows = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 144))
        out = cols @ self.w
        np.ascontiguousarray(out.T) @ cols
        return time.perf_counter() - t0


class Probe:
    """The hooks every run installs.

    They time each training step (batch preparation, forward, loss,
    backward and Adam step) and each eval-mode model call, record the
    losses, count non-finite or out-of-range outputs, and time the
    reference kernel at each epoch start and after each step and call.  A
    step or call is paired with the mean of the reference times just
    before and just after it.  Reference time is kept out of every
    measured interval.
    """

    def __init__(self, reference: Reference | None):
        self.reference = reference
        self.refs: list[float] = []
        self.last_ref: float | None = None
        self.paused = 0.0
        self.epoch, self.mark = -1, 0.0
        self.steps: list[tuple[int, float, float | None]] = []
        self.batches: list[tuple[float, float | None]] = []
        self.losses: list[float] = []
        self.bad_outputs = 0

    def pause(self) -> float | None:
        """Time the reference kernel; returns its seconds, or None without one."""
        if self.reference is None:
            return None
        t0 = time.perf_counter()
        ref = self.reference()
        self.refs.append(ref)
        self.paused += time.perf_counter() - t0
        self.last_ref = ref
        return ref

    def _unit(self, seconds: float) -> tuple[float, float | None]:
        """Pair a unit's seconds with the reference times around it."""
        before = self.last_ref
        after = self.pause()
        if before is None or after is None:
            return seconds, after
        return seconds, 0.5 * (before + after)

    def install(self, patches) -> None:
        backward, step = ag.backward, nn.Adam.step

        def backward_hook(loss):
            self.losses.append(float(loss.value))
            return backward(loss)

        def step_hook(opt):
            step(opt)
            self.steps.append((self.epoch, *self._unit(time.perf_counter() - self.mark)))
            self.mark = time.perf_counter()

        patches.set(ag, "backward", backward_hook)
        patches.set(nn.Adam, "step", step_hook)
        for name in ("auc", "accuracy"):
            patches.set(metrics, name, self._probabilities(getattr(metrics, name)))

    def _probabilities(self, fn):
        def checked(probs, labels, *args, **kwargs):
            p = np.asarray(probs)
            if not (np.isfinite(p).all() and p.min() >= 0.0 and p.max() <= 1.0):
                self.bad_outputs += 1
            return fn(probs, labels, *args, **kwargs)

        return checked

    def install_model(self, patches, model) -> None:
        train, forward = model.train, model.forward

        def train_hook(mode=True):
            out = train(mode)
            if mode:
                self.epoch += 1
                self.pause()
                self.mark = time.perf_counter()
            return out

        def forward_hook(*args, **kwargs):
            if model.training:
                return forward(*args, **kwargs)
            t0 = time.perf_counter()
            out = forward(*args, **kwargs)
            seconds = time.perf_counter() - t0
            outs = out if isinstance(out, tuple) else (out,)
            if not all(np.isfinite(o.value).all() for o in outs):
                self.bad_outputs += 1
            self.batches.append(self._unit(seconds))
            return out

        patches.set(model, "train", train_hook)
        patches.set(model, "forward", forward_hook)

    def timed(self, fn):
        """Run ``fn()``; returns (its result, seconds without reference
        pauses, median reference seconds inside or None)."""
        t0, paused, first = time.perf_counter(), self.paused, len(self.refs)
        out = fn()
        seconds = time.perf_counter() - t0 - (self.paused - paused)
        refs = self.refs[first:]
        return out, seconds, statistics.median(refs) if refs else None


def calibrated(seconds: float, ref: float | None) -> float:
    """``seconds`` rescaled to the machine speed at which the reference takes
    REFERENCE_S; unchanged without a reference."""
    return seconds if ref is None else seconds * REFERENCE_S / ref


def _seeds(seed: int) -> dict[str, int]:
    parts = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("train_data", "eval_data", "model", "train"),
                    (int(p) % 2**31 for p in parts)))


def _generate(wl: Workload, count: int, seed: int, out: Path) -> data.Manifest:
    """Generate a set, then read it back as a user would: manifest and images."""
    spec = data.SyntheticSpec(size=IMAGE_SIZE, count=count, views=wl.views,
                              label_rule=wl.label_rule, seed=seed)
    data.gen_synthetic(spec, out)
    manifest = data.Manifest.load(out / "manifest.json")
    for entry in manifest.entries:
        manifest.load_views(entry)
        if wl.stage == "segmentation":
            manifest.load_mask(entry)
    return manifest


def setup(wl: Workload, seeds: dict, work: Path):
    """Everything before the first timed batch.

    Returns (train manifest or None, eval manifest, model under test, and
    for four-view-eval the seeded model whose checkpoint was loaded).
    """
    train_man = None
    if wl.train_count:
        train_man = _generate(wl, wl.train_count, seeds["train_data"], work / "train")
    eval_man = _generate(wl, wl.eval_count, seeds["eval_data"], work / "eval")
    model = models.build_model(wl.model, seed=seeds["model"])
    if wl.train_count:
        return train_man, eval_man, model, None
    path = work / "seeded.phck"
    checkpoint.save(path, model.state_dict(), models.model_config(model))
    state, config = checkpoint.load(path)
    loaded = models.build_model(config)
    loaded.load_state_dict(state)
    return None, eval_man, loaded, model


def _in_range(result: training.EvalResult) -> bool:
    values = [(result.auc, 1.0), (result.dice, 1.0), (result.accuracy, 100.0)]
    for key, top in (("auc", 1.0), ("accuracy", 100.0)):
        values += [(v, top) for v in result.per_head.get(key, ())]
    return all(v is None or (math.isfinite(v) and 0.0 <= v <= top) for v, top in values)


def _evaluate(model, manifest, stage):
    return training.evaluate(model, manifest, stage, batch_size=BATCH)


def timed_pass(wl: Workload, raw: dict) -> float:
    """Wall time of one more evaluation pass of the run's model."""
    t0 = time.perf_counter()
    _evaluate(raw["model"], raw["eval_manifest"], wl.stage)
    return time.perf_counter() - t0


def _reload(model, path: Path):
    """Save ``model``, then build a fresh model from the file."""
    checkpoint.save(path, model.state_dict(), models.model_config(model))
    state, config = checkpoint.load(path)
    fresh = models.build_model(config)
    fresh.load_state_dict(state)
    return fresh, hashlib.sha256(path.read_bytes()).hexdigest()


def run(wl: Workload, seed: int, seconds: float, work: Path, patches,
        tracer=None, trace_patches=None) -> dict:
    """Run one workload; returns its raw measurements and check outcomes.

    The probe's hooks go into ``patches``.  With a ``tracer``, the span
    wrappers go into ``trace_patches``, on top of the probe's, so restoring
    ``trace_patches`` alone leaves the probe in place.  The caller restores
    both.  A traced run times no reference kernel, so no span holds one.
    """
    probe = Probe(Reference() if tracer is None else None)
    probe.install(patches)
    if tracer is not None:
        spans.install(tracer, trace_patches, phcnet)
    seeds = _seeds(seed)
    setup_s = []
    for rep in range(SETUP_REPEATS):
        refs = [probe.pause() for _ in range(3)]
        t0 = time.perf_counter()
        train_man, eval_man, model, seeded = setup(wl, seeds, work / f"setup{rep}")
        setup_s.append((time.perf_counter() - t0,
                        None if refs[0] is None else statistics.median(refs)))
    probe.install_model(patches, model)
    if tracer is not None:
        spans.install_model(tracer, trace_patches, model)

    units = wl.units(seconds)
    raw = {"setup_s": setup_s, "units": units, "seeds": seeds, "checks": {},
           "probe": probe, "model": model, "eval_manifest": eval_man}
    checks = raw["checks"]
    if wl.train_count:
        cfg = training.TrainConfig(stage=wl.stage, batch_size=BATCH, max_epochs=units,
                                   patience=units, seed=seeds["train"])
        try:
            (_state, log), *stage = probe.timed(
                lambda: training.train(cfg, train_man, model))
        except PhcnetError as exc:
            checks["train raised"] = str(exc)
            raw["train_failed"] = True
            return raw
        raw["stage"] = stage
        raw["stage_batches"] = list(probe.batches)
        raw["n_train"] = len(log.split["train"])
        raw["epoch_losses"] = [e["train_loss"] for e in log.epochs]
        passes = TRAIN_EVAL_PASSES
    else:
        passes = units

    raw["passes"], results = [], []
    for _ in range(passes):
        first_batch, bad = len(probe.batches), probe.bad_outputs
        try:
            result, *timing = probe.timed(lambda: _evaluate(model, eval_man, wl.stage))
        except PhcnetError as exc:
            checks.setdefault("evaluate raised", str(exc))
            raw["passes"].append({"ok": False})
            continue
        results.append(result.to_json())
        raw["passes"].append({"ok": _in_range(result) and probe.bad_outputs == bad,
                              "timing": timing, "batches": probe.batches[first_batch:]})
    raw["results"] = results

    if results:
        if any(r != results[0] for r in results):
            checks["evaluate differs between passes"] = results
        # the model as reloaded from a checkpoint must score exactly the same
        # as the one in memory
        reference = seeded
        if seeded is None:
            reference, raw["checkpoint_sha256"] = _reload(model, work / "trained.phck")
        again = _evaluate(reference, eval_man, wl.stage).to_json()
        if again != results[0]:
            checks["checkpoint round trip changes evaluate"] = [results[0], again]
    return raw


def _percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    Below twenty-one samples that percentile would not exceed the median, and
    the median is returned.
    """
    ordered = sorted(values)
    k = len(ordered) - 11
    if 2 * k + 1 <= len(ordered):
        return 50.0, statistics.median(ordered)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _batch_sizes(n: int) -> list[int]:
    return [min(BATCH, n - start) for start in range(0, n, BATCH)]


def summarize(wl: Workload, raw: dict) -> dict:
    """End-to-end metrics, counts and check outcomes from :func:`run`'s output.

    ``metrics`` holds every time calibrated against the reference kernel;
    ``uncalibrated`` holds the same figures as the wall clock read them.
    """
    probe, checks = raw["probe"], dict(raw["checks"])
    units = raw["units"]
    if wl.train_count:
        attempted = units * math.ceil(raw.get("n_train", wl.train_count) / BATCH)
        attempted += TRAIN_EVAL_PASSES
        if not all(math.isfinite(v) for v in probe.losses):
            checks["non-finite training loss"] = probe.losses
        steps_done = sum(1 for v in probe.losses[:len(probe.steps)] if math.isfinite(v))
    else:
        attempted, steps_done = units, 0
    passes = raw.get("passes", [])
    failed = attempted - steps_done - sum(p["ok"] for p in passes)
    out = {"attempted": attempted, "failed": failed, "checks": checks}
    if raw.get("train_failed") or len(passes) < 2 or not all(p["ok"] for p in passes):
        return out
    timed_passes = passes[1:]

    if wl.train_count:
        sizes = _batch_sizes(raw["n_train"])
        index = [i for i, (epoch, _, _) in enumerate(probe.steps) if epoch >= 1]
        steps = [probe.steps[i][1:] for i in index]
        step_samples = [sizes[i % len(sizes)] for i in index]
        out["loss_at_step"] = {"step": LOSS_STEP, "rtol": LOSS_RTOL,
                               "loss": (probe.losses[LOSS_STEP - 1]
                                        if len(probe.losses) >= LOSS_STEP else None)}
        out["epoch_losses"] = raw["epoch_losses"]
    else:
        steps = [b for p in timed_passes for b in p["batches"]]
        step_samples = _batch_sizes(wl.eval_count) * len(timed_passes)
    out["step_count"] = len(steps)
    out["eval_results"] = raw["results"][0]
    refs = probe.refs
    out["reference_ms"] = 1000.0 * statistics.median(refs) if refs else None

    def figures(cal):
        def piecewise(timing, units):
            """Each unit by its own reference, the rest by the median one."""
            seconds, ref = timing
            inside = sum(s for s, _ in units)
            return sum(cal(s, r) for s, r in units) + cal(seconds - inside, ref)

        step_s = [cal(s, r) for s, r in steps]
        pass_s = [piecewise(p["timing"], p["batches"]) for p in timed_passes]
        if wl.train_count:
            stage_s = piecewise(raw["stage"], [st[1:] for st in probe.steps]
                                + raw["stage_batches"])
        else:
            stage_s = piecewise(passes[0]["timing"], passes[0]["batches"]) + sum(pass_s)
        q, tail = _percentile_tail(step_s)
        return q, {
            "setup_s": statistics.median(cal(s, r) for s, r in raw["setup_s"]),
            "step_ms_p50": 1000.0 * statistics.median(step_s),
            "step_ms_tail": 1000.0 * tail,
            "step_samples_per_s": sum(step_samples) / sum(step_s),
            "stage_s": stage_s,
            "eval_samples_per_s": statistics.median(wl.eval_count / t for t in pass_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    out["tail_percentile"], out["metrics"] = figures(calibrated)
    _, out["uncalibrated"] = figures(lambda s, r: s)
    out["step_ms"] = [1000.0 * s for s, _ in steps]
    out["pass_s"] = [p["timing"][0] for p in passes if "timing" in p]
    out["setup_reps_s"] = [s for s, _ in raw["setup_s"]]
    return out
