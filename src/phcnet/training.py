"""Training loops, evaluation, and activation/saliency map export.

One :func:`train` call runs a single stage (patch pretraining, two-view or
four-view classification, or segmentation) with seeded shuffling, train-only
augmentation, early stopping on the validation metric, and best-checkpoint
retention.  Each stage is one :class:`Stage` record; loading, the loss,
prediction and scoring read it instead of branching on the stage name.
Every model is called as ``model(x)`` on a whole (N, V, H, W) batch and
returns one logits node: column h of it is binary head h, and a 4-D output
is a mask.  How a model splits an exam into sides is known to
:mod:`phcnet.models` alone.
:func:`maps` runs one eval forward with a graph on a sample: its taps give
the activation planes and its backward the saliency plane.
Each train step, eval pass and map runs in :func:`errors.finite`, the one
numeric guard: a value that is not finite stops the run with a NumericError.
Everything is a deterministic function of (seed, config, manifest):
repeating a run reproduces the checkpoint bit for bit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autograd as ag
from . import data as D
from . import metrics as M
from . import nn, phc
from .errors import ConfigError, DataError, ShapeError, finite, in_range, is_number


@dataclass(frozen=True)
class Stage:
    """One training stage: its defaults, what it loads and what it scores.

    ``role`` is "class" (patch pairs, one softmax head over the patch
    classes), "binary" (one sigmoid head, one logits column, per label of
    an entry) or "mask" (per-pixel logits scored against the entry's mask).
    """

    name: str
    lr: float
    batch_size: int
    views: int    # views per sample
    heads: int    # labels per entry, one binary head each
    role: str
    metric: str   # the EvalResult field early stopping watches


STAGE = {s.name: s for s in (
    Stage("patch", 1e-5, 32, views=2, heads=0, role="class", metric="accuracy"),
    Stage("two-view", 1e-5, 8, views=2, heads=1, role="binary", metric="auc"),
    Stage("four-view", 1e-5, 4, views=4, heads=2, role="binary", metric="auc"),
    Stage("segmentation", 2e-4, 32, views=2, heads=0, role="mask", metric="dice"),
)}
STAGES = tuple(STAGE)


def _stage(name) -> Stage:
    if not isinstance(name, str) or name not in STAGE:
        raise ConfigError(f"unknown stage {name!r}; expected one of {STAGES}")
    return STAGE[name]


def default_stage(model_config: dict) -> str:
    """The stage a model of this config is evaluated on when none is named."""
    if model_config.get("heads") == len(D.CLASS_NAMES):
        return "patch"
    return {"phybonet": "four-view", "physenet": "four-view",
            "phunet": "segmentation"}.get(model_config.get("kind"), "two-view")


@dataclass
class TrainConfig:
    stage: str = "two-view"
    lr: float | None = None            # stage default when None
    batch_size: int | None = None
    max_epochs: int = 50
    patience: int = 10
    pos_weight: float | str = "auto"   # "auto" = negatives/positives on train split
    weight_decay: float = 5e-4
    val_fraction: float = 0.2
    augment: bool = True
    patch_size: int = 32
    per_lesion: int = 20
    seed: int = 0

    def __post_init__(self):
        stage = _stage(self.stage)
        if self.lr is None:
            self.lr = stage.lr
        if self.batch_size is None:
            self.batch_size = stage.batch_size
        # batch_size, patch_size and per_lesion size arrays: the default bound
        big = sys.float_info.max
        for name, low, integer, *high in (
                ("batch_size", 1, True), ("max_epochs", 1, True, big),
                ("patience", 0, True, big), ("lr", 0, False, big),
                ("weight_decay", 0, False, big), ("patch_size", 1, True),
                ("per_lesion", 2, True), ("seed", 0, True, big)):
            in_range(ConfigError, f"train.{name}", getattr(self, name), low, *high,
                     integer=integer)
        if not (is_number(self.val_fraction) and 0 < self.val_fraction < 1):
            raise ConfigError("train.val_fraction must be a number strictly between 0 "
                              f"and 1, got {self.val_fraction!r}")
        weight = self.pos_weight
        if weight != "auto" and not (is_number(weight) and weight > 0):
            raise ConfigError(f'train.pos_weight must be "auto" or > 0, got {weight!r}')
        if not isinstance(self.augment, bool):
            raise ConfigError(f"train.augment must be true or false, got {self.augment!r}")


@dataclass
class RunLog:
    config: dict
    param_count: int
    split: dict = field(default_factory=dict)
    epochs: list = field(default_factory=list)
    final: dict = field(default_factory=dict)

    def append(self, **entry):
        self.epochs.append(entry)

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"config": self.config,
                                 "param_count": self.param_count,
                                 "split": self.split}) + "\n")
            for entry in self.epochs:
                fh.write(json.dumps(entry) + "\n")
            if self.final:
                fh.write(json.dumps({"final": self.final}) + "\n")


@dataclass
class EvalResult:
    auc: float | None = None
    accuracy: float | None = None
    dice: float | None = None
    per_head: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {}
        for key in ("auc", "accuracy", "dice"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.per_head:
            out["per_head"] = self.per_head
        return out


# ---------------------------------------------------------------------------
# in-memory stage datasets
# ---------------------------------------------------------------------------

class _StageData:
    """Images, labels and masks for one split, loaded once up front."""

    def __init__(self, manifest: D.Manifest, stage: Stage, cfg: TrainConfig | None,
                 seed: int = 0):
        self.masks = None
        if stage.role == "class":
            cfg = cfg or TrainConfig(stage="patch")
            records = D.extract_patches(manifest, per_lesion=cfg.per_lesion,
                                        patch_size=cfg.patch_size, seed=seed)
            if not records:
                raise ConfigError("manifest produced no patches")
            self.x = np.stack([r.views for r in records]).astype(np.float32)
            self.y = np.array([r.label for r in records], dtype=np.int64)
            return
        if not manifest.entries:
            raise ConfigError("manifest has no entries")
        views = [manifest.load_views(e) for e in manifest.entries]
        shapes = sorted({v.shape[1:] for v in views})
        if len(shapes) > 1:
            raise DataError(f"manifest images differ in size: {shapes}")
        self.x = np.stack(views)
        labels = np.array([e.labels for e in manifest.entries], dtype=np.int64)
        if self.x.shape[1] != stage.views or labels.shape[1] < stage.heads:
            raise ConfigError(
                f"{stage.name} stage needs {stage.views} views and {stage.heads} "
                f"labels per sample, manifest has {self.x.shape[1]} and {labels.shape[1]}"
            )
        self.y = labels[:, : stage.heads]
        if stage.role == "mask":
            masks = [manifest.load_mask(e) for e in manifest.entries]
            if {m.shape for m in masks} != {self.x.shape[2:]}:
                raise DataError(f"masks differ in size from the {self.x.shape[2:]} "
                                f"images: {sorted({m.shape for m in masks})}")
            self.masks = np.stack(masks).astype(np.float32)

    def __len__(self):
        return len(self.x)


def _augment_batch(data: _StageData, idx, cfg: TrainConfig, epoch: int):
    """The views and masks (None without) of one batch, augmented row by row
    in the copies that fancy indexing makes."""
    xs = data.x[idx]
    masks = data.masks[idx] if data.masks is not None else None
    if not cfg.augment:
        return xs, masks
    for row, sample in enumerate(idx):
        seed = np.random.SeedSequence((cfg.seed, epoch, int(sample)))
        stack = D.augment(xs[row], seed, None if masks is None else masks[row])
        xs[row] = stack[: len(xs[row])]
        if masks is not None:
            masks[row] = stack[-1]
    return xs, masks


# ---------------------------------------------------------------------------
# model calls, losses and scores
# ---------------------------------------------------------------------------

def _auto_pos_weight(labels: np.ndarray) -> float:
    pos = int((labels == 1).sum())
    neg = int(labels.size - pos)
    if pos == 0:
        raise ConfigError("training split has no positive examples")
    return neg / pos


def _logits(model, stage: Stage, xb: np.ndarray) -> ag.Node:
    """The model's logits on ``xb``, if they fit the stage (ShapeError if not)."""
    logits = model(ag.constant(xb))
    n, _, h, w = xb.shape
    want = {"class": (n, len(D.CLASS_NAMES)), "binary": (n, stage.heads),
            "mask": (n, 1, h, w)}[stage.role]
    if logits.shape != want:
        raise ShapeError(f"the {stage.name} stage needs outputs {want}, got {logits.shape}")
    return logits


def _stage_loss(model, stage: Stage, xb, yb, mb, pos_weights):
    logits = _logits(model, stage, xb)
    if stage.role == "class":
        return nn.cross_entropy(logits, yb)
    if stage.role == "mask":
        return nn.bce_with_logits(logits, mb[:, None], pos_weight=pos_weights[0])
    return functools.reduce(ag.add, [
        nn.bce_with_logits(ag.narrow(logits, h, h + 1),
                           yb[:, h, None].astype(np.float32), pos_weight=w)
        for h, w in enumerate(pos_weights)
    ])


def _outputs(model, stage: Stage, x: np.ndarray, batch_size: int) -> np.ndarray:
    """Eval-mode model logits over ``x``, batched, in one :func:`phc.eval_pass`.
    Eval mode reads every parameter as a constant, so no graph is kept."""
    model.eval()
    with phc.eval_pass():
        return np.concatenate([_logits(model, stage, x[start : start + batch_size]).value
                               for start in range(0, len(x), batch_size)])


def _evaluate(model, stage: Stage, data: _StageData, batch_size: int = 32) -> EvalResult:
    """Score the model on a loaded split; validation and evaluate share it.
    The eval pass runs in :func:`errors.finite`, so outputs that are not
    finite raise NumericError."""
    with finite(f"the {stage.name} eval pass") as check:
        logits = _outputs(model, stage, data.x, batch_size)
        check(("the outputs", logits))
    if stage.role == "class":
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        return EvalResult(accuracy=float((probs.argmax(axis=1) == data.y).mean() * 100.0))
    probs = ag.stable_sigmoid(logits)
    if stage.role == "mask":
        dices = [M.dice(p[0] >= 0.5, m > 0.5) for p, m in zip(probs, data.masks)]
        return EvalResult(dice=float(np.mean(dices)))
    aucs = [M.auc(p, y) for p, y in zip(probs.T, data.y.T)]
    accs = [M.accuracy(p, y) for p, y in zip(probs.T, data.y.T)]
    return EvalResult(auc=float(np.mean(aucs)), accuracy=float(np.mean(accs)),
                      per_head={"auc": aucs, "accuracy": accs} if len(aucs) > 1 else {})


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def train(cfg: TrainConfig, manifest: D.Manifest, model):
    """Run one training stage; returns (best state dict, RunLog).

    Training stops once the validation metric has gone more than
    ``cfg.patience`` epochs without a strict gain.  The model is left holding
    the best-validation weights.  Each step (forward, backward, the check of
    the loss and of every parameter's gradient, then Adam's update) runs in
    :func:`errors.finite`, so a value that is not finite raises NumericError,
    and a gradient that is not finite does so before the update.
    """
    stage = STAGE[cfg.stage]
    ss = np.random.SeedSequence(cfg.seed)
    split_seed, shuffle_root, patch_seed = ss.spawn(3)
    train_man, val_man = D.stratified_split(
        manifest, cfg.val_fraction, seed=split_seed
    )
    ps1, ps2 = patch_seed.spawn(2)
    train_data = _StageData(train_man, stage, cfg, seed=ps1)
    val_data = _StageData(val_man, stage, cfg, seed=ps2)
    if cfg.pos_weight == "auto":
        # one weight per label head; the mask loss takes a weight of one
        pos_weights = [_auto_pos_weight(train_data.y[:, h])
                       for h in range(stage.heads)] or [1.0]
    else:
        pos_weights = [float(cfg.pos_weight)] * max(stage.heads, 1)

    opt = nn.Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    log = RunLog(
        config=asdict(cfg),
        param_count=model.param_count(),
        split={"train": [e.id for e in train_man.entries],
               "val": [e.id for e in val_man.entries]},
    )
    best_metric, best_epoch, best_state = -np.inf, 0, model.state_dict()

    n = len(train_data)
    starts = list(range(0, n, cfg.batch_size))
    if n % cfg.batch_size == 1 and len(starts) > 1:
        # a batch of one gives train-mode BatchNorm one value per channel in
        # the 1x1 refiners, so xhat = 0 and they get no gradient: fold it back
        starts.pop()
    named_params = list(model.named_parameters())
    with ThreadPoolExecutor(max_workers=1) as pool:
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            # one child per epoch, as it starts: the same seeds as spawning
            # max_epochs children up front, without holding them all
            order = np.random.default_rng(shuffle_root.spawn(1)[0]).permutation(n)
            batches = np.split(order, starts[1:])
            prepared = pool.map(
                lambda idx: _augment_batch(train_data, idx, cfg, epoch), batches
            )
            model.train()
            epoch_loss = 0.0
            for (xb, mb), idx in zip(prepared, batches):
                with finite(f"the {stage.name} train step at epoch {epoch}") as check:
                    loss = _stage_loss(model, stage, xb, train_data.y[idx], mb,
                                       pos_weights)
                    model.zero_grad()
                    ag.backward(loss)
                    check(("the loss", loss.value),
                          *((f"the gradient for {name}", p.grad) for name, p in named_params))
                    opt.step()
                epoch_loss += float(loss.value)
            val_metric = getattr(_evaluate(model, stage, val_data), stage.metric)
            log.append(epoch=epoch, train_loss=epoch_loss / len(batches),
                       val_metric=val_metric, seconds=time.perf_counter() - t0)
            if val_metric > best_metric:
                best_metric, best_epoch = val_metric, epoch
                best_state = model.state_dict()
            if epoch - best_epoch > cfg.patience:
                break
    model.load_state_dict(best_state)
    log.final = {"best_val_metric": float(best_metric),
                 "epochs_run": len(log.epochs)}
    return best_state, log


def evaluate(model, manifest: D.Manifest, stage: str,
             batch_size: int = 32, patch_cfg: TrainConfig | None = None) -> EvalResult:
    """Metrics on a manifest without augmentation (eval mode)."""
    st = _stage(stage)
    return _evaluate(model, st, _StageData(manifest, st, patch_cfg), batch_size)


# ---------------------------------------------------------------------------
# activation and saliency maps
# ---------------------------------------------------------------------------

def _resize_nearest(plane: np.ndarray, h: int, w: int) -> np.ndarray:
    ph, pw = plane.shape
    yi = (np.arange(h) * ph) // h
    xi = (np.arange(w) * pw) // w
    return plane[np.ix_(yi, xi)]


def _normalize(plane: np.ndarray) -> np.ndarray:
    lo, hi = float(plane.min()), float(plane.max())
    if hi - lo < 1e-12:
        return np.zeros_like(plane, dtype=np.float32)
    return ((plane - lo) / (hi - lo)).astype(np.float32)


def maps(model, views: np.ndarray) -> dict[str, np.ndarray]:
    """Activation planes per tap and the "saliency" plane, each (H, W), from
    one eval forward with a graph on the input ``views`` (V, H, W).

    A tap's plane is its channel mean, upsampled to the input size.  The
    saliency plane is |d score / d input| summed over the view channels; the
    score is a mask's mean logit, or the logit of the largest head.  The
    forward is the one scoring runs, which reads every parameter as a
    constant, so only the input gets a gradient: no parameter's is set.
    The forward and backward run in :func:`errors.finite`, so logits or
    planes that are not finite raise NumericError."""
    model.eval()
    h, w = views.shape[-2:]
    x = ag.Node(views[None], requires_grad=True)
    taps: dict = {}
    with finite("the maps") as check:
        logits = model(x, taps=taps)
        out = {name: _resize_nearest(node.value[0].mean(axis=0), h, w)
               for name, node in taps.items()}
        if logits.ndim == 4:
            score = ag.nmean(logits)
        else:
            head = int(np.argmax(logits.value[0]))
            score = ag.reshape(ag.narrow(logits, head, head + 1), ())
        ag.backward(score)
        out["saliency"] = np.abs(x.grad[0]).sum(axis=0)
        check(("the logits", logits.value), *((f"plane {k}", v) for k, v in out.items()))
    return out


def export_maps(model, views: np.ndarray, out_dir) -> list[str]:
    """Write per-tap activation maps and the saliency map as 8-bit PGM files,
    once every map is computed."""
    from pathlib import Path

    planes = maps(model, views)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, plane in planes.items():
        path = out / (f"{name}.pgm" if name == "saliency" else f"activation_{name}.pgm")
        D.save_pgm(path, _normalize(plane))
        written.append(str(path))
    return written
