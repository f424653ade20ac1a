"""Training loops, evaluation, and activation/saliency map export.

One :func:`train` call runs a single stage (patch pretraining, two-view or
four-view classification, or segmentation) with seeded shuffling, train-only
augmentation, early stopping on the validation metric, and best-checkpoint
retention.  Everything is a deterministic function of (seed, config,
manifest): repeating a run reproduces the checkpoint bit for bit.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autograd as ag
from . import data as D
from . import metrics as M
from . import nn
from .errors import ConfigError, NumericError, ShapeError
from .models import PHResNet, PHUNet

STAGES = ("patch", "two-view", "four-view", "segmentation")

_DEFAULT_LR = {"patch": 1e-5, "two-view": 1e-5, "four-view": 1e-5,
               "segmentation": 2e-4}
_DEFAULT_BATCH = {"patch": 32, "two-view": 8, "four-view": 4, "segmentation": 32}


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
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}; expected one of {STAGES}")
        if self.lr is None:
            self.lr = _DEFAULT_LR[self.stage]
        if self.batch_size is None:
            self.batch_size = _DEFAULT_BATCH[self.stage]


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


def summarize_runs(results: list[EvalResult]) -> dict:
    """Mean +- standard deviation over repeated-seed evaluations."""
    out = {}
    for key in ("auc", "accuracy", "dice"):
        vals = [getattr(r, key) for r in results if getattr(r, key) is not None]
        if vals:
            out[key] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
    return out


# ---------------------------------------------------------------------------
# in-memory stage datasets
# ---------------------------------------------------------------------------

class _StageData:
    """Images, labels and masks for one split, loaded once up front."""

    def __init__(self, manifest: D.Manifest, stage: str, cfg: TrainConfig | None,
                 seed: int = 0):
        self.stage = stage
        if stage == "patch":
            cfg = cfg or TrainConfig(stage="patch")
            records = D.extract_patches(manifest, per_lesion=cfg.per_lesion,
                                        patch_size=cfg.patch_size, seed=seed)
            if not records:
                raise ConfigError("manifest produced no patches")
            self.x = np.stack([r.views for r in records]).astype(np.float32)
            self.y = np.array([r.label for r in records], dtype=np.int64)
            self.masks = None
            return
        if not manifest.entries:
            raise ConfigError("manifest has no entries")
        views = np.stack([manifest.load_views(e) for e in manifest.entries])
        labels = np.array([e.labels for e in manifest.entries], dtype=np.int64)
        vps = views.shape[1]
        if stage == "two-view":
            if vps != 2:
                raise ConfigError(f"two-view stage needs 2 views, manifest has {vps}")
            self.x, self.y = views, labels[:, 0]
            self.masks = None
        elif stage == "four-view":
            if vps != 4:
                raise ConfigError(f"four-view stage needs 4 views, manifest has {vps}")
            if labels.shape[1] != 2:
                raise ConfigError("four-view stage needs two labels per sample")
            self.x, self.y = views, labels
            self.masks = None
        elif stage == "segmentation":
            if vps != 2:
                raise ConfigError("segmentation stage needs 2-view entries")
            self.x, self.y = views, labels[:, 0]
            self.masks = np.stack(
                [manifest.load_mask(e) for e in manifest.entries]
            ).astype(np.float32)
        else:
            raise ConfigError(f"unknown stage {stage!r}")

    def __len__(self):
        return len(self.x)


def _augment_batch(data: _StageData, idx, cfg: TrainConfig, epoch: int):
    xs = data.x[idx]
    masks = data.masks[idx] if data.masks is not None else None
    if not cfg.augment:
        return xs.copy(), (masks.copy() if masks is not None else None)
    out = np.empty_like(xs)
    out_masks = np.empty_like(masks) if masks is not None else None
    for row, sample in enumerate(idx):
        seed = np.random.SeedSequence((cfg.seed, epoch, int(sample)))
        if masks is None:
            out[row] = D.augment(xs[row], seed)
        else:
            out[row], out_masks[row] = D.augment(xs[row], seed, masks[row])
    return out, out_masks


# ---------------------------------------------------------------------------
# losses / predictions per stage
# ---------------------------------------------------------------------------

def _auto_pos_weight(labels: np.ndarray) -> float:
    pos = int((labels == 1).sum())
    neg = int(labels.size - pos)
    if pos == 0:
        raise ConfigError("training split has no positive examples")
    return neg / pos


def _stage_loss(model, stage, xb, yb, mb, pos_weights):
    if stage == "patch":
        logits = model(ag.constant(xb))
        return nn.cross_entropy(logits, yb)
    if stage == "two-view":
        logits = model(ag.constant(xb))
        return nn.bce_with_logits(logits, yb[:, None].astype(np.float32),
                                  pos_weight=pos_weights[0])
    if stage == "four-view":
        ll, lr = model(ag.constant(xb[:, :2]), ag.constant(xb[:, 2:]))
        loss_l = nn.bce_with_logits(ll, yb[:, :1].astype(np.float32),
                                    pos_weight=pos_weights[0])
        loss_r = nn.bce_with_logits(lr, yb[:, 1:].astype(np.float32),
                                    pos_weight=pos_weights[1])
        return loss_l + loss_r
    # segmentation
    logits = model.forward_logits(ag.constant(xb))
    return nn.bce_with_logits(logits, mb[:, None], pos_weight=pos_weights[0])


def _predict(model, stage, x, batch_size=32):
    """Eval-mode probabilities, batched; returns an ndarray."""
    outs = []
    for start in range(0, len(x), batch_size):
        xb = x[start : start + batch_size]
        if stage == "patch":
            z = model(ag.constant(xb)).value
            zmax = z.max(axis=1, keepdims=True)
            e = np.exp(z - zmax)
            outs.append(e / e.sum(axis=1, keepdims=True))
        elif stage == "two-view":
            outs.append(nn.np_sigmoid(model(ag.constant(xb)).value))
        elif stage == "four-view":
            ll, lr = model(ag.constant(xb[:, :2]), ag.constant(xb[:, 2:]))
            outs.append(
                np.concatenate(
                    [nn.np_sigmoid(ll.value), nn.np_sigmoid(lr.value)], axis=1
                )
            )
        else:
            outs.append(model(ag.constant(xb)).value)
    return np.concatenate(outs, axis=0)


def _multiclass_accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float((probs.argmax(axis=1) == labels).mean() * 100.0)


def _val_metric(model, stage, data: _StageData) -> float:
    model.eval()
    probs = _predict(model, stage, data.x)
    if stage == "patch":
        return _multiclass_accuracy(probs, data.y)
    if stage == "two-view":
        return M.auc(probs[:, 0], data.y)
    if stage == "four-view":
        return 0.5 * (M.auc(probs[:, 0], data.y[:, 0])
                      + M.auc(probs[:, 1], data.y[:, 1]))
    dices = [
        M.dice(probs[i, 0] >= 0.5, data.masks[i] > 0.5) for i in range(len(data))
    ]
    return float(np.mean(dices))


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _worker_count() -> int:
    raw = os.environ.get("PHCNET_THREADS", "1")
    try:
        return max(0, int(raw))
    except ValueError:
        return 1


def train(cfg: TrainConfig, manifest: D.Manifest, model, on_epoch=None):
    """Run one training stage; returns (best state dict, RunLog).

    ``on_epoch(epoch_index, model, log_entry) -> bool`` optionally stops
    training early (used by experiment harnesses to measure
    epochs-to-target); early stopping monitors the validation metric
    otherwise.  The model is left holding the best-validation weights.
    """
    ss = np.random.SeedSequence(cfg.seed)
    split_seed, shuffle_root, patch_seed = ss.spawn(3)
    train_man, val_man = D.stratified_split(
        manifest, cfg.val_fraction, seed=split_seed
    )
    ps1, ps2 = patch_seed.spawn(2)
    train_data = _StageData(train_man, cfg.stage, cfg, seed=ps1)
    val_data = _StageData(val_man, cfg.stage, cfg, seed=ps2)

    if cfg.stage == "four-view":
        heads = 2
        head_labels = [train_data.y[:, h] for h in range(2)]
    elif cfg.stage == "segmentation":
        heads, head_labels = 1, None
    else:
        heads, head_labels = 1, [train_data.y]
    if cfg.pos_weight == "auto":
        if cfg.stage in ("patch", "segmentation"):
            pos_weights = [1.0] * heads
        else:
            pos_weights = [_auto_pos_weight(lab) for lab in head_labels]
    else:
        pos_weights = [float(cfg.pos_weight)] * heads

    opt = nn.Adam(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    stopper = nn.EarlyStopper(cfg.patience, mode="max")
    log = RunLog(
        config=asdict(cfg),
        param_count=model.param_count(),
        split={"train": [e.id for e in train_man.entries],
               "val": [e.id for e in val_man.entries]},
    )
    best_metric, best_state = -np.inf, model.state_dict()

    n = len(train_data)
    starts = list(range(0, n, cfg.batch_size))
    if n % cfg.batch_size == 1 and len(starts) > 1:
        # a batch of one gives train-mode BatchNorm one value per channel in
        # the 1x1 refiners, so xhat = 0 and they get no gradient: fold it back
        starts.pop()
    named_params = list(model.named_parameters())
    shuffle_seeds = shuffle_root.spawn(cfg.max_epochs)
    workers = _worker_count()
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 0 else None
    try:
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            order = np.random.default_rng(shuffle_seeds[epoch]).permutation(n)
            batches = np.split(order, starts[1:])
            if pool is not None:
                prepared = pool.map(
                    lambda idx: _augment_batch(train_data, idx, cfg, epoch), batches
                )
            else:
                prepared = (
                    _augment_batch(train_data, idx, cfg, epoch) for idx in batches
                )
            model.train()
            epoch_loss = 0.0
            for (xb, mb), idx in zip(prepared, batches):
                loss = _stage_loss(model, cfg.stage, xb, train_data.y[idx], mb,
                                   pos_weights)
                lval = float(loss.value)
                if not np.isfinite(lval):
                    raise NumericError(
                        f"non-finite training loss {lval} at epoch {epoch}"
                    )
                model.zero_grad()
                ag.backward(loss)
                for name, p in named_params:
                    if p.grad is not None and not np.isfinite(p.grad).all():
                        raise NumericError(
                            f"non-finite gradient for {name} at epoch {epoch}"
                        )
                opt.step()
                epoch_loss += lval
            val_metric = _val_metric(model, cfg.stage, val_data)
            entry = {
                "epoch": epoch,
                "train_loss": epoch_loss / len(batches),
                "val_metric": val_metric,
                "seconds": time.perf_counter() - t0,
            }
            log.append(**entry)
            if val_metric > best_metric:
                best_metric = val_metric
                best_state = model.state_dict()
            if on_epoch is not None and on_epoch(epoch, model, entry):
                break
            if stopper.update(val_metric):
                break
    finally:
        if pool is not None:
            pool.shutdown()
    model.load_state_dict(best_state)
    log.final = {"best_val_metric": float(best_metric),
                 "epochs_run": len(log.epochs)}
    return best_state, log


def evaluate(model, manifest: D.Manifest, stage: str,
             batch_size: int = 32, patch_cfg: TrainConfig | None = None) -> EvalResult:
    """Metrics on a manifest without augmentation (eval mode)."""
    data = _StageData(manifest, stage, patch_cfg)
    model.eval()
    probs = _predict(model, stage, data.x, batch_size=batch_size)
    if stage == "patch":
        return EvalResult(accuracy=_multiclass_accuracy(probs, data.y))
    if stage == "two-view":
        return EvalResult(auc=M.auc(probs[:, 0], data.y),
                          accuracy=M.accuracy(probs[:, 0], data.y))
    if stage == "four-view":
        aucs = [M.auc(probs[:, h], data.y[:, h]) for h in range(2)]
        accs = [M.accuracy(probs[:, h], data.y[:, h]) for h in range(2)]
        return EvalResult(
            auc=float(np.mean(aucs)),
            accuracy=float(np.mean(accs)),
            per_head={"auc": aucs, "accuracy": accs},
        )
    dices = [
        M.dice(probs[i, 0] >= 0.5, data.masks[i] > 0.5) for i in range(len(data))
    ]
    return EvalResult(dice=float(np.mean(dices)))


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


def activation_maps(model, views: np.ndarray) -> dict[str, np.ndarray]:
    """Channel-mean activation per tap, upsampled to the input size."""
    model.eval()
    h, w = views.shape[-2:]
    taps: dict = {}
    x = ag.constant(views[None].astype(np.float32))
    if isinstance(model, (PHResNet, PHUNet)):
        model(x, taps=taps)
    else:
        model(ag.narrow(x, 0, 2, axis=1), ag.narrow(x, 2, 4, axis=1), taps=taps)
    out = {}
    for name, node in taps.items():
        plane = node.value[0].mean(axis=0)
        out[name] = _resize_nearest(plane, h, w)
    return out


def input_gradient(forward_scalar, views: np.ndarray) -> np.ndarray:
    """|d scalar / d input| summed over view channels, shape (H, W)."""
    x = ag.Node(views[None].astype(views.dtype), requires_grad=True)
    scalar = forward_scalar(x)
    ag.backward(scalar)
    if x.grad is None:
        return np.zeros(views.shape[-2:], dtype=views.dtype)
    return np.abs(x.grad[0]).sum(axis=0)


def _max_logit(model, x: ag.Node) -> ag.Node:
    if isinstance(model, PHResNet):
        logits = model(x)
    elif isinstance(model, PHUNet):
        return ag.nmean(model.forward_logits(x))
    else:
        ll, lr = model(ag.narrow(x, 0, 2, axis=1), ag.narrow(x, 2, 4, axis=1))
        logits = ag.concat([ll, lr], axis=1)
    head = int(np.argmax(logits.value[0]))
    return ag.reshape(ag.narrow(logits, head, head + 1, axis=1), ())


def saliency_map(model, views: np.ndarray) -> np.ndarray:
    """|d max-logit / d input| summed over view channels, shape (H, W)."""
    model.eval()
    return input_gradient(lambda x: _max_logit(model, x), views)


def export_maps(model, views: np.ndarray, out_dir) -> list[str]:
    """Write per-tap activation maps and the saliency map as 8-bit PGM files."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, plane in activation_maps(model, views).items():
        path = out / f"activation_{name}.pgm"
        D.save_pgm(path, _normalize(plane))
        written.append(str(path))
    sal = saliency_map(model, views)
    path = out / "saliency.pgm"
    D.save_pgm(path, _normalize(sal))
    written.append(str(path))
    return written
