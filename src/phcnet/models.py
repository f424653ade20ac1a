"""Multi-view architectures built from PHC layers.

Every model takes one exam batch (N, V, H, W), views stacked channel-wise,
and returns one logits node; ``forward(x, taps=None)`` raises ShapeError
unless V is the model's view count.  A four-view model splits the exam into
its sides itself: views 0-1 are the left side, views 2-3 the right.

* PHResNet: two views, n=2, ResNet-pattern trunk (no max pool), global
  average pooling, bottleneck refiner blocks on the pooled features, dense
  head; logits (N, heads).
* PHYBOnet: two n=2 encoder branches, one per side (conv stem + first two
  stages), an n=4 bottleneck over their concatenation (remaining stages +
  refiners), pooled vector split in half channel-wise, one dense head per
  side; logits (N, 2), left then right.
* PHYSEnet: one weight-shared n=2 trunk applied to both sides, then a
  refiner branch + head per side; logits (N, 2), left then right.
* PHUNet: symmetric encoder/decoder with concatenation skips and PHC
  convolutions; mask logits (N, 1, H, W), not probabilities.

Refiner blocks run on pooled features reshaped to (N, C, 1, 1) so the
ordinary residual machinery applies.  The config's ``scheme`` initializes
every PHC convolution but PHUNet's real-valued (n=1) output projection.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from .errors import ConfigError, ShapeError, TransferError
from .module import Module, ModuleList
from .nn import BatchNorm2d, Linear, ResidualBlock, _seeds
from .phc import PHCConv2d, real_equivalent_count


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def _int_at_least(value, low: int) -> bool:
    """An int, not a bool, from ``low`` up to what a float holds (so not 10**400)."""
    return type(value) is int and low <= value <= sys.float_info.max


def _count(name: str, value, low: int) -> int:
    if not _int_at_least(value, low):
        raise ConfigError(f"{name} must be an integer >= {low} within float range, "
                          f"got {value!r}")
    return value


def _multiple(name: str, value, n: int) -> None:
    if not _int_at_least(value, 1) or value % n:
        raise ConfigError(f"{name} {value!r} is not a positive multiple of n={n}")


def _blocks(blocks) -> tuple:
    if not isinstance(blocks, (list, tuple)) or not all(
            _int_at_least(b, 0) for b in blocks):
        raise ConfigError(f"blocks must be a list of block counts, got {blocks!r}")
    return tuple(blocks)


@dataclass
class PHResNetConfig:
    n: int = 2
    blocks: tuple = (2, 2, 2, 2)
    width: int = 64
    refiners: int = 4
    heads: int = 1
    in_channels: int | None = None  # defaults to n (views stacked channel-wise)
    scheme: str = "fixed-algebra"

    def __post_init__(self):
        if self.in_channels is None:
            self.in_channels = self.n
        self.blocks = _blocks(self.blocks)
        _multiple("width", self.width, _count("n", self.n, 1))
        _multiple("in_channels", self.in_channels, self.n)
        _count("refiners", self.refiners, 0)
        _count("heads", self.heads, 1)


@dataclass
class PHYBOnetConfig:
    n_encoder: int = 2
    n_bottleneck: int = 4
    blocks: tuple = (2, 2, 2, 2)
    width: int = 64
    refiners: int = 4
    scheme: str = "fixed-algebra"

    def __post_init__(self):
        self.blocks = _blocks(self.blocks)
        if len(self.blocks) != 4:
            raise ConfigError("PHYBOnet expects four stage block counts")
        _multiple("width", self.width, _count("n_encoder", self.n_encoder, 1))
        _multiple("4 * width", 4 * self.width, _count("n_bottleneck", self.n_bottleneck, 1))
        _count("refiners", self.refiners, 0)


@dataclass
class PHYSEnetConfig:
    n: int = 2
    blocks: tuple = (2, 2, 2, 2)
    width: int = 64
    refiners: int = 4
    scheme: str = "fixed-algebra"

    def __post_init__(self):
        self.blocks = _blocks(self.blocks)
        _multiple("width", self.width, _count("n", self.n, 1))
        _count("refiners", self.refiners, 0)


@dataclass
class PHUNetConfig:
    n: int = 2
    width: int = 8
    depth: int = 3
    in_channels: int | None = None
    scheme: str = "fixed-algebra"

    def __post_init__(self):
        if self.in_channels is None:
            self.in_channels = self.n
        _multiple("width", self.width, _count("n", self.n, 1))
        _multiple("in_channels", self.in_channels, self.n)
        _count("depth", self.depth, 0)


def config_to_dict(kind: str, cfg) -> dict:
    d = {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()}
    d["kind"] = kind
    return d


def config_from_dict(d: dict):
    """(kind, config) from a model-config dict; ConfigError names what is wrong."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"model kind {kind!r} is not one of {sorted(KINDS)}")
    config_class = KINDS[kind].config_class
    args = {k: v for k, v in d.items() if k != "kind"}
    unknown = sorted(args.keys() - {f.name for f in fields(config_class)})
    if unknown:
        raise ConfigError(f"unknown {kind} config keys {unknown}")
    return kind, config_class(**args)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _check_views(x, views: int) -> None:
    if x.ndim != 4 or x.shape[1] != views:
        raise ShapeError(f"expected an (N, {views}, H, W) batch of views, got {x.shape}")


def _left_right(x):
    """A four-view exam batch as its two sides: views 0-1 and views 2-3."""
    _check_views(x, 4)
    return ag.narrow(x, 0, 2, axis=1), ag.narrow(x, 2, 4, axis=1)


class PHTrunk(Module):
    """Conv stem + residual stages; stride-2 at the first block of stages 2+."""

    def __init__(self, n, in_channels, width, blocks, scheme, seed):
        super().__init__()
        stage_seeds = _seeds(seed, len(blocks) + 1)
        self.conv1 = PHCConv2d(n, in_channels, width, 3, padding=1, bias=False,
                               scheme=scheme, seed=stage_seeds[0])
        self.bn1 = BatchNorm2d(width)
        stages = ModuleList()
        channels = width
        for s, count in enumerate(blocks):
            out = width * (2**s)
            block_seeds = _seeds(stage_seeds[s + 1], count)
            stage = ModuleList()
            for b in range(count):
                stride = 2 if (s > 0 and b == 0) else 1
                stage.append(ResidualBlock(n, channels, out, stride=stride,
                                           scheme=scheme, seed=block_seeds[b]))
                channels = out
            stages.append(stage)
        self.stages = stages
        self.out_channels = channels

    def forward(self, x):
        h = ag.relu(self.bn1(self.conv1(x)))
        for stage in self.stages:
            for block in stage:
                h = block(h)
        return h


class RefinerStack(Module):
    """Bottleneck refiner blocks applied to pooled features at 1x1 spatial size."""

    def __init__(self, n, channels, count, scheme, seed):
        super().__init__()
        seeds = _seeds(seed, max(count, 1))
        blocks = ModuleList()
        for i in range(count):
            blocks.append(ResidualBlock(n, channels, channels, variant="refiner",
                                        scheme=scheme, seed=seeds[i]))
        self.blocks = blocks
        self.channels = channels

    def forward(self, pooled):
        """pooled: (N, C) -> (N, C) through 1x1-spatial residual refinement."""
        h = ag.reshape(pooled, (pooled.shape[0], self.channels, 1, 1))
        for block in self.blocks:
            h = block(h)
        return ag.reshape(h, (pooled.shape[0], self.channels))


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class PHResNet(Module):
    kind = "phresnet"
    config_class = PHResNetConfig

    def __init__(self, cfg: PHResNetConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        seeds = _seeds(seed, 3)
        self.trunk = PHTrunk(cfg.n, cfg.in_channels, cfg.width, cfg.blocks,
                             cfg.scheme, seeds[0])
        self.refiners = RefinerStack(cfg.n, self.trunk.out_channels,
                                     cfg.refiners, cfg.scheme, seeds[1])
        self.head = Linear(self.trunk.out_channels, cfg.heads,
                           seed=int(seeds[2].generate_state(1)[0]))

    def forward(self, x, taps=None):
        _check_views(x, self.cfg.in_channels)
        feat = self.trunk(x)
        if taps is not None:
            taps["encoder"] = feat
        pooled = ag.global_avg_pool(feat)
        refined = self.refiners(pooled)
        if taps is not None:
            taps["classifier"] = ag.reshape(
                refined, (refined.shape[0], refined.shape[1], 1, 1)
            )
        return self.head(refined)


class PHYBOnet(Module):
    kind = "phybonet"
    config_class = PHYBOnetConfig

    def __init__(self, cfg: PHYBOnetConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        w = cfg.width
        seeds = _seeds(seed, 6)
        self.encoder_l = PHTrunk(cfg.n_encoder, 2, w, cfg.blocks[:2],
                                 cfg.scheme, seeds[0])
        self.encoder_r = PHTrunk(cfg.n_encoder, 2, w, cfg.blocks[:2],
                                 cfg.scheme, seeds[1])
        # remaining ResNet stages at the concatenated width, in the n=4 domain
        nb = cfg.n_bottleneck
        blocks = ModuleList()
        channels = 4 * w
        stage_seeds = _seeds(seeds[2], 2)
        for s, count in enumerate(cfg.blocks[2:4]):
            out = 4 * w * (2**s)
            block_seeds = _seeds(stage_seeds[s], count)
            for b in range(count):
                stride = 2 if b == 0 else 1
                blocks.append(ResidualBlock(nb, channels, out, stride=stride,
                                            scheme=cfg.scheme, seed=block_seeds[b]))
                channels = out
        self.bottleneck = blocks
        self.refiners = RefinerStack(nb, channels, cfg.refiners, cfg.scheme, seeds[3])
        half = channels // 2
        self.head_l = Linear(half, 1, seed=int(seeds[4].generate_state(1)[0]))
        self.head_r = Linear(half, 1, seed=int(seeds[5].generate_state(1)[0]))
        self._channels = channels

    def forward(self, x, taps=None):
        x_left, x_right = _left_right(x)
        fl = self.encoder_l(x_left)
        fr = self.encoder_r(x_right)
        if taps is not None:
            taps["encoder_left"], taps["encoder_right"] = fl, fr
        h = ag.concat([fl, fr], axis=1)
        for block in self.bottleneck:
            h = block(h)
        if taps is not None:
            taps["bottleneck"] = h
        pooled = ag.global_avg_pool(h)
        refined = self.refiners(pooled)
        half = self._channels // 2
        logit_l = self.head_l(ag.narrow(refined, 0, half, axis=1))
        logit_r = self.head_r(ag.narrow(refined, half, self._channels, axis=1))
        return ag.concat([logit_l, logit_r], axis=1)


class Branch(Module):
    """Per-side classifier branch of PHYSEnet: refiners + dense head."""

    def __init__(self, n, channels, refiners, scheme, seed):
        super().__init__()
        seeds = _seeds(seed, 2)
        self.refiners = RefinerStack(n, channels, refiners, scheme, seeds[0])
        self.head = Linear(channels, 1, seed=int(seeds[1].generate_state(1)[0]))

    def forward(self, pooled, taps=None, side=""):
        refined = self.refiners(pooled)
        if taps is not None:
            taps[f"classifier_{side}"] = ag.reshape(
                refined, (refined.shape[0], refined.shape[1], 1, 1)
            )
        return self.head(refined)


class PHYSEnet(Module):
    kind = "physenet"
    config_class = PHYSEnetConfig

    def __init__(self, cfg: PHYSEnetConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        seeds = _seeds(seed, 3)
        self.encoder = PHTrunk(cfg.n, 2, cfg.width, cfg.blocks, cfg.scheme, seeds[0])
        c = self.encoder.out_channels
        self.branch_l = Branch(cfg.n, c, cfg.refiners, cfg.scheme, seeds[1])
        self.branch_r = Branch(cfg.n, c, cfg.refiners, cfg.scheme, seeds[2])

    def forward(self, x, taps=None):
        # one parameter store: the same encoder instance processes both sides
        fl, fr = (self.encoder(side) for side in _left_right(x))
        if taps is not None:
            taps["encoder_left"], taps["encoder_right"] = fl, fr
        logit_l = self.branch_l.forward(ag.global_avg_pool(fl), taps, "left")
        logit_r = self.branch_r.forward(ag.global_avg_pool(fr), taps, "right")
        return ag.concat([logit_l, logit_r], axis=1)


class DoubleConv(Module):
    def __init__(self, n, in_channels, out_channels, scheme, seed):
        super().__init__()
        seeds = _seeds(seed, 2)
        self.phc1 = PHCConv2d(n, in_channels, out_channels, 3, padding=1,
                              bias=False, scheme=scheme, seed=seeds[0])
        self.bn1 = BatchNorm2d(out_channels)
        self.phc2 = PHCConv2d(n, out_channels, out_channels, 3, padding=1,
                              bias=False, scheme=scheme, seed=seeds[1])
        self.bn2 = BatchNorm2d(out_channels)

    def forward(self, x):
        h = ag.relu(self.bn1(self.phc1(x)))
        return ag.relu(self.bn2(self.phc2(h)))


class PHUNet(Module):
    kind = "phunet"
    config_class = PHUNetConfig

    def __init__(self, cfg: PHUNetConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        n, w, d = cfg.n, cfg.width, cfg.depth
        seeds = _seeds(seed, 2 * d + 2)
        enc = ModuleList()
        channels = cfg.in_channels
        for lvl in range(d + 1):
            out = w * (2**lvl)
            enc.append(DoubleConv(n, channels, out, cfg.scheme, seeds[lvl]))
            channels = out
        self.enc = enc
        ups = ModuleList()
        dec = ModuleList()
        for lvl in range(d, 0, -1):
            c = w * (2**lvl)
            ups.append(PHCConv2d(n, c, c // 2, 3, padding=1, bias=False,
                                 scheme=cfg.scheme, seed=seeds[d + lvl]))
            dec.append(DoubleConv(n, c, c // 2, cfg.scheme,
                                  _seeds(seeds[d + lvl], 2)[1]))
        self.ups = ups
        self.dec = dec
        # 1->1 channel projection stays real-valued (n=1): output is one mask
        self.out_conv = PHCConv2d(1, w, 1, 1, scheme="fixed-algebra",
                                  seed=seeds[2 * d + 1])

    def forward(self, x, taps=None):
        d = self.cfg.depth
        _check_views(x, self.cfg.in_channels)
        if x.shape[2] % (2**d) or x.shape[3] % (2**d):
            raise ShapeError(
                f"spatial extents {x.shape[2]}x{x.shape[3]} not divisible by 2^{d}"
            )
        skips = []
        h = x
        for lvl, block in enumerate(self.enc):
            if lvl > 0:
                h = ag.max_pool2d(h, 2)
            h = block(h)
            if lvl < d:
                skips.append(h)
        if taps is not None:
            taps["bottleneck"] = h
        for i, (up, block) in enumerate(zip(self.ups, self.dec)):
            h = up(ag.upsample_nearest(h, 2))
            h = block(ag.concat([skips[d - 1 - i], h], axis=1))
        return self.out_conv(h)


# ---------------------------------------------------------------------------
# building and parameter accounting
# ---------------------------------------------------------------------------

KINDS = {cls.kind: cls for cls in (PHResNet, PHYBOnet, PHYSEnet, PHUNet)}


def build_model(config: dict, seed: int = 0) -> Module:
    kind, cfg = config_from_dict(config)
    return KINDS[kind](cfg, seed)


def model_config(model) -> dict:
    return config_to_dict(model.kind, model.cfg)


def real_equivalent_params(model: Module) -> int:
    """Parameter count of the model with every PHC convolution made real-valued."""
    return model.param_count() + sum(
        real_equivalent_count(m) - m.param_count()
        for m in model.modules() if isinstance(m, PHCConv2d)
    )


# ---------------------------------------------------------------------------
# cross-stage weight transfer
# ---------------------------------------------------------------------------

def _transfer_pairs(source_kind: str, target) -> list[tuple[str, str]]:
    """(source prefix, target prefix) pairs for the supported transfer maps."""
    if source_kind != "phresnet":
        raise TransferError(
            f"transfers are defined from a phresnet source, got {source_kind!r}"
        )
    if isinstance(target, PHResNet):
        return [("trunk.", "trunk.")]
    if isinstance(target, PHYSEnet):
        return [("trunk.", "encoder.")]
    if isinstance(target, PHYBOnet):
        pairs = []
        for enc in ("encoder_l.", "encoder_r."):
            pairs.append(("trunk.conv1.", enc + "conv1."))
            pairs.append(("trunk.bn1.", enc + "bn1."))
            pairs.append(("trunk.stages.0.", enc + "stages.0."))
            pairs.append(("trunk.stages.1.", enc + "stages.1."))
        return pairs
    raise TransferError(f"no transfer map onto {type(target).__name__}")


def transfer_weights(source_state: dict, source_config: dict, target: Module) -> int:
    """Copy the pretrained trunk into a compatible target model.

    patch -> whole-image copies the backbone trunk and leaves refiners and
    head freshly initialized; two-view -> four-view copies the trunk into
    PHYSEnet's shared encoder or into both PHYBOnet encoders.  Returns the
    number of tensors copied; raises TransferError naming every
    name/shape mismatch.
    """
    pairs = _transfer_pairs(source_config.get("kind", "?"), target)
    target_state = target.state_dict()
    mapped: dict[str, np.ndarray] = {}
    problems: list[str] = []
    for src_prefix, dst_prefix in pairs:
        names = [k for k in source_state if k.startswith(src_prefix)]
        if not names:
            problems.append(f"source has no tensors under {src_prefix!r}")
            continue
        for name in names:
            dst = dst_prefix + name[len(src_prefix):]
            if dst not in target_state:
                problems.append(f"{name} -> {dst}: missing in target")
            elif source_state[name].shape != target_state[dst].shape:
                problems.append(
                    f"{name} -> {dst}: shape {source_state[name].shape} "
                    f"vs {target_state[dst].shape}"
                )
            else:
                mapped[dst] = source_state[name]
    if problems:
        raise TransferError("weight transfer failed: " + "; ".join(problems))
    target_state.update(mapped)
    target.load_state_dict(target_state)
    return len(mapped)
