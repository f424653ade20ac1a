"""Multi-view architectures built from PHC layers.

Every model takes one exam batch (N, V, H, W), views stacked channel-wise,
and returns one logits node; ``forward(x, taps=None)`` raises ShapeError
unless V is the model's view count.  A ``taps`` dict collects the spatial
feature maps that ``phcnet maps`` draws: the classifiers' encoder output
(``encoder``, or ``encoder_left`` and ``encoder_right``) and the
``bottleneck`` of PHYBOnet and PHUNet.  A four-view model splits the exam
into its sides itself: views 0-1 are the left side, views 2-3 the right.

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

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from .errors import ConfigError, ShapeError, TransferError, in_range
from .module import Module, ModuleList
from .nn import BatchNorm2d, Linear, ResidualBlock, _seeds, conv_bn
from .phc import PHCConv2d, real_equivalent_count


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def _count(name: str, value, low: int) -> int:
    """``value`` if it is an integer from ``low`` up to numpy's largest extent."""
    return in_range(ConfigError, name, value, low)


def _multiple(name: str, value, n: int) -> None:
    if _count(name, value, 1) % n:
        raise ConfigError(f"{name} {value!r} is not a positive multiple of n={n}")


def _blocks(blocks) -> tuple:
    if not isinstance(blocks, (list, tuple)):
        raise ConfigError(f"blocks must be a list of block counts, got {blocks!r}")
    return tuple(_count("blocks", b, 0) for b in blocks)


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
    return ag.narrow(x, 0, 2), ag.narrow(x, 2, 4)


def _stages(n, channels, width, blocks, first, seeds, scheme):
    """Stages ``first``, ``first + 1``, ... of the ResNet pattern, one block list
    each, and the channels they put out.  Stage s has ``blocks[s - first]``
    blocks of ``width * 2**s`` channels, one seed spawned per block from its
    stage's entry in ``seeds``; its first block strides 2 unless s is 0."""
    stages = []
    for s, (count, seed) in enumerate(zip(blocks, seeds), start=first):
        out = width * 2**s
        stage = []
        for b, block_seed in enumerate(_seeds(seed, count)):
            stage.append(ResidualBlock(n, channels, out, stride=2 if s and not b else 1,
                                       scheme=scheme, seed=block_seed))
            channels = out
        stages.append(stage)
    return stages, channels


class PHTrunk(Module):
    """Conv stem + residual stages; stride-2 at the first block of stages 2+."""

    def __init__(self, n, in_channels, width, blocks, scheme, seed):
        super().__init__()
        stage_seeds = _seeds(seed, len(blocks) + 1)
        self.conv1 = PHCConv2d(n, in_channels, width, 3, bias=False, scheme=scheme,
                               seed=stage_seeds[0])
        self.bn1 = BatchNorm2d(width)
        stages, self.out_channels = _stages(n, width, width, blocks, 0, stage_seeds[1:],
                                            scheme)
        self.stages = ModuleList(ModuleList(stage) for stage in stages)

    def forward(self, x):
        return self.sides([self], [x])[0]

    @staticmethod
    def sides(trunks, xs) -> list:
        """Each of ``trunks``, built alike, on its side's input in ``xs``,
        one conv pair over every side at a time (see ``nn.conv_bn``)."""
        hs = conv_bn([(trunk.conv1, trunk.bn1) for trunk in trunks], xs)
        for blocks in zip(*([block for stage in trunk.stages for block in stage]
                            for trunk in trunks)):
            hs = ResidualBlock.sides(blocks, hs)
        return hs


class RefinerStack(Module):
    """Bottleneck refiner blocks applied to pooled features at 1x1 spatial size."""

    def __init__(self, n, channels, count, scheme, seed):
        super().__init__()
        seeds = _seeds(seed, max(count, 1))
        self.blocks = ModuleList(
            ResidualBlock(n, channels, channels, variant="refiner", scheme=scheme,
                          seed=seeds[i])
            for i in range(count))

    def forward(self, pooled):
        """pooled: (N, C) -> (N, C) through 1x1-spatial residual refinement."""
        h = ag.reshape(pooled, (*pooled.shape, 1, 1))
        for block in self.blocks:
            h = block(h)
        return ag.reshape(h, pooled.shape)


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
        return self.head(self.refiners(ag.global_avg_pool(feat)))


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
        stages, channels = _stages(nb, 4 * w, w, cfg.blocks[2:], 2, _seeds(seeds[2], 2),
                                   cfg.scheme)
        self.bottleneck = ModuleList(block for stage in stages for block in stage)
        self.refiners = RefinerStack(nb, channels, cfg.refiners, cfg.scheme, seeds[3])
        half = channels // 2
        self.head_l = Linear(half, 1, seed=int(seeds[4].generate_state(1)[0]))
        self.head_r = Linear(half, 1, seed=int(seeds[5].generate_state(1)[0]))

    def forward(self, x, taps=None):
        fl, fr = PHTrunk.sides([self.encoder_l, self.encoder_r], _left_right(x))
        if taps is not None:
            taps["encoder_left"], taps["encoder_right"] = fl, fr
        h = ag.concat([fl, fr])
        for block in self.bottleneck:
            h = block(h)
        if taps is not None:
            taps["bottleneck"] = h
        pooled = ag.global_avg_pool(h)
        refined = self.refiners(pooled)
        channels = refined.shape[1]
        logit_l = self.head_l(ag.narrow(refined, 0, channels // 2))
        logit_r = self.head_r(ag.narrow(refined, channels // 2, channels))
        return ag.concat([logit_l, logit_r])


class Branch(Module):
    """Per-side classifier branch of PHYSEnet: refiners + dense head."""

    def __init__(self, n, channels, refiners, scheme, seed):
        super().__init__()
        seeds = _seeds(seed, 2)
        self.refiners = RefinerStack(n, channels, refiners, scheme, seeds[0])
        self.head = Linear(channels, 1, seed=int(seeds[1].generate_state(1)[0]))

    def forward(self, pooled):
        return self.head(self.refiners(pooled))


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
        fl, fr = PHTrunk.sides([self.encoder] * 2, _left_right(x))
        if taps is not None:
            taps["encoder_left"], taps["encoder_right"] = fl, fr
        logit_l = self.branch_l(ag.global_avg_pool(fl))
        logit_r = self.branch_r(ag.global_avg_pool(fr))
        return ag.concat([logit_l, logit_r])


class DoubleConv(Module):
    def __init__(self, n, in_channels, out_channels, scheme, seed):
        super().__init__()
        seeds = _seeds(seed, 2)
        self.phc1 = PHCConv2d(n, in_channels, out_channels, 3, bias=False,
                              scheme=scheme, seed=seeds[0])
        self.bn1 = BatchNorm2d(out_channels)
        self.phc2 = PHCConv2d(n, out_channels, out_channels, 3, bias=False,
                              scheme=scheme, seed=seeds[1])
        self.bn2 = BatchNorm2d(out_channels)

    def forward(self, x):
        h = conv_bn([(self.phc1, self.bn1)], [x])
        return conv_bn([(self.phc2, self.bn2)], h)[0]


class PHUNet(Module):
    kind = "phunet"
    config_class = PHUNetConfig

    def __init__(self, cfg: PHUNetConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        n, w, d = cfg.n, cfg.width, cfg.depth
        seeds = _seeds(seed, 2 * d + 2)
        self.enc = ModuleList()
        channels = cfg.in_channels
        for lvl in range(d + 1):
            out = w * (2**lvl)
            self.enc.append(DoubleConv(n, channels, out, cfg.scheme, seeds[lvl]))
            channels = out
        self.ups, self.dec = ModuleList(), ModuleList()
        for lvl in range(d, 0, -1):
            c = w * (2**lvl)
            self.ups.append(PHCConv2d(n, c, c // 2, 3, bias=False, scheme=cfg.scheme,
                                      seed=seeds[d + lvl]))
            self.dec.append(DoubleConv(n, c, c // 2, cfg.scheme,
                                       _seeds(seeds[d + lvl], 2)[1]))
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
                h = ag.max_pool2d(h)
            h = block(h)
            if lvl < d:
                skips.append(h)
        if taps is not None:
            taps["bottleneck"] = h
        for i, (up, block) in enumerate(zip(self.ups, self.dec)):
            h = up(ag.upsample_nearest(h))
            h = block(ag.concat([skips[d - 1 - i], h]))
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
