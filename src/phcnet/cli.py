"""Command-line entry point.

Subcommands: gen-synthetic, train, eval, maps, inspect.  Runs are driven
by a JSON config file (``config-version`` 1) with dot-path ``--set``
overrides; machine-readable results go to stdout, diagnostics to stderr.

BLAS runs on one thread unless the environment sets its thread count (see the
package docstring), so outputs do not depend on the machine's core count.

Exit codes: 0 success, 2 configuration/spec error (also sizes that need more
memory than the machine has), 3 I/O failure, 4 shape/transfer/format
violation, 5 numeric abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as D
from . import models as MODELS
from . import training as TR
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    MetricError,
    NumericError,
    ShapeError,
    TransferError,
)

CONFIG_VERSION = 1

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

_EXIT_BY_ERROR = (
    (NumericError, EXIT_NUMERIC),
    ((ShapeError, TransferError, CheckpointError, ContractError), EXIT_FORMAT),
    ((ConfigError, DataError, MetricError, MemoryError), EXIT_CONFIG),
    (OSError, EXIT_IO),
)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _exit_code_for(exc: Exception) -> int:
    for types, code in _EXIT_BY_ERROR:
        if isinstance(exc, types):
            return code
    raise exc


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects dot.path=value, got {item!r}")
        path, raw = item.split("=", 1)
        target = config
        keys = path.split(".")
        for key in keys[:-1]:
            target = target.setdefault(key, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set path {path!r} crosses a non-object value")
        target[keys[-1]] = _parse_value(raw)
    return config


def _load_config(path: str | None, overrides: list[str]) -> dict:
    if path is None:
        config = {"config-version": CONFIG_VERSION}
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            config = json.loads(p.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config {p} is not a JSON object")
    config = _apply_overrides(config, overrides)
    version = config.get("config-version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config-version {version}")
    for section in ("train", "data", "model"):
        if not isinstance(config.get(section, {}), dict):
            raise ConfigError(f"config section {section} is not an object: "
                              f"{config[section]!r}")
    return config


def _require_manifest(config: dict) -> D.Manifest:
    path = config.get("data", {}).get("manifest")
    if not isinstance(path, str):
        raise ConfigError(f"config data.manifest must be a path, got {path!r}")
    if not Path(path).exists():
        raise ConfigError(f"dataset manifest not found: {path}")
    return D.Manifest.load(path)


def _train_config(config: dict, stage) -> TR.TrainConfig:
    """The config's train section, run at ``stage``."""
    try:
        return TR.TrainConfig(**{**config.get("train", {}), "stage": stage})
    except TypeError as exc:
        raise ConfigError(f"bad train section: {exc}") from exc


def _model_from_config(config: dict, seed: int):
    model_cfg = config.get("model")
    if model_cfg is None:
        raise ConfigError("config is missing the model section")
    return MODELS.build_model(model_cfg, seed=seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_synthetic(args) -> int:
    try:
        spec = D.SyntheticSpec(**json.loads(Path(args.spec).read_text()))
    except (TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"bad synthetic spec: {exc}") from exc
    manifest = D.gen_synthetic(spec, args.out)
    labels = np.array([e.labels for e in manifest.entries])
    print(
        json.dumps(
            {
                "out": str(args.out),
                "samples": len(manifest.entries),
                "views_per_sample": spec.views,
                "positives_per_head": labels.sum(axis=0).tolist(),
            }
        )
    )
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config, args.set or [])
    cfg = _train_config(config, args.stage)
    manifest = _require_manifest(config)
    model = _model_from_config(config, seed=cfg.seed)
    if args.init:
        source_state, source_cfg = ckpt.load(args.init)
        copied = MODELS.transfer_weights(source_state, source_cfg, model)
        print(f"transferred {copied} tensors from {args.init}", file=sys.stderr)
    state, log = TR.train(cfg, manifest, model)
    result = TR.evaluate(model, manifest, cfg.stage, patch_cfg=cfg)
    log.final.update(result.to_json())
    ckpt.save(args.out, state, MODELS.model_config(model))
    if args.log:
        log.to_jsonl(args.log)
    print(json.dumps({"checkpoint": str(args.out), **log.final}))
    return 0


def _load_model(path):
    state, model_cfg = ckpt.load(path)
    model = MODELS.build_model(model_cfg)
    model.load_state_dict(state)
    return model, model_cfg


def cmd_eval(args) -> int:
    config = _load_config(args.config, args.set or [])
    model, model_cfg = _load_model(args.checkpoint)
    manifest = D.Manifest.load(args.manifest)
    stage = args.stage or config.get("train", {}).get("stage")
    if stage is None:
        stage = TR.default_stage(model_cfg)
    result = TR.evaluate(model, manifest, stage, patch_cfg=_train_config(config, stage))
    print(json.dumps(result.to_json()))
    return 0


def cmd_maps(args) -> int:
    model, _ = _load_model(args.checkpoint)
    manifest = D.Manifest.load(args.manifest)
    matches = [e for e in manifest.entries if e.id == args.sample]
    if not matches:
        raise ShapeError(f"sample id {args.sample!r} not present in manifest")
    views = manifest.load_views(matches[0])
    written = TR.export_maps(model, views, args.out)
    print(json.dumps({"written": written}))
    return 0


def cmd_inspect(args) -> int:
    model, model_cfg = _load_model(args.checkpoint)
    total = model.param_count()
    ratio = total / MODELS.real_equivalent_params(model)
    rows = [
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
        for name, arr in sorted(model.state_dict().items())
    ]
    print(
        json.dumps(
            {
                "model": model_cfg,
                "tensors": rows,
                "trainable_params": total,
                "ratio_vs_real": round(ratio, 6),
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phcnet",
        description="Parameterized hypercomplex networks: synthetic data, "
        "staged training, evaluation, map export, checkpoint inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="render a synthetic multi-view dataset")
    p.add_argument("--spec", required=True, help="JSON SyntheticSpec file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--stage", required=True, choices=TR.STAGES)
    p.add_argument("--init", help="checkpoint to transfer weights from")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--log", help="write the run log as line-delimited JSON")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="override a config value (dot path, JSON value)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--config", help="JSON run config (optional)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--stage", choices=TR.STAGES)
    p.add_argument("--set", action="append", metavar="PATH=VALUE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("maps", help="export activation and saliency maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--sample", required=True, help="entry id")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("inspect", help="print checkpoint tensors and parameter ratio")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        return _fail(_exit_code_for(exc), "the configured sizes need more memory than "
                     f"this machine has: {exc}")
    except Exception as exc:  # noqa: BLE001 - mapped to documented exit codes
        return _fail(_exit_code_for(exc), str(exc))


if __name__ == "__main__":
    sys.exit(main())
