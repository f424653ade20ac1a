"""Digest a fixed set of phcnet runs, to show that two source trees compute the same.

    PYTHONPATH=src python tools/digest.py > digest.txt

The runs cover every stage and model kind, ``--init`` chains (patch ->
two-view -> both four-view models), a fixed ``pos_weight``, an n=1
random-algebra model, augmentation with masks and an early stop.  Each run
prints one line: its name, the epochs it ran and a SHA-256 over the
checkpoint bytes, the run log without timings (per-epoch losses and
validation metrics), the ``eval`` JSON and the activation and saliency maps.
A last line, ``datasets``, gives the number of files of the three generated
sets and a SHA-256 over their paths and bytes, so a generator change shows
directly.  Two trees are the same program on these runs when their outputs
diff clean.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from phcnet.cli import main

DATASETS = {
    "single": {"size": 32, "count": 16, "seed": 1},
    "xor": {"size": 32, "count": 16, "seed": 2, "label_rule": "cross-view-xor"},
    "four": {"size": 32, "count": 32, "seed": 3, "views": 4},
}
TRAIN = {"max_epochs": 3, "batch_size": 8, "lr": 1e-3, "seed": 5}
MODEL = {"kind": "phresnet", "blocks": [1, 1], "width": 4, "refiners": 1}

# name, dataset, stage, model, train fields, run whose checkpoint --init reads
RUNS = (
    ("patch", "single", "patch", {**MODEL, "heads": 5},
     {"patch_size": 12, "per_lesion": 4}, None),
    ("two-view", "single", "two-view", MODEL, {}, "patch"),
    ("physenet", "four", "four-view", {**MODEL, "kind": "physenet"}, {}, "two-view"),
    ("phybonet", "four", "four-view", {**MODEL, "kind": "phybonet", "blocks": [1, 1, 1, 1]},
     {}, "two-view"),
    ("segmentation", "single", "segmentation", {"kind": "phunet", "width": 4, "depth": 2},
     {}, None),
    ("pos-weight", "xor", "two-view", MODEL, {"pos_weight": 2.0, "augment": False}, None),
    ("n1-random", "xor", "two-view",
     {**MODEL, "n": 1, "in_channels": 2, "scheme": "random-algebra"}, {}, None),
    ("early-stop", "xor", "two-view", MODEL, {"lr": 1e-2, "max_epochs": 12, "patience": 1},
     None),
)


def cli(*argv) -> str:
    """Standard output of one phcnet command; exits if the command fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(arg) for arg in argv])
    if code:
        sys.exit(f"phcnet {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def run(root: Path, name, dataset, stage, model, train, init) -> str:
    """Train, evaluate and map one run; returns its digest line."""
    out = root / name
    out.mkdir()
    config = {"config-version": 1, "model": model, "train": {**TRAIN, **train},
              "data": {"manifest": str(root / dataset / "manifest.json")}}
    (out / "config.json").write_text(json.dumps(config))
    ckpt, log = out / "model.ckpt", out / "log.jsonl"
    cli("train", "--config", out / "config.json", "--stage", stage, "--out", ckpt,
        "--log", log, *(("--init", root / init / "model.ckpt") if init else ()))
    digest = hashlib.sha256(ckpt.read_bytes())
    final = {}
    for line in log.read_text().splitlines():
        entry = json.loads(line)
        entry.pop("seconds", None)
        final = entry.get("final", final)
        digest.update(json.dumps(entry, sort_keys=True).encode())
    digest.update(cli("eval", "--config", out / "config.json", "--checkpoint", ckpt,
                      "--manifest", config["data"]["manifest"], "--stage", stage).encode())
    cli("maps", "--checkpoint", ckpt, "--manifest", config["data"]["manifest"],
        "--sample", "s00000", "--out", out / "maps")
    for path in sorted((out / "maps").iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    return f"{name:<13} epochs={final['epochs_run']} {digest.hexdigest()[:32]}"


def datasets(root: Path) -> str:
    """The digest line of every file of the generated sets under ``root``."""
    files = sorted(path for name in DATASETS for path in (root / name).rglob("*")
                   if path.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + path.read_bytes())
    return f"{'datasets':<13} files={len(files)} {digest.hexdigest()[:32]}"


def run_set(root: Path):
    """Generate the datasets under ``root``, then do every run; yields each
    run's digest line as it finishes, then the datasets' line.  Run ``name``
    leaves its config and checkpoint in ``root / name``."""
    for name, spec in DATASETS.items():
        (root / f"{name}.json").write_text(json.dumps(spec))
        cli("gen-synthetic", "--spec", root / f"{name}.json", "--out", root / name)
    line = datasets(root)
    for row in RUNS:
        yield run(root, *row)
    yield line


def digest_all() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for line in run_set(Path(tmp)):
            print(line, flush=True)


if __name__ == "__main__":
    digest_all()
