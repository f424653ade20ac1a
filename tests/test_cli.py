"""CLI contracts: exit codes, machine-readable stdout, config overrides,
stage chaining with --init, checkpoint inspection, and fuzzing of damaged
checkpoints, manifests, PGM files, run configs and synthetic specs."""

import contextlib
import io
import json
import os
import resource
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phcnet import checkpoint as ckpt
from phcnet import data as D
from phcnet.cli import main

HUGE = 10**400  # a JSON integer that no float holds
BIG = 10**300  # a float holds it, but no array extent
SIZE = 2**63  # one past sys.maxsize, numpy's largest extent
ALLOC = 2**40  # numpy indexes it, but no machine holds the arrays it sizes
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quietly(*argv):
    """(exit code, stderr) of one CLI call; usable inside Hypothesis tests."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def run_limited(*argv):
    """(exit code, stderr) of one CLI call in a child process limited to 2 GiB
    of address space, so an allocation the machine cannot hold fails whatever
    the kernel's overcommit setting."""
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "phcnet.cli", *map(str, argv)], capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC),
                                     "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return proc.returncode, proc.stderr


def absolute_manifest(data_dir) -> dict:
    """The manifest document of ``data_dir`` with absolute view and mask
    paths, so a copy written elsewhere still finds the images."""
    doc = json.loads((data_dir / "manifest.json").read_text())
    for entry in doc["entries"]:
        entry["views"] = [str(data_dir / v) for v in entry["views"]]
        entry["mask"] = str(data_dir / entry["mask"])
    return doc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = {"size": 32, "count": 24, "seed": 9}
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    data_dir = root / "data"
    code = main(["gen-synthetic", "--spec", str(spec_path), "--out", str(data_dir)])
    assert code == 0
    config = {
        "config-version": 1,
        "model": {"kind": "phresnet", "n": 2, "blocks": [1, 1], "width": 4,
                  "refiners": 1, "heads": 1},
        "train": {"lr": 1e-3, "max_epochs": 2, "batch_size": 8, "patience": 5,
                  "seed": 0},
        "data": {"manifest": str(data_dir / "manifest.json")},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return root, spec_path, data_dir, cfg_path


class TestGenSynthetic:
    def test_valid_spec_manifest_present(self, workspace, capsys):
        root, spec_path, data_dir, _ = workspace
        assert (data_dir / "manifest.json").exists()

    def test_deterministic_rerun(self, workspace, capsys):
        root, spec_path, _, _ = workspace
        out_a, out_b = root / "rerun_a", root / "rerun_b"
        assert main(["gen-synthetic", "--spec", str(spec_path), "--out", str(out_a)]) == 0
        capsys.readouterr()
        assert main(["gen-synthetic", "--spec", str(spec_path), "--out", str(out_b)]) == 0
        capsys.readouterr()
        for pa in sorted(out_a.rglob("*")):
            if pa.is_file():
                pb = out_b / pa.relative_to(out_a)
                assert pa.read_bytes() == pb.read_bytes()

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"size": 4}))  # below minimum
        code, _, err = run(capsys, "gen-synthetic", "--spec", str(bad),
                           "--out", str(tmp_path / "o"))
        assert code == 2
        assert err

    @pytest.mark.parametrize("spec", [{"noise": 1e300}, {"contrast": [1e300, 1e300]}],
                             ids=["noise 1e300", "contrast [1e300, 1e300]"])
    def test_pixels_too_large_for_float32(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"size": 32, "count": 2, **spec}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "gen-synthetic", "--spec", str(path),
                               "--out", str(tmp_path / "o"))
        assert code == 5 and err.startswith("error: ") and len(err.splitlines()) == 1
        assert "synthetic set is not finite" in err and "overflow" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_unwritable_out_exit_3(self, workspace, tmp_path, capsys):
        _, spec_path, _, _ = workspace
        blocked = tmp_path / "file"
        blocked.write_text("x")  # a file where a directory must go
        code, _, err = run(capsys, "gen-synthetic", "--spec", str(spec_path),
                           "--out", str(blocked / "sub"))
        assert code == 3


class TestTrain:
    def test_train_and_eval_json(self, workspace, capsys, tmp_path):
        root, _, data_dir, cfg_path = workspace
        out_ckpt = tmp_path / "model.ckpt"
        code, out, err = run(capsys, "train", "--config", str(cfg_path),
                             "--stage", "two-view", "--out", str(out_ckpt))
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert "auc" in payload and out_ckpt.exists()
        code, out, _ = run(capsys, "eval", "--checkpoint", str(out_ckpt),
                           "--manifest", str(data_dir / "manifest.json"))
        assert code == 0
        result = json.loads(out)
        assert set(result) >= {"auc", "accuracy"}

    def test_lr_zero_final_params_equal_init(self, workspace, capsys, tmp_path):
        root, _, data_dir, cfg_path = workspace
        first = tmp_path / "init.ckpt"
        second = tmp_path / "after.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                         "--stage", "two-view", "--out", str(first),
                         "--set", "train.lr=0", "--set", "train.max_epochs=1")
        assert code == 0
        code, _, err = run(capsys, "train", "--config", str(cfg_path),
                           "--stage", "two-view", "--out", str(second),
                           "--init", str(first),
                           "--set", "train.lr=0", "--set", "train.max_epochs=1")
        assert code == 0
        assert "transferred" in err
        a, _ = ckpt.load(first)
        b, _ = ckpt.load(second)
        for name in a:
            if "running_" in name:
                continue  # batch-norm buffers track data even at lr=0
            assert a[name].tobytes() == b[name].tobytes(), name

    def test_stage_chain_patch_then_two_view(self, workspace, patch_run, capsys,
                                             tmp_path):
        root, _, data_dir, cfg_path = workspace
        _, patch_ckpt = patch_run
        whole_ckpt = tmp_path / "whole.ckpt"
        code, out, err = run(capsys, "train", "--config", str(cfg_path),
                             "--stage", "two-view", "--init", str(patch_ckpt),
                             "--out", str(whole_ckpt))
        assert code == 0
        import re

        match = re.search(r"transferred (\d+) tensors", err)
        assert match is not None
        state, _ = ckpt.load(patch_ckpt)
        trunk_count = sum(1 for k in state if k.startswith("trunk."))
        assert int(match.group(1)) == trunk_count

    def test_eval_uses_config_patch_geometry(self, workspace, patch_run, capsys):
        _, _, data_dir, _ = workspace
        patch_cfg, patch_ckpt = patch_run
        code, out, err = run(capsys, "eval", "--config", str(patch_cfg),
                             "--checkpoint", str(patch_ckpt),
                             "--manifest", str(data_dir / "manifest.json"))
        assert code == 0, err
        assert "accuracy" in json.loads(out)

    def test_missing_dataset_exit_2_with_path(self, workspace, capsys, tmp_path):
        root, _, _, cfg_path = workspace
        code, _, err = run(capsys, "train", "--config", str(cfg_path),
                           "--stage", "two-view", "--out", str(tmp_path / "x.ckpt"),
                           "--set", 'data.manifest="/nonexistent/manifest.json"')
        assert code == 2
        assert "/nonexistent/manifest.json" in err

    def test_transfer_shape_mismatch_exit_4(self, workspace, capsys, tmp_path):
        root, _, data_dir, cfg_path = workspace
        wide = tmp_path / "wide.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                         "--stage", "two-view", "--out", str(wide),
                         "--set", "model.width=8", "--set", "train.max_epochs=1")
        assert code == 0
        code, _, err = run(capsys, "train", "--config", str(cfg_path),
                           "--stage", "two-view", "--init", str(wide),
                           "--out", str(tmp_path / "y.ckpt"))
        assert code == 4
        assert "trunk.conv1" in err


    @pytest.mark.parametrize("overrides", [
        ("train.lr=1e12", "train.weight_decay=0"), ("train.lr=1e39",),
    ], ids=["lr 1e12", "lr 1e39"])
    def test_diverging_lr_exit_5(self, workspace, capsys, tmp_path, overrides):
        _, _, _, cfg_path = workspace
        sets = [arg for item in overrides for arg in ("--set", item)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "train", "--config", str(cfg_path),
                               "--stage", "two-view", "--out", str(tmp_path / "d.ckpt"),
                               *sets)
        assert code == 5 and err.startswith("error: ") and len(err.splitlines()) == 1
        assert "two-view train step at epoch 0 is not finite" in err
        assert not (tmp_path / "d.ckpt").exists()


@pytest.fixture(scope="module")
def patch_run(workspace, tmp_path_factory):
    """(config, checkpoint) of a patch stage run on 12 px patches."""
    _, _, _, cfg_path = workspace
    root = tmp_path_factory.mktemp("patch")
    config = json.loads(cfg_path.read_text())
    config["model"]["heads"] = 5
    config["train"]["patch_size"] = 12
    config["train"]["per_lesion"] = 4
    patch_cfg = root / "patch_config.json"
    patch_cfg.write_text(json.dumps(config))
    patch_ckpt = root / "patch.ckpt"
    code = main(["train", "--config", str(patch_cfg), "--stage", "patch",
                 "--out", str(patch_ckpt)])
    assert code == 0
    return patch_cfg, patch_ckpt


@pytest.fixture(scope="module")
def checkpoint(workspace, tmp_path_factory):
    root, _, data_dir, cfg_path = workspace
    out = tmp_path_factory.mktemp("ck") / "m.ckpt"
    code = main(["train", "--config", str(cfg_path), "--stage", "two-view",
                 "--out", str(out), "--set", "train.max_epochs=1"])
    assert code == 0
    return out


class TestMapsInspect:
    def test_maps_writes_files(self, workspace, checkpoint, capsys, tmp_path):
        root, _, data_dir, _ = workspace
        manifest = D.Manifest.load(data_dir / "manifest.json")
        sample = manifest.entries[0].id
        code, out, _ = run(capsys, "maps", "--checkpoint", str(checkpoint),
                           "--manifest", str(data_dir / "manifest.json"),
                           "--sample", sample, "--out", str(tmp_path / "maps"))
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 2
        assert all(Path(p).exists() for p in written)

    def test_maps_missing_sample_exit_4(self, workspace, checkpoint, capsys, tmp_path):
        root, _, data_dir, _ = workspace
        code, _, err = run(capsys, "maps", "--checkpoint", str(checkpoint),
                           "--manifest", str(data_dir / "manifest.json"),
                           "--sample", "no-such-id", "--out", str(tmp_path / "m"))
        assert code == 4

    def test_inspect_contract(self, workspace, checkpoint, capsys):
        code, out, _ = run(capsys, "inspect", "--checkpoint", str(checkpoint))
        assert code == 0
        payload = json.loads(out)
        assert payload["trainable_params"] > 0
        assert 0.4 < payload["ratio_vs_real"] < 0.62
        names = {row["name"] for row in payload["tensors"]}
        assert any(name.startswith("trunk.conv1") for name in names)

    def test_inspect_width64_ratio_half(self, capsys, tmp_path):
        from phcnet import models as MD

        model = MD.PHResNet(MD.PHResNetConfig(n=2, width=64), seed=0)
        path = tmp_path / "w64.ckpt"
        ckpt.save(path, model.state_dict(), MD.model_config(model))
        code, out, _ = run(capsys, "inspect", "--checkpoint", str(path))
        assert code == 0
        ratio = json.loads(out)["ratio_vs_real"]
        assert abs(ratio - 0.50) < 0.02

    def test_corrupt_checkpoint_exit_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code, _, err = run(capsys, "inspect", "--checkpoint", str(bad))
        assert code == 4

    def test_config_that_does_not_fit_the_tensors_exit_4(self, checkpoint, capsys,
                                                         tmp_path):
        def widen(header):
            assert header["model-config"]["width"] == 4
            header["model-config"]["width"] = 8

        path = _rewrite(checkpoint, tmp_path / "wide.ckpt", edit_header=widen)
        code, out, err = run(capsys, "inspect", "--checkpoint", path)
        assert code == 4 and out == ""
        assert "shape mismatch for trunk.conv1.F" in err


def _rewrite(src, dst, edit_header=None, cut=None):
    """Copy a checkpoint, editing its JSON header or truncating its bytes."""
    raw = Path(src).read_bytes()
    if edit_header is not None:
        start = len(ckpt.MAGIC) + 8
        (hlen,) = struct.unpack_from("<Q", raw, len(ckpt.MAGIC))
        header = json.loads(raw[start : start + hlen])
        edit_header(header)
        text = json.dumps(header).encode()
        raw = ckpt.MAGIC + struct.pack("<Q", len(text)) + text + raw[start + hlen :]
    Path(dst).write_bytes(raw if cut is None else raw[:cut])
    return str(dst)


class TestStageMismatch:
    """A model whose output does not fit the stage exits 4 instead of being
    scored or trained on part of its output."""

    def test_eval_patch_stage_on_one_head_model(self, workspace, checkpoint,
                                                patch_run, capsys):
        _, _, data_dir, _ = workspace
        patch_cfg, _ = patch_run
        code, out, err = run(capsys, "eval", "--config", str(patch_cfg),
                             "--checkpoint", str(checkpoint),
                             "--manifest", str(data_dir / "manifest.json"),
                             "--stage", "patch")
        assert code == 4, out
        assert out == ""
        assert "patch stage needs outputs (32, 5), got (32, 1)" in err

    def test_train_two_view_with_five_heads(self, workspace, capsys, tmp_path):
        _, _, _, cfg_path = workspace
        out_ckpt = tmp_path / "x.ckpt"
        code, out, err = run(capsys, "train", "--config", str(cfg_path),
                             "--stage", "two-view", "--out", str(out_ckpt),
                             "--set", "model.heads=5", "--set", "train.max_epochs=1")
        assert code == 4, out
        assert "two-view stage needs outputs (8, 1), got (8, 5)" in err
        assert not out_ckpt.exists()


class TestCheckpointErrors:
    """Every malformed checkpoint ends in exit 4 with a message, never a
    traceback; one whose model outputs are not finite ends in exit 5."""

    def _eval(self, capsys, workspace, path):
        _, _, data_dir, _ = workspace
        code, _, err = run(capsys, "eval", "--checkpoint", path,
                           "--manifest", str(data_dir / "manifest.json"))
        assert "Traceback" not in err
        assert err.startswith("error: ")
        return code, err

    def test_truncated_after_magic(self, workspace, checkpoint, capsys, tmp_path):
        path = _rewrite(checkpoint, tmp_path / "t.ckpt", cut=len(ckpt.MAGIC) + 3)
        code, err = self._eval(capsys, workspace, path)
        assert code == 4 and "truncated" in err

    @pytest.mark.parametrize("key", ["tensors", "model-config"])
    def test_header_lacks_key(self, workspace, checkpoint, capsys, tmp_path, key):
        path = _rewrite(checkpoint, tmp_path / "h.ckpt",
                        edit_header=lambda header: header.pop(key))
        code, err = self._eval(capsys, workspace, path)
        assert code == 4 and "tensors or model-config" in err

    @pytest.mark.parametrize("field", ["dtype", "shape", "offset", "nbytes"])
    def test_entry_lacks_field(self, workspace, checkpoint, capsys, tmp_path, field):
        def drop(header):
            del next(iter(header["tensors"].values()))[field]

        path = _rewrite(checkpoint, tmp_path / "e.ckpt", edit_header=drop)
        code, err = self._eval(capsys, workspace, path)
        assert code == 4 and "lacks dtype, shape, offset or nbytes" in err

    @pytest.mark.parametrize("change", ["missing", "unexpected"])
    def test_state_names_differ(self, workspace, checkpoint, capsys, tmp_path, change):
        state, config = ckpt.load(checkpoint)
        if change == "missing":
            del state["trunk.conv1.F"]
        else:
            state["trunk.extra"] = np.zeros(2, dtype=np.float32)
        path = tmp_path / "n.ckpt"
        ckpt.save(path, state, config)
        code, err = self._eval(capsys, workspace, str(path))
        assert code == 4 and change in err

    def test_state_shape_mismatch(self, workspace, checkpoint, capsys, tmp_path):
        state, config = ckpt.load(checkpoint)
        state["trunk.conv1.F"] = state["trunk.conv1.F"][..., :1]
        path = tmp_path / "s.ckpt"
        ckpt.save(path, state, config)
        code, err = self._eval(capsys, workspace, str(path))
        assert code == 4 and "shape mismatch for trunk.conv1.F" in err

    def test_buffer_shape_mismatch(self, workspace, checkpoint, capsys, tmp_path):
        state, config = ckpt.load(checkpoint)
        state["trunk.bn1.running_mean"] = state["trunk.bn1.running_mean"][:1]
        path = tmp_path / "b.ckpt"
        ckpt.save(path, state, config)
        code, err = self._eval(capsys, workspace, str(path))
        assert code == 4 and "shape mismatch for trunk.bn1.running_mean" in err

    @pytest.mark.parametrize("command", ["eval", "maps"])
    def test_non_finite_outputs(self, workspace, checkpoint, capsys, tmp_path, command):
        state, config = ckpt.load(checkpoint)
        # finite, but gamma times a standardized activation above 1 overflows
        state["trunk.bn1.gamma"] = np.full_like(state["trunk.bn1.gamma"],
                                                np.finfo(np.float32).max)
        path = tmp_path / "overflow.ckpt"
        ckpt.save(path, state, config)
        _, _, data_dir, _ = workspace
        manifest = data_dir / "manifest.json"
        argv = [command, "--checkpoint", str(path), "--manifest", str(manifest)]
        if command == "maps":
            argv += ["--sample", D.Manifest.load(manifest).entries[0].id,
                     "--out", str(tmp_path / "maps")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, *argv)
        assert code == 5 and err.startswith("error: ") and len(err.splitlines()) == 1
        assert "not finite" in err and "overflow" in err
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("name, value, word", [
        ("trunk.bn1.running_var", -1.0, "negative variance"),
        ("trunk.bn1.running_mean", np.nan, "not finite"),
        ("trunk.conv1.F", np.inf, "not finite"),
    ], ids=["negative variance", "nan", "inf"])
    def test_bad_tensor_value(self, workspace, checkpoint, capsys, tmp_path,
                              name, value, word):
        state, config = ckpt.load(checkpoint)
        state[name] = state[name].copy()
        state[name].flat[0] = value
        path = tmp_path / "v.ckpt"
        ckpt.save(path, state, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._eval(capsys, workspace, str(path))
        assert code == 4 and name in err and word in err


class TestInputErrors:
    """Bad run configs, model configs, manifests and specs end in exit 2 with
    an ``error:`` line, never a traceback."""

    def _run(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert "Traceback" not in err
        assert err.startswith("error: ")
        return code, err

    @pytest.mark.parametrize("override", [
        "train.batch_size=0", "train.max_epochs=0", "train.patience=-1",
        'train.lr="x"', "train.lr=-0.1", "train.weight_decay=-1",
        "train.pos_weight=0", 'train.pos_weight="x"',
        "model.blocks=5", "model.width=0", "model.in_channels=0",
        "model.refiners=-1", 'model.refiners="x"', "model.heads=0",
        'train.augment="no"', 'train.seed="x"', "train.seed=-1",
        'train.val_fraction="x"', "train.val_fraction=0", "train.val_fraction=1",
        "train.val_fraction=1.5", "train.patch_size=-4", 'train.per_lesion="a"',
        f"train.lr={HUGE}", f"train.max_epochs={HUGE}", f"model.width={BIG}",
        f"model.heads={SIZE}", f"model.refiners={SIZE}", f"model.blocks=[{SIZE}, 1]",
        f"train.batch_size={SIZE}", f"train.patch_size={SIZE}", f"train.per_lesion={SIZE}",
    ], ids=lambda override: override.replace(str(HUGE), "10**400")
                                    .replace(str(BIG), "10**300").replace(str(SIZE), "2**63"))
    def test_bad_train_or_model_value(self, workspace, capsys, tmp_path, override):
        _, _, _, cfg_path = workspace
        code, err = self._run(capsys, "train", "--config", str(cfg_path),
                              "--stage", "two-view", "--out", str(tmp_path / "x.ckpt"),
                              "--set", override)
        assert code == 2
        assert override.split("=")[0].split(".")[1] in err

    @pytest.mark.parametrize("argv, word", [
        (("train", "--config", "CFG", "--set", "train=5"), "train"),
        (("train", "--config", "CFG", "--set", "data=5"), "data"),
        (("train", "--config", "LIST"), "object"),
        (("eval", "--checkpoint", "CKPT", "--set", "train=5"), "train"),
        (("eval", "--checkpoint", "CKPT", "--set", "train.stage=[1]"), "stage"),
        (("train", "--config", "CFG", "--set",
          'model={"kind": "phunet", "width": 4, "depth": -1}'), "depth"),
        (("eval", "--checkpoint", "HEADS0"), "heads"),
        (("train", "--config", "CFG", "--set", "trian.max_epochs=1"), "'trian'"),
        (("train", "--config", "CFG", "--set", "=3"), "key ''"),
        (("eval", "--checkpoint", "CKPT", "--set", "data.manifestt=x"), "'data.manifestt'"),
    ], ids=["train=5", "data=5", "list config", "eval train=5", "eval stage=[1]",
            "phunet depth=-1", "checkpoint heads=0", "unknown section",
            "empty key", "unknown data key"])
    def test_bad_config_shape(self, workspace, checkpoint, capsys, tmp_path, argv, word):
        _, _, data_dir, cfg_path = workspace
        (tmp_path / "list.json").write_text("[]")
        heads0 = _rewrite(checkpoint, tmp_path / "h.ckpt",
                          edit_header=lambda h: h["model-config"].update(heads=0))
        paths = {"CFG": str(cfg_path), "LIST": str(tmp_path / "list.json"),
                 "CKPT": str(checkpoint), "HEADS0": heads0}
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] == "train":
            argv += ["--stage", "two-view", "--out", str(tmp_path / "x.ckpt")]
        else:
            argv += ["--manifest", str(data_dir / "manifest.json")]
        code, err = self._run(capsys, *argv)
        assert code == 2 and word in err

    @pytest.mark.parametrize("edit", ["drop kind", "extra key"])
    def test_checkpoint_model_config(self, checkpoint, capsys, tmp_path, edit):
        def change(header):
            if edit == "drop kind":
                del header["model-config"]["kind"]
            else:
                header["model-config"]["colour"] = "red"

        path = _rewrite(checkpoint, tmp_path / "c.ckpt", edit_header=change)
        code, err = self._run(capsys, "inspect", "--checkpoint", path)
        assert code == 2 and ("kind" in err if edit == "drop kind" else "colour" in err)

    @pytest.mark.parametrize("edit", [
        lambda doc, e: doc.pop("entries"),
        lambda doc, e: doc.pop("metadata"),
        lambda doc, e: e.update(colour="red"),
        lambda doc, e: e.update(id=5),
        lambda doc, e: e.update(views=5),
        lambda doc, e: e.update(views=[None] + e["views"][1:]),
        lambda doc, e: e.update(views=e["views"][:1]),
        lambda doc, e: e.update(labels="x"),
        lambda doc, e: e.update(labels=["a"]),
        lambda doc, e: e.update(labels=[2]),
        lambda doc, e: e.update(labels=[0, 1]),
        lambda doc, e: e.update(mask=5),
    ], ids=["no entries", "no metadata", "unknown field", "id 5", "views 5", "null view",
            "one view", 'labels "x"', 'labels ["a"]', "labels [2]", "ragged labels",
            "mask 5"])
    def test_bad_manifest(self, workspace, checkpoint, capsys, tmp_path, edit):
        _, _, data_dir, _ = workspace
        doc = absolute_manifest(data_dir)
        edit(doc, doc["entries"][0])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, err = self._run(capsys, "eval", "--checkpoint", str(checkpoint),
                              "--manifest", str(path))
        assert code == 2 and str(path) in err

    def test_images_differ_in_size(self, workspace, checkpoint, capsys, tmp_path):
        _, _, data_dir, _ = workspace
        doc = absolute_manifest(data_dir)
        small = np.zeros((16, 16), dtype=np.float32)
        for i in range(2):
            D.save_pgm(tmp_path / f"small{i}.pgm", small)
        doc["entries"][0]["views"] = [str(tmp_path / f"small{i}.pgm") for i in range(2)]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, err = self._run(capsys, "eval", "--checkpoint", str(checkpoint),
                              "--manifest", str(path))
        assert code == 2 and "differ in size" in err

    def test_masks_differ_in_size(self, workspace, checkpoint, capsys, tmp_path):
        _, _, data_dir, _ = workspace
        doc = absolute_manifest(data_dir)
        D.save_pgm(tmp_path / "small.pgm", np.zeros((16, 16), dtype=np.float32))
        doc["entries"][0]["mask"] = str(tmp_path / "small.pgm")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, err = self._run(capsys, "eval", "--checkpoint", str(checkpoint),
                              "--manifest", str(path), "--stage", "segmentation")
        assert code == 2 and "differ in size" in err

    @pytest.mark.parametrize("edit, code", [
        (lambda doc, e: e.update(boxes=5), 2),
        (lambda doc, e: e.update(boxes=[[1, 2]]), 2),
        (lambda doc, e: e.update(boxes=[[16, 16, -3], [16, 16, 3]]), 2),
        (lambda doc, e: e.update(lesion=5), 2),
        (lambda doc, e: e.update(lesion={"kind": 3, "malignant": True}), 2),
        (lambda doc, e: e.update(lesion={"kind": "cyst", "malignant": True}), 2),
        # the image size comes from the views, not from the metadata
        (lambda doc, e: doc["metadata"].update({"image-size": "x"}), 0),
        (lambda doc, e: doc["metadata"].pop("image-size"), 0),
    ], ids=["boxes 5", "short box", "negative radius", "lesion 5", "kind 3",
            'kind "cyst"', 'image-size "x"', "no image-size"])
    def test_bad_patch_fields(self, workspace, patch_run, capsys, tmp_path, edit, code):
        _, _, data_dir, _ = workspace
        patch_cfg, patch_ckpt = patch_run
        doc = absolute_manifest(data_dir)
        edit(doc, doc["entries"][0])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        got, _, err = run(capsys, "eval", "--config", str(patch_cfg),
                          "--checkpoint", str(patch_ckpt), "--manifest", str(path))
        assert got == code and "Traceback" not in err, err
        if code:
            assert doc["entries"][0]["id"] in err

    @pytest.mark.parametrize("spec, word", [
        ({"radius": 3}, "radius"), ({"contrast": [0.5]}, "contrast"),
        ({"size": 16}, "fits is 19"),
        ({"size": 24, "label_rule": "cross-view-xor"}, "fits is 29"),
        ({"radius": [5, 3]}, "radius"), ({"size": 32, "radius": [3, 20]}, "fits is 48"),
        ({"radius": [0, 3]}, "radius"), ({"contrast": [0.6, 0.3]}, "contrast"),
        ({"contrast": [-0.2, 0.3]}, "contrast"), ({"noise": -0.1}, "noise"),
        ({"radius": [1, HUGE]}, "radius"), ({"size": HUGE}, "size"),
        ({"size": BIG}, "size"), ({"count": BIG}, "count"),
        ({"radius": [1, 1e308]}, "radius up to 1e+308"),
    ], ids=["spec0", "spec1", "size 16", "xor size 24", "radius [5, 3]",
            "radius [3, 20]", "radius [0, 3]", "contrast [0.6, 0.3]",
            "contrast [-0.2, 0.3]", "noise -0.1", "radius [1, 10**400]",
            "size 10**400", "size 10**300", "count 10**300", "radius [1, 1e308]"])
    def test_bad_spec_pair(self, capsys, tmp_path, spec, word):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"size": 32, "count": 2, **spec}))
        code, err = self._run(capsys, "gen-synthetic", "--spec", str(path),
                              "--out", str(tmp_path / "o"))
        assert code == 2 and word in err

    @pytest.mark.parametrize("kind", ["spec", "train config", "eval config", "manifest"])
    def test_file_not_utf8(self, workspace, capsys, tmp_path, kind):
        _, _, data_dir, cfg_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        out = str(tmp_path / "out")
        argv = {
            "spec": ["gen-synthetic", "--spec", bad, "--out", out],
            "train config": ["train", "--config", bad, "--stage", "two-view", "--out", out],
            "eval config": ["eval", "--config", bad, "--checkpoint", tmp_path / "none.ckpt",
                            "--manifest", data_dir / "manifest.json"],
            "manifest": ["train", "--config", cfg_path, "--stage", "two-view", "--out", out,
                         "--set", f"data.manifest={json.dumps(str(bad))}"],
        }[kind]
        code, err = self._run(capsys, *map(str, argv))
        assert code == 2 and kind.split()[-1] in err

    @pytest.mark.parametrize("argv, word", [
        (("gen-synthetic", "--spec", "SPEC", "--out", "OUT"), "size"),
        (("train", "--config", "CFG", "--stage", "two-view", "--out", "OUT",
          "--set", f"model.width={ALLOC}"), "more memory than"),
    ], ids=["spec size 2**40", "model.width=2**40"])
    def test_too_large_to_allocate(self, workspace, tmp_path, argv, word):
        _, _, _, cfg_path = workspace
        (tmp_path / "spec.json").write_text(json.dumps({"size": ALLOC, "count": 2}))
        paths = {"SPEC": tmp_path / "spec.json", "OUT": tmp_path / "out", "CFG": cfg_path}
        code, err = run_limited(*(paths.get(arg, arg) for arg in argv))
        assert "Traceback" not in err and err.startswith("error: "), err
        assert code == 2 and word in err


class TestCheckpointFuzz:
    """A truncated or byte-flipped checkpoint ends in a documented exit code
    for inspect and eval, never a traceback."""

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_checkpoint(self, workspace, checkpoint, tmp_path_factory, data):
        _, _, data_dir, _ = workspace
        raw = bytearray(Path(checkpoint).read_bytes())
        (hlen,) = struct.unpack_from("<Q", raw, len(ckpt.MAGIC))
        payload = len(ckpt.MAGIC) + 8 + hlen
        lo, hi = data.draw(st.sampled_from([(0, payload), (payload, len(raw))]))
        at = data.draw(st.integers(lo, hi - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:at]
        else:
            raw[at] ^= data.draw(st.integers(1, 255), label="xor")
        path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
        path.write_bytes(bytes(raw))
        for argv in (["inspect", "--checkpoint", str(path)],
                     ["eval", "--checkpoint", str(path),
                      "--manifest", str(data_dir / "manifest.json")]):
            code, err = run_quietly(*argv)
            assert code in (0, 2, 3, 4, 5), (argv[0], code, err)
            assert "Traceback" not in err


JSON_VALUES = [None, True, 3, 0.5, "x", [], [1], ["x"], {}, {"x": 1}]


class TestDataFuzz:
    """A manifest with a key or an item dropped or a value of another JSON
    type, and a truncated or header-flipped PGM file, end in a documented
    exit code for eval, never a traceback."""

    def _eval(self, checkpoint, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzzed-manifest.json"
        path.write_text(json.dumps(doc))
        code, err = run_quietly("eval", "--checkpoint", str(checkpoint),
                                "--manifest", str(path))
        assert code in (0, 2, 3, 4, 5), (code, err)
        assert "Traceback" not in err

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_manifest(self, workspace, checkpoint, tmp_path_factory, data):
        _, _, data_dir, _ = workspace
        doc = absolute_manifest(data_dir)
        entry = data.draw(st.sampled_from(doc["entries"]), label="entry")
        target = data.draw(st.sampled_from(
            [doc, doc["metadata"], entry, entry["views"], entry["labels"]]), label="target")
        keys = sorted(target) if isinstance(target, dict) else range(len(target))
        key = data.draw(st.sampled_from(keys), label="key")
        if data.draw(st.booleans(), label="drop"):
            del target[key]
        else:
            target[key] = data.draw(st.sampled_from(JSON_VALUES), label="value")
        self._eval(checkpoint, tmp_path_factory, doc)

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_pgm(self, workspace, checkpoint, tmp_path_factory, data):
        _, _, data_dir, _ = workspace
        doc = absolute_manifest(data_dir)
        views = data.draw(st.sampled_from(doc["entries"]), label="entry")["views"]
        view = data.draw(st.integers(0, len(views) - 1), label="view")
        raw = bytearray(Path(views[view]).read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="at")]
        else:
            header = raw.index(b"\n255\n") + 5
            raw[data.draw(st.integers(0, header - 1), label="at")] ^= data.draw(
                st.integers(1, 255), label="xor")
        path = tmp_path_factory.getbasetemp() / "fuzzed.pgm"
        path.write_bytes(bytes(raw))
        views[view] = str(path)
        self._eval(checkpoint, tmp_path_factory, doc)


def mutate(data, target: dict | list):
    """Drop one key or item of ``target``, or give it a value of another
    JSON type, or zero, negate or make it 10**400 when it is a number.
    Returns the key and whether it was dropped."""
    keys = sorted(target) if isinstance(target, dict) else range(len(target))
    key = data.draw(st.sampled_from(keys), label="key")
    old = target[key]
    how = data.draw(st.sampled_from(["drop", "type", "zero", "negate", "huge"]),
                    label="how")
    if how == "drop":
        del target[key]
    elif how == "type" or type(old) not in (int, float):
        target[key] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(old)]), label="value")
    else:
        target[key] = {"zero": old * 0, "negate": -old, "huge": HUGE}[how]
    return key, how == "drop"


class TestConfigFuzz:
    """A run config or synthetic spec with a key dropped, a value of another
    JSON type, or a number zeroed, negated or made 10**400 ends in a
    documented exit code, never a traceback, whether the change is in the
    file or a --set."""

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_config(self, workspace, tmp_path_factory, data):
        _, _, _, cfg_path = workspace
        base = tmp_path_factory.getbasetemp()
        doc = json.loads(cfg_path.read_text())
        doc["train"]["max_epochs"] = 1
        prefix, target = data.draw(st.sampled_from(
            [("", doc), ("model.", doc["model"]), ("train.", doc["train"]),
             ("data.", doc["data"]), (None, doc["model"]["blocks"])]), label="target")
        unchanged = json.dumps(doc)
        key, dropped = mutate(data, target)
        argv = []
        if not dropped and prefix is not None and data.draw(st.booleans(), label="--set"):
            argv = ["--set", f"{prefix}{key}={json.dumps(target[key])}"]
            doc = json.loads(unchanged)
        path = base / "fuzzed-config.json"
        path.write_text(json.dumps(doc))
        code, err = run_quietly("train", "--config", str(path), "--stage", "two-view",
                                "--out", str(base / "fuzzed-config.ckpt"), *argv)
        assert code in (0, 2, 3, 4, 5), (code, err)
        assert "Traceback" not in err

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_damaged_spec(self, tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        spec = {"size": 32, "count": 4, "views": 2, "radius": [3.5, 5.5],
                "contrast": [0.35, 0.6], "noise": 0.03, "label_rule": "single-view",
                "seed": 9}
        mutate(data, data.draw(st.sampled_from(
            [spec, spec["radius"], spec["contrast"]]), label="target"))
        path = base / "fuzzed-spec.json"
        path.write_text(json.dumps(spec))
        code, err = run_quietly("gen-synthetic", "--spec", str(path),
                                "--out", str(base / "fuzzed-data"))
        assert code in (0, 2, 3, 4, 5), (code, err)
        assert "Traceback" not in err
