"""CLI contracts: exit codes, machine-readable stdout, config overrides,
stage chaining with --init, checkpoint inspection."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from phcnet import checkpoint as ckpt
from phcnet import data as D
from phcnet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_stage_chain_patch_then_two_view(self, workspace, capsys, tmp_path):
        root, _, data_dir, cfg_path = workspace
        config = json.loads(cfg_path.read_text())
        config["model"]["heads"] = 5
        config["train"]["patch_size"] = 12
        config["train"]["per_lesion"] = 4
        patch_cfg = tmp_path / "patch_config.json"
        patch_cfg.write_text(json.dumps(config))
        patch_ckpt = tmp_path / "patch.ckpt"
        code, _, _ = run(capsys, "train", "--config", str(patch_cfg),
                         "--stage", "patch", "--out", str(patch_ckpt))
        assert code == 0
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
        assert len(written) == 3
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

        model = MD.build_phresnet(MD.PHResNetConfig(n=2, width=64), seed=0)
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


class TestCheckpointErrors:
    """Every malformed checkpoint ends in exit 4 with a message, never a traceback."""

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
