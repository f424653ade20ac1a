"""Checkpoint format: bitwise round trips, payload integrity, error paths."""

import numpy as np
import numpy.testing as npt
import pytest

from phcnet import checkpoint as ckpt
from phcnet import models as MD
from phcnet.errors import CheckpointError


@pytest.fixture()
def model():
    cfg = MD.PHResNetConfig(n=2, blocks=(1, 1), width=4, refiners=1)
    return MD.PHResNet(cfg, seed=0)


class TestRoundTrip:
    def test_save_load_save_bitwise(self, tmp_path, model):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ckpt.save(p1, model.state_dict(), MD.model_config(model))
        state, config = ckpt.load(p1)
        ckpt.save(p2, state, config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_exact(self, tmp_path, model):
        path = tmp_path / "m.ckpt"
        state = model.state_dict()
        ckpt.save(path, state, MD.model_config(model))
        loaded, config = ckpt.load(path)
        assert set(loaded) == set(state)
        for name in state:
            npt.assert_array_equal(loaded[name], state[name])
            assert loaded[name].dtype == state[name].dtype
        assert config == MD.model_config(model)

    def test_rebuild_model_from_checkpoint(self, tmp_path, model):
        path = tmp_path / "m.ckpt"
        ckpt.save(path, model.state_dict(), MD.model_config(model))
        state, config = ckpt.load(path)
        rebuilt = MD.build_model(config, seed=123)
        rebuilt.load_state_dict(state)
        for (name, p), (name2, p2) in zip(
            model.named_parameters(), rebuilt.named_parameters()
        ):
            assert name == name2
            npt.assert_array_equal(p.value, p2.value)

    def test_float64_tensors(self, tmp_path):
        state = {"x": np.arange(6, dtype=np.float64).reshape(2, 3)}
        path = tmp_path / "d.ckpt"
        ckpt.save(path, state, {"kind": "phresnet"})
        loaded, _ = ckpt.load(path)
        assert loaded["x"].dtype == np.float64
        npt.assert_array_equal(loaded["x"], state["x"])

    def test_transfer_then_save_is_bitwise_equal_on_mapped(self, tmp_path):
        cfg = MD.PHResNetConfig(n=2, blocks=(1, 1), width=4, refiners=1)
        source = MD.PHResNet(cfg, seed=0)
        target = MD.PHResNet(cfg, seed=5)
        src_path = tmp_path / "src.ckpt"
        ckpt.save(src_path, source.state_dict(), MD.model_config(source))
        state, config = ckpt.load(src_path)
        MD.transfer_weights(state, config, target)
        after = target.state_dict()
        for name in state:
            if name.startswith("trunk."):
                assert after[name].tobytes() == state[name].tobytes()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE!!" + bytes(64))
        with pytest.raises(CheckpointError):
            ckpt.load(path)

    def test_truncated_payload(self, tmp_path, model):
        path = tmp_path / "t.ckpt"
        ckpt.save(path, model.state_dict(), MD.model_config(model))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(CheckpointError):
            ckpt.load(path)

    def test_unsupported_dtype_rejected_on_save(self, tmp_path):
        with pytest.raises(CheckpointError):
            ckpt.save(tmp_path / "i.ckpt", {"x": np.arange(3)}, {})

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.ckpt"
        ckpt.save(path, {"x": np.zeros(2, dtype=np.float32)}, {})
        raw = bytearray(path.read_bytes())
        idx = raw.find(b'"format-version":1')
        raw[idx : idx + len(b'"format-version":1')] = b'"format-version":9'
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            ckpt.load(path)
