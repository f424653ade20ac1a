"""Training loop: lr=0 identity, run-log determinism, overfit sanity,
pos-weight computation, evaluation contracts, map export, graph-free eval."""

import numpy as np
import numpy.testing as npt
import pytest

from phcnet import autograd as ag
from phcnet import data as D
from phcnet import models as MD
from phcnet import nn
from phcnet import training as TR
from phcnet.errors import ConfigError, NumericError, ShapeError


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyset")
    spec = D.SyntheticSpec(size=24, count=24, seed=30)
    return D.gen_synthetic(spec, out)


def tiny_model(seed=0, **overrides):
    kw = dict(n=2, blocks=(1, 1), width=4, refiners=1)
    kw.update(overrides)
    return MD.PHResNet(MD.PHResNetConfig(**kw), seed=seed)


class TestTrainLoop:
    def test_lr_zero_keeps_parameters_bitwise(self, tiny_dataset):
        model = tiny_model(seed=1)
        before = {k: v.value.copy() for k, v in model.named_parameters()}
        cfg = TR.TrainConfig(stage="two-view", lr=0.0, max_epochs=2,
                             batch_size=8, patience=10, seed=0)
        TR.train(cfg, tiny_dataset, model)
        for name, p in model.named_parameters():
            npt.assert_array_equal(p.value, before[name])

    def test_same_seed_same_runlog(self, tiny_dataset):
        logs = []
        for _ in range(2):
            model = tiny_model(seed=2)
            cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=3,
                                 batch_size=8, patience=10, seed=7)
            _, log = TR.train(cfg, tiny_dataset, model)
            logs.append([e["train_loss"] for e in log.epochs])
        assert logs[0] == logs[1]

    def test_bitwise_identical_checkpoint(self, tiny_dataset):
        states = []
        for _ in range(2):
            model = tiny_model(seed=3)
            cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=2,
                                 batch_size=8, patience=10, seed=9)
            state, _ = TR.train(cfg, tiny_dataset, model)
            states.append(state)
        assert set(states[0]) == set(states[1])
        for name in states[0]:
            assert states[0][name].tobytes() == states[1][name].tobytes(), name

    def test_overfit_sixteen_samples(self, tmp_path):
        spec = D.SyntheticSpec(size=24, count=20, seed=31)
        manifest = D.gen_synthetic(spec, tmp_path)
        manifest.entries = manifest.entries[:16]
        model = tiny_model(seed=4, width=16, blocks=(1, 1, 1, 1), refiners=2)
        cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=200,
                             batch_size=8, patience=200, augment=False, seed=1,
                             weight_decay=0.0)

        train_subset = None
        hit = []

        def on_epoch(epoch, model, entry):
            res = TR.evaluate(model, train_subset, "two-view")
            hit.append(res.accuracy)
            return res.accuracy == 100.0

        # first derive the internal split, then fit to it
        _, probe_log = TR.train(
            TR.TrainConfig(stage="two-view", lr=0.0, max_epochs=1, seed=1),
            manifest, tiny_model(seed=4),
        )
        train_ids = set(probe_log.split["train"])
        train_subset = D.Manifest(
            manifest.metadata,
            [e for e in manifest.entries if e.id in train_ids],
            root=manifest.root,
        )
        TR.train(cfg, manifest, model, on_epoch=on_epoch)
        assert hit[-1] == 100.0, f"never reached 100%: max={max(hit)}"

    def test_auto_pos_weight_balanced_is_one(self):
        labels = np.array([0, 1] * 10)
        assert TR._auto_pos_weight(labels) == 1.0

    def test_auto_pos_weight_imbalanced(self):
        labels = np.array([0] * 30 + [1] * 10)
        assert TR._auto_pos_weight(labels) == 3.0

    def test_early_stop_kicks_in(self, tiny_dataset):
        model = tiny_model(seed=5)
        cfg = TR.TrainConfig(stage="two-view", lr=0.0, max_epochs=50,
                             batch_size=8, patience=1, seed=3)
        _, log = TR.train(cfg, tiny_dataset, model)
        # frozen weights: the val metric only drifts while the batch-norm
        # running statistics settle, so the plateau arrives well before 50
        assert len(log.epochs) < 20

    def test_best_checkpoint_retained(self, tiny_dataset):
        model = tiny_model(seed=6)
        cfg = TR.TrainConfig(stage="two-view", lr=5e-3, max_epochs=4,
                             batch_size=8, patience=10, seed=5)
        state, log = TR.train(cfg, tiny_dataset, model)
        best = max(e["val_metric"] for e in log.epochs)
        assert log.final["best_val_metric"] == best

    def test_incompatible_manifest_stage(self, tiny_dataset):
        model = MD.PHYBOnet(
            MD.PHYBOnetConfig(width=4, blocks=(1, 1, 1, 1), refiners=1), seed=0
        )
        cfg = TR.TrainConfig(stage="four-view", max_epochs=1, seed=0)
        with pytest.raises(ConfigError):
            TR.train(cfg, tiny_dataset, model)

    def test_runlog_jsonl(self, tiny_dataset, tmp_path):
        import json

        model = tiny_model(seed=7)
        cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=2,
                             batch_size=8, patience=5, seed=2)
        _, log = TR.train(cfg, tiny_dataset, model)
        path = tmp_path / "run.jsonl"
        log.to_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert "config" in lines[0] and lines[0]["param_count"] == model.param_count()
        assert all("epoch" in line for line in lines[1:-1])


    def test_one_sample_tail_folds_into_previous_batch(self, tmp_path, monkeypatch):
        manifest = D.gen_synthetic(D.SyntheticSpec(size=24, count=11, seed=30), tmp_path)
        steps = []
        step = TR.nn.Adam.step
        monkeypatch.setattr(TR.nn.Adam, "step", lambda opt: (steps.append(1), step(opt)))
        model = tiny_model(seed=4)
        cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=2,
                             batch_size=8, patience=10, seed=0)
        _, log = TR.train(cfg, manifest, model)
        assert len(log.split["train"]) == 9
        assert len(steps) == 2  # one step of 9 per epoch, not 8 then 1
        refiner_convs = [(name, p) for name, p in model.named_parameters()
                         if name.startswith("refiners.") and name.endswith(".F")]
        assert refiner_convs
        for name, p in refiner_convs:
            assert np.abs(p.grad).max() > 0, name

    def test_non_finite_gradient_stops_before_the_step(self, tiny_dataset, monkeypatch):
        model = tiny_model(seed=5)
        before = {k: v.value.copy() for k, v in model.named_parameters()}
        backward = TR.ag.backward

        def poisoned(loss):
            out = backward(loss)
            model.head.weight.grad[0, 0] = np.nan
            return out

        monkeypatch.setattr(TR.ag, "backward", poisoned)
        cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=1,
                             batch_size=8, patience=10, seed=0)
        with pytest.raises(NumericError, match="non-finite gradient for head.weight"):
            TR.train(cfg, tiny_dataset, model)
        for name, p in model.named_parameters():
            npt.assert_array_equal(p.value, before[name])

    def test_non_finite_validation_outputs_stop_training(self, tiny_dataset):
        model = tiny_model(seed=6)
        # train-mode batch norm ignores the running variance; eval mode takes
        # the square root of it, so validation outputs are NaN
        model.trunk.bn1.running_var[0] = -10.0
        cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=1,
                             batch_size=8, patience=10, seed=0)
        with pytest.raises(NumericError, match="not finite"):
            TR.train(cfg, tiny_dataset, model)


class TestEvaluate:
    def test_deterministic(self, tiny_dataset):
        model = tiny_model(seed=8)
        a = TR.evaluate(model, tiny_dataset, "two-view")
        b = TR.evaluate(model, tiny_dataset, "two-view")
        assert a == b

    def test_leaked_labels_auc_one(self, tiny_dataset):
        labels = np.array([e.labels[0] for e in tiny_dataset.entries])
        from phcnet import metrics as M

        assert M.auc(labels.astype(float), labels) == 1.0

    def test_random_model_auc_band(self, tmp_path):
        spec = D.SyntheticSpec(size=24, count=200, seed=32)
        manifest = D.gen_synthetic(spec, tmp_path)
        aucs = [
            TR.evaluate(tiny_model(seed=s), manifest, "two-view").auc
            for s in range(5)
        ]
        assert 0.35 <= float(np.median(aucs)) <= 0.65

    def test_four_view_heads(self, tmp_path):
        spec = D.SyntheticSpec(size=24, count=24, views=4, seed=33)
        manifest = D.gen_synthetic(spec, tmp_path)
        model = MD.PHYSEnet(
            MD.PHYSEnetConfig(width=4, blocks=(1, 1), refiners=1), seed=0
        )
        res = TR.evaluate(model, manifest, "four-view")
        assert set(res.per_head) == {"auc", "accuracy"}
        assert len(res.per_head["auc"]) == 2

    def test_summarize_runs(self):
        rs = [TR.EvalResult(auc=0.8, accuracy=80.0),
              TR.EvalResult(auc=0.9, accuracy=90.0)]
        out = TR.summarize_runs(rs)
        assert out["auc"]["mean"] == pytest.approx(0.85)
        assert out["accuracy"]["std"] == pytest.approx(5.0)


class TestMaps:
    def test_flat_maps_for_zero_model_constant_input(self, tmp_path):
        model = tiny_model(seed=9)
        for p in model.parameters():
            p.value[...] = 0.0
        views = np.full((2, 24, 24), 0.5, dtype=np.float32)
        maps = TR.activation_maps(model, views)
        assert set(maps) == {"encoder", "classifier"}
        for plane in maps.values():
            assert plane.shape == (24, 24)
            assert np.ptp(plane) == 0.0
        sal = TR.saliency_map(model, views)
        assert np.ptp(sal) == 0.0

    def test_saliency_of_linear_map_is_uniform(self):
        w = -2.5
        views = np.random.default_rng(0).random((2, 8, 8)).astype(np.float32)
        sal = TR.input_gradient(
            lambda x: ag.mul(ag.nsum(x), ag.constant(np.float32(w))), views)
        npt.assert_allclose(sal, 2 * abs(w))  # both view channels contribute |w|

    def test_export_writes_pgm_files(self, tmp_path, tiny_dataset):
        model = tiny_model(seed=10)
        views = tiny_dataset.load_views(tiny_dataset.entries[0])
        written = TR.export_maps(model, views, tmp_path / "maps")
        assert len(written) == 3
        for path in written:
            img = D.load_pgm(path)
            assert img.shape == (1, 24, 24)

    def test_lesion_saliency_exceeds_background_after_training(self, tmp_path):
        # miniature version of the localization property: train briefly on an
        # easy shape task, then compare saliency inside/outside the mask
        spec = D.SyntheticSpec(size=24, count=60, seed=34, contrast=(0.7, 0.95))
        manifest = D.gen_synthetic(spec, tmp_path)
        model = tiny_model(seed=11, width=8, blocks=(1, 1), refiners=1)
        cfg = TR.TrainConfig(stage="two-view", lr=2e-3, max_epochs=6,
                             batch_size=8, patience=10, augment=False, seed=6,
                             weight_decay=0.0)
        TR.train(cfg, manifest, model)
        wins = 0
        positives = [e for e in manifest.entries if e.labels[0] == 1][:10]
        for entry in positives:
            views = manifest.load_views(entry)
            mask = manifest.load_mask(entry) > 0.5
            sal = TR.saliency_map(model, views)
            if sal[mask].mean() > sal[~mask].mean():
                wins += 1
        assert wins >= len(positives) // 2  # weak bound; criterion 12 is stricter


class TestNoGrad:
    @pytest.mark.parametrize("kind", ["phresnet", "phybonet", "physenet", "phunet"])
    def test_eval_outputs_equal_graph_outputs_and_hold_no_graph(self, kind):
        model = {
            "phresnet": lambda: tiny_model(seed=12),
            "phybonet": lambda: MD.PHYBOnet(
                MD.PHYBOnetConfig(width=4, blocks=(1, 1, 1, 1), refiners=1), seed=0),
            "physenet": lambda: MD.PHYSEnet(
                MD.PHYSEnetConfig(width=4, blocks=(1, 1), refiners=1), seed=0),
            "phunet": lambda: MD.PHUNet(MD.PHUNetConfig(width=4, depth=2), seed=0),
        }[kind]()
        model.eval()
        rng = np.random.default_rng(13)
        views = 4 if kind in ("phybonet", "physenet") else 2
        x = ag.constant(rng.normal(size=(3, views, 16, 16)).astype(np.float32))
        a = model(x)
        with ag.no_grad():
            b = model(x)
        assert a._parents and a.requires_grad
        assert a.value.tobytes() == b.value.tobytes()
        assert b._parents == () and b._backward_rule is None
        assert ag.backward(ag.nsum(b)) == {}

    def test_exception_inside_no_grad_leaves_recording_on(self):
        model = tiny_model(seed=13)
        with pytest.raises(ShapeError), ag.no_grad():
            model(ag.constant(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        x = np.random.default_rng(14).normal(size=(4, 2, 16, 16)).astype(np.float32)
        loss = nn.bce_with_logits(model(ag.constant(x)), np.ones((4, 1), np.float32))
        ag.backward(loss)
        assert all(p.grad is not None for p in model.parameters())

    def test_evaluate_builds_no_graph_and_keeps_saliency(self, tiny_dataset):
        model = tiny_model(seed=14)
        views = tiny_dataset.load_views(tiny_dataset.entries[0])
        before = TR.saliency_map(model, views)
        forward, outputs = model.forward, []

        def recording(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        model.forward = recording
        TR.evaluate(model, tiny_dataset, "two-view")
        del model.forward
        assert outputs and all(out._parents == () for out in outputs)
        assert all(p.requires_grad for p in model.parameters())
        assert before.any()
        npt.assert_array_equal(TR.saliency_map(model, views), before)
