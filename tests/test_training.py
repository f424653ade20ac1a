"""Training loop: lr=0 identity, run-log determinism, overfit sanity,
pos-weight computation, evaluation contracts, maps from one forward,
graph-free eval, the folded eval forward against a numpy oracle, train-mode
blocks' gradients and the arrays they hold for backward, train-mode convs
that hold no im2col layout and rebuild one per weight gradient, constant conv
weights, folded or plain, kept for one evaluation pass."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from phcnet import autograd as ag
from phcnet import data as D
from phcnet import models as MD
from phcnet import nn
from phcnet import phc
from phcnet import tensor as T
from phcnet import training as TR
from phcnet.module import Module
from phcnet.phc import PHCConv2d
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
        # the whole training split is one batch; patience never stops the run
        cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=30,
                             batch_size=16, patience=30, augment=False, seed=1,
                             weight_decay=0.0)
        _, log = TR.train(cfg, manifest, model)
        losses = [e["train_loss"] for e in log.epochs]
        # 0.75 at the first epoch and 0.02 at the last when written
        assert len(losses) == 30 and losses[-1] < 0.05, losses

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

    @pytest.mark.parametrize("patience, trace, epochs_run", [
        (2, [0.7, 0.71, 0.70, 0.70, 0.70], 5),
        (0, list(np.linspace(0.1, 0.9, 10)), 10),
        (0, [0.5, 0.5], 2),
    ], ids=["patience 2 plateau", "rising never stops", "patience 0 no strict gain"])
    def test_early_stopping_trace(self, tiny_dataset, monkeypatch, patience, trace,
                                  epochs_run):
        """Training stops once the validation metric has not strictly
        improved for more than ``patience`` epochs (max_epochs is 10)."""
        scripted = iter(trace + [trace[-1]] * 10)
        monkeypatch.setattr(TR, "_evaluate",
                            lambda *args: TR.EvalResult(auc=next(scripted)))
        cfg = TR.TrainConfig(stage="two-view", lr=0.0, max_epochs=10, batch_size=8,
                             patience=patience, seed=0)
        _, log = TR.train(cfg, tiny_dataset, tiny_model())
        assert log.final == {"best_val_metric": max(trace), "epochs_run": epochs_run}

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
            backward(loss)
            model.head.weight.grad[0, 0] = np.nan

        monkeypatch.setattr(TR.ag, "backward", poisoned)
        cfg = TR.TrainConfig(stage="two-view", lr=1e-3, max_epochs=1,
                             batch_size=8, patience=10, seed=0)
        with pytest.raises(NumericError, match="gradient for head.weight .* is not finite"):
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


class TestMaps:
    def test_flat_maps_for_zero_model_constant_input(self, tmp_path):
        model = tiny_model(seed=9)
        for p in model.parameters():
            p.value[...] = 0.0
        views = np.full((2, 24, 24), 0.5, dtype=np.float32)
        maps = TR.maps(model, views)
        assert set(maps) == {"encoder", "saliency"}
        for plane in maps.values():
            assert plane.shape == (24, 24)
            assert np.ptp(plane) == 0.0

    def test_saliency_of_linear_map_is_uniform(self):
        w = -2.5

        class Linear(Module):
            def forward(self, x, taps=None):
                return ag.reshape(ag.mul(ag.nsum(x), ag.constant(np.float32(w))), (1, 1))

        views = np.random.default_rng(0).random((2, 8, 8)).astype(np.float32)
        maps = TR.maps(Linear(), views)
        assert set(maps) == {"saliency"}
        npt.assert_allclose(maps["saliency"], 2 * abs(w))  # |w| from each view channel

    def test_export_writes_pgm_files(self, tmp_path, tiny_dataset):
        model = tiny_model(seed=10)
        views = tiny_dataset.load_views(tiny_dataset.entries[0])
        written = TR.export_maps(model, views, tmp_path / "maps")
        assert len(written) == 2
        for path in written:
            img = D.load_pgm(path)
            assert img.shape == (24, 24)

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
            sal = TR.maps(model, views)["saliency"]
            if sal[mask].mean() > sal[~mask].mean():
                wins += 1
        assert wins >= len(positives) // 2  # weak bound; criterion 12 is stricter


# A folded eval block against unfolded_block, as a share of the oracle's
# largest magnitude: over 20 random batch-norm states per block kind the
# outputs deviated by at most 4.5e-7 of it, so 1e-5 leaves a factor of ~20.
FOLD_TOL = 1e-5

MODELS = {
    "phresnet": lambda: tiny_model(seed=12),
    "phybonet": lambda: MD.PHYBOnet(
        MD.PHYBOnetConfig(width=4, blocks=(1, 1, 1, 1), refiners=1), seed=0),
    "physenet": lambda: MD.PHYSEnet(
        MD.PHYSEnetConfig(width=4, blocks=(1, 1), refiners=1), seed=0),
    "phunet": lambda: MD.PHUNet(MD.PHUNetConfig(width=4, depth=2), seed=0),
}
BLOCKS = {
    "basic": (lambda: nn.ResidualBlock(2, 4, 4, seed=0), (3, 4, 8, 8)),
    "projected": (lambda: nn.ResidualBlock(2, 4, 8, stride=2, seed=1), (3, 4, 8, 8)),
    "refiner": (lambda: nn.ResidualBlock(2, 8, 8, variant="refiner", seed=2), (3, 8, 1, 1)),
}


def random_batchnorm(module, seed):
    """Random running statistics, gamma and beta in every batch norm; the
    defaults (0, 1, 1, 0) would make the eval fold almost the identity."""
    rng = np.random.default_rng(seed)
    for m in module.modules():
        if isinstance(m, nn.BatchNorm2d):
            c = m.channels
            m.running_mean[...] = rng.normal(0.0, 0.5, c)
            m.running_var[...] = rng.uniform(0.5, 2.0, c)
            m.gamma.value[...] = rng.uniform(0.5, 1.5, c) * rng.choice([-1.0, 1.0], c)
            m.beta.value[...] = rng.normal(0.0, 0.5, c)
    return module


def assert_close_to_oracle(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= FOLD_TOL * np.abs(want).max()


def unfolded_block(block, x):
    """An eval-mode ResidualBlock on the array ``x`` in plain numpy: each conv
    by T.conv2d on its built weight, then its batch norm's map x·a + b, the
    add and the ReLU."""
    def conv_bn(conv, bn, h):
        a, b = (v.astype(h.dtype)[None, :, None, None] for v in bn.affine())
        w = conv.build_weight().value
        return T.conv2d(h, w, stride=conv.stride, padding=conv.kernel_size // 2) * a + b

    skip = x if block.proj is None else conv_bn(block.proj, block.proj_bn, x)
    h = np.maximum(conv_bn(block.phc1, block.bn1, x), 0)
    if block.variant == "refiner":
        h = np.maximum(conv_bn(block.phc2, block.bn2, h), 0)
        return np.maximum(conv_bn(block.phc3, block.bn3, h) + skip, 0)
    return np.maximum(conv_bn(block.phc2, block.bn2, h) + skip, 0)


def eval_block(kind, seed, dtype=np.float32):
    """An eval-mode block of ``kind`` with random batch norms, and an input."""
    make, shape = BLOCKS[kind]
    block = random_batchnorm(make(), seed=seed)
    for p in block.parameters():
        p.value = p.value.astype(dtype)
    block.eval()
    return block, np.random.default_rng(seed + 1).normal(size=shape).astype(dtype)


class TestNoGrad:
    """Eval mode reads every parameter as a constant, so a forward keeps a
    graph exactly when its input requires grad, and no parameter gets one."""

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_eval_outputs_equal_graph_outputs_and_hold_no_graph(self, kind):
        model = random_batchnorm(MODELS[kind](), seed=15)
        model.eval()
        rng = np.random.default_rng(13)
        views = 4 if kind in ("phybonet", "physenet") else 2
        x = rng.normal(size=(3, views, 16, 16)).astype(np.float32)
        a = model(ag.Node(x, requires_grad=True))
        b = model(ag.constant(x))
        assert a._parents and a.requires_grad
        assert b.value.tobytes() == a.value.tobytes()
        assert b._parents == () and b._backward_rule is None

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_maps_leave_every_parameter_grad_none(self, kind):
        model = random_batchnorm(MODELS[kind](), seed=19)
        TR.maps(model, kind_batch(kind, 1, seed=23)[0])
        assert [n for n, p in model.named_parameters() if p.grad is not None] == []

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_activation_maps_match_graph_taps(self, kind):
        # maps() takes its taps from a forward that keeps a graph; they equal
        # those of the graph-free forward that scoring runs
        model = random_batchnorm(MODELS[kind](), seed=16)
        model.eval()
        views = 4 if kind in ("phybonet", "physenet") else 2
        x = np.random.default_rng(17).normal(size=(views, 16, 16)).astype(np.float32)
        taps = {}
        model(ag.constant(x[None]), taps=taps)
        maps = TR.maps(model, x)
        assert taps and maps.keys() == taps.keys() | {"saliency"}
        for name, node in taps.items():
            want = TR._resize_nearest(node.value[0].mean(axis=0), 16, 16)
            assert maps[name].tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", list(BLOCKS))
    def test_folded_block_writes_no_input(self, kind):
        block, x = eval_block(kind, seed=18)
        node = ag.constant(x.copy())
        got = block(node)
        assert node.value.tobytes() == x.tobytes()
        assert got.value is not node.value and got._parents == ()
        assert_close_to_oracle(got.value, unfolded_block(block, x))

    @pytest.mark.parametrize("kind", list(BLOCKS))
    def test_eval_graph_values_equal_no_graph_values(self, kind):
        block, x = eval_block(kind, seed=22)
        with_graph = block(ag.Node(x, requires_grad=True))
        without = block(ag.constant(x))
        assert with_graph._parents
        assert with_graph.value.tobytes() == without.value.tobytes()

    @pytest.mark.parametrize("kind", list(BLOCKS))
    def test_eval_graph_gives_pair_parameters_no_gradient(self, kind):
        # maps()'s path: the folded pairs are constants
        block, x = eval_block(kind, seed=24)
        node = ag.Node(x, requires_grad=True)
        out = block(node)
        g = np.random.default_rng(26).normal(size=out.shape).astype(np.float32)
        ag.backward(ag.nsum(ag.mul(out, ag.constant(g))))
        assert node.grad is not None and node.grad.any()
        assert all(p.grad is None for p in block.parameters())

    @pytest.mark.parametrize("kind", list(BLOCKS))
    def test_eval_graph_grad_check_on_input(self, kind):
        block, x = eval_block(kind, seed=28, dtype=np.float64)
        x = ag.Node(x, requires_grad=True)
        w = ag.constant(np.random.default_rng(30).normal(size=block(x).shape))

        def f():
            out = block(x)
            return ag.nsum(ag.mul(ag.mul(out, out), w))

        report = ag.grad_check(f, {"x": x}, h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    def test_evaluate_builds_no_graph_and_keeps_saliency(self, tiny_dataset):
        model = tiny_model(seed=14)
        views = tiny_dataset.load_views(tiny_dataset.entries[0])
        before = TR.maps(model, views)["saliency"]
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
        npt.assert_array_equal(TR.maps(model, views)["saliency"], before)


def train_block(kind, seed, dtype=np.float32):
    """A train-mode block of ``kind`` with random batch norms, and an input."""
    make, shape = BLOCKS[kind]
    block = random_batchnorm(make(), seed=seed)
    for p in block.parameters():
        p.value = p.value.astype(dtype)
    return block, np.random.default_rng(seed + 1).normal(size=shape).astype(dtype)


def op_of(node):
    """The op that built ``node``, from its backward rule's qualified name."""
    return node._backward_rule.__qualname__.split(".<locals>")[0]


class TestTrainMode:
    @pytest.mark.parametrize("kind", list(BLOCKS))
    def test_grad_check(self, kind):
        # the refiner's 1x1 maps normalize over m = N values per channel
        block, x = train_block(kind, seed=42, dtype=np.float64)
        x = ag.Node(x, requires_grad=True)
        w = ag.constant(np.random.default_rng(44).normal(size=block(x).shape))

        def f():
            out = block(x)
            return ag.nsum(ag.mul(ag.mul(out, out), w))

        report = ag.grad_check(f, {"x": x, **dict(block.named_parameters())},
                               h=1e-6, tol=1e-5)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("kind", list(BLOCKS))
    def test_pair_holds_two_full_size_arrays(self, kind):
        block, x = train_block(kind, seed=46)
        order = ag._topo_order(block(ag.Node(x, requires_grad=True)))
        ops = {id(n): op_of(n) for n in order if n._backward_rule is not None}
        bns = [n for n in order if ops.get(id(n)) == "BatchNorm2d.forward"]
        assert len(bns) == sum(isinstance(m, nn.BatchNorm2d) for m in block.modules())
        for n in order:
            if ops.get(id(n)) in ("add", "relu"):
                assert all(ops.get(id(p)) != "BatchNorm2d.forward" for p in n._parents)
        # every node but the built weights holds an activation: a conv's or a pair's output
        held = sum(n.value.nbytes for n in order if ops.get(id(n)) not in (None, "kron_sum"))
        assert held == 2 * sum(n.value.nbytes for n in bns)

    def test_a_train_step_in_batch_norm_blocks_is_bitwise(self, monkeypatch):
        # every batch norm in blocks of one channel, shared with a worker,
        # on the caller alone, and each as one block: the same step to the bit
        rng = np.random.default_rng(47)
        x = rng.normal(size=(8, 2, 24, 24)).astype(np.float32)
        y = rng.integers(0, 2, size=(8, 1)).astype(np.float32)
        chunk, off_the_caller = nn._Channels.chunk, []

        def recorded(loop, k, buf):
            off_the_caller.append(threading.get_ident() != threading.main_thread().ident)
            chunk(loop, k, buf)

        monkeypatch.setattr(nn._Channels, "chunk", recorded)
        states = []
        with ThreadPoolExecutor(1) as pool:
            for worker, block_bytes in ((pool, 0), (None, 0), (None, nn._BN_BLOCK_BYTES)):
                monkeypatch.setattr(T, "_conv_worker", lambda: worker)
                monkeypatch.setattr(nn, "_BN_BLOCK_BYTES", block_bytes)
                model = tiny_model(seed=48)
                opt = nn.Adam(model.parameters(), lr=1e-3, weight_decay=5e-4)
                ag.backward(nn.bce_with_logits(model(ag.constant(x)), y))
                opt.step()
                states.append([a.tobytes() for a in (*model.state_dict().values(),
                                                     *opt._m, *opt._v)])
                if worker is not None:
                    shared = len(off_the_caller)  # the blocks of the shared step
        assert states[0] == states[1] == states[2]
        assert any(off_the_caller[:shared]) and not any(off_the_caller[shared:])


def bench_phresnet():
    """two-view-train's train-mode PHResNet (n=2, width 16) and a batch of 8 of
    2x64x64, run once so that every layout's geometry is cached."""
    model = MD.PHResNet(MD.PHResNetConfig(n=2, width=16, blocks=(2, 2, 2, 2)), seed=0)
    x = ag.constant(np.random.default_rng(50).normal(size=(8, 2, 64, 64)).astype(np.float32))
    model(x)
    return model, x


def traced_bytes(compute):
    """``compute()`` and the bytes allocated during it that are still held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = compute()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def counting_im2col(monkeypatch):
    """A list that gets the input shape of every ``T.im2col`` call."""
    calls, im2col = [], T.im2col

    def counted(x, *args):
        calls.append(x.shape)
        return im2col(x, *args)

    monkeypatch.setattr(T, "im2col", counted)
    return calls


class TestConvHoldsNoLayout:
    """A train-mode conv keeps its parents and no im2col layout: the weight
    gradient rebuilds the layout from the input, which the graph holds anyway."""

    def test_conv_node_holds_its_output_only(self):
        rng = np.random.default_rng(51)
        x = ag.Node(rng.normal(size=(8, 16, 64, 64)).astype(np.float32), requires_grad=True)
        w = ag.Node(rng.normal(size=(16, 16, 3, 3)).astype(np.float32), requires_grad=True)
        ag.conv2d(x, w, padding=1)
        layout = T.im2col(x.value, (3, 3), 1, 1).nbytes
        slack = 1 << 16  # the node and its rule; a layout is 2.2 MB
        assert slack < layout
        node, held = traced_bytes(lambda: ag.conv2d(x, w, padding=1))
        assert node.value.nbytes <= held < node.value.nbytes + slack

    def test_phresnet_holds_node_values_only(self):
        model, x = bench_phresnet()
        out, held = traced_bytes(lambda: model(x))
        before = {id(p.value) for p in model.parameters()} | {id(x.value)}
        buffers = {}
        for node in ag._topo_order(out):
            base = node.value
            while base.base is not None:
                base = base.base
            if id(base) not in before:
                buffers[id(base)] = base.nbytes
        values = sum(buffers.values())
        # nodes, rules and per-channel statistics; the stem's layout, the
        # smallest of any conv over an image plane, is 272 KiB
        slack = 1 << 18
        assert slack < T.im2col(x.value, (3, 3), 1, 1).nbytes
        assert values <= held < values + slack

    def test_train_step_rebuilds_layouts_for_weight_gradients_only(self, monkeypatch):
        model, x = bench_phresnet()
        convs = [m for m in model.modules() if isinstance(m, PHCConv2d)]
        frozen = convs[len(convs) // 2]
        frozen.A.requires_grad = frozen.F.requires_grad = False
        calls = counting_im2col(monkeypatch)
        loss = ag.nsum(model(x))
        assert len(calls) == len(convs)
        ag.backward(loss)
        assert len(calls) == 2 * len(convs) - 1
        assert frozen.F.grad is None and all(c.F.grad is not None for c in convs if c is not frozen)

    def test_maps_rebuilds_no_layout(self, monkeypatch):
        model = tiny_model(seed=52)
        convs = [m for m in model.modules() if isinstance(m, PHCConv2d)]
        views = np.random.default_rng(53).random((2, 24, 24)).astype(np.float32)
        TR.maps(model, views)
        calls = counting_im2col(monkeypatch)
        assert TR.maps(model, views)["saliency"].any()
        assert len(calls) == len(convs)


STAGE_OF = {"phresnet": "two-view", "phybonet": "four-view", "physenet": "four-view",
            "phunet": "segmentation"}


def kind_batch(kind, count, seed):
    views = 4 if kind in ("phybonet", "physenet") else 2
    return np.random.default_rng(seed).normal(size=(count, views, 16, 16)).astype(np.float32)


def outputs_folding_per_batch(model, x, batch_size):
    """Eval logits over ``x`` with every batch folding its own weights."""
    model.eval()
    return np.concatenate([model(ag.constant(x[i : i + batch_size])).value
                           for i in range(0, len(x), batch_size)])


class Unreadable(dict):
    """Pass constants whose every read fails the test."""

    def __contains__(self, key):
        raise AssertionError("the pass's constants were read")

    __getitem__ = get = __contains__


def edit_in_place(model, edit):
    """Apply ``edit`` in place to every conv's A and F, or to every batch
    norm's gamma, beta or running_var."""
    for m in model.modules():
        if edit in ("A", "F") and isinstance(m, PHCConv2d):
            getattr(m, edit).value[...] *= 1.25
        if edit in ("gamma", "beta") and isinstance(m, nn.BatchNorm2d):
            getattr(m, edit).value[...] += 0.5
        if edit == "running_var" and isinstance(m, nn.BatchNorm2d):
            m.running_var[...] *= 2.0


class TestEvalPass:
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_pass_outputs_bitwise_equal_folding_per_batch(self, kind):
        model = random_batchnorm(MODELS[kind](), seed=25)
        x = kind_batch(kind, 7, seed=26)
        want = outputs_folding_per_batch(model, x, 3)
        got = TR._outputs(model, TR.STAGE[STAGE_OF[kind]], x, 3)
        assert got.tobytes() == want.tobytes()
        assert phc._pass_constants is None

    @pytest.mark.parametrize("edit", ["A", "F", "gamma", "beta", "running_var"])
    def test_in_place_edit_between_passes_is_seen(self, edit):
        stage, x = TR.STAGE["two-view"], kind_batch("phresnet", 5, seed=27)
        model = random_batchnorm(MODELS["phresnet"](), seed=28)
        before = TR._outputs(model, stage, x, 2)
        edit_in_place(model, edit)
        fresh = random_batchnorm(MODELS["phresnet"](), seed=28)
        edit_in_place(fresh, edit)
        after = TR._outputs(model, stage, x, 2)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == TR._outputs(fresh, stage, x, 2).tobytes()

    def test_load_state_dict_between_passes_is_seen(self):
        stage, x = TR.STAGE["four-view"], kind_batch("phybonet", 5, seed=29)
        model = random_batchnorm(MODELS["phybonet"](), seed=30)
        other = random_batchnorm(MODELS["phybonet"](), seed=31)
        before = TR._outputs(model, stage, x, 2)
        model.load_state_dict(other.state_dict())
        after = TR._outputs(model, stage, x, 2)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == TR._outputs(other, stage, x, 2).tobytes()

    def test_folds_dropped_after_the_pass_and_after_an_exception(self):
        model = random_batchnorm(tiny_model(seed=15), seed=32)
        x = kind_batch("phresnet", 4, seed=33)
        with phc.eval_pass():
            model.eval()
            model(ag.constant(x))
            with phc.eval_pass():
                assert phc._pass_constants == {}
            assert len(phc._pass_constants) == sum(
                isinstance(m, PHCConv2d) for m in model.modules())
        assert phc._pass_constants is None
        # a two-view model scored as a mask: the forward runs, then the check raises
        with pytest.raises(ShapeError):
            TR._outputs(model, TR.STAGE["segmentation"], x, 2)
        assert phc._pass_constants is None

    def test_train_mode_never_reads_the_folds(self, monkeypatch):
        model = random_batchnorm(tiny_model(seed=16), seed=34)
        twin = random_batchnorm(tiny_model(seed=16), seed=34)
        x = kind_batch("phresnet", 4, seed=35)
        want = twin(ag.constant(x)).value
        monkeypatch.setattr(phc, "_pass_constants", Unreadable())
        assert model(ag.constant(x)).value.tobytes() == want.tobytes()

    def test_saliency_inside_a_pass_equals_outside(self):
        model = random_batchnorm(tiny_model(seed=17), seed=36)
        x = kind_batch("phresnet", 1, seed=37)[0]
        want = TR.maps(model, x)["saliency"]
        with phc.eval_pass():
            # the first call folds every pair, the second reads those folds
            inside = [TR.maps(model, x)["saliency"] for _ in range(2)]
            assert phc._pass_constants
        assert all(sal.tobytes() == want.tobytes() for sal in inside)

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_saliency_differentiates_the_scored_logits(self, kind):
        model = random_batchnorm(MODELS[kind](), seed=38)
        x = kind_batch(kind, 1, seed=39)
        forward, logits = model.forward, []

        def recording(*args, **kwargs):
            logits.append(forward(*args, **kwargs))
            return logits[-1]

        model.forward = recording
        TR.maps(model, x[0])
        del model.forward
        assert len(logits) == 1 and logits[0].requires_grad
        scored = TR._outputs(model, TR.STAGE[STAGE_OF[kind]], x, 1)
        assert logits[0].value.tobytes() == scored.tobytes()

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_saliency_is_the_scored_logits_input_gradient(self, kind):
        model = random_batchnorm(MODELS[kind](), seed=40)
        x = kind_batch(kind, 1, seed=41)
        model.eval()
        node = ag.Node(x, requires_grad=True)
        logits = model(node)
        if kind == "phunet":  # a mask scores its mean logit
            score = ag.nmean(logits)
        else:
            head = int(np.argmax(logits.value[0]))
            score = ag.nsum(ag.narrow(logits, head, head + 1))
        ag.backward(score)
        want = np.abs(node.grad[0]).sum(axis=0)
        assert TR.maps(model, x[0])["saliency"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_builds_each_conv_once_per_pass(self, monkeypatch, kind):
        """PHYSEnet's shared convs and PHUNet's plain ones (no batch norm)
        included."""
        model = random_batchnorm(MODELS[kind](), seed=36)
        built = {}
        build = PHCConv2d.build_weight

        def counted(conv):
            built[conv] = built.get(conv, 0) + 1
            return build(conv)

        monkeypatch.setattr(PHCConv2d, "build_weight", counted)
        x = kind_batch(kind, 5, seed=37)
        for _ in range(2):
            built.clear()
            TR._outputs(model, TR.STAGE[STAGE_OF[kind]], x, 2)
            convs = [m for m in model.modules() if isinstance(m, PHCConv2d)]
            assert built == {conv: 1 for conv in convs}
