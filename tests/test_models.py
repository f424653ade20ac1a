"""Architecture contracts: shapes, parameter accounting against exhaustive
enumeration, weight sharing by identity, transfer maps, determinism, and
the desk-scale speed bound."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from phcnet import autograd as ag
from phcnet import models as MD
from phcnet import nn, phc
from phcnet import tensor as T
from phcnet.errors import ConfigError, ShapeError, TransferError


def small_phresnet(**overrides):
    kw = dict(n=2, blocks=(1, 1, 1, 1), width=8, refiners=2)
    kw.update(overrides)
    return MD.PHResNetConfig(**kw)


# a small config per model kind, the views of its exam and its output shape
# after the batch axis
CONTRACT = {
    "phresnet": (dict(n=2, blocks=[1, 1], width=4, refiners=1, heads=3), 2, (3,)),
    "phybonet": (dict(blocks=[1, 1, 1, 1], width=4, refiners=1), 4, (2,)),
    "physenet": (dict(n=2, blocks=[1, 1], width=4, refiners=1), 4, (2,)),
    "phunet": (dict(n=2, width=4, depth=2), 2, (1, 16, 16)),
}


class TestModelContract:
    """Every model takes one (N, V, H, W) batch and returns one logits node."""

    def test_table_covers_every_kind(self):
        assert set(CONTRACT) == set(MD.KINDS)

    @pytest.mark.parametrize("kind", sorted(CONTRACT))
    def test_one_batch_in_one_logits_node_out(self, kind):
        config, views, tail = CONTRACT[kind]
        model = MD.build_model({"kind": kind, **config}, seed=0)
        x = np.random.default_rng(0).normal(size=(3, views, 16, 16)).astype(np.float32)
        out = model(ag.constant(x))
        assert isinstance(out, ag.Node) and out.shape == (3, *tail)
        wrong = ag.constant(np.zeros((3, 6 - views, 16, 16), dtype=np.float32))
        with pytest.raises(ShapeError, match=rf"\(N, {views}, H, W\)"):
            model(wrong)

    @pytest.mark.parametrize("kind", sorted(CONTRACT))
    def test_scheme_initializes_every_phc_conv(self, kind):
        config, _, _ = CONTRACT[kind]
        default = MD.build_model({"kind": kind, **config}, seed=0)
        drawn = MD.build_model({"kind": kind, **config, "scheme": "random-algebra"}, seed=0)
        convs = [(a, b) for a, b in zip(default.modules(), drawn.modules())
                 if isinstance(a, phc.PHCConv2d)]
        assert any(a.n > 1 for a, _ in convs)
        for a, b in convs:
            npt.assert_array_equal(a.A.value, phc.fixed_algebra(a.n))
            npt.assert_array_equal(a.F.value, b.F.value)  # the same F draws
            if a.n > 1:
                assert not np.array_equal(b.A.value, phc.fixed_algebra(b.n)), b


class TestPHResNet:
    def test_forward_shape_and_finiteness(self):
        model = MD.PHResNet(small_phresnet(), seed=0)
        x = np.random.default_rng(0).normal(size=(3, 2, 64, 64)).astype(np.float32)
        out = model(ag.constant(x))
        assert out.shape == (3, 1)
        assert np.isfinite(out.value).all()

    def test_param_reduction_vs_n1(self):
        cfg2 = MD.PHResNetConfig(n=2, width=32, blocks=(2, 2, 2, 2))
        cfg1 = MD.PHResNetConfig(n=1, width=32, blocks=(2, 2, 2, 2), in_channels=2)
        m2 = MD.PHResNet(cfg2, seed=0)
        m1 = MD.PHResNet(cfg1, seed=0)
        assert m2.param_count() < 0.52 * m1.param_count()

    def test_view_order_matters(self):
        model = MD.PHResNet(small_phresnet(), seed=7)
        model.eval()
        rng = np.random.default_rng(1)
        v1 = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        v2 = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        ab = model(ag.constant(np.concatenate([v1, v2], axis=1))).value
        ba = model(ag.constant(np.concatenate([v2, v1], axis=1))).value
        assert not np.allclose(ab, ba)

    def test_param_count_matches_enumeration(self):
        model = MD.PHResNet(small_phresnet(), seed=0)
        total = 0
        for m in model.modules():
            if isinstance(m, phc.PHCConv2d):
                k = m.kernel_size
                expected = m.n**3 + m.out_channels * m.in_channels * k * k // m.n
                expected += m.out_channels if m.bias is not None else 0
                assert m.param_count() == expected
                total += expected
            elif isinstance(m, nn.Linear):
                total += sum(p.value.size for p in m._params.values())
            elif isinstance(m, nn.BatchNorm2d):
                total += 2 * m.channels
        assert total == model.param_count()

    def test_eval_determinism_bitwise(self):
        model = MD.PHResNet(small_phresnet(), seed=3)
        model.eval()
        x = np.random.default_rng(2).normal(size=(2, 2, 32, 32)).astype(np.float32)
        a = model(ag.constant(x)).value
        b = model(ag.constant(x)).value
        npt.assert_array_equal(a, b)

    def test_desk_scale_speed(self):
        model = MD.PHResNet(MD.PHResNetConfig(n=2, blocks=(1, 1, 1, 1),
                                              width=16), seed=0)
        x = ag.constant(
            np.random.default_rng(0).normal(size=(8, 2, 64, 64)).astype(np.float32)
        )
        model(x)  # warm up
        t0 = time.process_time()  # CPU time, so other processes do not count
        out = model(ag.constant(x.value))
        loss = nn.bce_with_logits(out, np.ones((8, 1), dtype=np.float32))
        ag.backward(loss)
        assert time.process_time() - t0 < 1.0

    def test_width_divisibility(self):
        with pytest.raises(ConfigError):
            MD.PHResNetConfig(n=2, width=9)

    def test_taps(self):
        model = MD.PHResNet(small_phresnet(), seed=0)
        taps = {}
        model(ag.constant(np.zeros((1, 2, 32, 32), dtype=np.float32)), taps=taps)
        assert set(taps) == {"encoder"}
        assert taps["encoder"].shape == (1, 64, 4, 4)


class TestPHYBOnet:
    def test_shapes(self):
        cfg = MD.PHYBOnetConfig(width=8, blocks=(1, 1, 1, 1), refiners=2)
        model = MD.PHYBOnet(cfg, seed=0)
        rng = np.random.default_rng(3)
        x = ag.constant(rng.normal(size=(2, 4, 32, 32)).astype(np.float32))
        assert model(x).shape == (2, 2)

    def test_swap_changes_outputs(self):
        cfg = MD.PHYBOnetConfig(width=8, blocks=(1, 1, 1, 1), refiners=2)
        model = MD.PHYBOnet(cfg, seed=5)
        model.eval()
        rng = np.random.default_rng(4)
        xl = rng.normal(size=(1, 2, 32, 32)).astype(np.float32)
        xr = rng.normal(size=(1, 2, 32, 32)).astype(np.float32)
        a = model(ag.constant(np.concatenate([xl, xr], axis=1))).value
        b = model(ag.constant(np.concatenate([xr, xl], axis=1))).value
        assert not np.allclose(a, b)

    def test_param_reduction_vs_real_bonet(self):
        cfg = MD.PHYBOnetConfig(width=64)
        model = MD.PHYBOnet(cfg, seed=0)
        assert model.param_count() < 0.35 * MD.real_equivalent_params(model)

    def test_bottleneck_divisibility(self):
        with pytest.raises(ConfigError):
            MD.PHYBOnetConfig(width=3, n_encoder=1, n_bottleneck=8)


class TestPHYSEnet:
    def test_shared_encoder_is_one_parameter_store(self):
        cfg = MD.PHYSEnetConfig(width=8, blocks=(1, 1, 1, 1), refiners=2)
        model = MD.PHYSEnet(cfg, seed=0)
        names = [name for name, _ in model.named_parameters()]
        encoder_names = [n for n in names if n.startswith("encoder.")]
        assert len(encoder_names) == len(set(encoder_names))  # registered once

    def test_identical_inputs_identical_heads_iff_branches_equal(self):
        cfg = MD.PHYSEnetConfig(width=8, blocks=(1, 1, 1, 1), refiners=2)
        model = MD.PHYSEnet(cfg, seed=1)
        model.eval()
        x = np.random.default_rng(5).normal(size=(2, 2, 32, 32)).astype(np.float32)
        exam = ag.constant(np.concatenate([x, x], axis=1))
        out = model(exam).value
        assert not np.allclose(out[:, 0], out[:, 1])  # branches differ at init
        # force the branches identical -> heads agree
        state = model.state_dict()
        for name in list(state):
            if name.startswith("branch_l."):
                state["branch_r." + name[len("branch_l."):]] = state[name]
        model.load_state_dict(state)
        out = model(exam).value
        npt.assert_array_equal(out[:, 0], out[:, 1])

    def test_shared_gradient_is_sum_of_sides(self):
        cfg = MD.PHYSEnetConfig(width=8, blocks=(1, 1, 1, 1), refiners=2)
        model = MD.PHYSEnet(cfg, seed=2)
        rng = np.random.default_rng(6)
        xl = rng.normal(size=(2, 2, 32, 32)).astype(np.float32)
        xr = rng.normal(size=(2, 2, 32, 32)).astype(np.float32)
        y = np.ones((2, 1), dtype=np.float32)

        def run(sides):
            model.zero_grad()
            model.train()
            logits = model(ag.constant(np.concatenate([xl, xr], axis=1)))
            ll, lr = ag.narrow(logits, 0, 1), ag.narrow(logits, 1, 2)
            if sides == "left":
                loss = nn.bce_with_logits(ll, y)
            elif sides == "right":
                loss = nn.bce_with_logits(lr, y)
            else:
                loss = ag.add(nn.bce_with_logits(ll, y), nn.bce_with_logits(lr, y))
            ag.backward(loss)
            return {
                name: p.grad.copy()
                for name, p in model.named_parameters()
                if name.startswith("encoder.") and p.grad is not None
            }

        g_left = run("left")
        g_right = run("right")
        g_both = run("both")
        assert set(g_both) == set(g_left) == set(g_right)
        for name in g_both:
            npt.assert_array_equal(g_both[name], g_left[name] + g_right[name])


FOUR_VIEW = {
    "phybonet": lambda: MD.PHYBOnet(MD.PHYBOnetConfig(width=8, blocks=(1, 1, 1, 1),
                                                      refiners=1), seed=7),
    "physenet": lambda: MD.PHYSEnet(MD.PHYSEnetConfig(width=8, blocks=(1, 1),
                                                      refiners=1), seed=8),
}


def four_view(kind, dtype=np.float32):
    """An eval-mode four-view model in ``dtype``, its batch norms' running
    statistics drawn so that the fold moves every conv, and an exam batch."""
    model, rng = FOUR_VIEW[kind](), np.random.default_rng(9)
    for p in model.parameters():
        p.value = p.value.astype(dtype)
    for m in model.modules():
        if isinstance(m, nn.BatchNorm2d):
            m.running_mean[...] = rng.normal(scale=0.2, size=m.channels)
            m.running_var[...] = rng.uniform(0.5, 2.0, size=m.channels)
    return model.eval(), ag.constant(rng.normal(size=(2, 4, 16, 16)).astype(dtype))


def eval_bits(model, x):
    """The bits of the logits and of the two encoder taps of an eval forward."""
    taps = {}
    with phc.eval_pass():
        logits = model(x, taps=taps)
    return [a.value.tobytes() for a in (logits, taps["encoder_left"], taps["encoder_right"])]


@pytest.fixture
def sides(monkeypatch):
    """A conv worker on any number of CPUs, conv loops of more than one
    chunk, and every run of several conv sides recorded: ``runs`` holds,
    per run, its sides and (thread, side) for each side begun and ended.
    In a run with the worker, each thread waits after taking its side
    until the other has taken one, then calls ``hook(side)`` if set, so
    that each thread runs one side."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(T, "_conv_worker", lambda: pool)
    monkeypatch.setattr(T, "_CHUNK_BYTES", 0)
    monkeypatch.setattr(T, "_CHUNK_MIN_COLS", 40)
    run, chunk = T._run, T._Side.chunk
    rec = type("Sides", (), {"runs": [], "hook": None, "of": {}})()

    def recorded_run(loops):
        if isinstance(loops[0], T._Side):
            barrier = threading.Barrier(len(loops), timeout=30) if T._conv_worker() else None
            rec.runs.append((loops, [], []))
            rec.of.update(dict.fromkeys(loops, (barrier, *rec.runs[-1][1:])))
        run(loops)

    def recorded_chunk(side, k, buf):
        barrier, begun, ended = rec.of[side]
        begun.append((threading.get_ident(), side))
        if barrier is not None:
            barrier.wait()
        if rec.hook is not None:
            rec.hook(side)
        chunk(side, k, buf)
        ended.append((threading.get_ident(), side))

    monkeypatch.setattr(T, "_run", recorded_run)
    monkeypatch.setattr(T._Side, "chunk", recorded_chunk)
    yield rec
    pool.shutdown()


class TestSidesSideBySide:
    """In eval mode with no graph, PHYBOnet's two encoders and PHYSEnet's
    encoder on its two sides run side by side, one conv pair at a time: one
    side on the caller and one on the conv worker, every array made by the
    caller, each side's bits those of a conv run alone."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", sorted(FOUR_VIEW))
    def test_side_by_side_worker_off_and_one_side_at_a_time_bitwise(
            self, sides, monkeypatch, kind, dtype):
        model, x = four_view(kind, dtype)
        together = eval_bits(model, x)
        main = threading.get_ident()
        convs = len([m for m in model.modules() if isinstance(m, phc.PHCConv2d)])
        encoder = len([m for m in (model.encoder_l if kind == "phybonet" else model.encoder)
                       .modules() if isinstance(m, phc.PHCConv2d)])
        assert len(sides.runs) == encoder < convs
        for loops, begun, ended in sides.runs:
            assert len(loops) == 2 and {t for t, _ in begun} == {t for t, _ in ended}
            assert len({t for t, _ in begun}) == 2 and main in {t for t, _ in begun}
            assert all(side.loop.count > 1 for side in loops if side.size)
        pool = T._conv_worker()
        monkeypatch.setattr(T, "_conv_worker", lambda: None)
        assert eval_bits(model, x) == together
        assert {t for _, begun, _ in sides.runs[encoder:] for t, _ in begun} == {main}
        monkeypatch.setattr(T, "_conv_worker", lambda: pool)
        run = MD.PHTrunk.sides
        monkeypatch.setattr(MD.PHTrunk, "sides", staticmethod(
            lambda trunks, xs: [run([t], [x])[0] for t, x in zip(trunks, xs)]))
        assert eval_bits(model, x) == together
        assert len(sides.runs) == 2 * encoder

    @pytest.mark.parametrize("kind", sorted(FOUR_VIEW))
    def test_only_the_caller_makes_arrays(self, sides, monkeypatch, kind):
        # what the worker allocates stays resident in its own malloc arena
        made = []

        class Recorded:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                made.append(threading.get_ident())
                return np.empty(*args, **kwargs)

            def zeros(self, *args, **kwargs):
                made.append(threading.get_ident())
                return np.zeros(*args, **kwargs)

        model, x = four_view(kind)
        expected = eval_bits(model, x)
        monkeypatch.setattr(T, "np", Recorded())
        del sides.runs[:]
        assert eval_bits(model, x) == expected
        worker = {t for _, begun, _ in sides.runs for t, _ in begun} - {threading.get_ident()}
        assert len(worker) == 1 and made and set(made) == {threading.get_ident()}

    @pytest.mark.parametrize("on", ["caller", "worker"])
    @pytest.mark.parametrize("kind", sorted(FOUR_VIEW))
    def test_a_failed_side_reaches_the_caller_after_the_other_ends(self, sides, kind, on):
        model, x = four_view(kind)
        expected = eval_bits(model, x)
        main, failing = threading.get_ident(), 3 + len(sides.runs)

        def fails(side):
            if len(sides.runs) != failing:
                return
            if (threading.get_ident() == main) == (on == "caller"):
                raise RuntimeError(f"a side failed on the {on}")
            time.sleep(0.05)  # the other side is still running when this one fails

        sides.hook = fails
        with pytest.raises(RuntimeError, match=f"on the {on}"):
            eval_bits(model, x)
        loops, begun, ended = sides.runs[-1]
        assert len(sides.runs) == failing and len(begun) == 2 and len(ended) == 1
        (_, other), = ended
        written = other.out.tobytes()
        time.sleep(0.1)
        assert other.out.tobytes() == written  # nothing is written after _run returns
        sides.hook = None
        assert eval_bits(model, x) == expected

    def test_a_forward_that_keeps_a_graph_runs_one_side_at_a_time(self, sides):
        model, x = four_view("phybonet")
        logits = model(ag.Node(x.value, requires_grad=True))
        model.train()
        model(x)
        assert logits.requires_grad and sides.runs == []


class TestPHUNet:
    def test_forward_shape_and_range(self):
        cfg = MD.PHUNetConfig(n=2, width=4, depth=2)
        model = MD.PHUNet(cfg, seed=0)
        x = np.random.default_rng(7).normal(size=(2, 2, 64, 64)).astype(np.float32)
        out = model(ag.constant(x))
        assert out.shape == (2, 1, 64, 64)
        probs = ag.stable_sigmoid(out.value)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_spatial_divisibility_error(self):
        model = MD.PHUNet(MD.PHUNetConfig(n=2, width=4, depth=3), seed=0)
        with pytest.raises(ShapeError):
            model(ag.constant(np.zeros((1, 2, 20, 20), dtype=np.float32)))

    def test_grad_check_tiny_instance(self):
        model = MD.PHUNet(MD.PHUNetConfig(n=2, width=4, depth=2), seed=1)
        for p in model.parameters():
            p.value = p.value.astype(np.float64)
        rng = np.random.default_rng(8)
        x = ag.constant(rng.normal(size=(1, 2, 8, 8)))
        target = (rng.random((1, 1, 8, 8)) < 0.3).astype(np.float64)

        def f():
            model.train()
            logits = model(x)
            return nn.bce_with_logits(logits, target)

        params = dict(model.named_parameters())
        report = ag.grad_check(f, params, h=1e-6, tol=1e-5, min_coords=4)
        assert report.passed, sorted(report.per_param.items(), key=lambda kv: -kv[1])[:4]

    def test_param_ratio_half_of_real(self):
        model = MD.PHUNet(MD.PHUNetConfig(n=2, width=8, depth=3), seed=0)
        ratio = model.param_count() / MD.real_equivalent_params(model)
        assert abs(ratio - 0.5) < 0.05


class TestTransfer:
    def _small_cfgs(self):
        res = small_phresnet()
        yse = MD.PHYSEnetConfig(width=8, blocks=(1, 1, 1, 1), refiners=2)
        ybo = MD.PHYBOnetConfig(width=8, blocks=(1, 1, 1, 1), refiners=2)
        return res, yse, ybo

    def test_patch_to_whole_copies_trunk_only(self):
        res, _, _ = self._small_cfgs()
        source = MD.PHResNet(MD.PHResNetConfig(**{**res.__dict__, "heads": 5}),
                             seed=0)
        target = MD.PHResNet(res, seed=99)
        src_state = source.state_dict()
        copied = MD.transfer_weights(src_state, MD.model_config(source), target)
        tgt_state = target.state_dict()
        trunk = [k for k in src_state if k.startswith("trunk.")]
        assert copied == len(trunk)
        for k in trunk:
            npt.assert_array_equal(tgt_state[k], src_state[k])
        refiners = [k for k in tgt_state if k.startswith("refiners.")
                    and not k.endswith(("running_mean", "running_var"))]
        assert any(
            not np.array_equal(tgt_state[k], src_state[k]) for k in refiners
        )

    def test_two_view_to_physenet(self):
        res, yse, _ = self._small_cfgs()
        source = MD.PHResNet(res, seed=0)
        target = MD.PHYSEnet(yse, seed=1)
        copied = MD.transfer_weights(source.state_dict(), MD.model_config(source),
                                     target)
        src = source.state_dict()
        tgt = target.state_dict()
        for k in src:
            if k.startswith("trunk."):
                npt.assert_array_equal(tgt["encoder." + k[len("trunk."):]], src[k])
        assert copied == sum(1 for k in src if k.startswith("trunk."))

    def test_two_view_to_phybonet_both_encoders(self):
        res, _, ybo = self._small_cfgs()
        source = MD.PHResNet(res, seed=0)
        target = MD.PHYBOnet(ybo, seed=1)
        MD.transfer_weights(source.state_dict(), MD.model_config(source), target)
        src = source.state_dict()
        tgt = target.state_dict()
        for prefix in ("encoder_l.", "encoder_r."):
            npt.assert_array_equal(tgt[prefix + "conv1.F"], src["trunk.conv1.F"])
            npt.assert_array_equal(
                tgt[prefix + "stages.1.0.phc1.F"], src["trunk.stages.1.0.phc1.F"]
            )

    def test_transferred_buffers_are_copies(self):
        # both encoders are loaded from the same source arrays; each must keep
        # its own batch-norm running statistics
        res, _, ybo = self._small_cfgs()
        source = MD.PHResNet(res, seed=0)
        state = source.state_dict()
        target = MD.PHYBOnet(ybo, seed=1)
        MD.transfer_weights(state, MD.model_config(source), target)
        left, right = target.encoder_l.bn1, target.encoder_r.bn1
        assert left.running_mean is not right.running_mean
        assert left.running_mean is not state["trunk.bn1.running_mean"]
        target.train()
        exam = np.concatenate([np.full((2, 2, 16, 16), v, dtype=np.float32) for v in (0, 1)],
                              axis=1)
        target(ag.constant(exam))
        assert not np.array_equal(left.running_mean, right.running_mean)

    def test_wrong_width_raises_with_names(self):
        res, _, _ = self._small_cfgs()
        source = MD.PHResNet(res, seed=0)
        target = MD.PHResNet(small_phresnet(width=16), seed=1)
        with pytest.raises(TransferError) as err:
            MD.transfer_weights(source.state_dict(), MD.model_config(source), target)
        assert "trunk.conv1.F" in str(err.value)

    def test_unknown_source_kind(self):
        res, yse, _ = self._small_cfgs()
        source = MD.PHYSEnet(yse, seed=0)
        target = MD.PHResNet(res, seed=0)
        with pytest.raises(TransferError):
            MD.transfer_weights(source.state_dict(), MD.model_config(source), target)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("kind,cfg", [
        ("phresnet", MD.PHResNetConfig(n=2, width=8, blocks=(1, 1, 1, 1))),
        ("phybonet", MD.PHYBOnetConfig(width=8)),
        ("physenet", MD.PHYSEnetConfig(width=8)),
        ("phunet", MD.PHUNetConfig(width=4, depth=2)),
    ])
    def test_dict_round_trip(self, kind, cfg):
        d = MD.config_to_dict(kind, cfg)
        kind2, cfg2 = MD.config_from_dict(d)
        assert kind2 == kind and cfg2 == cfg

    def test_builder_determinism(self):
        a = MD.PHResNet(small_phresnet(), seed=11)
        b = MD.PHResNet(small_phresnet(), seed=11)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            npt.assert_array_equal(pa.value, pb.value)
