"""Data plumbing: PGM round trips, deterministic generation, cue balance of
the cross-view-xor rule and labels that flips and rotations keep, patch
extraction rules, augmentation identities, stratified splitting."""

import hashlib
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from phcnet import data as D
from phcnet.errors import DataError


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# every flip pair at the augmentation's extreme rotations and at none
AUGMENTATIONS = [(degrees, flip_h, flip_v) for degrees in (-25.0, 0.0, 25.0)
                 for flip_h in (False, True) for flip_v in (False, True)]


def moved(offset, degrees, flip_h, flip_v):
    """Where D.augment_with moves a (y, x) offset from the image centre c.

    rotate_bilinear reads output pixel p from c + R(p - c), with
    R = [[cos, sin], [-sin, cos]], so what sits at c + q lands at c + Rᵀq;
    the flips then mirror about c."""
    rad = math.radians(degrees)
    y = math.cos(rad) * offset[0] - math.sin(rad) * offset[1]
    x = math.sin(rad) * offset[0] + math.cos(rad) * offset[1]
    return np.array([-y if flip_v else y, -x if flip_h else x])


class TestPgm:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        quantized = np.round(rng.random((7, 5)) * 255) / 255.0
        path = tmp_path / "img.pgm"
        D.save_pgm(path, quantized.astype(np.float32))
        loaded = D.load_pgm(path)
        assert loaded.shape == (7, 5)
        npt.assert_allclose(loaded, quantized, atol=1e-7)

    def test_save_takes_two_axes_only(self, tmp_path):
        with pytest.raises(DataError, match="2D"):
            D.save_pgm(tmp_path / "img.pgm", np.zeros((1, 7, 5), dtype=np.float32))

    def test_all_white(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([255] * 4))
        npt.assert_array_equal(D.load_pgm(path), np.ones((2, 2), dtype=np.float32))

    def test_hand_scaling(self, tmp_path):
        path = tmp_path / "v.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        expected = np.array([[0, 128 / 255], [1.0, 64 / 255]], dtype=np.float32)
        npt.assert_allclose(D.load_pgm(path), expected)

    def test_sixteen_bit(self, tmp_path):
        path = tmp_path / "d.pgm"
        payload = np.array([0, 32768, 65535, 1], dtype=">u2").tobytes()
        path.write_bytes(b"P5\n2 2\n65535\n" + payload)
        out = D.load_pgm(path)
        npt.assert_allclose(out.ravel(), [0.0, 32768 / 65535, 1.0, 1 / 65535],
                            rtol=1e-6)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9]))
        assert D.load_pgm(path).shape == (1, 2)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataError):
            D.load_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(DataError):
            D.load_pgm(path)

    @pytest.mark.parametrize("size", [b"0 0", b"0 4", b"4 0"])
    def test_empty_image_names_the_file(self, tmp_path, size):
        # a width or height of 0 would load as an empty plane, which fails
        # only later, in the first conv, without naming the file
        path = tmp_path / "empty.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n")
        with pytest.raises(DataError, match="empty.pgm: empty"):
            D.load_pgm(path)


class TestGenSynthetic:
    def test_bitwise_deterministic(self, tmp_path):
        spec = D.SyntheticSpec(size=24, count=6, seed=7)
        D.gen_synthetic(spec, tmp_path / "a")
        D.gen_synthetic(spec, tmp_path / "b")
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_manifest_round_trip(self, tmp_path):
        spec = D.SyntheticSpec(size=24, count=4, seed=1)
        manifest = D.gen_synthetic(spec, tmp_path)
        loaded = D.Manifest.load(tmp_path / "manifest.json")
        assert len(loaded.entries) == 4
        views = loaded.load_views(loaded.entries[0])
        assert views.shape == (2, 24, 24)
        assert views.dtype == np.float32
        mask = loaded.load_mask(loaded.entries[0])
        assert mask.shape == (24, 24)
        assert mask.sum() > 0  # every sample carries a lesion

    def test_four_view_layout(self, tmp_path):
        spec = D.SyntheticSpec(size=24, count=3, views=4, seed=2)
        manifest = D.gen_synthetic(spec, tmp_path)
        entry = manifest.entries[0]
        assert len(entry.views) == 4
        assert len(entry.labels) == 2

    @pytest.mark.parametrize("rule, radius", [
        ("single-view", 5.5), ("single-view", 9.25), ("single-view", 20.0),
        ("cross-view-xor", 3.0), ("cross-view-xor", 5.5), ("cross-view-xor", 9.25),
        ("cross-view-xor", 20.0)])
    def test_smallest_size_places_every_lesion(self, rule, radius):
        # the size limit and sample_latent's placement agree: at the smallest size
        # the spec names, single-view's view-1 centres keep the largest radius + 4
        # and xor's view-2 centres 2.2 r + 2 from every edge, and xor's view-1
        # centres lie within c - (r + 1.5) of the centre c; one pixel less is refused
        def spec(size):
            return D.SyntheticSpec(size=size, radius=(radius / 2, radius), label_rule=rule)

        with pytest.raises(DataError, match="the smallest size that fits is") as refused:
            spec(16)
        size = int(str(refused.value).split()[-1])
        with pytest.raises(DataError, match=f"fits is {size}$"):
            spec(size - 1)
        accepted, c = spec(size), (size - 1) / 2.0
        rng = np.random.default_rng(12)
        for _ in range(2000):
            latent = D.sample_latent(accepted, rng)
            r = latent["radius"]
            if rule == "single-view":
                center, margin = latent["center"], radius + 4.0
            else:
                center, margin = latent["center2"], 2.2 * r + 2.0
                assert np.hypot(*(latent["center"] - c)) <= c - (r + 1.5) + 1e-9
            assert np.all(center >= margin) and np.all(center <= size - margin), (
                size, r, center)

    def test_xor_cue_balance_and_independence(self):
        # Monte Carlo over latents only: marginals balanced within 2% at 10k
        spec = D.SyntheticSpec(size=32, count=10, label_rule="cross-view-xor",
                               seed=3)
        rng = np.random.default_rng(123)
        cue1 = np.empty(10000, dtype=int)
        cue2 = np.empty(10000, dtype=int)
        label = np.empty(10000, dtype=int)
        for i in range(10000):
            latent = D.sample_latent(spec, rng)
            cue1[i], cue2[i] = latent["cue1"], latent["cue2"]
            label[i] = latent["label"]
        assert abs(cue1.mean() - 0.5) < 0.02
        assert abs(cue2.mean() - 0.5) < 0.02
        assert abs(label.mean() - 0.5) < 0.02
        # neither cue alone predicts the label
        assert abs(label[cue1 == 1].mean() - 0.5) < 0.02
        assert abs(label[cue2 == 1].mean() - 0.5) < 0.02
        # the designed two-cue XOR is exact by construction
        npt.assert_array_equal(label, cue1 ^ cue2)

    def test_single_view_class_balance(self):
        spec = D.SyntheticSpec(size=32, count=10, seed=4)
        rng = np.random.default_rng(99)
        labels = [D.sample_latent(spec, rng)["label"] for _ in range(10000)]
        assert abs(np.mean(labels) - 0.5) < 0.02

    def test_view1_probe_on_xor_is_chance(self, tmp_path):
        # logistic probe: predict the label from the view-1 cue alone
        spec = D.SyntheticSpec(size=32, count=400, label_rule="cross-view-xor",
                               seed=5)
        manifest = D.gen_synthetic(spec, tmp_path)
        cues = np.array([e.lesion["cue1"] for e in manifest.entries])
        labels = np.array([e.labels[0] for e in manifest.entries])
        best = max(
            (cues == labels).mean(),          # probe: label = cue1
            (cues == 1 - labels).mean(),      # probe: label = not cue1
        )
        assert best <= 0.55

    def test_flips_and_rotations_keep_the_xor_label(self):
        # each label read back from the exactly moved geometry: view 1's cue is
        # that of the nearest reference centre, view 2's the blob's major axis.
        # (single-view's label is the lesion's shape, which no flip or rotation
        # changes.)
        spec = D.SyntheticSpec(size=32, count=1, label_rule="cross-view-xor", seed=6)
        c = (spec.size - 1) / 2.0
        rng = np.random.default_rng(7)
        refs = [D.sample_latent(spec, rng) for _ in range(4000)]
        centers = np.array([ref["center"] for ref in refs])
        for latent in (D.sample_latent(spec, rng) for _ in range(300)):
            for degrees, flip_h, flip_v in AUGMENTATIONS:
                center = c + moved(latent["center"] - c, degrees, flip_h, flip_v)
                nearest = np.argmin(np.hypot(*(centers - center).T))
                # horizontal (0, 1) or vertical (1, 0)
                axis = moved((latent["cue2"], 1 - latent["cue2"]), degrees, flip_h, flip_v)
                vertical = int(abs(axis[0]) > abs(axis[1]))
                assert refs[nearest]["cue1"] ^ vertical == latent["label"], (
                    degrees, flip_h, flip_v, latent["center"])

    @pytest.mark.parametrize("degrees, flip_h, flip_v", AUGMENTATIONS)
    def test_moved_is_where_augment_moves_a_blob(self, degrees, flip_h, flip_v):
        yy, xx = np.mgrid[0:32, 0:32]
        center = np.array([10.3, 20.7])
        blob = np.exp(-((yy - center[0]) ** 2 + (xx - center[1]) ** 2) / 4.0)
        out = D.augment_with(blob[None].astype(np.float32), degrees, flip_h, flip_v)[0]
        got = np.array([(out * yy).sum(), (out * xx).sum()]) / out.sum()
        want = 15.5 + moved(center - 15.5, degrees, flip_h, flip_v)  # 15.5: the centre
        assert np.hypot(*(got - want)) < 0.05, (got, want)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("patchset")
    spec = D.SyntheticSpec(size=64, count=10, seed=11)
    return D.gen_synthetic(spec, out)


class TestPatches:
    def test_twenty_records_per_lesion(self, dataset):
        records = D.extract_patches(dataset, per_lesion=20, patch_size=32, seed=0)
        assert len(records) == 20 * len(dataset.entries)

    def test_half_background_half_lesion(self, dataset):
        records = D.extract_patches(dataset, per_lesion=20, patch_size=32, seed=0)
        background = sum(1 for r in records if r.label == 0)
        assert background == len(records) // 2

    def test_pairs_and_shapes(self, dataset):
        records = D.extract_patches(dataset, per_lesion=8, patch_size=24, seed=1)
        assert all(r.views.shape == (2, 24, 24) for r in records)
        per_entry = {e.id: 0 for e in dataset.entries}
        for r in records:
            per_entry[r.entry_id] += 1
        assert set(per_entry.values()) == {8}

    def test_patch_classes_from_lesion_type(self, dataset):
        records = D.extract_patches(dataset, per_lesion=4, patch_size=24, seed=2)
        kinds = {e.id: e.lesion for e in dataset.entries}
        for r in records:
            if r.label == 0:
                continue
            lesion = kinds[r.entry_id]
            expected = D.CLASS_NAMES.index(
                ("malignant-" if lesion["malignant"] else "benign-") + lesion["kind"]
            )
            assert r.label == expected

    def test_deterministic(self, dataset):
        a = D.extract_patches(dataset, per_lesion=6, patch_size=24, seed=3)
        b = D.extract_patches(dataset, per_lesion=6, patch_size=24, seed=3)
        for ra, rb in zip(a, b):
            npt.assert_array_equal(ra.views, rb.views)
            assert ra.label == rb.label

    def test_patch_too_large(self, dataset):
        with pytest.raises(DataError):
            D.extract_patches(dataset, per_lesion=4, patch_size=128, seed=0)


class TestMaskOverlap:
    def test_roi_and_background_mask_rules(self, tmp_path):
        """ROI crops must hit the mask; background crops must miss it."""
        spec = D.SyntheticSpec(size=64, count=6, seed=21)
        manifest = D.gen_synthetic(spec, tmp_path)
        ps = 24
        for entry in manifest.entries:
            mask = manifest.load_mask(entry)
            records = [
                r
                for r in D.extract_patches(manifest, per_lesion=10,
                                           patch_size=ps, seed=5)
                if r.entry_id == entry.id
            ]
            roi = [r for r in records if r.label != 0]
            bg = [r for r in records if r.label == 0]
            assert len(roi) == len(bg) == 5
            # locate each patch in the source view to test mask overlap
            view0 = manifest.load_views(entry)[0]
            for r in roi + bg:
                found = _locate(view0, r.views[0])
                assert found is not None
                top, left = found
                overlap = mask[top : top + ps, left : left + ps].sum()
                if r.label != 0:
                    assert overlap > 0
                else:
                    assert overlap == 0


def _locate(plane: np.ndarray, patch: np.ndarray):
    ph, pw = patch.shape
    h, w = plane.shape
    for top in range(h - ph + 1):
        for left in range(w - pw + 1):
            if np.array_equal(plane[top : top + ph, left : left + pw], patch):
                return top, left
    return None


def rotate_bilinear_masked(stack: np.ndarray, degrees: float) -> np.ndarray:
    """The bilinear rotation with a validity mask per corner: the oracle for
    D.rotate_bilinear, which reads a zero border instead."""
    if degrees == 0.0:
        return stack.copy()
    h, w = stack.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(degrees)
    cos, sin = math.cos(rad), math.sin(rad)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    sy = cos * (yy - cy) + sin * (xx - cx) + cy
    sx = -sin * (yy - cy) + cos * (xx - cx) + cx
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    wy = sy - y0
    wx = sx - x0
    out = np.zeros(stack.shape, dtype=np.float64)
    for dy_, dx_, wgt in (
        (0, 0, (1 - wy) * (1 - wx)),
        (0, 1, (1 - wy) * wx),
        (1, 0, wy * (1 - wx)),
        (1, 1, wy * wx),
    ):
        yi, xi = y0 + dy_, x0 + dx_
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        vals = np.zeros(stack.shape, dtype=np.float64)
        vals[..., valid] = stack[..., yi[valid], xi[valid]]
        out += wgt * vals
    return out.astype(stack.dtype)


class TestAugment:
    def test_rotation_bitwise_equal_to_masked_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            planes = int(rng.integers(1, 5))
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            stack = rng.normal(size=(planes, h, w)).astype(np.float32)
            if rng.random() < 0.5:  # a thresholded mask as the last plane
                stack[-1] = stack[-1] > 0
            degrees = float(rng.uniform(-180.0, 180.0))
            want = rotate_bilinear_masked(stack, degrees)
            assert D.rotate_bilinear(stack, degrees).tobytes() == want.tobytes()
        plane = rng.normal(size=(9, 7))  # float64, and no leading axis
        for degrees in (-180.0, -90.0, 25.0, 90.0, 180.0):
            got = D.rotate_bilinear(plane, degrees)
            assert got.tobytes() == rotate_bilinear_masked(plane, degrees).tobytes()

    def test_identity(self):
        views = np.random.default_rng(0).random((2, 16, 16)).astype(np.float32)
        out = D.augment_with(views, 0.0, False, False)
        npt.assert_array_equal(out, views)

    def test_double_horizontal_flip(self):
        views = np.random.default_rng(1).random((2, 8, 8)).astype(np.float32)
        once = D.augment_with(views, 0.0, True, False)
        twice = D.augment_with(once, 0.0, True, False)
        npt.assert_array_equal(twice, views)

    def test_rotation_self_inverse(self, tmp_path):
        spec = D.SyntheticSpec(size=32, count=1, seed=2)
        manifest = D.gen_synthetic(spec, tmp_path)
        views = manifest.load_views(manifest.entries[0])
        fwd = D.augment_with(views, 25.0, False, False)
        back = D.augment_with(fwd, -25.0, False, False)
        interior = (slice(None), slice(4, -4), slice(4, -4))
        assert np.abs(back[interior] - views[interior]).mean() < 0.02

    def test_same_transform_applied_to_all_views_and_mask(self):
        base = np.zeros((2, 12, 12), dtype=np.float32)
        base[:, 2:5, 2:5] = 1.0
        mask = (base[0] > 0).astype(np.float32)
        *out, out_mask = D.augment_with(base, 0.0, True, False, mask)
        npt.assert_array_equal(out[0], out[1])
        npt.assert_array_equal(out_mask, out[0] > 0)

    def test_mask_pixel_count_preserved_under_rotation(self):
        mask = np.zeros((32, 32), dtype=np.float32)
        yy, xx = np.mgrid[0:32, 0:32]
        mask[(yy - 16) ** 2 + (xx - 16) ** 2 < 36] = 1.0
        views = np.stack([mask, mask])
        *_, rotated = D.augment_with(views, 20.0, False, False, mask)
        assert abs(rotated.sum() - mask.sum()) / mask.sum() < 0.10

    def test_seeded_determinism(self):
        views = np.random.default_rng(3).random((2, 10, 10)).astype(np.float32)
        npt.assert_array_equal(D.augment(views, 42), D.augment(views, 42))


class TestStratifiedSplit:
    def _manifest(self, labels):
        entries = [
            D.Entry(id=f"e{i:03d}", views=[], labels=[int(l)]) for i, l in enumerate(labels)
        ]
        return D.Manifest({"image-size": 8}, entries)

    def test_balanced_hundred(self):
        manifest = self._manifest([0] * 50 + [1] * 50)
        train, test = D.stratified_split(manifest, 0.2, seed=0)
        test_labels = [e.labels[0] for e in test.entries]
        assert len(test.entries) == 20
        assert sum(test_labels) == 10

    def test_disjoint_and_complete(self):
        manifest = self._manifest([0, 1] * 20)
        train, test = D.stratified_split(manifest, 0.25, seed=1)
        train_ids = {e.id for e in train.entries}
        test_ids = {e.id for e in test.entries}
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids | test_ids) == 40

    def test_same_seed_same_split(self):
        manifest = self._manifest([0, 1] * 15)
        a = D.stratified_split(manifest, 0.3, seed=5)
        b = D.stratified_split(manifest, 0.3, seed=5)
        assert [e.id for e in a[1].entries] == [e.id for e in b[1].entries]

    def test_tiny_class_rejected(self):
        manifest = self._manifest([0] * 10 + [1])
        with pytest.raises(DataError):
            D.stratified_split(manifest, 0.2, seed=0)

    def test_fraction_bounds(self):
        manifest = self._manifest([0, 0, 1, 1])
        with pytest.raises(DataError):
            D.stratified_split(manifest, 1.0, seed=0)
