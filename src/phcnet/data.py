"""Dataset plumbing: PGM images, manifests, synthetic multi-view exams,
patch extraction, augmentation, stratified splits.

The synthetic generator is the desk-scale stand-in for mammography exams.
Every sample renders one lesion per breast side into two projection-like
views from a shared latent; the two label rules are

* ``single-view``: lesion shape (round vs spiculated / compact vs scattered
  calcification cluster) determines the label, visible in either view;
* ``cross-view-xor``: view 1 carries a blob-quadrant-parity bit, view 2 an
  independent blob-orientation bit, and the label is their XOR, so neither
  view alone determines the label.

Backgrounds combine a fixed horizontal ramp (an absolute-position anchor),
low-frequency texture and pixel noise.  Generation is a pure function of
(spec, seed): rerunning a spec reproduces every file bit for bit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import DataError

MANIFEST_VERSION = 1
CLASS_NAMES = (
    "background",
    "benign-calc",
    "malignant-calc",
    "benign-mass",
    "malignant-mass",
)

# fixed CC -> MLO-like view transform (applied to lesion centers, about the
# image center): mild rotation with a slight scale
_VIEW_MATRIX = np.array([[0.94, 0.20], [-0.20, 0.94]], dtype=np.float64)


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------

def save_pgm(path, image) -> None:
    """Write a 2D array as binary 8-bit PGM; floats in [0,1] are quantized."""
    arr = np.asarray(image)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise DataError(f"save_pgm expects a 2D image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read binary PGM (8- or 16-bit) into a (1,H,W) float32 tensor in [0,1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (P5) file")
    # header: magic, width, height, maxval, separated by whitespace/comments
    pos, fields = 2, []
    while len(fields) < 3:
        m = re.compile(rb"(?:\s+|#[^\n]*\n)*(\d+)").match(data, pos)
        if m is None:
            raise DataError(f"{path}: malformed PGM header")
        fields.append(int(m.group(1)))
        pos = m.end()
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if not (0 < maxval < 65536):
        raise DataError(f"{path}: invalid maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = w * h * dtype.itemsize
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise DataError(f"{path}: truncated payload ({len(payload)}/{expected} bytes)")
    img = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    return (img.astype(np.float32) / np.float32(maxval))[None, :, :]


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    id: str
    views: list
    labels: list
    mask: str | None = None
    boxes: list | None = None   # per view: [cy, cx, radius]
    lesion: dict | None = None  # {"kind", "malignant"}; cues for xor datasets

    def to_json(self) -> dict:
        return asdict(self)

    def check(self) -> None:
        """Raise DataError naming the first field read from JSON with a bad type."""
        def list_of(value, ok):
            return isinstance(value, list) and len(value) > 0 and all(map(ok, value))

        for name, ok, want in (
            ("id", isinstance(self.id, str), "a string"),
            ("views", list_of(self.views, lambda v: isinstance(v, str)),
             "a non-empty list of paths"),
            ("labels", list_of(self.labels, lambda y: type(y) is int and y in (0, 1)),
             "a non-empty list of 0/1 integers"),
            ("mask", self.mask is None or isinstance(self.mask, str), "a path or null"),
        ):
            if not ok:
                raise DataError(f"entry {self.id!r}: {name} must be {want}, "
                                f"got {getattr(self, name)!r}")


class Manifest:
    """Dataset index: entries plus metadata, stored as one JSON document.

    All paths inside entries are relative to the manifest's directory.
    """

    def __init__(self, metadata: dict, entries: list, root=None):
        self.metadata = metadata
        self.entries = entries
        self.root = Path(root) if root is not None else None

    def save(self, path) -> None:
        path = Path(path)
        doc = {
            "manifest-version": MANIFEST_VERSION,
            "metadata": self.metadata,
            "entries": [e.to_json() for e in self.entries],
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        self.root = path.parent

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read manifest {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("manifest-version") != MANIFEST_VERSION:
            raise DataError(f"{path}: unsupported manifest version")
        entries, metadata = doc.get("entries"), doc.get("metadata")
        if not isinstance(entries, list) or not isinstance(metadata, dict):
            raise DataError(f"{path}: manifest needs an entries list and a metadata object")
        try:
            entries = [Entry(**e) for e in entries]
            for e in entries:
                e.check()
        except (TypeError, DataError) as exc:
            raise DataError(f"{path}: bad manifest entry: {exc}") from exc
        if len({(len(e.views), len(e.labels)) for e in entries}) > 1:
            raise DataError(f"{path}: entries differ in their number of views or labels")
        return cls(metadata, entries, root=path.parent)

    def load_views(self, entry: Entry) -> np.ndarray:
        """Stack an entry's views into a (V,H,W) float32 array."""
        planes = [load_pgm(self.root / v)[0] for v in entry.views]
        shapes = {p.shape for p in planes}
        if len(shapes) != 1:
            raise DataError(f"entry {entry.id}: views differ in size: {shapes}")
        return np.stack(planes)

    def load_mask(self, entry: Entry) -> np.ndarray:
        if entry.mask is None:
            raise DataError(f"entry {entry.id} has no mask")
        return (load_pgm(self.root / entry.mask)[0] > 0.5).astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def _finite_number(v) -> bool:
    """A number, not a bool, that a float holds: not inf, nan or 10**400."""
    return (isinstance(v, (int, float)) and type(v) is not bool
            and abs(v) <= sys.float_info.max)


@dataclass
class SyntheticSpec:
    size: int = 32
    count: int = 100
    views: int = 2              # 2 (one side) or 4 (both sides)
    radius: tuple = (3.5, 5.5)
    contrast: tuple = (0.35, 0.6)
    noise: float = 0.03
    label_rule: str = "single-view"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("size", 16), ("count", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or not _finite_number(value) or value < low:
                raise DataError(f"{name} must be an integer >= {low} within float "
                                f"range, got {value!r}")
        if type(self.views) is not int or self.views not in (2, 4):
            raise DataError(f"views must be 2 or 4, got {self.views!r}")
        if self.label_rule not in ("single-view", "cross-view-xor"):
            raise DataError(f"unknown label rule {self.label_rule!r}")
        if not (_finite_number(self.noise) and self.noise >= 0):
            raise DataError(f"noise must be a number >= 0, got {self.noise!r}")
        for name in ("radius", "contrast"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(map(_finite_number, pair)) and 0 < pair[0] <= pair[1]):
                raise DataError(f"{name} must be an ordered pair of positive numbers, "
                                f"got {pair!r}")
            setattr(self, name, tuple(pair))
        # sample_latent's placement margins at the largest radius
        r = self.radius[1]
        need = math.ceil(2 * (r + 4.0) if self.label_rule == "single-view"
                         else max(4 * (r + 1.5), 2 * (2.2 * r + 2.0)))
        if self.size < need:
            raise DataError(f"image size {self.size} cannot place {self.label_rule} "
                            f"lesions of radius up to {r}; the smallest size that "
                            f"fits is {need}")


def view_transform_point(point, size: int) -> np.ndarray:
    """Map a (y, x) lesion center from view 1 into view 2 coordinates."""
    c = (size - 1) / 2.0
    return _VIEW_MATRIX @ (np.asarray(point, dtype=np.float64) - c) + c


def sample_latent(spec: SyntheticSpec, rng) -> dict:
    """Draw the latent state of one breast side (pure plumbing for render)."""
    r = float(rng.uniform(*spec.radius))
    contrast = float(rng.uniform(*spec.contrast))
    if spec.label_rule == "single-view":
        kind = "mass" if rng.random() < 0.5 else "calc"
        malignant = bool(rng.random() < 0.5)
        margin = spec.radius[1] + 4.0
        center = rng.uniform(margin, spec.size - margin, size=2)
        return {
            "kind": kind,
            "malignant": malignant,
            "label": int(malignant),
            "radius": r,
            "contrast": contrast,
            "center": center,
            "center2": view_transform_point(center, spec.size),
            "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
            "dots": rng.standard_normal((9, 2)),
        }
    # cross-view-xor: quadrant parity in view 1, blob orientation in view 2
    quadrant = int(rng.integers(4))
    cue1 = quadrant % 2
    qy, qx = divmod(quadrant, 2)
    half = spec.size / 2.0
    pad = r + 1.5
    cy = float(rng.uniform(qy * half + pad, (qy + 1) * half - pad))
    cx = float(rng.uniform(qx * half + pad, (qx + 1) * half - pad))
    cue2 = int(rng.random() < 0.5)
    margin = 2.2 * r + 2.0
    center2 = rng.uniform(margin, spec.size - margin, size=2)
    return {
        "kind": "mass",
        "malignant": None,
        "label": cue1 ^ cue2,
        "cue1": cue1,
        "cue2": cue2,
        "radius": r,
        "contrast": contrast,
        "center": np.array([cy, cx]),
        "center2": center2,
        "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
        "dots": rng.standard_normal((9, 2)),
    }


def _background(size: int, noise: float, rng) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    img = np.full((size, size), 0.25, dtype=np.float32)
    img += 0.12 * xx / (size - 1)  # fixed ramp: absolute-position anchor
    for _ in range(2):
        fy, fx = rng.integers(1, 4, size=2)
        phase = rng.uniform(0, 2 * math.pi)
        img += 0.04 * np.sin(
            2 * math.pi * (fy * yy + fx * xx) / size + phase
        ).astype(np.float32)
    img += rng.normal(0.0, noise, size=(size, size)).astype(np.float32)
    return img


def _lesion_field(size, latent, center, orientation=None) -> np.ndarray:
    """Lesion intensity field at the given center.

    Every field is normalized to the same integrated mass 1.247*r^2 (the
    mass of the round reference blob), so the label never correlates with
    total lesion brightness; only shape/position/orientation carry signal.
    """
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dy, dx = yy - center[0], xx - center[1]
    r = latent["radius"]
    if latent["kind"] == "mass":
        if orientation is None:
            dist = np.hypot(dy, dx)
            rim = r
            if latent["malignant"]:
                theta = np.arctan2(dy, dx)
                rim = r * (1.0 + 0.45 * np.sin(6.0 * theta + latent["phase"]))
            field = np.clip(1.0 - dist / np.maximum(rim, 1e-6), 0.0, 1.0) ** 0.8
        else:
            a, b = 1.9 * r, 0.55 * r
            if orientation == 1:  # vertical major axis
                a, b = b, a
            field = np.exp(-2.2 * ((dx / a) ** 2 + (dy / b) ** 2))
    else:  # calcification cluster: bright dots, compact vs scattered line
        dots = latent["dots"]
        if latent["malignant"]:
            t = np.linspace(-1.8 * r, 1.8 * r, len(dots))
            psi = latent["phase"]
            offsets = np.stack(
                [t * math.sin(psi), t * math.cos(psi)], axis=1
            ) + 0.8 * dots
        else:
            offsets = 0.35 * r * dots[:7]
        field = np.zeros((size, size))
        for oy, ox in offsets:
            field += np.exp(-((dy - oy) ** 2 + (dx - ox) ** 2) / (2 * 0.9**2))
    field *= 1.247 * r * r / max(float(field.sum()), 1e-9)
    return field.astype(np.float32)


def render_side(spec: SyntheticSpec, latent: dict, rng) -> tuple[np.ndarray, np.ndarray]:
    """Render the two views of one side; returns (views (2,H,W), mask (H,W))."""
    xor = spec.label_rule == "cross-view-xor"
    v1_field = _lesion_field(spec.size, latent, latent["center"], None)
    v2_field = _lesion_field(
        spec.size, latent, latent["center2"], latent["cue2"] if xor else None
    )
    views = []
    for field in (v1_field, v2_field):
        img = _background(spec.size, spec.noise, rng)
        img += latent["contrast"] * field
        views.append(np.clip(img, 0.0, 1.0))
    mask = (v1_field > 0.3).astype(np.uint8) * 255
    return np.stack(views), mask


def gen_synthetic(spec: SyntheticSpec, out_dir) -> Manifest:
    """Generate a dataset on disk; returns its manifest (also written)."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(exist_ok=True)
    root_ss = np.random.SeedSequence(spec.seed)
    sides = 1 if spec.views == 2 else 2
    entries = []
    for i, child in enumerate(root_ss.spawn(spec.count)):
        rng = np.random.default_rng(child)
        sid = f"s{i:05d}"
        view_paths, labels, boxes = [], [], []
        mask_path = None
        lesion = None
        for side in range(sides):
            latent = sample_latent(spec, rng)
            views, mask = render_side(spec, latent, rng)
            for v in range(2):
                rel = f"images/{sid}_v{2 * side + v}.pgm"
                save_pgm(out / rel, views[v])
                view_paths.append(rel)
            labels.append(latent["label"])
            boxes.append([float(latent["center"][0]), float(latent["center"][1]),
                          latent["radius"]])
            boxes.append([float(latent["center2"][0]), float(latent["center2"][1]),
                          latent["radius"] * (2.0 if spec.label_rule ==
                                              "cross-view-xor" else 1.0)])
            if side == 0:
                mask_path = f"masks/{sid}.pgm"
                save_pgm(out / mask_path, mask)
                lesion = {"kind": latent["kind"], "malignant": latent["malignant"]}
                if "cue1" in latent:
                    lesion["cue1"] = latent["cue1"]
                    lesion["cue2"] = latent["cue2"]
        entries.append(
            Entry(id=sid, views=view_paths, labels=labels, mask=mask_path,
                  boxes=boxes, lesion=lesion)
        )
    metadata = {
        "image-size": spec.size,
        "views-per-sample": spec.views,
        "class-names": list(CLASS_NAMES),
        "label-rule": spec.label_rule,
        "view-transform": {"matrix": _VIEW_MATRIX.tolist(), "about": "image-center"},
        "spec": asdict(spec),
    }
    manifest = Manifest(metadata, entries)
    manifest.save(out / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

@dataclass
class PatchRecord:
    views: np.ndarray  # (2, ps, ps) float32
    label: int         # index into CLASS_NAMES
    entry_id: str


def _patch_class(entry: Entry) -> int:
    lesion = entry.lesion
    if not (isinstance(lesion, dict) and lesion.get("kind") in ("calc", "mass")
            and isinstance(lesion.get("malignant"), bool)):
        raise DataError(f"entry {entry.id}: patch extraction needs lesion kind "
                        f"(calc/mass) and malignant (true/false), got {lesion!r}")
    name = ("malignant-" if lesion["malignant"] else "benign-") + lesion["kind"]
    return CLASS_NAMES.index(name)


def _patch_boxes(entry: Entry) -> tuple[list, list]:
    """The [cy, cx, radius] boxes of the first side's two views."""
    boxes = entry.boxes[:2] if isinstance(entry.boxes, list) else []
    if len(boxes) < 2 or not all(
            isinstance(b, list) and len(b) == 3 and all(map(_finite_number, b))
            and b[2] >= 0 for b in boxes):
        raise DataError(f"entry {entry.id}: boxes must start with one [cy, cx, radius] "
                        f"per view of the first side, got {entry.boxes!r}")
    return boxes


def _crop(plane: np.ndarray, cy: float, cx: float, ps: int) -> tuple[np.ndarray, int, int]:
    h, w = plane.shape
    top = int(np.clip(round(cy - ps / 2), 0, h - ps))
    left = int(np.clip(round(cx - ps / 2), 0, w - ps))
    return plane[top : top + ps, left : left + ps], top, left


def extract_patches(manifest: Manifest, per_lesion: int = 20,
                    patch_size: int = 32, seed: int = 0) -> list[PatchRecord]:
    """Crop per-lesion patch pairs: half centered near the ROI, half background.

    Both patches of a pair come from corresponding coordinates of the paired
    views (the per-view lesion positions share one jitter; background
    patches share one sampled center mapped through the view transform).
    """
    if per_lesion % 2:
        raise DataError("per_lesion must be even (10 ROI + 10 background rule)")
    records = []
    root_ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for entry, child in zip(manifest.entries, root_ss.spawn(len(manifest.entries))):
        rng = np.random.default_rng(child)
        planes = manifest.load_views(entry)
        size = planes.shape[-1]
        if len(planes) < 2 or planes.shape[1] != size or patch_size > size:
            raise DataError(f"entry {entry.id}: patch size {patch_size} needs two square "
                            f"views at least that large, got {planes.shape}")
        mask = manifest.load_mask(entry) if entry.mask else None
        label = _patch_class(entry)
        # patch pairs come from the first side (the one the mask describes)
        box0, box1 = _patch_boxes(entry)
        half = per_lesion // 2
        for _ in range(half):  # ROI patches
            jitter = rng.uniform(-box0[2] / 2, box0[2] / 2, size=2)
            p0, *_ = _crop(planes[0], box0[0] + jitter[0], box0[1] + jitter[1],
                           patch_size)
            p1, *_ = _crop(planes[1], box1[0] + jitter[0], box1[1] + jitter[1],
                           patch_size)
            records.append(PatchRecord(np.stack([p0, p1]), label, entry.id))
        for _ in range(half):  # background patches
            center = _sample_background_center(
                rng, size, patch_size, [box0, box1], mask
            )
            p0, *_ = _crop(planes[0], center[0], center[1], patch_size)
            c2 = view_transform_point(center, size)
            c2 = np.clip(c2, patch_size / 2, size - patch_size / 2)
            if _circle_hits_patch(box1, c2, patch_size):
                c2 = center  # fall back to the same coordinates
            p1, *_ = _crop(planes[1], c2[0], c2[1], patch_size)
            records.append(PatchRecord(np.stack([p0, p1]), 0, entry.id))
    return records


def _circle_hits_patch(box, center, ps) -> bool:
    top, left = center[0] - ps / 2, center[1] - ps / 2
    ny = np.clip(box[0], top, top + ps)
    nx = np.clip(box[1], left, left + ps)
    return math.hypot(ny - box[0], nx - box[1]) <= box[2] + 1.0


def _sample_background_center(rng, size, ps, boxes, mask, attempts: int = 500):
    for _ in range(attempts):
        c = rng.uniform(ps / 2, size - ps / 2, size=2)
        if any(_circle_hits_patch(b, c, ps) for b in boxes):
            continue
        if mask is not None:
            top = int(np.clip(round(c[0] - ps / 2), 0, size - ps))
            left = int(np.clip(round(c[1] - ps / 2), 0, size - ps))
            if mask[top : top + ps, left : left + ps].any():
                continue
        return c
    raise DataError(
        f"could not place a lesion-free {ps}x{ps} patch in a {size}x{size} image"
    )


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def rotate_bilinear(plane: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate about the image center, bilinear interpolation, zero fill."""
    if degrees == 0.0:
        return plane.copy()
    h, w = plane.shape
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
    out = np.zeros((h, w), dtype=np.float64)
    for dy_, dx_, wgt in (
        (0, 0, (1 - wy) * (1 - wx)),
        (0, 1, (1 - wy) * wx),
        (1, 0, wy * (1 - wx)),
        (1, 1, wy * wx),
    ):
        yi, xi = y0 + dy_, x0 + dx_
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        vals = np.zeros((h, w), dtype=np.float64)
        vals[valid] = plane[yi[valid], xi[valid]]
        out += wgt * vals
    return out.astype(plane.dtype)


def augment_with(views: np.ndarray, degrees: float, flip_h: bool, flip_v: bool,
                 mask: np.ndarray | None = None):
    """Apply one rotation + flip decision identically to every view (and mask)."""
    planes = [rotate_bilinear(v, degrees) for v in views]
    out_mask = None
    if mask is not None:
        out_mask = (rotate_bilinear(mask.astype(np.float32), degrees) > 0.5).astype(
            mask.dtype
        )
    if flip_h:
        planes = [p[:, ::-1] for p in planes]
        out_mask = out_mask[:, ::-1] if out_mask is not None else None
    if flip_v:
        planes = [p[::-1, :] for p in planes]
        out_mask = out_mask[::-1, :] if out_mask is not None else None
    out = np.ascontiguousarray(np.stack(planes))
    if mask is None:
        return out
    return out, np.ascontiguousarray(out_mask)


def augment(views: np.ndarray, seed, mask: np.ndarray | None = None):
    """Random rotation in [-25, +25] degrees plus independent h/v flips."""
    rng = np.random.default_rng(seed)
    degrees = float(rng.uniform(-25.0, 25.0))
    flip_h = bool(rng.random() < 0.5)
    flip_v = bool(rng.random() < 0.5)
    return augment_with(views, degrees, flip_h, flip_v, mask)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def stratified_split(manifest: Manifest, test_fraction: float,
                     seed: int = 0) -> tuple[Manifest, Manifest]:
    """Split entries by id with per-class test proportions within +-1 sample."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test fraction must lie in (0,1), got {test_fraction}")
    by_class: dict[tuple, list] = {}
    for entry in manifest.entries:
        by_class.setdefault(tuple(entry.labels), []).append(entry)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for key in sorted(by_class):
        group = by_class[key]
        if len(group) < 2:
            raise DataError(f"class {key} has fewer than 2 samples")
        perm = rng.permutation(len(group))
        n_test = int(round(test_fraction * len(group)))
        n_test = min(max(n_test, 1), len(group) - 1)
        for pos, idx in enumerate(perm):
            (test if pos < n_test else train).append(group[idx])
    order = {e.id: i for i, e in enumerate(manifest.entries)}
    train.sort(key=lambda e: order[e.id])
    test.sort(key=lambda e: order[e.id])
    mk = lambda entries: Manifest(dict(manifest.metadata), entries, root=manifest.root)
    return mk(train), mk(test)
