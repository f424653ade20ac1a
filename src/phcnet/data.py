"""Dataset plumbing: PGM images, manifests, synthetic multi-view exams,
patch extraction, augmentation, stratified splits.

The synthetic generator is the desk-scale stand-in for mammography exams.
Every sample renders one lesion per breast side into two projection-like
views from a shared latent; the two label rules are

* ``single-view``: lesion shape (round vs spiculated / compact vs scattered
  calcification cluster) determines the label, visible in either view;
* ``cross-view-xor``: view 1 carries the lesion's distance from the image
  centre (an inner disc or an outer ring), view 2 an independent
  blob-orientation bit, and the label is their XOR, so neither view alone
  determines the label.  Both flips and the augmentation's rotations about
  the centre keep both cues, so augmentation keeps the label.

A rule lives in :func:`sample_latent`, which draws all that a side renders,
and in its placement margin, :meth:`SyntheticSpec.margin`; ``render_side``
and ``gen_synthetic`` never name it.

Backgrounds combine low-frequency texture and pixel noise.  Generation is a
pure function of (spec, seed): rerunning a spec reproduces every file bit
for bit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import DataError, finite, in_range, is_number

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
    if arr.ndim != 2:
        raise DataError(f"save_pgm expects a 2D image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read binary PGM (8- or 16-bit) into an (H, W) float32 array in [0, 1]."""
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
    if w < 1 or h < 1:
        raise DataError(f"{path}: empty {w}x{h} image")
    if not (0 < maxval < 65536):
        raise DataError(f"{path}: invalid maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = w * h * dtype.itemsize
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise DataError(f"{path}: truncated payload ({len(payload)}/{expected} bytes)")
    img = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    return img.astype(np.float32) / np.float32(maxval)


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
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        planes = [load_pgm(self.root / v) for v in entry.views]
        shapes = {p.shape for p in planes}
        if len(shapes) != 1:
            raise DataError(f"entry {entry.id}: views differ in size: {shapes}")
        return np.stack(planes)

    def load_mask(self, entry: Entry) -> np.ndarray:
        if entry.mask is None:
            raise DataError(f"entry {entry.id} has no mask")
        return (load_pgm(self.root / entry.mask) > 0.5).astype(np.float32)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """``count`` exams of ``views`` ``size`` x ``size`` views (2: one side, 4:
    both), one lesion per side with radius and contrast uniform in their
    ``(low, high)`` pairs, pixel noise of deviation ``noise``, one ``seed``, and
    ``label_rule`` ``single-view`` or ``cross-view-xor`` (module docstring).
    The smallest size keeps :meth:`margin` at the largest radius from both edges."""
    size: int = 32
    count: int = 100
    views: int = 2              # 2 (one side) or 4 (both sides)
    radius: tuple = (3.5, 5.5)
    contrast: tuple = (0.35, 0.6)
    noise: float = 0.03
    label_rule: str = "single-view"
    seed: int = 0

    def __post_init__(self):
        # size and count size arrays (numpy indexes np.mgrid's (2, size, size)
        # int64 grid only below sys.maxsize bytes); a SeedSequence takes any seed >= 0
        for name, low, *high in (("size", 16, math.isqrt(sys.maxsize // 16)),
                                 ("count", 1), ("seed", 0, sys.float_info.max)):
            in_range(DataError, name, getattr(self, name), low, *high)
        if type(self.views) is not int or self.views not in (2, 4):
            raise DataError(f"views must be 2 or 4, got {self.views!r}")
        if self.label_rule not in ("single-view", "cross-view-xor"):
            raise DataError(f"unknown label rule {self.label_rule!r}")
        in_range(DataError, "noise", self.noise, 0, sys.float_info.max, integer=False)
        for name in ("radius", "contrast"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(map(is_number, pair)) and 0 < pair[0] <= pair[1]):
                raise DataError(f"{name} must be an ordered pair of positive numbers, "
                                f"got {pair!r}")
            setattr(self, name, tuple(pair))
        need = math.ceil(min(2 * self.margin(self.radius[1]), sys.maxsize))  # inf for r ~ 1e308
        if self.size < need:
            raise DataError(f"image size {self.size} cannot place {self.label_rule} lesions "
                            f"of radius up to {self.radius[1]}; the smallest size that "
                            f"fits is {need}")

    def margin(self, r: float) -> float:
        """How far from each edge :func:`sample_latent` draws view 1's centre (at the
        largest radius) for single-view, view 2's (radius ``r``) for xor."""
        return r + 4.0 if self.label_rule == "single-view" else 2.2 * r + 2.0


def view_transform_point(point, size: int) -> np.ndarray:
    """Map a (y, x) lesion center from view 1 into view 2 coordinates."""
    c = (size - 1) / 2.0
    return _VIEW_MATRIX @ (np.asarray(point, dtype=np.float64) - c) + c


def sample_latent(spec: SyntheticSpec, rng) -> dict:
    """Draw one side, the home of a label rule: all its views, mask, boxes and
    lesion record render from, with view 2's blob ``orientation`` (None: view
    1's shape) and box radius ``radius2``."""
    r = float(rng.uniform(*spec.radius))
    contrast = float(rng.uniform(*spec.contrast))
    if spec.label_rule == "single-view":
        kind = "mass" if rng.random() < 0.5 else "calc"
        malignant = bool(rng.random() < 0.5)
        margin = spec.margin(spec.radius[1])
        center = rng.uniform(margin, spec.size - margin, size=2)
        rule = {"kind": kind, "malignant": malignant, "label": int(malignant),
                "center": center, "center2": view_transform_point(center, spec.size),
                "orientation": None, "radius2": r}
    else:
        # view 1's lesion lies on an outer ring (cue 1) or in an inner disc (cue 0)
        # about the centre c, 1.5 pixels inside the inscribed circle, at a uniform
        # angle; view 2's cue is its orientation.  margin(r) > r + 1.5 keeps reach > 0
        cue1 = int(rng.random() < 0.5)
        c = (spec.size - 1) / 2.0
        reach = c - (r + 1.5)
        dist = reach * float(rng.uniform(0.55, 1.0) if cue1 else rng.uniform(0.0, 0.3))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        cue2 = int(rng.random() < 0.5)
        margin = spec.margin(r)
        rule = {"kind": "mass", "malignant": None, "label": cue1 ^ cue2,
                "cue1": cue1, "cue2": cue2,
                "center": c + dist * np.array([math.sin(angle), math.cos(angle)]),
                "center2": rng.uniform(margin, spec.size - margin, size=2),
                "orientation": cue2, "radius2": r * 2.0}
    return {**rule, "radius": r, "contrast": contrast,
            "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
            "dots": rng.standard_normal((9, 2))}


def _background(size: int, noise: float, rng) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    img = np.full((size, size), 0.25, dtype=np.float32)
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
    v1_field = _lesion_field(spec.size, latent, latent["center"], None)
    v2_field = _lesion_field(spec.size, latent, latent["center2"], latent["orientation"])
    views = []
    for field in (v1_field, v2_field):
        img = _background(spec.size, spec.noise, rng)
        img += latent["contrast"] * field
        views.append(np.clip(img, 0.0, 1.0))
    mask = (v1_field > 0.3).astype(np.uint8) * 255
    return np.stack(views), mask


def gen_synthetic(spec: SyntheticSpec, out_dir) -> Manifest:
    """Generate a dataset on disk; returns its manifest (also written).
    Rendering runs in :func:`errors.finite`: a noise or contrast too large
    for float32 pixels raises NumericError."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(exist_ok=True)
    root_ss = np.random.SeedSequence(spec.seed)
    sides = 1 if spec.views == 2 else 2
    entries = []
    with finite("the synthetic set"):
        for i, child in enumerate(root_ss.spawn(spec.count)):
            rng = np.random.default_rng(child)
            sid = f"s{i:05d}"
            view_paths, labels, boxes = [], [], []
            for side in range(sides):
                latent = sample_latent(spec, rng)
                views, mask = render_side(spec, latent, rng)
                for v in range(2):
                    rel = f"images/{sid}_v{2 * side + v}.pgm"
                    save_pgm(out / rel, views[v])
                    view_paths.append(rel)
                labels.append(latent["label"])
                boxes += [[*map(float, latent["center"]), latent["radius"]],
                          [*map(float, latent["center2"]), latent["radius2"]]]
                if side == 0:  # the mask and the lesion record are side 0's
                    mask_path = f"masks/{sid}.pgm"
                    save_pgm(out / mask_path, mask)
                    lesion = {k: latent[k] for k in ("kind", "malignant", "cue1", "cue2")
                              if k in latent}
            entries.append(Entry(id=sid, views=view_paths, labels=labels, mask=mask_path,
                                 boxes=boxes, lesion=lesion))
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
            isinstance(b, list) and len(b) == 3 and all(map(is_number, b))
            and b[2] >= 0 for b in boxes):
        raise DataError(f"entry {entry.id}: boxes must start with one [cy, cx, radius] "
                        f"per view of the first side, got {entry.boxes!r}")
    return boxes


def _crop(plane: np.ndarray, cy: float, cx: float, ps: int) -> np.ndarray:
    """The ps x ps window of ``plane`` nearest to centring on (cy, cx)."""
    h, w = plane.shape
    top = int(np.clip(round(cy - ps / 2), 0, h - ps))
    left = int(np.clip(round(cx - ps / 2), 0, w - ps))
    return plane[top : top + ps, left : left + ps]


def extract_patches(manifest: Manifest, per_lesion: int, patch_size: int,
                    seed) -> list[PatchRecord]:
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
            p0 = _crop(planes[0], box0[0] + jitter[0], box0[1] + jitter[1], patch_size)
            p1 = _crop(planes[1], box1[0] + jitter[0], box1[1] + jitter[1], patch_size)
            records.append(PatchRecord(np.stack([p0, p1]), label, entry.id))
        for _ in range(half):  # background patches
            center = _sample_background_center(
                rng, size, patch_size, [box0, box1], mask
            )
            p0 = _crop(planes[0], center[0], center[1], patch_size)
            c2 = view_transform_point(center, size)
            c2 = np.clip(c2, patch_size / 2, size - patch_size / 2)
            if _circle_hits_patch(box1, c2, patch_size):
                c2 = center  # fall back to the same coordinates
            p1 = _crop(planes[1], c2[0], c2[1], patch_size)
            records.append(PatchRecord(np.stack([p0, p1]), 0, entry.id))
    return records


def _circle_hits_patch(box, center, ps) -> bool:
    top, left = center[0] - ps / 2, center[1] - ps / 2
    ny = np.clip(box[0], top, top + ps)
    nx = np.clip(box[1], left, left + ps)
    return math.hypot(ny - box[0], nx - box[1]) <= box[2] + 1.0


def _sample_background_center(rng, size, ps, boxes, mask):
    for _ in range(500):  # draws before giving up
        c = rng.uniform(ps / 2, size - ps / 2, size=2)
        if any(_circle_hits_patch(b, c, ps) for b in boxes):
            continue
        if mask is not None and _crop(mask, c[0], c[1], ps).any():
            continue
        return c
    raise DataError(
        f"could not place a lesion-free {ps}x{ps} patch in a {size}x{size} image"
    )


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def rotate_bilinear(stack: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate every (H, W) plane of ``stack`` about the image center on one
    sampling grid: bilinear interpolation, zero fill.

    The corners are read from a float64 copy with a one-pixel zero border,
    at row and column indices clipped into it, so a corner outside the image
    reads that border's zero."""
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
    bordered = np.zeros((*stack.shape[:-2], h + 2, w + 2), dtype=np.float64)
    bordered[..., 1:-1, 1:-1] = stack
    flat = bordered.reshape(*stack.shape[:-2], -1)
    out = np.zeros(stack.shape, dtype=np.float64)
    for dy_, dx_, wgt in (
        (0, 0, (1 - wy) * (1 - wx)),
        (0, 1, (1 - wy) * wx),
        (1, 0, wy * (1 - wx)),
        (1, 1, wy * wx),
    ):
        yi = np.clip(y0 + (dy_ + 1), 0, h + 1)
        xi = np.clip(x0 + (dx_ + 1), 0, w + 1)
        out += wgt * np.take(flat, yi * (w + 2) + xi, axis=-1)
    return out.astype(stack.dtype)


def augment_with(views: np.ndarray, degrees: float, flip_h: bool, flip_v: bool,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Apply one rotation + flip decision identically to every view and the mask.

    The (V, H, W) views and the (H, W) mask are rotated as one (V+1, H, W)
    stack on one sampling grid, and the last plane, the mask, is thresholded
    at 0.5.  Returns that stack, or the (V, H, W) views when there is no mask.
    """
    stack = views if mask is None else np.concatenate([views, mask[None]])
    out = rotate_bilinear(stack, degrees)
    if mask is not None:
        out[-1] = out[-1] > 0.5
    if flip_h:
        out = out[..., ::-1]
    if flip_v:
        out = out[..., ::-1, :]
    return np.ascontiguousarray(out)


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
                     seed) -> tuple[Manifest, Manifest]:
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
