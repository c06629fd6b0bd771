"""Procedural datasets, an IDX ingestion path, and seeded splitting.

Every generator is a pure function of its parameters and seed. Images are
float64 arrays of shape (count, channels, height, width) with values in
[0, 1]; out-of-distribution sets carry the label sentinel -1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import storage

DATASET_MAGIC = b"GDATA"
OOD_LABEL = -1

GLYPH_SIZE = 16
GLYPH_CLASSES = 10

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(Exception):
    pass


class IdxMagicError(DataError):
    pass


class IdxDimensionError(DataError):
    pass


class IdxCountError(DataError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (count, C, H, W), values in [0, 1]
    labels: np.ndarray  # (count,) int64; -1 marks unlabeled/OOD samples
    source_tag: str
    seed: int = 0

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx], self.source_tag, self.seed)


def _glyph_mask(cls: int) -> np.ndarray:
    """Binary 16x16 stencil for one glyph class.

    Shapes are single-pixel strokes inside the central 6x6 box (rows/cols
    5..10). Compact rendering keeps class margins commensurate with small
    pixel-space perturbations while leaving headroom for the +-2 px jitter.
    """
    m = np.zeros((GLYPH_SIZE, GLYPH_SIZE), dtype=bool)
    lo, hi = 5, 11  # core box
    if cls == 0:  # horizontal bar
        m[8, lo:hi] = True
    elif cls == 1:  # vertical bar
        m[lo:hi, 8] = True
    elif cls == 2:  # cross
        m[8, lo:hi] = True
        m[lo:hi, 8] = True
    elif cls == 3:  # X
        for r in range(lo, hi):
            m[r, r] = True
            m[r, 15 - r] = True
    elif cls == 4:  # circle outline
        yy, xx = np.mgrid[0:GLYPH_SIZE, 0:GLYPH_SIZE]
        dist = np.sqrt((yy - 7.5) ** 2 + (xx - 7.5) ** 2)
        m[(dist >= 2.0) & (dist <= 3.0)] = True
    elif cls == 5:  # square outline
        m[lo:hi, lo:hi] = True
        m[lo + 1:hi - 1, lo + 1:hi - 1] = False
    elif cls == 6:  # filled square
        m[6:10, 6:10] = True
    elif cls == 7:  # main diagonal
        for r in range(lo, hi):
            m[r, r] = True
    elif cls == 8:  # T-shape
        m[lo, lo:hi] = True
        m[lo:hi, 8] = True
    elif cls == 9:  # L-shape
        m[lo:hi, lo] = True
        m[hi - 1, lo:hi] = True
    else:
        raise ValueError(f"no glyph class {cls}")
    return m


def gen_glyphs(count: int, seed: int) -> Dataset:
    """Class-balanced 10-way glyph set with position, intensity, and noise
    jitter per sample."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    stencils = [_glyph_mask(c) for c in range(GLYPH_CLASSES)]
    labels = (np.arange(count) % GLYPH_CLASSES).astype(np.int64)
    images = np.zeros((count, 1, GLYPH_SIZE, GLYPH_SIZE))
    for i in range(count):
        dy, dx = rng.integers(-2, 3, size=2)
        intensity = rng.uniform(0.7, 1.0)
        canvas = np.roll(stencils[labels[i]], (dy, dx), axis=(0, 1)) * intensity
        canvas = canvas + rng.normal(0.0, 0.05, size=canvas.shape)
        images[i, 0] = np.clip(canvas, 0.0, 1.0)
    order = rng.permutation(count)
    return Dataset(images[order], labels[order], source_tag="glyphs", seed=seed)


OOD_KINDS = ("uniform-noise", "gaussian-noise", "textures")


def gen_ood(kind: str, count: int, seed: int,
            shape=(1, GLYPH_SIZE, GLYPH_SIZE)) -> Dataset:
    """Out-of-distribution sources spanning a complexity ladder: iid noise
    far from any structured set, and procedural textures as the near-OOD
    family."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    c, h, w = shape
    if kind == "uniform-noise":
        images = rng.uniform(0.0, 1.0, size=(count, c, h, w))
    elif kind == "gaussian-noise":
        images = np.clip(rng.normal(0.5, 0.25, size=(count, c, h, w)), 0.0, 1.0)
    elif kind == "textures":
        images = np.empty((count, c, h, w))
        yy, xx = np.mgrid[0:h, 0:w]
        for i in range(count):
            family = rng.integers(0, 3)
            period = int(rng.integers(2, 7))
            phase = int(rng.integers(0, period))
            lo = rng.uniform(0.0, 0.3)
            hi = rng.uniform(0.6, 1.0)
            if family == 0:  # checkerboard
                tile = ((yy + phase) // period + (xx + phase) // period) % 2
                img = np.where(tile == 0, lo, hi)
            elif family == 1:  # linear gradient at a random orientation
                theta = rng.uniform(0.0, 2 * np.pi)
                ramp = np.cos(theta) * xx + np.sin(theta) * yy
                ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-12)
                img = lo + (hi - lo) * ramp
            else:  # stripes, horizontal or vertical
                axis = yy if rng.integers(0, 2) == 0 else xx
                img = np.where(((axis + phase) // period) % 2 == 0, lo, hi)
            images[i] = np.clip(img + rng.normal(0.0, 0.02, size=(h, w)), 0.0, 1.0)
    else:
        raise ValueError(f"unknown OOD kind {kind!r}")
    labels = np.full(count, OOD_LABEL, dtype=np.int64)
    return Dataset(images, labels, source_tag=f"ood-{kind}", seed=seed)


def idx_image_header(images_path) -> tuple:
    """(count, rows, cols) from the 16-byte header of an IDX image file."""
    with open(images_path, "rb") as fh:
        head = fh.read(16)
    if len(head) < 16:
        raise IdxDimensionError("image file shorter than its header")
    magic, n, rows, cols = struct.unpack(">IIII", head)
    if magic != IDX_IMAGES_MAGIC:
        raise IdxMagicError(f"image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    return n, rows, cols


def load_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX pair used by digit datasets; pixels are
    scaled from [0, 255] to [0, 1]."""
    n, rows, cols = idx_image_header(images_path)
    pixels = np.fromfile(images_path, dtype=np.uint8, offset=16)
    if len(pixels) != n * rows * cols:
        raise IdxDimensionError(f"image payload {len(pixels)} bytes, expected {n * rows * cols}")
    pixels = pixels.reshape(n, 1, rows, cols)

    with open(labels_path, "rb") as fh:
        lblob = fh.read()
    if len(lblob) < 8:
        raise IdxDimensionError("label file shorter than its header")
    lmagic, ln = struct.unpack(">II", lblob[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise IdxMagicError(f"label magic 0x{lmagic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(lblob) != 8 + ln:
        raise IdxDimensionError(f"label payload {len(lblob) - 8} bytes, expected {ln}")
    if ln != n:
        raise IdxCountError(f"{n} images but {ln} labels")
    labels = np.frombuffer(lblob, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(pixels.astype(np.float64) / 255.0, labels, source_tag="idx", seed=0)


def allocate_counts(n: int, fractions) -> list:
    """Cumulative-floor allocation: sizes deviate from n*f by less than 1."""
    bounds = [0]
    acc = 0.0
    for f in fractions:
        acc += f
        bounds.append(int(np.floor(acc * n + 1e-9)))
    bounds[-1] = n
    return [bounds[i + 1] - bounds[i] for i in range(len(fractions))]


def stratify(groups, fractions, rng) -> list:
    """Split groups of indices into len(fractions) parts, stratified by group.

    Groups are drawn in the order given. Each group's indices are permuted
    with ``rng`` then sliced contiguously by :func:`allocate_counts`, so
    every group is within one sample of its exact share of every part.
    Returns one sorted index array per part.
    """
    parts = [[] for _ in fractions]
    for idx in groups:
        idx = idx[rng.permutation(len(idx))]
        start = 0
        for chunks, size in zip(parts, allocate_counts(len(idx), fractions)):
            chunks.append(idx[start:start + size])
            start += size
    return [np.sort(np.concatenate(chunks)) for chunks in parts]


def split(dataset: Dataset, fractions, seed: int) -> tuple:
    """Seeded split into len(fractions) parts, stratified by label (in
    sorted label order), so class proportions per part deviate from the
    global proportions by at most one sample per class."""
    fractions = tuple(float(f) for f in fractions)
    if any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be positive and sum to 1, got {fractions}")
    labels = dataset.labels
    groups = [np.flatnonzero(labels == cls) for cls in np.unique(labels)]
    parts = stratify(groups, fractions, np.random.default_rng(seed))
    if any(len(part) == 0 for part in parts):
        raise ValueError("split produced an empty part")
    return tuple(dataset.subset(part) for part in parts)


def save_dataset(dataset: Dataset, path, extra_metadata: dict | None = None) -> None:
    metadata = {
        "source_tag": dataset.source_tag,
        "seed": dataset.seed,
        "count": len(dataset),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    records = [("images", dataset.images), ("labels", dataset.labels.astype(np.float64))]
    storage.write_container(path, DATASET_MAGIC, metadata, records)


def load_dataset(path) -> Dataset:
    metadata, records = storage.read_container(path, DATASET_MAGIC)
    named = dict(records)
    if set(named) != {"images", "labels"}:
        raise storage.RecordError(f"dataset records {sorted(named)} != ['images', 'labels']")
    images, labels = named["images"], named["labels"]
    if images.ndim != 4 or len(labels) != len(images):
        raise storage.RecordError("dataset image/label shapes inconsistent")
    if not (np.isfinite(labels) & (labels >= -1) & (labels == np.floor(labels))).all():
        raise storage.RecordError("dataset labels must be finite integers >= -1")
    if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
        raise storage.RecordError("dataset pixels must be finite and in [0, 1]")
    return Dataset(images, labels.astype(np.int64), metadata.get("source_tag", ""),
                   int(metadata.get("seed", 0)))
