"""Gradient-norm input representations elicited by confounding labels.

A confounding label is a target vector the classifier never saw in
training (the default is all ones over the classes). Scoring a sample
means computing binary cross-entropy between the sample's logits and the
confounding label, backpropagating, and recording the squared L2 norm of
the gradient for every parameter set in ordinal order. Inputs the model
represents poorly need larger parameter updates, so their gradient norms
sit in visibly different ranges than training-like inputs.

The per-sample gradient norms of a whole chunk of samples come from one
batched backward pass: samples do not interact in the forward pass, so
the gradient at each layer's pre-activation, for a loss summed over the
chunk, holds every sample's own gradient, and each parameter set's
per-sample gradient is a product of it with the layer's input.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import storage
from .autodiff import Tensor, as_tensor, backward, bce_with_logits
from .nn import FORWARD_BLOCK, map_blocks

UNLABELED = -1
# Samples per batched backward pass. Larger chunks run faster (on one core,
# about 3,100 samples/s at 4 and 4,000 at 8) but hold a larger graph, about
# 0.2 MB per sample; at 4 scoring peaks at the memory of one sample at a time.
CHUNK_SIZE = 4


class FeatureError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConfoundingLabel:
    """A {0,1} target vector that matches no one-hot training label."""

    vector: np.ndarray
    descriptor: str

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64)
        if v.ndim != 1 or not np.all((v == 0.0) | (v == 1.0)):
            raise ValueError("confounding label must be a flat 0/1 vector")
        if v.sum() == 1.0:
            raise ValueError("a one-hot vector is a seen training label, not confounding")
        object.__setattr__(self, "vector", v)


def make_confounding_label(num_classes: int, kind: str = "all-ones",
                           k: int | None = None, seed: int = 0) -> ConfoundingLabel:
    """Build a confounding label over ``num_classes`` classes.

    ``all-ones`` is the default used throughout; the alternatives exist for
    ablation. ``k-hot`` requires 2 <= k <= num_classes since a single-hot
    vector would coincide with a training label.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if kind == "all-ones":
        return ConfoundingLabel(np.ones(num_classes), "all-ones")
    if kind == "all-zeros":
        return ConfoundingLabel(np.zeros(num_classes), "all-zeros")
    if kind == "k-hot":
        if k is None or not (2 <= k <= num_classes):
            raise ValueError("k-hot requires 2 <= k <= num_classes")
        rng = np.random.default_rng(seed)
        vec = np.zeros(num_classes)
        vec[rng.choice(num_classes, size=k, replace=False)] = 1.0
        return ConfoundingLabel(vec, f"k-hot-{k}-seed{seed}")
    raise ValueError(f"unknown confounding label kind {kind!r}")


def bce_confounding_loss(logits, label) -> Tensor:
    """Mean binary cross-entropy between sigmoid(logits) and the label.

    Accepts (N,) or (batch, N) logits; evaluated in saturating form, so
    finite logits never produce a non-finite loss.
    """
    t = as_tensor(logits)
    vec = label.vector if isinstance(label, ConfoundingLabel) else np.asarray(label, dtype=np.float64)
    if t.data.ndim == 1:
        targets = vec
    elif t.data.ndim == 2:
        targets = np.broadcast_to(vec, t.data.shape)
    else:
        targets = vec  # let the op report the shape mismatch
    return bce_with_logits(t, targets)


@dataclass
class FeatureSet:
    """A batch of per-sample feature vectors with row-level provenance."""

    values: np.ndarray               # (n, P)
    sample_ids: np.ndarray           # (n,) int
    anomaly_labels: np.ndarray       # (n,) int in {0, 1, -1}
    tags: list                       # source tag per row

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def subset(self, indices) -> "FeatureSet":
        idx = np.asarray(indices)
        return FeatureSet(self.values[idx], self.sample_ids[idx], self.anomaly_labels[idx],
                          [self.tags[i] for i in idx])

    def with_anomaly_label(self, label: int) -> "FeatureSet":
        return FeatureSet(self.values, self.sample_ids,
                          np.full(len(self), label, dtype=np.int64),
                          list(self.tags))


def unlabeled_features(values: np.ndarray, source_tag: str) -> FeatureSet:
    """Rows 0..n-1 of one source, before a detection split labels them."""
    n = len(values)
    return FeatureSet(values, np.arange(n), np.full(n, UNLABELED, dtype=np.int64),
                      [source_tag] * n)


def concat_features(sets) -> FeatureSet:
    sets = list(sets)
    dims = {fs.dim for fs in sets}
    if len(dims) != 1:
        raise FeatureError(f"cannot concatenate feature sets of dims {sorted(dims)}")
    return FeatureSet(
        np.concatenate([fs.values for fs in sets]),
        np.concatenate([fs.sample_ids for fs in sets]),
        np.concatenate([fs.anomaly_labels for fs in sets]),
        [t for fs in sets for t in fs.tags],
    )


def extract_gradient_features(model, images: np.ndarray, label: ConfoundingLabel,
                              source_tag: str = "") -> FeatureSet:
    """Per-parameter-set squared gradient norms of the confounding loss.

    Samples are scored ``CHUNK_SIZE`` at a time. Each chunk runs one
    forward pass with the parameters held constant and one backward pass
    of the loss summed over the chunk (the mean BCE scaled by the chunk
    length). With g_i the gradient at a layer's pre-activation for sample
    i and a_i the layer's input, the features of sample i are:

    - conv weight: ||g_i cols_i^T||_F^2, cols_i the im2col columns of a_i
    - conv bias: ||sum_p g_i[:, p]||^2, summed over output positions p
    - dense weight: ||a_i||^2 * ||g_i||^2
    - dense bias: ||g_i||^2
    """
    frozen = model.frozen()
    values = map_blocks(lambda chunk: _chunk_features(frozen, chunk, label), images, CHUNK_SIZE)
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if len(bad):
        raise FeatureError(f"non-finite gradient feature for sample {bad[0]} ({source_tag})")
    return unlabeled_features(values, source_tag)


def _chunk_features(model, chunk: np.ndarray, label: ConfoundingLabel) -> np.ndarray:
    """Features of one chunk; its graph is freed on return, before the next
    chunk builds its own."""
    taps = []
    logits, _ = model.forward(chunk, taps=taps)
    grads = backward(bce_confounding_loss(logits, label) * float(len(chunk)))
    norms = [sq for tap in taps for sq in _per_sample_sq_norms(tap, grads[tap.pre])]
    return np.stack(norms, axis=1)


def _per_sample_sq_norms(tap, g: np.ndarray):
    """Squared norms of each sample's weight and bias gradients for one layer."""
    if tap.inputs.ndim == 3:  # conv: g (B, cout, P), columns (B, F, P)
        g = g.reshape(len(g), g.shape[1], -1)
        dw = np.matmul(g, tap.inputs.transpose(0, 2, 1))
        db = g.sum(axis=2)
        return (dw * dw).sum(axis=(1, 2)), (db * db).sum(axis=1)
    g2 = (g * g).sum(axis=1)
    return (tap.inputs * tap.inputs).sum(axis=1) * g2, g2


def extract_activation_features(model, images: np.ndarray, source_tag: str = "") -> FeatureSet:
    """Per-layer L2 norms of the post-nonlinearity outputs (forward only)."""
    frozen = model.frozen()

    def layer_norms(block):
        return np.stack([np.sqrt((a.data.reshape(len(a.data), -1) ** 2).sum(axis=1))
                         for a in frozen.forward(block)[1]], axis=1)

    return unlabeled_features(map_blocks(layer_norms, images, FORWARD_BLOCK), source_tag)


FEATURE_MODES = ("gradient", "activation")


def feature_names(model, mode: str) -> list:
    """What each column of a mode measures: a parameter set for gradient
    features, a layer for activation features."""
    if mode == "gradient":
        return model.param_names()
    return [f"layer{i}" for i in range(len(model.arch.layers))]


def extract_features(model, images: np.ndarray, mode: str, label: ConfoundingLabel,
                     source_tag: str = "") -> FeatureSet:
    """Features of one mode; activation features do not use ``label``."""
    if mode == "gradient":
        return extract_gradient_features(model, images, label, source_tag)
    if mode == "activation":
        return extract_activation_features(model, images, source_tag)
    raise ValueError(f"unknown feature mode {mode!r}")


def norm_summary(values: np.ndarray, tags) -> dict:
    """Exact order statistics (min, quartiles, max) per feature per tag."""
    values = np.asarray(values, dtype=np.float64)
    tags = list(tags)
    if len(values) == 0 or len(tags) != len(values):
        raise ValueError("norm_summary needs one tag per nonempty row")
    summary: dict = {}
    for tag in dict.fromkeys(tags):  # first-seen order
        rows = values[[i for i, t in enumerate(tags) if t == tag]]
        if len(rows) == 0:
            raise ValueError(f"empty group {tag!r}")
        stats = []
        for j in range(values.shape[1]):
            col = rows[:, j]
            q1, med, q3 = np.quantile(col, [0.25, 0.5, 0.75])
            stats.append((float(col.min()), float(q1), float(med), float(q3), float(col.max())))
        summary[tag] = stats
    return summary


CSV_FIXED_COLUMNS = ("sample_id", "anomaly_label", "source_tag")


def save_features_csv(fs: FeatureSet, path) -> None:
    """Write ``sample_id,anomaly_label,source_tag,f0..f{P-1}`` rows; floats
    carry 17 significant digits so parse -> serialize is byte-identical."""
    with storage.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(CSV_FIXED_COLUMNS) + [f"f{j}" for j in range(fs.dim)])
        for i in range(len(fs)):
            row = [str(int(fs.sample_ids[i])), str(int(fs.anomaly_labels[i])), fs.tags[i]]
            row += [storage.fmt_float(v) for v in fs.values[i]]
            writer.writerow(row)


def load_features_csv(path) -> FeatureSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header[:3]) != CSV_FIXED_COLUMNS:
            raise FeatureError(f"{path}: not a feature CSV (header {header})")
        dim = len(header) - 3
        ids, labels, tags, rows = [], [], [], []
        for row in reader:
            if len(row) != dim + 3:
                raise FeatureError(f"{path}: row with {len(row)} fields, expected {dim + 3}")
            ids.append(int(row[0]))
            labels.append(int(row[1]))
            tags.append(row[2])
            rows.append([float(v) for v in row[3:]])
    values = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if len(bad):
        raise FeatureError(f"{path}: non-finite value in row {bad[0]}")
    return FeatureSet(values, np.array(ids), np.array(labels, dtype=np.int64), tags)
