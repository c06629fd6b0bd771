"""Gradient-norm input representations elicited by confounding labels.

A confounding label is a target vector the classifier never saw in
training (the default is all ones over the classes). Scoring a sample
means computing binary cross-entropy between the sample's logits and the
confounding label, backpropagating, and recording the squared L2 norm of
the gradient for every parameter set, in the classifier's order. Inputs
the model represents poorly need larger parameter updates, so their
gradient norms sit in visibly different ranges than training-like inputs.

The per-sample gradient norms of a whole chunk of samples come from one
batched backward pass: samples do not interact in the forward pass, so
the gradient at each layer's pre-activation, for a loss summed over the
chunk, holds every sample's own gradient, and each parameter set's
per-sample gradient is a product of it with the layer's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import storage
from .autodiff import Tensor, as_tensor, backward, bce_with_logits
from .nn import FORWARD_BLOCK, map_blocks

UNLABELED = -1
# Rows per batched backward pass; map_blocks zero-pads a shorter chunk (a
# set's tail, a small request) to it. Throughput on 2,051 glyphs (small CNN,
# OpenBLAS on one thread, one core of a 2-CPU x86-64 box; best of 7): 3,540
# samples/s at 4, 7,090 at 8, 8,350 at 16. Past 8 a small request pays for
# more padded rows and the graph grows by about 0.2 MB per row.
CHUNK_SIZE = 8


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
    # each row of a (batch, N) matrix takes the label; the op reports a mismatch
    targets = np.broadcast_to(vec, t.data.shape) if t.data.ndim == 2 else vec
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

    Samples are scored in ``CHUNK_SIZE``-row chunks through
    :func:`~gradgate.nn.map_blocks`, which zero-pads a short chunk. Each
    chunk runs one forward pass with the parameters held constant and one
    backward pass of the loss summed over its rows (the mean BCE scaled by
    the chunk length); rows do not interact, so a padded row changes no
    other row's gradient. With g_i the gradient at a layer's pre-activation
    for sample i and a_i the layer's input, the features of sample i are:

    - conv weight: ||g_i cols_i^T||_F^2, cols_i the im2col columns of a_i
    - conv bias: ||sum_p g_i[:, p]||^2, summed over output positions p
    - dense weight: ||a_i||^2 * ||g_i||^2
    - dense bias: ||g_i||^2
    """
    values = map_blocks(lambda chunk: _chunk_features(model, chunk, label), CHUNK_SIZE, images)
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if len(bad):
        raise FeatureError(f"non-finite gradient feature for sample {bad[0]} ({source_tag})")
    return unlabeled_features(values, source_tag)


def _chunk_features(model, chunk: np.ndarray, label: ConfoundingLabel) -> np.ndarray:
    """Features of the rows of one chunk; its graph is freed on return,
    before the next chunk builds its own."""
    taps = []
    logits, _ = model.forward(chunk, taps=taps)
    grads = backward(bce_confounding_loss(logits, label) * float(len(chunk)))
    norms = [sq for tap in taps for sq in _per_sample_sq_norms(tap, grads[tap.pre])]
    return np.stack(norms, axis=1)


def _per_sample_sq_norms(tap, g: np.ndarray):
    """Squared norms of each sample's weight and bias gradients for one layer."""
    if tap.inputs.ndim == 3:  # conv: g (B, cout, P), columns (B, F, P)
        # copied to C order, so numpy hands each sample's product to BLAS (about
        # twice as fast on a 4-sample tap) and the layout does not reach the features
        g = np.ascontiguousarray(g).reshape(len(g), g.shape[1], -1)
        dw = np.matmul(g, np.ascontiguousarray(tap.inputs).transpose(0, 2, 1))
        db = g.sum(axis=2)
        return (dw * dw).sum(axis=(1, 2)), (db * db).sum(axis=1)
    g2 = (g * g).sum(axis=1)
    return (tap.inputs * tap.inputs).sum(axis=1) * g2, g2


def extract_activation_features(model, images: np.ndarray, source_tag: str = "") -> FeatureSet:
    """Per-layer L2 norms of the post-nonlinearity outputs (forward only),
    before pooling: ``np.maximum(pre, 0.0)``, the op of ``autodiff.relu``,
    applied to each relu layer's full-resolution pre-activation."""
    relu_layers = [layer.activation == "relu" for layer in model.arch.layers]

    def layer_norms(block):
        # C order, so the norms do not depend on how the conv outputs are stored
        flat = [np.ascontiguousarray(np.maximum(pre.data, 0.0) if relu else pre.data)
                .reshape(len(pre.data), math.prod(pre.data.shape[1:]))
                for pre, relu in zip(model.forward(block)[1], relu_layers)]
        return np.stack([np.sqrt((f ** 2).sum(axis=1)) for f in flat], axis=1)

    return unlabeled_features(map_blocks(layer_norms, FORWARD_BLOCK, images), source_tag)


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


def norm_summary(values: np.ndarray) -> np.ndarray:
    """Exact order statistics of each column of one set's (n, P) values:
    the (5, P) rows min, q1, median, q3 and max."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("norm_summary of an empty set")
    return np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0)


FEATURE_MAGIC = b"GFEAT"


def save_features(fs: FeatureSet, path) -> None:
    """Write one set's features as a container: a ``values`` record and the
    set's ``source_tag``. Ids and labels are not stored, so only the rows
    :func:`unlabeled_features` makes can be saved."""
    tag = fs.tags[0] if fs.tags else ""
    if not (np.array_equal(fs.sample_ids, np.arange(len(fs))) and fs.tags == [tag] * len(fs)
            and np.all(fs.anomaly_labels == UNLABELED)):
        raise FeatureError("only the unlabeled rows 0..n-1 of one source can be saved")
    storage.write_container(path, FEATURE_MAGIC, {"source_tag": tag}, [("values", fs.values)])


def load_features(path) -> FeatureSet:
    """Read what :func:`save_features` wrote. Rejects another record layout,
    a missing source tag and a non-finite value."""
    metadata, records = storage.read_container(path, FEATURE_MAGIC)
    if "source_tag" not in metadata or [(n, a.ndim) for n, a in records] != [("values", 2)]:
        raise storage.RecordError(f"{path}: not one (n, P) values record with a source_tag")
    values = records[0][1]
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if len(bad):
        raise FeatureError(f"{path}: non-finite value in row {bad[0]}")
    return unlabeled_features(values, metadata["source_tag"])
