"""Small classifiers, of images or of feature rows, built on the autodiff engine.

Architectures are declarative layer lists that compile to parameter sets
in a fixed order; the order is part of the checkpoint contract because
downstream gradient features are indexed by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import storage
from .autodiff import (
    Tensor,
    backward,
    conv2d,
    matmul,
    maxpool2d,
    normalize,
    relu,
    reshape,
    sgd_step,
    softmax_cross_entropy,
)

CHECKPOINT_MAGIC = b"GGATE"

# Rows per forward pass of Classifier.logits (and so of predict, accuracy and
# msp_scores) and of activation features, and per block of every attack. The
# logits of 990 rows (small CNN, OpenBLAS on one thread, 2-CPU x86-64 box)
# took about 30 ms in 64-row blocks, 80 in 256-row.
FORWARD_BLOCK = 64

_ACTIVATIONS = ("relu", "none")


class ArchError(ValueError):
    """Architecture layers do not compose; carries the first offending index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"layer {index}: {message}")
        self.index = index


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConvLayer:
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 1
    activation: str = "relu"
    pool: int = 0  # 0 disables pooling

    def to_string(self) -> str:
        return (f"conv:{self.out_channels}:{self.kernel}:{self.stride}:"
                f"{self.padding}:{self.activation}:{self.pool}")


@dataclass(frozen=True)
class DenseLayer:
    units: int
    activation: str = "none"

    def to_string(self) -> str:
        return f"dense:{self.units}:{self.activation}"


@dataclass(frozen=True)
class ArchSpec:
    """Ordered layer descriptors, an input shape of (C, H, W) or (d,), and a class count."""

    input_shape: tuple
    layers: tuple
    num_classes: int

    def validate(self) -> list:
        """Compose layer shapes; returns per-layer output shapes."""
        shape = tuple(self.input_shape)
        if len(shape) not in (1, 3) or any(s <= 0 for s in shape):
            raise ArchError(-1, f"bad input shape {shape}")
        shapes = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, ConvLayer):
                if len(shape) != 3:
                    raise ArchError(i, "conv after flatten")
                c, h, w = shape
                if layer.out_channels <= 0 or layer.kernel <= 0 or layer.stride <= 0:
                    raise ArchError(i, "non-positive conv geometry")
                oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
                ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
                if oh < 1 or ow < 1:
                    raise ArchError(i, f"kernel {layer.kernel} too large for {h}x{w}")
                if layer.pool:
                    if oh < layer.pool or ow < layer.pool:
                        raise ArchError(i, f"pool {layer.pool} too large for {oh}x{ow}")
                    oh //= layer.pool
                    ow //= layer.pool
                shape = (layer.out_channels, oh, ow)
            elif isinstance(layer, DenseLayer):
                if layer.units <= 0:
                    raise ArchError(i, "non-positive units")
                shape = (layer.units,)
            else:
                raise ArchError(i, f"unknown layer kind {type(layer).__name__}")
            if layer.activation not in _ACTIVATIONS:
                raise ArchError(i, f"unknown activation {layer.activation!r}")
            shapes.append(shape)
        if not self.layers or not isinstance(self.layers[-1], DenseLayer):
            raise ArchError(len(self.layers) - 1, "final layer must be dense")
        if self.layers[-1].units != self.num_classes:
            raise ArchError(len(self.layers) - 1,
                            f"final units {self.layers[-1].units} != classes {self.num_classes}")
        return shapes

    def to_string(self) -> str:
        parts = ["in:" + ":".join(str(s) for s in self.input_shape)]
        parts += [layer.to_string() for layer in self.layers]
        parts.append(f"classes:{self.num_classes}")
        return "|".join(parts)

    @staticmethod
    def from_string(text: str) -> "ArchSpec":
        parts = text.split("|")
        if len(parts) < 3 or not parts[0].startswith("in:") or not parts[-1].startswith("classes:"):
            raise ValueError(f"malformed arch string {text!r}")
        fields = [part.split(":") for part in parts]
        for f in fields[1:]:
            want = {"conv": 7, "dense": 3, "classes": 2}.get(f[0], len(f))
            if len(f) != want:
                raise ValueError(f"arch part {':'.join(f)!r} has {len(f)} fields, not {want}")
        input_shape = tuple(int(s) for s in fields[0][1:])
        num_classes = int(fields[-1][1])
        layers = []
        for f in fields[1:-1]:
            if f[0] == "conv":
                layers.append(ConvLayer(int(f[1]), int(f[2]), int(f[3]), int(f[4]), f[5], int(f[6])))
            elif f[0] == "dense":
                layers.append(DenseLayer(int(f[1]), f[2]))
            else:
                raise ValueError(f"unknown layer kind {f[0]!r}")
        arch = ArchSpec(input_shape, tuple(layers), num_classes)
        arch.validate()
        return arch


def small_cnn(num_classes: int = 10, input_shape=(1, 16, 16)) -> ArchSpec:
    """Two conv+pool blocks into two dense layers; 8 parameter sets."""
    return ArchSpec(
        input_shape=tuple(input_shape),
        layers=(
            ConvLayer(8, 3, padding=1, activation="relu", pool=2),
            ConvLayer(16, 3, padding=1, activation="relu", pool=2),
            DenseLayer(64, activation="relu"),
            DenseLayer(num_classes),
        ),
        num_classes=num_classes,
    )


def mlp(num_classes: int = 10, input_shape=(1, 16, 16), hidden: int = 64) -> ArchSpec:
    return ArchSpec(
        input_shape=tuple(input_shape),
        layers=(DenseLayer(hidden, activation="relu"), DenseLayer(num_classes)),
        num_classes=num_classes,
    )


@dataclass
class ParamSet:
    """One parameter tensor (a layer's weight or bias)."""

    name: str
    tensor: Tensor


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("epochs must be >= 0, batch_size and learning_rate positive")
        if not (0.0 <= self.momentum < 1.0) or self.weight_decay < 0:
            raise ValueError("momentum in [0,1), weight_decay >= 0")


@dataclass(frozen=True)
class LayerTap:
    """What one layer's per-example parameter gradients are built from."""

    inputs: np.ndarray  # conv: the (B, F, P) columns conv2d gathered; dense: layer input (B, F)
    pre: Tensor         # the pre-activation node, which requires a gradient


class Classifier:
    """Layer sequence + constant parameters + fixed input normalization."""

    def __init__(self, arch: ArchSpec, params: list, norm_mean=None, norm_std=None,
                 seed: int = 0, val_accuracy: float | None = None):
        self.arch = arch
        self.params = params
        c = arch.input_shape[0]
        self.freeze_normalization(np.zeros(c) if norm_mean is None else norm_mean,
                                  np.ones(c) if norm_std is None else norm_std)
        self.seed = seed
        self.val_accuracy = val_accuracy

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    def param_names(self) -> list:
        return [ps.name for ps in self.params]

    def freeze_normalization(self, mean, std) -> None:
        """Fix the per-channel input mean and std, and build once the
        input-shaped shift and scale every :meth:`forward` normalizes with."""
        self.norm_mean = np.asarray(mean, dtype=np.float64)
        self.norm_std = np.asarray(std, dtype=np.float64)
        shape = self.arch.input_shape
        per_channel = (-1,) + (1,) * (len(shape) - 1)
        self._shift = np.broadcast_to(self.norm_mean.reshape(per_channel), shape).copy()
        self._scale = np.broadcast_to((1.0 / self.norm_std).reshape(per_channel), shape).copy()

    def set_normalization(self, x: np.ndarray) -> None:
        """Freeze the mean and std (floored at 1e-8) of each input channel,
        axis 1, over a training set of images or of (n, d) feature rows."""
        axes = (0,) + tuple(range(2, x.ndim))
        self.freeze_normalization(x.mean(axis=axes), np.maximum(x.std(axis=axes), 1e-8))

    def forward(self, x, taps: list | None = None):
        """Map a batch of raw pixels in [0,1], or of feature rows, to (logits,
        per-layer pre-activations); another input shape raises ShapeError.

        Normalization happens inside the graph, so gradients with respect to
        the raw pixels include the normalization Jacobian. Each layer runs
        its conv or dense op, then its pool, then its activation: max
        commutes with relu, so pooling first gives the same values while
        relu and its mask run on the pooled map. The second item holds
        each layer's output before pool and activation, at full resolution.

        When ``taps`` is a list, one :class:`LayerTap` per layer is appended
        to it and every pre-activation node requires a gradient. A backward
        pass then yields the gradient at each pre-activation, from which
        per-example parameter gradients follow.
        """
        t = normalize(x, self._shift, self._scale)

        pres = []
        it = iter(self.params)
        for layer in self.arch.layers:
            weight, bias = next(it).tensor, next(it).tensor
            columns = [] if taps is not None else None  # filled by a conv layer only
            if isinstance(layer, ConvLayer):
                pre = conv2d(t, weight, bias, stride=layer.stride, padding=layer.padding,
                             columns=columns)
            else:
                if t.data.ndim > 2:  # the first dense layer flattens an image
                    t = reshape(t, (len(t.data), math.prod(t.data.shape[1:])))
                pre = matmul(t, weight) + bias
            if taps is not None:
                if not pre.requires_grad:  # nothing upstream needs a gradient
                    pre = Tensor(pre.data, requires_grad=True)
                taps.append(LayerTap(columns[0] if columns else t.data, pre))
            pres.append(pre)
            t = maxpool2d(pre, layer.pool) if isinstance(layer, ConvLayer) and layer.pool else pre
            if layer.activation == "relu":
                t = relu(t)
        return t, pres

    def trainable(self) -> "Classifier":
        """This classifier with each parameter a requires-grad Tensor over the
        same ndarray (no copy): graphs built through it carry parameter
        gradients, and an in-place step on them updates this classifier."""
        params = [ParamSet(ps.name, Tensor(ps.tensor.data, requires_grad=True))
                  for ps in self.params]
        return Classifier(self.arch, params, self.norm_mean, self.norm_std,
                          self.seed, self.val_accuracy)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Logits, ``FORWARD_BLOCK`` rows per forward pass (see :func:`map_blocks`)."""
        return map_blocks(lambda block: self.forward(block)[0].data, FORWARD_BLOCK, x)

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)


def build_classifier(arch: ArchSpec, seed: int) -> Classifier:
    """Initialize parameters with fan-in-scaled uniform draws from one
    seeded generator, in parameter order."""
    shapes = arch.validate()
    rng = np.random.default_rng(seed)
    params = []
    in_shape = tuple(arch.input_shape)
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, ConvLayer):
            fan_in = in_shape[0] * layer.kernel * layer.kernel
            w_shape = (layer.out_channels, in_shape[0], layer.kernel, layer.kernel)
            b_shape = (layer.out_channels,)
        else:
            fan_in = int(np.prod(in_shape))
            w_shape = (fan_in, layer.units)
            b_shape = (layer.units,)
        bound = 1.0 / np.sqrt(fan_in)
        for suffix, shape in (("weight", w_shape), ("bias", b_shape)):
            data = rng.uniform(-bound, bound, size=shape)
            params.append(ParamSet(f"layer{i}.{suffix}", Tensor(data)))
        in_shape = shapes[i]
    return Classifier(arch, params, seed=seed)


def map_blocks(fn, block: int, *arrays) -> np.ndarray:
    """``fn`` applied to consecutive ``block``-row slices of the row-aligned
    ``arrays`` (one slice of each, as ``fn``'s arguments), its results
    stacked along the first axis; ``fn`` must treat rows independently. A
    shorter slice (a tail, or the one call an empty set makes) is zero-padded
    to ``block`` rows and the padded rows' results dropped. BLAS picks its
    kernel, and so a row's rounding, by matrix shape, so a row's result then
    depends only on the row and ``block``, not on the rows it came with."""
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ValueError(f"map_blocks: row counts {[len(a) for a in arrays]} differ")
    results = []
    for start in range(0, max(n, 1), block):
        rows = [a[start:start + block] for a in arrays]
        k = len(rows[0])
        if k < block:
            rows = [np.concatenate([r, np.zeros((block - k,) + r.shape[1:], r.dtype)])
                    for r in rows]
        results.append(fn(*rows)[:k])
    return np.concatenate(results)


def accuracy(model: Classifier, images: np.ndarray, labels: np.ndarray) -> float:
    if len(labels) == 0:
        raise ValueError("accuracy of an empty set of images and labels")
    return int((model.predict(images) == labels).sum()) / len(labels)


def sgd_epochs(params: list, batch_loss, n: int, batch_size: int, seed, epochs: int,
               lr: float, momentum: float, weight_decay: float):
    """Minibatch SGD with momentum over ``n`` samples, one epoch per item.

    Each epoch visits the samples in a fresh permutation from a generator
    seeded with ``seed``, ``batch_size`` at a time; ``batch_loss(idx)``
    returns the scalar loss Tensor of the samples ``idx``, and one
    :func:`sgd_step` follows each batch. Yields the epoch's batch losses;
    a caller may stop early. Raises TrainingError on a non-finite loss.
    """
    rng = np.random.default_rng(seed)
    velocity = [np.zeros_like(p.data) for p in params]
    for epoch in range(epochs):
        perm = rng.permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, batch_size)):
            loss = batch_loss(perm[start:start + batch_size])
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss {value} at epoch {epoch} batch {b}")
            losses.append(value)
            sgd_step(params, backward(loss), velocity, lr, momentum, weight_decay)
        loss = None  # the last batch's graph, freed before the caller's epoch-end passes
        yield losses


def train_classifier(model: Classifier, train_set, val_set, cfg: TrainConfig):
    """Minibatch SGD with momentum on softmax cross-entropy.

    Returns (model, history) where history has one entry per epoch with
    train loss and train/val accuracy. With epochs == 0 the model is left
    untouched and the history is empty.
    """
    history: list = []
    if cfg.epochs == 0:
        return model, history
    model.set_normalization(train_set.images)
    live = model.trainable()

    def batch_loss(idx):
        return softmax_cross_entropy(live.forward(train_set.images[idx])[0],
                                     train_set.labels[idx])

    epochs = sgd_epochs([ps.tensor for ps in live.params], batch_loss, len(train_set.labels),
                        cfg.batch_size, cfg.seed, cfg.epochs, lr=cfg.learning_rate,
                        momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    for epoch, losses in enumerate(epochs):
        history.append({
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "train_accuracy": accuracy(model, train_set.images, train_set.labels),
            "val_accuracy": accuracy(model, val_set.images, val_set.labels),
        })
    model.val_accuracy = history[-1]["val_accuracy"]
    return model, history


def save_checkpoint(model: Classifier, path) -> None:
    metadata = {
        "arch": model.arch.to_string(),
        "classes": model.num_classes,
        "seed": model.seed,
        "norm_mean": ",".join(storage.fmt_float(v) for v in model.norm_mean),
        "norm_std": ",".join(storage.fmt_float(v) for v in model.norm_std),
        "val_accuracy": "" if model.val_accuracy is None else storage.fmt_float(model.val_accuracy),
    }
    records = [(ps.name, ps.tensor.data) for ps in model.params]
    storage.write_container(path, CHECKPOINT_MAGIC, metadata, records)


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


# How load_checkpoint reads each metadata value; a ValueError marks a malformed one.
_METADATA_PARSERS = {"arch": ArchSpec.from_string, "seed": int, "norm_mean": _floats,
                     "norm_std": _floats, "val_accuracy": lambda v: float(v) if v else None}


def load_checkpoint(path) -> Classifier:
    """Rebuild a classifier bit-exactly; rejects missing or malformed metadata,
    records whose names or shapes disagree with the stored architecture,
    non-finite parameters, and normalization stats that do not hold one
    value per input channel, are non-finite or, for the std, are not > 0."""
    metadata, records = storage.read_container(path, CHECKPOINT_MAGIC)
    meta = {}
    for key, parse in _METADATA_PARSERS.items():
        if key not in metadata:
            raise storage.RecordError(f"{path}: checkpoint metadata lacks {key!r}")
        try:
            meta[key] = parse(metadata[key])
        except ValueError as exc:
            raise storage.RecordError(f"{path}: checkpoint metadata {key!r} = "
                                      f"{metadata[key]!r}: {exc}") from None
    model = build_classifier(meta["arch"], seed=meta["seed"])
    if len(records) != len(model.params):
        raise storage.RecordError(
            f"expected {len(model.params)} parameter records, found {len(records)}")
    for ps, (name, arr) in zip(model.params, records):
        if name != ps.name:
            raise storage.RecordError(f"record {name!r} where {ps.name!r} expected")
        if arr.shape != ps.tensor.data.shape:
            raise storage.RecordError(
                f"{name}: shape {arr.shape} != expected {ps.tensor.data.shape}")
        if not np.isfinite(arr).all():
            raise storage.RecordError(f"{name}: non-finite parameter values")
        ps.tensor.data = arr.copy()
    for key, low in (("norm_mean", -np.inf), ("norm_std", 0.0)):
        stat = meta[key]
        if stat.shape != model.arch.input_shape[:1] or not (np.isfinite(stat) & (stat > low)).all():
            raise storage.RecordError(f"{key} must hold one finite value > {low} per input "
                                      f"channel ({model.arch.input_shape[0]}), got {metadata[key]}")
    model.freeze_normalization(meta["norm_mean"], meta["norm_std"])
    model.val_accuracy = meta["val_accuracy"]
    return model
