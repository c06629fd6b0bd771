"""Small image classifiers built on the autodiff engine.

Architectures are declarative layer lists that compile to parameter sets
with a fixed ordinal order; the order is part of the checkpoint contract
because downstream gradient features are indexed by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import storage
from .autodiff import (
    ShapeError,
    Tensor,
    as_tensor,
    backward,
    conv2d,
    im2col,
    matmul,
    maxpool2d,
    relu,
    reshape,
    sgd_step,
    softmax_cross_entropy,
)

CHECKPOINT_MAGIC = b"GGATE"

# Samples per forward pass of Classifier.logits (and so of predict, accuracy
# and msp_scores) and of gradfeat.extract_activation_features.
FORWARD_BLOCK = 256

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
    """Ordered layer descriptors plus input shape and class count."""

    input_shape: tuple
    layers: tuple
    num_classes: int

    def validate(self) -> list:
        """Compose layer shapes; returns per-layer output shapes."""
        shape = tuple(self.input_shape)
        if len(shape) != 3 or any(s <= 0 for s in shape):
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
        input_shape = tuple(int(s) for s in parts[0].split(":")[1:])
        num_classes = int(parts[-1].split(":")[1])
        layers = []
        for part in parts[1:-1]:
            fields = part.split(":")
            if fields[0] == "conv":
                layers.append(ConvLayer(int(fields[1]), int(fields[2]), int(fields[3]),
                                        int(fields[4]), fields[5], int(fields[6])))
            elif fields[0] == "dense":
                layers.append(DenseLayer(int(fields[1]), fields[2]))
            else:
                raise ValueError(f"unknown layer kind {fields[0]!r}")
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
    """One trainable tensor (a layer's weight or bias) with a stable ordinal."""

    name: str
    tensor: Tensor
    ordinal: int


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

    inputs: np.ndarray  # conv: im2col columns (B, F, P); dense: activations (B, F)
    pre: Tensor         # the pre-activation node, which requires a gradient


class Classifier:
    """Layer sequence + parameter store + frozen input normalization."""

    def __init__(self, arch: ArchSpec, params: list, norm_mean=None, norm_std=None,
                 seed: int = 0, val_accuracy: float | None = None):
        self.arch = arch
        self.params = params
        c = arch.input_shape[0]
        self.norm_mean = np.zeros(c) if norm_mean is None else np.asarray(norm_mean, dtype=np.float64)
        self.norm_std = np.ones(c) if norm_std is None else np.asarray(norm_std, dtype=np.float64)
        self.seed = seed
        self.val_accuracy = val_accuracy

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    def param_names(self) -> list:
        return [ps.name for ps in self.params]

    def set_normalization(self, images: np.ndarray) -> None:
        """Freeze per-channel mean/std computed over a training set."""
        mean = images.mean(axis=(0, 2, 3))
        std = images.std(axis=(0, 2, 3))
        self.norm_mean = mean
        self.norm_std = np.maximum(std, 1e-8)

    def forward(self, x, taps: list | None = None):
        """Map raw pixels in [0,1] to (logits, post-activation layer outputs).

        Normalization happens inside the graph, so gradients with respect to
        the raw pixels include the normalization Jacobian.

        When ``taps`` is a list, one :class:`LayerTap` per layer is appended
        to it and every pre-activation node requires a gradient. A backward
        pass then yields the gradient at each pre-activation, from which
        per-example parameter gradients follow. Call it on :meth:`frozen`,
        so that no summed parameter gradient is formed on the way.
        """
        t = as_tensor(x)
        if t.data.ndim != 4 or t.data.shape[1:] != self.arch.input_shape:
            raise ShapeError("forward", t.data.shape, ("batch",) + self.arch.input_shape)
        batch = t.data.shape[0]
        c, h, w = self.arch.input_shape
        mean = np.broadcast_to(self.norm_mean[:, None, None], (c, h, w))
        inv_std = np.broadcast_to((1.0 / self.norm_std)[:, None, None], (c, h, w))
        t = (t - Tensor(mean.copy())) * Tensor(inv_std.copy())

        activations = []
        it = iter(self.params)
        flattened = False
        for layer in self.arch.layers:
            weight, bias = next(it).tensor, next(it).tensor
            if isinstance(layer, ConvLayer):
                pre = conv2d(t, weight, bias, stride=layer.stride, padding=layer.padding)
            else:
                if not flattened:
                    t = reshape(t, (batch, t.data.size // batch))
                    flattened = True
                pre = matmul(t, weight) + bias
            if taps is not None:
                if isinstance(layer, ConvLayer):
                    inputs = im2col(t.data, layer.kernel, layer.kernel,
                                    layer.stride, layer.padding)[0]
                else:
                    inputs = t.data
                if not pre.requires_grad:  # nothing upstream needs a gradient
                    pre = Tensor(pre.data, requires_grad=True)
                taps.append(LayerTap(inputs, pre))
            act = relu(pre) if layer.activation == "relu" else pre
            activations.append(act)
            t = act
            if isinstance(layer, ConvLayer) and layer.pool:
                t = maxpool2d(t, layer.pool)
        return t, activations

    def frozen(self) -> "Classifier":
        """This classifier with each parameter a constant over the same
        ndarray (no copy), so graphs built through it carry no parameter
        gradient."""
        params = [ParamSet(ps.name, Tensor(ps.tensor.data), ps.ordinal) for ps in self.params]
        return Classifier(self.arch, params, self.norm_mean, self.norm_std,
                          self.seed, self.val_accuracy)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Logits of the frozen classifier, ``FORWARD_BLOCK`` samples per
        forward pass."""
        frozen = self.frozen()
        return map_blocks(lambda block: frozen.forward(block)[0].data, x, FORWARD_BLOCK)

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)


def build_classifier(arch: ArchSpec, seed: int) -> Classifier:
    """Initialize parameters with fan-in-scaled uniform draws from one
    seeded generator, in ordinal order."""
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
            params.append(ParamSet(f"layer{i}.{suffix}", Tensor(data, requires_grad=True),
                                   len(params)))
        in_shape = shapes[i]
    return Classifier(arch, params, seed=seed)


def map_blocks(fn, x: np.ndarray, block: int) -> np.ndarray:
    """``fn`` applied to consecutive ``block``-row slices of ``x``, its results
    stacked along the first axis; ``fn`` must treat rows independently."""
    return np.concatenate([fn(x[start:start + block]) for start in range(0, len(x), block)])


def accuracy(model: Classifier, images: np.ndarray, labels: np.ndarray) -> float:
    return int((model.predict(images) == labels).sum()) / len(labels)


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
    rng = np.random.default_rng(cfg.seed)
    params = [ps.tensor for ps in model.params]
    velocity = [np.zeros_like(p.data) for p in params]
    n = len(train_set.labels)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            logits, _ = model.forward(train_set.images[idx])
            loss = softmax_cross_entropy(logits, train_set.labels[idx])
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss {value} at epoch {epoch} batch {b}")
            losses.append(value)
            sgd_step(params, backward(loss), velocity, cfg.learning_rate, cfg.momentum,
                     cfg.weight_decay)
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


def load_checkpoint(path) -> Classifier:
    """Rebuild a classifier bit-exactly; rejects records whose names or
    shapes disagree with the stored architecture."""
    metadata, records = storage.read_container(path, CHECKPOINT_MAGIC)
    arch = ArchSpec.from_string(metadata["arch"])
    model = build_classifier(arch, seed=int(metadata["seed"]))
    if len(records) != len(model.params):
        raise storage.RecordError(
            f"expected {len(model.params)} parameter records, found {len(records)}")
    for ps, (name, arr) in zip(model.params, records):
        if name != ps.name:
            raise storage.RecordError(f"record {name!r} where {ps.name!r} expected")
        if arr.shape != ps.tensor.data.shape:
            raise storage.RecordError(
                f"{name}: shape {arr.shape} != expected {ps.tensor.data.shape}")
        ps.tensor.data = arr.copy()
    model.norm_mean = np.array([float(v) for v in metadata["norm_mean"].split(",")])
    model.norm_std = np.array([float(v) for v in metadata["norm_std"].split(",")])
    model.val_accuracy = float(metadata["val_accuracy"]) if metadata["val_accuracy"] else None
    return model
