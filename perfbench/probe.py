"""Fixed-shape kernel probe of the autodiff ops the small CNN runs.

Each op runs on the shapes it sees in ``nn.small_cnn()`` at two batch sizes:
B=990, the attack batch (the whole test split), where every input needs a
gradient, and B=1, the gradient-feature batch, where the pixel input of
conv layer 0 is a constant. ``fwd_ms`` is the op call; ``bwd_ms`` is
``autodiff.backward`` from the op's output (reduced by ``tsum`` when it is
not already a scalar), so it includes one pass of ``tsum``'s broadcast.
Each figure is the median of several repeats.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from gradgate import autodiff, nn
from gradgate.autodiff import Tensor

REPEATS = {990: 5, 1: 200}


def _cases(batch: int, rng):
    """(name, make_inputs, op) per probed op; make_inputs builds fresh leaves."""
    first = batch == 1  # feature batch: the pixel input is a constant

    def leaf(shape, grad=True):
        return Tensor(rng.standard_normal(shape), requires_grad=grad)

    labels = np.arange(batch) % 10
    targets = np.ones((batch, 10))
    return [
        ("conv2d_l0", lambda: (leaf((batch, 1, 16, 16), not first), leaf((8, 1, 3, 3)), leaf(8)),
         lambda x, w, b: autodiff.conv2d(x, w, b, padding=1)),
        ("conv2d_l1", lambda: (leaf((batch, 8, 8, 8)), leaf((16, 8, 3, 3)), leaf(16)),
         lambda x, w, b: autodiff.conv2d(x, w, b, padding=1)),
        ("maxpool2d", lambda: (leaf((batch, 8, 16, 16)),), lambda x: autodiff.maxpool2d(x, 2)),
        ("dense", lambda: (leaf((batch, 256)), leaf((256, 64)), leaf(64)),
         lambda x, w, b: autodiff.matmul(x, w) + b),
        ("relu", lambda: (leaf((batch, 8, 16, 16)),), autodiff.relu),
        ("softmax_cross_entropy", lambda: (leaf((batch, 10)),),
         lambda z: autodiff.softmax_cross_entropy(z, labels)),
        ("bce_with_logits", lambda: (leaf((batch, 10)),),
         lambda z: autodiff.bce_with_logits(z, targets)),
    ]


def _time_op(make_inputs, op, repeats: int):
    fwd, bwd = [], []
    for _ in range(repeats):
        inputs = make_inputs()
        t0 = time.perf_counter()
        out = op(*inputs)
        t1 = time.perf_counter()
        root = out if out.data.size == 1 else autodiff.tsum(out)
        t2 = time.perf_counter()
        grads = autodiff.backward(root)
        t3 = time.perf_counter()
        if not all(np.all(np.isfinite(grads[x])) for x in inputs if x.requires_grad):
            raise RuntimeError("probe produced a non-finite gradient")
        fwd.append(t1 - t0)
        bwd.append(t3 - t2)
    return statistics.median(fwd) * 1e3, statistics.median(bwd) * 1e3


def conv_flops(batch: int, cin: int, cout: int, k: int, hw: int) -> int:
    """Counted multiply-adds (x2) of one conv forward with 'same' padding:
    the backward pass does the same count twice (weight and input grads)."""
    return 2 * batch * cout * cin * k * k * hw * hw


def run_probe(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    metrics = {}
    for batch in REPEATS:
        for name, make_inputs, op in _cases(batch, rng):
            fwd, bwd = _time_op(make_inputs, op, REPEATS[batch])
            metrics[f"autodiff.probe.{name}.b{batch}.fwd_ms"] = fwd
            metrics[f"autodiff.probe.{name}.b{batch}.bwd_ms"] = bwd
    flops = 3 * conv_flops(990, 8, 16, 3, 8)
    seconds = (metrics["autodiff.probe.conv2d_l1.b990.fwd_ms"]
               + metrics["autodiff.probe.conv2d_l1.b990.bwd_ms"]) / 1e3
    metrics["autodiff.probe.conv2d_l1.b990.gflops"] = flops / seconds / 1e9

    # whole-model forward and backward at the attack batch, as the attacks run it
    model = nn.build_classifier(nn.small_cnn(), seed=seed)
    images = rng.uniform(0.0, 1.0, size=(990, 1, 16, 16))
    labels = np.arange(990) % 10

    def model_case():
        return (Tensor(images, requires_grad=True),)

    def model_op(x):
        logits, _ = model.forward(x)
        return autodiff.softmax_cross_entropy(logits, labels)

    fwd, bwd = _time_op(model_case, model_op, REPEATS[990])
    metrics["autodiff.probe.smallcnn.b990.fwd_ms"] = fwd
    metrics["autodiff.probe.smallcnn.b990.bwd_ms"] = bwd
    return metrics
