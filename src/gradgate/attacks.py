"""Adversarial input generation against a trained classifier.

All attacks operate on raw pixels in [0, 1]; the model applies its fixed
normalization inside the forward pass, so pixel gradients include the
normalization Jacobian. Norm-bounded attacks track the accumulated
perturbation directly, which keeps the L-infinity budget exact; fgsm is
bim with one step of size epsilon, so the two agree bit for bit.

Every gradient attack runs its set in ``FORWARD_BLOCK``-row blocks through
:func:`~gradgate.nn.map_blocks`, all iterations of one block before the
next, so its working set is one block whatever the set's size, and a row's
adversarial image does not depend on the rows attacked with it. cw runs
each iteration's block forward without a graph and backpropagates only the
real rows whose hinge is positive, ``CW_GRAD_BLOCK`` rows per backward
pass. Success flags and perturbation norms are computed once, on the
assembled set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward, cw_hinge, softmax_cross_entropy, tsum
from .nn import FORWARD_BLOCK, map_blocks

ATTACK_KINDS = ("fgsm", "bim", "pgd", "iterll", "cw", "semantic")

# rows per cw backward pass over a block's active rows; on the benchmark's
# pipeline config (seed 1) the modelled cost against full-block backward
# passes is 0.61 at 8 rows, 0.67 at 16 and 0.83 at 32
CW_GRAD_BLOCK = 8


@dataclass
class AttackResult:
    kind: str
    images: np.ndarray
    success: np.ndarray          # bool per sample
    linf: np.ndarray             # per-sample max |perturbation|
    l2: np.ndarray               # per-sample Euclidean perturbation norm
    targets: np.ndarray | None = None  # targeted kinds only


def _input_grad(model, x: np.ndarray, loss):
    """The raw-pixel gradient of the scalar ``loss(logits)``."""
    xt = Tensor(x, requires_grad=True)
    logits, _ = model.forward(xt)
    return backward(loss(logits))[xt]


def _norms(x: np.ndarray, adv: np.ndarray):
    diff = (adv - x).reshape(len(x), -1)
    return np.abs(diff).max(axis=1), np.sqrt((diff * diff).sum(axis=1))


def _enforce_linf(x: np.ndarray, adv: np.ndarray, epsilon: float) -> np.ndarray:
    """Nudge pixels one ulp toward x until the measured adv - x respects the
    budget exactly; float rounding of x + delta can otherwise overshoot by
    one ulp even though delta itself is clipped."""
    adv = adv.copy()
    while True:
        diff = adv - x
        over = diff > epsilon
        under = diff < -epsilon
        if not (over.any() or under.any()):
            return adv
        adv[over] = np.nextafter(adv[over], -np.inf)
        adv[under] = np.nextafter(adv[under], np.inf)


def _finish(kind, model, x, y, adv, targets=None, epsilon=None) -> AttackResult:
    if epsilon is not None:
        adv = _enforce_linf(x, adv, epsilon)
    linf, l2 = _norms(x, adv)
    pred = model.predict(adv)
    success = (pred == targets) if targets is not None else (pred != np.asarray(y))
    return AttackResult(kind, adv, success, linf, l2, targets=targets)


def fgsm(model, x: np.ndarray, y: np.ndarray, epsilon: float) -> AttackResult:
    """Single signed-gradient ascent step on the true-label cross-entropy:
    bim with one step of size epsilon."""
    adv = _iterate_signed(model, x, y, epsilon, epsilon, 1, np.zeros_like(x))
    return _finish("fgsm", model, x, y, adv, epsilon=epsilon)


def _iterate_signed(model, x, labels, epsilon, alpha, iterations, delta0, descend=False):
    """Shared loop for fgsm/bim/pgd/iterll: signed steps on the accumulated
    perturbation, boxed to [-epsilon, epsilon], iterates clipped to [0, 1]."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    step = -alpha if descend else alpha

    def attack_block(xb, lb, delta):
        loss = lambda logits: softmax_cross_entropy(logits, lb)
        for _ in range(iterations):
            g = _input_grad(model, np.clip(xb + delta, 0.0, 1.0), loss)
            delta = np.clip(delta + step * np.sign(g), -epsilon, epsilon)
        return np.clip(xb + delta, 0.0, 1.0)

    return map_blocks(attack_block, FORWARD_BLOCK, x, np.asarray(labels), delta0)


def bim(model, x, y, epsilon, alpha, iterations) -> AttackResult:
    adv = _iterate_signed(model, x, y, epsilon, alpha, iterations, np.zeros_like(x))
    return _finish("bim", model, x, y, adv, epsilon=epsilon)


def pgd(model, x, y, epsilon, alpha, iterations, seed) -> AttackResult:
    """bim with a per-sample uniform random start inside the epsilon ball.

    Each sample's start is drawn from its own generator, seeded with
    (seed, sample index), so the starts do not depend on how the samples
    are blocked.
    """
    delta0 = np.empty_like(x)
    for i in range(len(x)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        delta0[i] = rng.uniform(-epsilon, epsilon, size=x.shape[1:])
    adv = _iterate_signed(model, x, y, epsilon, alpha, iterations, delta0)
    return _finish("pgd", model, x, y, adv, epsilon=epsilon)


def iterll(model, x, epsilon, alpha, iterations) -> AttackResult:
    """Iterative descent toward the least-likely class of the clean logits."""
    targets = np.argmin(model.logits(x), axis=1)
    adv = _iterate_signed(model, x, targets, epsilon, alpha, iterations,
                          np.zeros_like(x), descend=True)
    return _finish("iterll", model, x, None, adv, targets=targets, epsilon=epsilon)


def cw_l2(model, x, y, c=1.0, iterations=200, lr=0.1) -> AttackResult:
    """L2-minimal misclassification attack optimized in tanh space.

    Plain gradient descent on ||x' - x||^2 + c * max(Z_y - max_{j!=y} Z_j, -kappa)
    with kappa = 0 and fixed c; keeps the lowest-L2 misclassified iterate per
    sample, or the last iterate where none misclassified.

    Each iteration runs its block through the network once without a graph,
    then backpropagates the hinge only for the block's real rows whose hinge
    is positive, ``CW_GRAD_BLOCK`` rows per backward pass; every other row's
    model gradient is +0.0, as its hinge is flat there.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if lr <= 0:
        raise ValueError("lr must be positive")
    y = np.asarray(y)
    real = np.ones(len(y), bool)  # map_blocks pads it with False
    adv = map_blocks(lambda xb, yb, rb: _cw_block(model, xb, yb, rb, c, iterations, lr),
                     FORWARD_BLOCK, x, y, real)
    # a row succeeds when some iterate was misclassified, and then its image is
    # one; blocks are batch-invariant, so the image predicts as it did in the loop
    return _finish("cw", model, x, y, adv)


def _cw_block(model, x, y, real, c, iterations, lr) -> np.ndarray:
    n = len(x)
    interior = np.clip(x, 1e-6, 1.0 - 1e-6)
    w = np.arctanh(2.0 * interior - 1.0)

    def model_grad(xb, yb):
        # a sum, not a mean, so a row's gradient does not depend on the block;
        # max(., -kappa) with kappa = 0
        return _input_grad(model, xb, lambda logits: tsum(cw_hinge(logits, yb)) * c)

    best_adv = x.copy()
    best_l2 = np.full(n, np.inf)  # finite once some iterate was misclassified

    def record(adv_pixels, logits_data):
        diff = (adv_pixels - x).reshape(n, -1)
        l2 = (diff * diff).sum(axis=1)
        miss = np.argmax(logits_data, axis=1) != y
        better = miss & (l2 < best_l2)
        best_adv[better] = adv_pixels[better]
        best_l2[better] = l2[better]

    for _ in range(iterations):
        t = np.tanh(w)
        adv = t * 0.5 + 0.5
        logits = model.logits(adv)
        record(adv, logits)
        # an inactive row's model gradient is ±0 and a padding row's is dropped;
        # d + d is never -0.0, so the +0.0 they keep adds as their ±0 would
        active = real & (cw_hinge(Tensor(logits), y).data > 0.0)
        g_model = np.zeros_like(adv)
        if active.any():
            g_model[active] = map_blocks(model_grad, CW_GRAD_BLOCK, adv[active], y[active])
        # the objective's pixel gradient, summed in this order: the bytes depend on it
        d = adv - x
        g = (d + d) + g_model
        w = w - lr * ((g * 0.5) * (1.0 - t * t))

    final = np.tanh(w) * 0.5 + 0.5
    record(final, model.logits(final))
    return np.where(np.isfinite(best_l2)[:, None, None, None], best_adv, final)


def semantic(model, x: np.ndarray, y: np.ndarray) -> AttackResult:
    """Pixel negation; an involution on [0, 1] images."""
    adv = 1.0 - x
    return _finish("semantic", model, x, y, adv)


def run_attack(model, x, y, kind, *, epsilon, alpha, iterations, cw_c, cw_iterations,
               cw_lr, seed) -> AttackResult:
    """Run the attack ``kind`` of :data:`ATTACK_KINDS`, which reads only the
    settings it uses; an unknown kind raises ValueError."""
    if kind == "fgsm":
        return fgsm(model, x, y, epsilon)
    if kind == "bim":
        return bim(model, x, y, epsilon, alpha, iterations)
    if kind == "pgd":
        return pgd(model, x, y, epsilon, alpha, iterations, seed)
    if kind == "iterll":
        return iterll(model, x, epsilon, alpha, iterations)
    if kind == "cw":
        return cw_l2(model, x, y, cw_c, cw_iterations, cw_lr)
    if kind == "semantic":
        return semantic(model, x, y)
    raise ValueError(f"unknown attack kind {kind!r}")
