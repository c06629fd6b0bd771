"""Adversarial input generation against a trained classifier.

All attacks operate on raw pixels in [0, 1]; the model applies its frozen
normalization inside the forward pass, so pixel gradients include the
normalization Jacobian. Norm-bounded attacks track the accumulated
perturbation directly, which keeps the L-infinity budget exact; fgsm is
bim with one step of size epsilon, so the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    amax,
    backward,
    relu,
    softmax_cross_entropy,
    tanh,
    tsum,
)

ATTACK_KINDS = ("fgsm", "bim", "pgd", "iterll", "cw", "semantic")


@dataclass
class AttackConfig:
    kind: str
    epsilon: float = 0.1
    alpha: float = 0.01
    iterations: int = 10
    cw_c: float = 1.0
    cw_iterations: int = 200
    cw_lr: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.iterations < 1 or self.cw_iterations < 1:
            raise ValueError("iterations and cw_iterations must be >= 1")
        if self.cw_c <= 0:
            raise ValueError("cw_c must be positive")
        if self.cw_lr <= 0:
            raise ValueError("cw_lr must be positive")


@dataclass
class AttackResult:
    kind: str
    images: np.ndarray
    success: np.ndarray          # bool per sample
    linf: np.ndarray             # per-sample max |perturbation|
    l2: np.ndarray               # per-sample Euclidean perturbation norm
    targets: np.ndarray | None = None  # targeted kinds only


def _input_grad(model, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy with respect to the raw pixels."""
    xt = Tensor(x, requires_grad=True)
    logits, _ = model.forward(xt)
    loss = softmax_cross_entropy(logits, labels)
    return backward(loss)[xt]


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
    if model is None:
        success = np.zeros(len(x), dtype=bool)
    else:
        pred = model.predict(adv)
        success = (pred == targets) if targets is not None else (pred != np.asarray(y))
    return AttackResult(kind, adv, success, linf, l2, targets=targets)


def fgsm(model, x: np.ndarray, y: np.ndarray, epsilon: float) -> AttackResult:
    """Single signed-gradient ascent step on the true-label cross-entropy:
    bim with one step of size epsilon."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    adv = _iterate_signed(model, x, y, epsilon, epsilon, 1, np.zeros_like(x))
    return _finish("fgsm", model, x, y, adv, epsilon=epsilon)


def _iterate_signed(model, x, labels, epsilon, alpha, iterations, delta0, descend=False):
    """Shared loop for bim/pgd/iterll: signed steps on the accumulated
    perturbation, boxed to [-epsilon, epsilon], iterates clipped to [0, 1]."""
    step = -alpha if descend else alpha
    delta = delta0
    for _ in range(iterations):
        g = _input_grad(model, np.clip(x + delta, 0.0, 1.0), labels)
        delta = np.clip(delta + step * np.sign(g), -epsilon, epsilon)
    return np.clip(x + delta, 0.0, 1.0)


def bim(model, x, y, epsilon, alpha, iterations) -> AttackResult:
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    adv = _iterate_signed(model, x, y, epsilon, alpha, iterations, np.zeros_like(x))
    return _finish("bim", model, x, y, adv, epsilon=epsilon)


def pgd(model, x, y, epsilon, alpha, iterations, seed) -> AttackResult:
    """bim with a per-sample uniform random start inside the epsilon ball.

    Each sample's start is drawn from its own generator, seeded with
    (seed, sample index), so the starts do not depend on how the samples
    are blocked.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    delta0 = np.empty_like(x)
    for i in range(len(x)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        delta0[i] = rng.uniform(-epsilon, epsilon, size=x.shape[1:])
    adv = _iterate_signed(model, x, y, epsilon, alpha, iterations, delta0)
    return _finish("pgd", model, x, y, adv, epsilon=epsilon)


def iterll(model, x, epsilon, alpha, iterations) -> AttackResult:
    """Iterative descent toward the least-likely class of the clean logits."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    targets = np.argmin(model.logits(x), axis=1)
    adv = _iterate_signed(model, x, targets, epsilon, alpha, iterations,
                          np.zeros_like(x), descend=True)
    return _finish("iterll", model, x, None, adv, targets=targets, epsilon=epsilon)


def cw_l2(model, x, y, c=1.0, iterations=200, lr=0.1) -> AttackResult:
    """L2-minimal misclassification attack optimized in tanh space.

    Plain gradient descent on ||x' - x||^2 + c * max(Z_y - max_{j!=y} Z_j, -kappa)
    with kappa = 0 and fixed c; keeps the lowest-L2 successful iterate per
    sample and flags samples where no iterate misclassified.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    y = np.asarray(y)
    n, num_classes = len(x), model.num_classes
    interior = np.clip(x, 1e-6, 1.0 - 1e-6)
    w = np.arctanh(2.0 * interior - 1.0)

    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    exclude_true = Tensor(onehot * -1e30)
    onehot_t = Tensor(onehot)
    x0 = Tensor(x)

    best_adv = x.copy()
    best_l2 = np.full(n, np.inf)
    success = np.zeros(n, dtype=bool)

    def record(adv_pixels, logits_data):
        nonlocal success
        diff = (adv_pixels - x).reshape(n, -1)
        l2 = (diff * diff).sum(axis=1)
        miss = np.argmax(logits_data, axis=1) != y
        better = miss & (l2 < best_l2)
        best_adv[better] = adv_pixels[better]
        best_l2[better] = l2[better]
        success |= miss

    last = interior
    for _ in range(iterations):
        wt = Tensor(w, requires_grad=True)
        adv = tanh(wt) * 0.5 + 0.5
        logits, _ = model.forward(adv)
        record(adv.data, logits.data)
        last = adv.data

        dist = tsum((adv - x0) * (adv - x0))
        z_true = tsum(logits * onehot_t, axis=1)
        z_other = amax(logits + exclude_true, axis=1)
        hinge = relu(z_true - z_other)  # max(., -kappa) with kappa = 0
        loss = dist + tsum(hinge) * c
        w = w - lr * backward(loss)[wt]

    final = np.tanh(w) * 0.5 + 0.5
    logits_final = model.logits(final)
    record(final, logits_final)
    last = final

    adv_out = np.where(success[:, None, None, None], best_adv, last)
    linf, l2 = _norms(x, adv_out)
    return AttackResult("cw", adv_out, success, linf, l2)


def semantic(x: np.ndarray, model=None, y=None) -> AttackResult:
    """Pixel negation; an involution on [0, 1] images."""
    adv = 1.0 - x
    return _finish("semantic", model, x, y, adv)


def run_attack(model, x, y, cfg: AttackConfig) -> AttackResult:
    if cfg.kind == "fgsm":
        return fgsm(model, x, y, cfg.epsilon)
    if cfg.kind == "bim":
        return bim(model, x, y, cfg.epsilon, cfg.alpha, cfg.iterations)
    if cfg.kind == "pgd":
        return pgd(model, x, y, cfg.epsilon, cfg.alpha, cfg.iterations, cfg.seed)
    if cfg.kind == "iterll":
        return iterll(model, x, cfg.epsilon, cfg.alpha, cfg.iterations)
    if cfg.kind == "cw":
        return cw_l2(model, x, y, cfg.cw_c, cfg.cw_iterations, cfg.cw_lr)
    return semantic(x, model=model, y=y)
