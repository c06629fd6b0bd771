"""Binary anomaly detection on feature vectors, plus evaluation metrics.

The detector is a two-layer MLP (one ReLU hidden layer, one sigmoid
output) trained with SGD on binary cross-entropy; anomalous inputs are the
positive class. Features are standardized with train-split statistics that
freeze at fit time. The max-softmax-probability baseline scores inputs
straight from the classifier with no training.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import storage
from .autodiff import Tensor, backward, bce_with_logits, matmul, relu, sgd_step, stable_sigmoid
from .data import stratify
from .gradfeat import FeatureSet, concat_features
from .nn import FORWARD_BLOCK


@dataclass
class ScoredSamples:
    """Per-sample detector output; the unit of metric computation."""

    sample_ids: np.ndarray
    labels: np.ndarray   # {0, 1}, 1 = anomalous
    scores: np.ndarray
    tags: list

    def __len__(self) -> int:
        return len(self.scores)


@dataclass
class MetricReport:
    source_tag: str
    method: str
    accuracy: float
    auroc: float
    aupr: float
    n_normal: int
    n_anomalous: int


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _check_binary(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0/1")
    return labels


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their rank range."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auroc(labels, scores) -> float:
    """Area under the ROC curve via the rank statistic with midranks."""
    labels = _check_binary(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc requires both classes")
    ranks = _midranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def aupr(labels, scores) -> float:
    """Area under the precision-recall curve, anomalous as positive,
    step-interpolated over distinct thresholds in descending order."""
    labels = _check_binary(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ValueError("aupr requires at least one positive")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    tp = np.cumsum(y == 1)
    predicted = np.arange(1, len(y) + 1)
    # keep only the last index of each tied-score run (threshold boundaries)
    boundary = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    area = 0.0
    prev_recall = 0.0
    for b in boundary:
        precision = tp[b] / predicted[b]
        recall = tp[b] / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return float(area)


def detection_accuracy(labels, scores, threshold: float = 0.5) -> float:
    """Fraction of samples on the correct side of the threshold; scores at
    or above the threshold predict anomalous."""
    labels = _check_binary(labels)
    pred = (np.asarray(scores, dtype=np.float64) >= threshold).astype(np.int64)
    return float((pred == labels).mean())


def evaluate(scored: ScoredSamples, threshold: float = 0.5) -> dict:
    return {
        "accuracy": detection_accuracy(scored.labels, scored.scores, threshold),
        "auroc": auroc(scored.labels, scored.scores),
        "aupr": aupr(scored.labels, scored.scores),
    }


# ---------------------------------------------------------------------------
# max-softmax baseline
# ---------------------------------------------------------------------------

def msp_scores(model, images: np.ndarray) -> np.ndarray:
    """One minus the maximum softmax probability; higher means more anomalous."""
    out = np.empty(len(images))
    for start in range(0, len(images), FORWARD_BLOCK):
        logits = model.logits(images[start:start + FORWARD_BLOCK])
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        out[start:start + len(p)] = 1.0 - p.max(axis=1)
    return out


# ---------------------------------------------------------------------------
# detection set assembly
# ---------------------------------------------------------------------------

def _tag_groups(fs: FeatureSet) -> list:
    """Row indices of each source tag, in first-seen tag order."""
    tags = np.asarray(fs.tags)
    return [np.flatnonzero(tags == tag) for tag in dict.fromkeys(fs.tags)]


DETECTION_FRACTIONS = (0.4, 0.4, 0.2)


def assemble_detection_sets(normal: FeatureSet, anomalous: FeatureSet, seed: int):
    """Label and split both sides 40/40/20 independently, then merge the
    matching parts into (train, val, test)."""
    if len(normal) == 0 or len(anomalous) == 0:
        raise ValueError("both normal and anomalous feature sets must be nonempty")
    if normal.dim != anomalous.dim:
        raise ValueError(f"feature dims differ: {normal.dim} vs {anomalous.dim}")
    normal = normal.with_anomaly_label(0)
    anomalous = anomalous.with_anomaly_label(1)
    rng_n = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    rng_a = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 1)))
    parts_n = stratify(_tag_groups(normal), DETECTION_FRACTIONS, rng_n)
    parts_a = stratify(_tag_groups(anomalous), DETECTION_FRACTIONS, rng_a)
    return tuple(concat_features([normal.subset(pn), anomalous.subset(pa)])
                 for pn, pa in zip(parts_n, parts_a))


# ---------------------------------------------------------------------------
# detector MLP
# ---------------------------------------------------------------------------

class DetectorMLP:
    """Two-layer sigmoid-output MLP with frozen train-split standardization."""

    def __init__(self, input_dim: int, hidden: int, seed: int):
        rng = np.random.default_rng(seed)
        b1 = 1.0 / np.sqrt(input_dim)
        b2 = 1.0 / np.sqrt(hidden)
        self.w1 = Tensor(rng.uniform(-b1, b1, size=(input_dim, hidden)), requires_grad=True)
        self.b1 = Tensor(rng.uniform(-b1, b1, size=hidden), requires_grad=True)
        self.w2 = Tensor(rng.uniform(-b2, b2, size=(hidden, 1)), requires_grad=True)
        self.b2 = Tensor(rng.uniform(-b2, b2, size=1), requires_grad=True)
        self.mean = np.zeros(input_dim)
        self.std = np.ones(input_dim)
        self.input_dim = input_dim

    def fit_standardization(self, values: np.ndarray) -> None:
        self.mean = values.mean(axis=0)
        self.std = np.maximum(values.std(axis=0), 1e-12)

    def standardize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def _params(self):
        return (self.w1, self.b1, self.w2, self.b2)

    def logit(self, std_values: np.ndarray, frozen: bool = False) -> Tensor:
        """Detector logits; with ``frozen`` the parameters enter as constants,
        so no graph is kept."""
        params = self._params()
        w1, b1, w2, b2 = (Tensor(p.data) for p in params) if frozen else params
        h = relu(matmul(Tensor(std_values), w1) + b1)
        return matmul(h, w2) + b2

    def score(self, values: np.ndarray) -> np.ndarray:
        """Sigmoid anomaly scores; mathematically in (0, 1), saturating to
        the endpoints only when a logit exceeds float64 resolution."""
        if values.shape[1] != self.input_dim:
            raise ValueError(f"feature dim {values.shape[1]} != detector dim {self.input_dim}")
        return stable_sigmoid(self.logit(self.standardize(values), frozen=True).data[:, 0])

    def snapshot(self) -> list:
        return [p.data.copy() for p in self._params()]

    def restore(self, snap: list) -> None:
        for p, arr in zip(self._params(), snap):
            p.data = arr.copy()


def train_detector(train: FeatureSet, val: FeatureSet, hidden: int = 64, seed: int = 0,
                   learning_rate: float = 0.05, momentum: float = 0.9,
                   batch_size: int = 32, max_epochs: int = 200,
                   patience: int = 10) -> DetectorMLP:
    """SGD on binary cross-entropy with early stopping on validation AUROC.

    Keeps the parameters from the best validation epoch; deterministic
    under a fixed seed.
    """
    if train.dim != val.dim:
        raise ValueError(f"train dim {train.dim} != val dim {val.dim}")
    det = DetectorMLP(train.dim, hidden, seed)
    det.fit_standardization(train.values)
    x = det.standardize(train.values)
    y = train.anomaly_labels.astype(np.float64)[:, None]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 2)))
    velocity = [np.zeros_like(p.data) for p in det._params()]
    best_auroc = -1.0
    best_snap = det.snapshot()
    stale = 0
    n = len(train)
    for _ in range(max_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            loss = bce_with_logits(det.logit(x[idx]), y[idx])
            if not np.isfinite(loss.data):
                raise RuntimeError("non-finite detector loss")
            sgd_step(det._params(), backward(loss), velocity, learning_rate, momentum)
        val_auroc = auroc(val.anomaly_labels, det.score(val.values))
        if val_auroc > best_auroc + 1e-12:
            best_auroc = val_auroc
            best_snap = det.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    det.restore(best_snap)
    return det


def score(det: DetectorMLP, fs: FeatureSet) -> ScoredSamples:
    return ScoredSamples(fs.sample_ids.copy(), fs.anomaly_labels.copy(),
                         det.score(fs.values), list(fs.tags))


# ---------------------------------------------------------------------------
# score CSV interface
# ---------------------------------------------------------------------------

SCORE_COLUMNS = ("sample_id", "anomaly_label", "score", "source_tag")


def save_scores_csv(scored: ScoredSamples, path) -> None:
    with storage.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCORE_COLUMNS)
        for i in range(len(scored)):
            writer.writerow([str(int(scored.sample_ids[i])), str(int(scored.labels[i])),
                             storage.fmt_float(scored.scores[i]), scored.tags[i]])

