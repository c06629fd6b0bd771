"""Binary anomaly detection on feature vectors, plus evaluation metrics.

The detector is a dense-only :class:`~gradgate.nn.Classifier` (one ReLU
hidden layer, one logit whose sigmoid is the score) trained with SGD on
binary cross-entropy; anomalous inputs are the positive class. Features are
standardized with train-split statistics that freeze at fit time. The
max-softmax-probability baseline scores inputs straight from the classifier
with no training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import storage
from .autodiff import bce_with_logits, stable_sigmoid
from .data import stratify
from .gradfeat import FeatureSet, concat_features
from .nn import ArchSpec, Classifier, DenseLayer, build_classifier, sgd_epochs


class ScoreError(RuntimeError):
    """A score file with a non-finite score, or with other rows than its
    detection test part."""


@dataclass
class ScoredSamples:
    """Per-sample detector output; the unit of metric computation."""

    sample_ids: np.ndarray
    labels: np.ndarray   # {0, 1}, 1 = anomalous
    scores: np.ndarray
    tags: list | None = None  # per-row source tags, when a caller has them; none are read

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


def _ranked(labels, scores) -> tuple:
    """One label check and one stable descending sort, shared by the
    metrics of a row: (labels, ends, positives), where ``ends`` holds the
    last sorted position of each run of tied scores and ``positives`` the
    count of positives up to it."""
    labels = _check_binary(labels)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], len(s) > 0))
    return labels, ends, np.cumsum(labels[order] == 1)[ends]


def auroc(labels, scores, ranked=None) -> float:
    """Area under the ROC curve via the rank statistic with midranks: tied
    scores share the mean of their 1-based ascending rank range. Every rank
    is a multiple of 1/2, so the rank sum is exact in any order. ``ranked``
    is :func:`_ranked` of the same arguments, if already computed."""
    labels, ends, positives = ranked or _ranked(labels, scores)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc requires both classes")
    counts = np.diff(ends, prepend=-1)
    midranks = (len(labels) - (ends - counts + 1)) - (counts - 1) / 2.0
    u = midranks @ np.diff(positives, prepend=0) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def aupr(labels, scores, ranked=None) -> float:
    """Area under the precision-recall curve, anomalous as positive,
    step-interpolated over distinct thresholds in descending order.
    ``ranked`` is :func:`_ranked` of the same arguments, if already computed."""
    labels, ends, positives = ranked or _ranked(labels, scores)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ValueError("aupr requires at least one positive")
    precision = positives / (ends + 1)
    recall = positives / n_pos
    # cumsum adds in order, as the step sum is defined; np.sum would pair terms
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def detection_accuracy(labels, scores, threshold: float = 0.5, ranked=None) -> float:
    """Fraction of samples on the correct side of the threshold; scores at
    or above the threshold predict anomalous. ``ranked`` is :func:`_ranked`
    of the same labels and scores, if already computed."""
    labels = ranked[0] if ranked else _check_binary(labels)
    if len(labels) == 0:
        raise ValueError("detection_accuracy of an empty set of labels and scores")
    pred = (np.asarray(scores, dtype=np.float64) >= threshold).astype(np.int64)
    return float((pred == labels).mean())


def evaluate(scored: ScoredSamples, threshold: float = 0.5) -> dict:
    """Accuracy, AUROC and AUPR of one row, from one label check and one sort."""
    ranked = _ranked(scored.labels, scored.scores)
    return {
        "accuracy": detection_accuracy(scored.labels, scored.scores, threshold, ranked),
        "auroc": auroc(scored.labels, scored.scores, ranked),
        "aupr": aupr(scored.labels, scored.scores, ranked),
    }


# ---------------------------------------------------------------------------
# max-softmax baseline
# ---------------------------------------------------------------------------

def msp_scores(model, images: np.ndarray) -> np.ndarray:
    """One minus the maximum softmax probability; higher means more anomalous."""
    logits = model.logits(images)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return 1.0 - p.max(axis=1)


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
    matching parts into (train, val, test). Raises ValueError when a side
    would leave one of its parts empty."""
    if normal.dim != anomalous.dim:
        raise ValueError(f"feature dims differ: {normal.dim} vs {anomalous.dim}")
    sides = [[replace(fs.subset(rows),
                      anomaly_labels=np.full(len(rows), label, dtype=np.int64))
              for rows in _side_rows(_tag_groups(fs), len(fs), side, label, seed)]
             for label, side, fs in ((0, "normal", normal), (1, "anomalous", anomalous))]
    return tuple(concat_features(pair) for pair in zip(*sides))


def _side_rows(groups, n: int, side: str, label: int, seed: int) -> list:
    """The sorted rows of each 40/40/20 part of a side of ``n`` rows, cut by
    a generator seeded with (seed, label)."""
    if n == 0:
        raise ValueError(f"the {side} side is empty")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, label)))
    parts = stratify(groups, DETECTION_FRACTIONS, rng)
    if any(len(part) == 0 for part in parts):
        raise ValueError(f"the {side} side's {n} rows leave a part of the "
                         f"40/40/20 detection split empty")
    return parts


def detection_test_part(sizes, seed: int) -> tuple:
    """The (sample_ids, anomaly_labels) of the test part
    :func:`assemble_detection_sets` cuts from a normal and an anomalous set
    of one source each, from their ``sizes`` alone, normal first."""
    rows = [_side_rows([np.arange(n)], n, side, label, seed)[2]
            for label, side, n in zip((0, 1), ("normal", "anomalous"), sizes)]
    return np.concatenate(rows), np.repeat([0, 1], [len(r) for r in rows])


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------

@dataclass
class Detector:
    """A one-logit dense classifier on feature values standardized, outside
    its graph, with the mean and std of the train values it was built from."""

    mean: np.ndarray
    std: np.ndarray
    net: Classifier

    def rows(self, values: np.ndarray) -> np.ndarray:
        """(n, d) feature values standardized: the net's input rows."""
        if values.shape[1] != len(self.mean):
            raise ValueError(f"feature dim {values.shape[1]} != detector dim {len(self.mean)}")
        return (values - self.mean) / self.std

    def score(self, values: np.ndarray) -> np.ndarray:
        """Sigmoid anomaly scores; mathematically in (0, 1), saturating to
        the endpoints only when a logit exceeds float64 resolution. A row's
        score does not depend on the rows scored with it (see ``net.logits``)."""
        return stable_sigmoid(self.net.logits(self.rows(values))[:, 0])


def build_detector(train_values: np.ndarray, hidden: int, seed: int) -> Detector:
    """An untrained detector: one ReLU hidden layer of ``hidden`` units, its
    parameters drawn by :func:`~gradgate.nn.build_classifier`."""
    arch = ArchSpec(train_values.shape[1:], (DenseLayer(hidden, "relu"), DenseLayer(1)), 1)
    return Detector(train_values.mean(axis=0), np.maximum(train_values.std(axis=0), 1e-12),
                    build_classifier(arch, seed))


MOMENTUM = 0.9


def train_detector(train: FeatureSet, val: FeatureSet, hidden: int = 64, seed: int = 0,
                   learning_rate: float = 0.05, batch_size: int = 32, max_epochs: int = 200,
                   patience: int = 10) -> Detector:
    """SGD with momentum ``MOMENTUM`` on binary cross-entropy, with early
    stopping on validation AUROC.

    Keeps the parameters from the best validation epoch; deterministic
    under a fixed seed.
    """
    if train.dim != val.dim:
        raise ValueError(f"train dim {train.dim} != val dim {val.dim}")
    det = build_detector(train.values, hidden, seed)
    x = det.rows(train.values)
    y = train.anomaly_labels.astype(np.float64)[:, None]
    live = det.net.trainable()
    params = [ps.tensor for ps in live.params]  # over det.net's arrays until the restore below
    best_auroc = -1.0
    best = [p.data.copy() for p in params]
    stale = 0
    for _ in sgd_epochs(params, lambda idx: bce_with_logits(live.forward(x[idx])[0], y[idx]),
                        len(train), batch_size, np.random.SeedSequence(entropy=(seed, 2)),
                        max_epochs, lr=learning_rate, momentum=MOMENTUM, weight_decay=0.0):
        val_auroc = auroc(val.anomaly_labels, det.score(val.values))
        if val_auroc > best_auroc + 1e-12:
            best_auroc = val_auroc
            best = [p.data.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    for ps, data in zip(det.net.params, best):
        ps.tensor.data = data
    return det


def score(det: Detector, fs: FeatureSet) -> ScoredSamples:
    return ScoredSamples(fs.sample_ids.copy(), fs.anomaly_labels.copy(), det.score(fs.values))


# ---------------------------------------------------------------------------
# score files
# ---------------------------------------------------------------------------

SCORE_MAGIC = b"GSCOR"
SCORE_RECORDS = ("sample_ids", "labels", "scores")


def save_scores(scored: ScoredSamples, path) -> None:
    """Write ids, labels and scores as float64 records."""
    arrays = (scored.sample_ids, scored.labels, scored.scores)
    storage.write_container(path, SCORE_MAGIC, {},
                            [(name, np.asarray(a, dtype=np.float64))
                             for name, a in zip(SCORE_RECORDS, arrays)])


def load_scores(path):
    """Read what :func:`save_scores` wrote: (sample_ids, labels, scores),
    all float64. Rejects another record layout and a non-finite score."""
    _, records = storage.read_container(path, SCORE_MAGIC)
    n = records[0][1].size if records else 0
    if [(name, arr.shape) for name, arr in records] != [(name, (n,)) for name in SCORE_RECORDS]:
        raise storage.RecordError(f"{path}: records are not {', '.join(SCORE_RECORDS)} "
                                  f"of one length")
    ids, labels, scores = (arr for _, arr in records)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ScoreError(f"{path}: non-finite score in row {bad[0]}")
    return ids, labels, scores
