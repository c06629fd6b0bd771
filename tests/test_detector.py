import numpy as np
import pytest

from gradgate import gradfeat, storage
from gradgate.data import allocate_counts
from gradgate.detector import (
    DETECTION_FRACTIONS,
    SCORE_MAGIC,
    assemble_detection_sets,
    build_detector,
    detection_test_part,
    aupr,
    auroc,
    detection_accuracy,
    evaluate,
    load_scores,
    msp_scores,
    save_scores,
    score,
    train_detector,
    ScoreError,
    ScoredSamples,
)
from gradgate.autodiff import ShapeError, stable_sigmoid
from gradgate.gradfeat import FeatureSet, concat_features
from gradgate.nn import FORWARD_BLOCK, Classifier, build_classifier, mlp


def auroc_pairwise_oracle(labels, scores):
    """O(n^2) comparison count: ties earn half credit."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def aupr_sweep_oracle(labels, scores):
    """Recompute precision/recall by explicit counting at every distinct
    threshold, descending, and accumulate the step areas."""
    n_pos = labels.sum()
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        pred = scores >= t
        tp = int((pred & (labels == 1)).sum())
        precision = tp / int(pred.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def midranks_loop_oracle(scores):
    """Midranks by walking each tie run of the sorted scores."""
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


def auroc_loop_oracle(labels, scores):
    """The rank statistic of auroc over the loop midranks."""
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    u = midranks_loop_oracle(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def aupr_loop_oracle(labels, scores):
    """The step sum of aupr, one threshold boundary at a time, in order."""
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    tp = np.cumsum(labels[order] == 1)
    predicted = np.arange(1, len(s) + 1)
    area = 0.0
    prev_recall = 0.0
    for b in np.flatnonzero(np.append(s[1:] != s[:-1], True)):
        precision = tp[b] / predicted[b]
        recall = tp[b] / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return float(area)


def tie_heavy_instances(count, seed):
    """Scores on a grid of 2k+1 levels for a random k <= n, so tie runs of
    every length occur; zeros carry random signs. Both labels occur."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(1, n + 1))
        scores = rng.integers(-k, k + 1, size=n) / k
        zeros = scores == 0.0
        scores[zeros] *= rng.choice([-1.0, 1.0], size=int(zeros.sum()))
        labels = rng.integers(0, 2, size=n)
        labels[rng.choice(n, size=2, replace=False)] = (0, 1)
        yield labels, scores


def make_features(values, label, tag):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    return FeatureSet(values, np.arange(n), np.full(n, label, dtype=np.int64),
                      [tag] * n)


class TestAuroc:
    def test_perfect_separation_exact_one(self):
        labels = np.array([0, 0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.3, 0.9, 0.8])
        assert auroc(labels, scores) == 1.0

    def test_all_ties_exact_half(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.full(4, 0.42)
        assert auroc(labels, scores) == 0.5

    def test_matches_pairwise_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = 50
            labels = (rng.uniform(size=n) < 0.4).astype(np.int64)
            labels[0], labels[1] = 0, 1  # keep both classes present
            scores = np.round(rng.uniform(size=n), 2)  # rounding forces ties
            assert abs(auroc(labels, scores) - auroc_pairwise_oracle(labels, scores)) < 1e-12

    def test_label_flip_complements_when_no_ties(self):
        rng = np.random.default_rng(1)
        labels = np.array([0] * 10 + [1] * 10)
        scores = rng.permutation(20).astype(np.float64)
        assert abs(auroc(1 - labels, scores) - (1.0 - auroc(labels, scores))) < 1e-12

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        labels = (rng.uniform(size=30) < 0.5).astype(np.int64)
        labels[:2] = [0, 1]
        scores = rng.standard_normal(30)
        assert auroc(labels, scores) == auroc(labels, np.exp(scores) * 3.0 + 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.zeros(5, dtype=np.int64), np.arange(5.0))


class TestAupr:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert aupr(labels, scores) == 1.0

    def test_constant_scores_give_prevalence(self):
        labels = np.array([1, 0, 0, 0, 1])
        scores = np.full(5, 0.5)
        assert aupr(labels, scores) == labels.mean()

    def test_matches_sweep_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = 50
            labels = (rng.uniform(size=n) < 0.3).astype(np.int64)
            labels[0] = 1
            scores = np.round(rng.uniform(size=n), 2)
            assert abs(aupr(labels, scores) - aupr_sweep_oracle(labels, scores)) < 1e-12

    def test_prevalence_is_the_uninformed_baseline(self):
        # Step-wise AP can dip below prevalence on adversarial orderings
        # (worst case below), but equals it for constant scores and sits at
        # or above it on average for uninformative scores (small-sample AP
        # bias is positive).
        rng = np.random.default_rng(4)
        gaps = []
        for _ in range(200):
            labels = (rng.uniform(size=40) < 0.35).astype(np.int64)
            labels[0] = 1
            scores = rng.uniform(size=40)
            gaps.append(aupr(labels, scores) - labels.mean())
        assert -0.02 < float(np.mean(gaps)) < 0.15

    def test_worst_case_ordering_value(self):
        # positives ranked last among four: area is 1/2 * 1/3 + 1/2 * 1/2
        labels = np.array([0, 0, 1, 1])
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        assert abs(aupr(labels, scores) - 5.0 / 12.0) < 1e-15

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            aupr(np.zeros(4, dtype=np.int64), np.arange(4.0))


def test_rank_metrics_bit_equal_to_loops_on_tie_heavy_inputs():
    seen_negative_zero = False
    for labels, scores in tie_heavy_instances(1000, seed=11):
        seen_negative_zero |= bool(np.any(np.signbit(scores) & (scores == 0.0)))
        assert auroc(labels, scores).hex() == auroc_loop_oracle(labels, scores).hex()
        assert aupr(labels, scores).hex() == aupr_loop_oracle(labels, scores).hex()
    assert seen_negative_zero


def evaluate_reference(labels, scores, threshold=0.5):
    """``evaluate`` as computed before its metrics shared one sort: midranks
    from ``np.unique``, a separate descending argsort for AUPR, and a label
    check per metric."""
    def check(labels):
        labels = np.asarray(labels)
        assert np.all((labels == 0) | (labels == 1))
        return labels

    labels, scores = check(labels), np.asarray(scores, dtype=np.float64)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    _, run, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[run]
    u = ranks[check(labels) == 1].sum() - n_pos * (n_pos + 1) / 2.0
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    tp = np.cumsum(check(labels)[order] == 1)
    boundary = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    precision, recall = tp[boundary] / (boundary + 1), tp[boundary] / n_pos
    pred = (scores >= threshold).astype(np.int64)
    return {"accuracy": float((pred == labels).mean()), "auroc": float(u / (n_pos * n_neg)),
            "aupr": float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])}


def test_evaluate_bit_equal_to_the_per_metric_formulas():
    rng = np.random.default_rng(5)
    cases = list(tie_heavy_instances(300, seed=13))
    cases += [(np.array([0, 1, 0, 1, 0]), np.full(5, 0.5)),             # all tied
              (np.array([0, 0, 0, 1, 0, 0]), rng.uniform(size=6)),       # one positive
              (np.array([1, 0, 0, 0]), np.array([0.5, 0.5, 0.2, 0.5])),  # one positive, tied
              (rng.integers(0, 2, 200) | np.eye(1, 200, 3, dtype=np.int64)[0],
               rng.uniform(size=200))]
    for labels, scores in cases:
        got = evaluate(ScoredSamples(np.arange(len(labels)), labels, scores))
        want = evaluate_reference(labels, scores)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
        assert got["auroc"] == auroc(labels, scores) and got["aupr"] == aupr(labels, scores)


class TestDetectionAccuracy:
    def test_hand_counted_ten_samples(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 1, 0, 1, 0])
        scores = np.array([0.9, 0.4, 0.6, 0.2, 0.7, 0.1, 0.5, 0.3, 0.8, 0.6])
        # predictions at 0.5: 1,0,1,0,1,0,1,0,1,1 -> correct: 1,0,1,1,0,1,1,1,1,0 = 7
        assert detection_accuracy(labels, scores) == 0.7

    def test_flip_complement(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([0.6, 0.6, 0.2, 0.1])
        assert detection_accuracy(1 - labels, scores) == 1.0 - detection_accuracy(labels, scores)

    def test_all_correct(self):
        assert detection_accuracy(np.array([0, 1]), np.array([0.1, 0.9])) == 1.0

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            detection_accuracy(np.zeros(0, dtype=np.int64), np.zeros(0))


class TestMsp:
    @pytest.fixture
    def model(self):
        m = build_classifier(mlp(num_classes=4, input_shape=(1, 2, 2), hidden=3), seed=0)
        return m

    def test_uniform_logits_score(self, model):
        for ps in model.params:
            ps.tensor.data[:] = 0.0
        s = msp_scores(model, np.full((3, 1, 2, 2), 0.5))
        np.testing.assert_allclose(s, 1.0 - 1.0 / 4.0, rtol=1e-15)

    def test_saturated_logit_scores_near_zero(self, model):
        for ps in model.params:
            ps.tensor.data[:] = 0.0
        model.params[-1].tensor.data[0] = 500.0
        s = msp_scores(model, np.full((2, 1, 2, 2), 0.5))
        assert np.all(s < 1e-12)

    def test_shift_invariance(self):
        # softmax shift invariance; rounding of z + c makes this a close
        # comparison rather than a bitwise one
        logits = np.random.default_rng(5).standard_normal((6, 4))

        def score_from(z):
            shifted = z - z.max(axis=1, keepdims=True)
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            return 1.0 - p.max(axis=1)

        np.testing.assert_allclose(score_from(logits), score_from(logits + 13.5),
                                   rtol=1e-12, atol=1e-15)


def split_side_reference(fs, fractions, rng):
    """The per-side split loop the detector ran before data.stratify: tags
    in first-seen order, each tag's rows permuted and sliced by
    cumulative-floor counts."""
    parts = [[] for _ in fractions]
    for tag in dict.fromkeys(fs.tags):
        idx = np.array([i for i, t in enumerate(fs.tags) if t == tag])
        idx = idx[rng.permutation(len(idx))]
        sizes = allocate_counts(len(idx), fractions)
        start = 0
        for p, size in enumerate(sizes):
            parts[p].append(idx[start:start + size])
            start += size
    return [np.sort(np.concatenate(chunks)) for chunks in parts]


class TestAssemble:
    def test_matches_split_side_loop_on_unsorted_tags(self):
        rng = np.random.default_rng(8)
        tags = ["fgsm", "uniform-noise", "textures"]
        tags += list(rng.choice(tags, size=44))
        assert list(dict.fromkeys(tags)) != sorted(set(tags))
        n = len(tags)
        anom = FeatureSet(rng.uniform(size=(n, 2)), np.arange(100, 100 + n),
                          np.full(n, -1, dtype=np.int64), tags)
        normal = make_features(rng.uniform(size=(30, 2)), -1, "clean")
        parts = assemble_detection_sets(normal, anom, seed=9)
        ref_n = split_side_reference(normal, DETECTION_FRACTIONS, np.random.default_rng(
            np.random.SeedSequence(entropy=(9, 0))))
        ref_a = split_side_reference(anom, DETECTION_FRACTIONS, np.random.default_rng(
            np.random.SeedSequence(entropy=(9, 1))))
        for part, pn, pa in zip(parts, ref_n, ref_a):
            expected = np.concatenate([normal.sample_ids[pn], anom.sample_ids[pa]])
            assert part.sample_ids.tolist() == expected.tolist()
            assert part.tags == [normal.tags[i] for i in pn] + [anom.tags[i] for i in pa]

    @pytest.mark.parametrize("n_normal,n_anomalous,seed", [(3, 3, 0), (100, 100, 7), (37, 600, 2),
                                                           (990, 5, 11)])
    def test_test_part_from_sizes_matches_the_assembled_one(self, n_normal, n_anomalous, seed):
        normal = gradfeat.unlabeled_features(np.zeros((n_normal, 0)), "clean-test")
        anom = gradfeat.unlabeled_features(np.zeros((n_anomalous, 0)), "adv-cw")
        want = assemble_detection_sets(normal, anom, seed)[2]
        ids, labels = detection_test_part([n_normal, n_anomalous], seed)
        assert ids.tobytes() == want.sample_ids.tobytes()
        assert labels.tobytes() == want.anomaly_labels.tobytes()

    def test_sizes_100_100(self):
        normal = make_features(np.random.default_rng(0).uniform(size=(100, 3)), -1, "clean")
        anom = make_features(np.random.default_rng(1).uniform(size=(100, 3)), -1, "adv")
        train, val, test = assemble_detection_sets(normal, anom, seed=0)
        assert (len(train), len(val), len(test)) == (80, 80, 40)

    def test_each_part_contains_both_labels(self):
        normal = make_features(np.random.default_rng(2).uniform(size=(30, 2)), -1, "clean")
        anom = make_features(np.random.default_rng(3).uniform(size=(25, 2)), -1, "adv")
        for part in assemble_detection_sets(normal, anom, seed=1):
            assert set(np.unique(part.anomaly_labels)) == {0, 1}

    def test_union_reconstructs_input(self):
        rng = np.random.default_rng(4)
        normal = make_features(rng.uniform(size=(37, 2)), -1, "clean")
        anom = make_features(rng.uniform(size=(23, 2)), -1, "adv")
        parts = assemble_detection_sets(normal, anom, seed=2)
        merged = np.concatenate([p.values for p in parts])
        original = np.concatenate([normal.values, anom.values])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, original))

    def test_empty_side_rejected(self):
        filled = make_features(np.zeros((4, 2)), -1, "x")
        empty = make_features(np.zeros((0, 2)), -1, "y")
        with pytest.raises(ValueError):
            assemble_detection_sets(filled, empty, seed=0)

    @pytest.mark.parametrize("n_normal,n_anomalous,side", [(2, 3, "normal"), (3, 2, "anomalous"),
                                                           (3, 1, "anomalous")])
    def test_side_that_leaves_a_part_empty_is_named(self, n_normal, n_anomalous, side):
        normal = make_features(np.zeros((n_normal, 2)), -1, "clean")
        anom = make_features(np.ones((n_anomalous, 2)), -1, "adv")
        with pytest.raises(ValueError, match=f"the {side} side's {min(n_normal, n_anomalous)} rows"):
            assemble_detection_sets(normal, anom, seed=0)

    def test_deterministic(self):
        normal = make_features(np.random.default_rng(5).uniform(size=(50, 2)), -1, "clean")
        anom = make_features(np.random.default_rng(6).uniform(size=(50, 2)), -1, "adv")
        a = assemble_detection_sets(normal, anom, seed=3)
        b = assemble_detection_sets(normal, anom, seed=3)
        for pa, pb in zip(a, b):
            assert pa.values.tobytes() == pb.values.tobytes()


def separable_sets(seed, n=200, dim=4, margin=3.0):
    """Dimension 0 separates the classes with a hard gap when margin > 2."""
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal((n, dim))
    anom = rng.standard_normal((n, dim))
    normal[:, 0] = rng.uniform(-1.0, 1.0, size=n)
    anom[:, 0] = margin + rng.uniform(-1.0, 1.0, size=n)
    return (make_features(normal, -1, "clean"), make_features(anom, -1, "adv"))


class TestDetectorTraining:
    def test_separable_features_reach_auroc_one(self):
        normal, anom = separable_sets(seed=0, margin=6.0)
        train, val, test = assemble_detection_sets(normal, anom, seed=0)
        det = train_detector(train, val, hidden=16, seed=0)
        assert auroc(val.anomaly_labels, score(det, val).scores) == 1.0
        scored = score(det, test)
        assert evaluate(scored)["auroc"] == 1.0

    def test_shuffled_labels_give_chance_auroc(self):
        # permutation null: averaged over seeds, val AUROC sits near 0.5
        rng = np.random.default_rng(7)
        aurocs = []
        for seed in range(5):
            normal, anom = separable_sets(seed=seed, margin=0.0)  # no signal
            train, val, _ = assemble_detection_sets(normal, anom, seed=seed)
            det = train_detector(train, val, hidden=8, seed=seed, max_epochs=40)
            aurocs.append(auroc(val.anomaly_labels, score(det, val).scores))
        assert 0.35 < float(np.mean(aurocs)) < 0.65

    def test_same_seed_identical_detector(self):
        normal, anom = separable_sets(seed=1)
        train, val, _ = assemble_detection_sets(normal, anom, seed=1)
        d1 = train_detector(train, val, hidden=8, seed=4, max_epochs=30)
        d2 = train_detector(train, val, hidden=8, seed=4, max_epochs=30)
        for p1, p2 in zip(d1.params, d2.params):
            assert p1.tensor.data.tobytes() == p2.tensor.data.tobytes()

    def test_scores_in_open_unit_interval(self):
        normal, anom = separable_sets(seed=2)
        train, val, _ = assemble_detection_sets(normal, anom, seed=2)
        det = train_detector(train, val, hidden=8, seed=0, max_epochs=20)
        s = score(det, concat_features([normal, anom])).scores
        assert np.all((s > 0.0) & (s < 1.0))
        assert np.array_equal(score(det, normal).scores, score(det, normal).scores)

    def test_standardization_applied(self):
        normal, anom = separable_sets(seed=3)
        train, val, _ = assemble_detection_sets(normal, anom, seed=3)
        det = train_detector(train, val, hidden=8, seed=0, max_epochs=10)
        raw = train.values[:5]
        direct = score(det, train.subset(range(5))).scores
        std = (raw - train.values.mean(axis=0)) / np.maximum(train.values.std(axis=0), 1e-8)
        w1, b1, w2, b2 = (ps.tensor.data for ps in det.params)
        manual_logit = (np.maximum(std @ w1 + b1, 0.0) @ w2 + b2)[:, 0]
        np.testing.assert_allclose(direct, 1.0 / (1.0 + np.exp(-manual_logit)), rtol=1e-12)

    def test_score_holds_parameters_constant(self):
        normal, anom = separable_sets(seed=5)
        train, val, _ = assemble_detection_sets(normal, anom, seed=5)
        det = train_detector(train, val, hidden=8, seed=0, max_epochs=5)
        values = val.values
        live = det.trainable()  # as training builds it
        const = det.forward(values)[0]
        assert not const.requires_grad
        assert const.data.tobytes() == live.forward(values)[0].data.tobytes()
        # score runs the training graph on FORWARD_BLOCK-row blocks, the last
        # one zero-padded
        assert len(values) > FORWARD_BLOCK and len(values) % FORWARD_BLOCK
        logits = []
        for start in range(0, len(values), FORWARD_BLOCK):
            rows = values[start:start + FORWARD_BLOCK]
            block = np.zeros((FORWARD_BLOCK,) + values.shape[1:])
            block[:len(rows)] = rows
            logits.append(live.forward(block)[0].data[:len(rows), 0])
        want = stable_sigmoid(np.concatenate(logits))
        assert score(det, val).scores.tobytes() == want.tobytes()

    def test_dim_mismatch_rejected(self):
        normal, anom = separable_sets(seed=4)
        train, val, _ = assemble_detection_sets(normal, anom, seed=4)
        det = train_detector(train, val, hidden=8, seed=0, max_epochs=5)
        with pytest.raises(ShapeError, match="normalize"):
            score(det, make_features(np.zeros((3, 7)), 1, "adv"))
        assert issubclass(ShapeError, ValueError)

    def test_net_is_a_dense_classifier_on_standardized_rows(self):
        normal, anom = separable_sets(seed=6)
        train, val, _ = assemble_detection_sets(normal, anom, seed=6)
        det = train_detector(train, val, hidden=8, seed=0, max_epochs=2)
        d = train.dim
        assert isinstance(det, Classifier)
        assert det.arch.to_string() == f"in:{d}|dense:8:relu|dense:1:none|classes:1"
        taps = []
        det.forward(val.values, taps=taps)
        rows = taps[0].inputs  # what the first dense layer reads
        assert rows.shape == (len(val), d)
        assert rows.tobytes() == ((val.values - det.norm_mean) * (1.0 / det.norm_std)).tobytes()

    def test_normalization_is_the_train_rows_standardization(self):
        normal, anom = separable_sets(seed=7)
        train, val, _ = assemble_detection_sets(normal, anom, seed=7)
        train.values[:, 1] = 0.5  # a constant column takes the floor
        for det in (build_detector(train.values, hidden=8, seed=0),
                    train_detector(train, val, hidden=8, seed=0, max_epochs=2)):
            assert det.norm_mean.tobytes() == train.values.mean(axis=0).tobytes()
            want_std = np.maximum(train.values.std(axis=0), 1e-8)
            assert det.norm_std.tobytes() == want_std.tobytes()
            assert det.norm_std[1] == 1e-8


class TestScoreFile:
    def test_round_trip(self, tmp_path):
        scored = ScoredSamples(np.array([3, 1, 4]), np.array([0, 1, 1]),
                               np.array([0.25, 0.5, 0.125]))
        path = tmp_path / "scores.gscore"
        save_scores(scored, path)
        ids, labels, scores = load_scores(path)
        assert ids.tolist() == scored.sample_ids.tolist()
        assert labels.tolist() == scored.labels.tolist()
        assert scores.tobytes() == scored.scores.tobytes()

    def test_save_load_save_byte_equal(self, tmp_path):
        rng = np.random.default_rng(0)
        scored = ScoredSamples(np.array([7, 0, 2, 5]), np.array([0, 0, 1, 1]),
                               np.append(rng.uniform(size=3), 1e-300))
        first, second = tmp_path / "first.gscore", tmp_path / "second.gscore"
        save_scores(scored, first)
        save_scores(ScoredSamples(*load_scores(first)), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected_with_file_and_row(self, tmp_path, bad):
        path = tmp_path / "scores.gscore"
        save_scores(ScoredSamples(np.array([0, 1]), np.array([1, 0]), np.array([0.5, bad])), path)
        with pytest.raises(ScoreError, match=f"{path.name}: non-finite score in row 1"):
            load_scores(path)

    @pytest.mark.parametrize("magic,records,error", [
        (b"GFEAT", [("sample_ids", np.zeros(2)), ("labels", np.zeros(2)), ("scores", np.zeros(2))],
         storage.BadMagicError),
        (SCORE_MAGIC, [("sample_ids", np.zeros(2)), ("labels", np.zeros(2))], storage.RecordError),
        (SCORE_MAGIC, [("labels", np.zeros(2)), ("sample_ids", np.zeros(2)), ("scores", np.zeros(2))],
         storage.RecordError),
        (SCORE_MAGIC, [("sample_ids", np.zeros(2)), ("labels", np.zeros(2)), ("scores", np.zeros(3))],
         storage.RecordError),
        (SCORE_MAGIC, [("sample_ids", np.zeros((2, 1))), ("labels", np.zeros(2)),
                       ("scores", np.zeros(2))], storage.RecordError),
        (SCORE_MAGIC, [], storage.RecordError)])
    def test_other_magic_or_layout_rejected(self, tmp_path, magic, records, error):
        path = tmp_path / "scores.gscore"
        storage.write_container(path, magic, {}, records)
        with pytest.raises(error):
            load_scores(path)
