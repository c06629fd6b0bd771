"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL
line with its measured values. The heavyweight fixture runs the default
experiment pipeline once per session; run with -s to see the lines.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from gradgate import attacks
from gradgate.autodiff import backward, softmax_cross_entropy
from gradgate.cli import run_experiment
from gradgate.config import ExperimentConfig, child_seed
from gradgate.data import gen_glyphs, load_dataset, split
from gradgate.detector import (
    assemble_detection_sets,
    aupr,
    auroc,
    evaluate,
    score,
    train_detector,
)
from gradgate.gradfeat import (
    bce_confounding_loss,
    concat_features,
    extract_gradient_features,
    load_features_csv,
    make_confounding_label,
)
from gradgate.nn import (
    accuracy,
    build_classifier,
    load_checkpoint,
    save_checkpoint,
    small_cnn,
)
from test_detector import aupr_sweep_oracle, auroc_pairwise_oracle


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Run the default experiment once; everything downstream reads it."""
    cfg = ExperimentConfig().validate()
    out = tmp_path_factory.mktemp("acceptance")
    start = time.time()
    rows = run_experiment(cfg, out)
    elapsed = time.time() - start
    digest = cfg.digest()
    model = load_checkpoint(out / f"classifier-{digest}.ggate")
    clean = load_dataset(out / f"clean-test-{digest}.gdata")
    return SimpleNamespace(cfg=cfg, out=out, rows=rows, elapsed=elapsed,
                           digest=digest, model=model, clean=clean)


def row_metric(rows, source, method, metric):
    for r in rows:
        if r.source_tag == source and r.method == method:
            return getattr(r, metric)
    raise KeyError((source, method))


class TestCriterion1Autodiff:
    def test_gradcheck_small_cnn(self):
        start = time.time()
        rng = np.random.default_rng(123)
        model = build_classifier(small_cnn(), seed=9)
        model.set_normalization(gen_glyphs(64, seed=1).images)
        x = gen_glyphs(2, seed=2).images
        y = np.array([0, 7])

        def loss_value():
            logits, _ = model.forward(x)
            return float(softmax_cross_entropy(logits, y).data)

        logits, _ = model.forward(x)
        grads = backward(softmax_cross_entropy(logits, y))
        h = 1e-5
        checked, worst = 0, 0.0
        for ps in model.params:  # covers conv, bias, and dense layer types
            flat = ps.tensor.data.reshape(-1)
            g = grads[ps.tensor].reshape(-1)
            for c in rng.choice(flat.size, size=min(16, flat.size), replace=False):
                orig = flat[c]
                flat[c] = orig + h
                hi = loss_value()
                flat[c] = orig - h
                lo = loss_value()
                flat[c] = orig
                fd = (hi - lo) / (2 * h)
                rel = abs(g[c] - fd) / max(1e-8, abs(fd))
                worst = max(worst, rel)
                assert rel < 1e-4, f"{ps.name}[{c}]: rel err {rel}"
                checked += 1
        elapsed = time.time() - start
        announce(1, checked >= 100 and worst < 1e-4 and elapsed < 60,
                 f"autodiff gradcheck: {checked} coordinates, worst rel err "
                 f"{worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")


class TestCriterion2MetricOracles:
    def test_oracle_agreement(self):
        rng = np.random.default_rng(7)
        worst_auroc, worst_aupr = 0.0, 0.0
        for _ in range(200):
            n = 50
            labels = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(np.int64)
            labels[0], labels[1] = 0, 1
            scores = np.round(rng.uniform(size=n), rng.integers(1, 3))  # forces ties
            worst_auroc = max(worst_auroc,
                              abs(auroc(labels, scores) - auroc_pairwise_oracle(labels, scores)))
            worst_aupr = max(worst_aupr,
                             abs(aupr(labels, scores) - aupr_sweep_oracle(labels, scores)))
        assert worst_auroc < 1e-12 and worst_aupr < 1e-12
        # degenerate cases are exact
        ties = np.full(6, 0.3)
        lab = np.array([0, 1, 0, 1, 0, 1])
        assert auroc(lab, ties) == 0.5
        sep = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
        assert auroc(lab, sep) == 1.0 and aupr(lab, sep) == 1.0
        announce(2, True,
                 f"metric oracles: 200 instances, max |auroc diff| {worst_auroc:.1e}, "
                 f"max |aupr diff| {worst_aupr:.1e}, degenerate cases exact")


class TestCriterion3AttackValidity:
    def test_accuracy_drops_budgets_and_bim_fgsm_link(self, pipeline):
        model, clean = pipeline.model, pipeline.clean
        clean_acc = accuracy(model, clean.images, clean.labels)
        assert clean_acc >= 0.95
        drops = {}
        for kind in ("fgsm", "bim", "pgd"):
            adv = load_dataset(pipeline.out / f"adv-{kind}-{pipeline.digest}.gdata")
            linf = np.abs(adv.images - clean.images).reshape(len(adv.images), -1).max(axis=1)
            assert linf.max() <= pipeline.cfg.epsilon, f"{kind} exceeded epsilon"
            drops[kind] = clean_acc - accuracy(model, adv.images, clean.labels)
            assert drops[kind] >= 0.40, f"{kind} drop {drops[kind]:.3f} < 0.40"
        x, y = clean.images[:100], clean.labels[:100]
        eps = pipeline.cfg.epsilon
        same = attacks.fgsm(model, x, y, eps).images.tobytes() == \
            attacks.bim(model, x, y, eps, eps, 1).images.tobytes()
        assert same

        def success_rate(kind):
            adv = load_dataset(pipeline.out / f"adv-{kind}-{pipeline.digest}.gdata")
            return float((model.predict(adv.images) != clean.labels).mean())

        assert success_rate("bim") >= success_rate("fgsm")
        cw_success = success_rate("cw")
        assert cw_success >= 0.8
        semantic_ds = load_dataset(pipeline.out / f"adv-semantic-{pipeline.digest}.gdata")
        assert accuracy(model, semantic_ds.images, clean.labels) < clean_acc
        announce(3, True,
                 f"attack validity: clean acc {clean_acc:.3f} >= 0.95; drops "
                 + ", ".join(f"{k} {v:.2f}" for k, v in drops.items())
                 + f" all >= 0.40; L-inf budgets exact; bim(T=1,a=eps) == fgsm bitwise; "
                 f"bim success >= fgsm success; cw success {cw_success:.2f} >= 0.8; "
                 f"negation lowers accuracy")


class TestCriterion4GradientVsActivation:
    def test_per_layer_and_pooled_comparison(self, pipeline):
        cfg, out, digest = pipeline.cfg, pipeline.out, pipeline.digest
        attack_tags = [f"adv-{k}" for k in cfg.attack_kinds]
        sets = {}
        for mode in ("gradient", "activation"):
            clean = load_features_csv(out / f"features-{mode}-clean-test-{digest}.csv")
            pooled = concat_features(
                [load_features_csv(out / f"features-{mode}-{t}-{digest}.csv")
                 for t in attack_tags])
            sets[mode] = (clean, pooled)

        g_clean, g_adv = sets["gradient"]
        a_clean, a_adv = sets["activation"]
        labels = np.concatenate([np.zeros(len(g_clean), dtype=np.int64),
                                 np.ones(len(g_adv), dtype=np.int64)])
        wins = 0
        per_layer = []
        for layer in range(4):
            # layer gradient norm: weight + bias squared-norm entries
            g = np.concatenate([g_clean.values[:, 2 * layer] + g_clean.values[:, 2 * layer + 1],
                                g_adv.values[:, 2 * layer] + g_adv.values[:, 2 * layer + 1]])
            a = np.concatenate([a_clean.values[:, layer], a_adv.values[:, layer]])
            ga, aa = auroc(labels, g), auroc(labels, a)
            per_layer.append(f"L{layer} {ga:.3f}vs{aa:.3f}")
            wins += ga > aa
        assert wins >= 3, f"gradient wins only {wins}/4 layers"

        # fgsm gradient-norm medians exceed clean medians for a majority of
        # the per-parameter-set feature entries
        fgsm = load_features_csv(out / f"features-gradient-adv-fgsm-{digest}.csv").values
        median_wins = sum(np.median(fgsm[:, p]) > np.median(g_clean.values[:, p])
                          for p in range(g_clean.dim))
        assert median_wins > g_clean.dim / 2

        pooled_auroc = {}
        seed = child_seed(cfg.master_seed, "detect:pooled")
        for mode in ("gradient", "activation"):
            clean, pooled = sets[mode]
            train, val, test = assemble_detection_sets(clean, pooled, seed)
            det = train_detector(train, val, hidden=cfg.hidden, seed=seed)
            pooled_auroc[mode] = evaluate(score(det, test))["auroc"]
        assert pooled_auroc["gradient"] > pooled_auroc["activation"]
        assert pipeline.elapsed < 600
        announce(4, True,
                 f"gradient vs activation: per-layer wins {wins}/4 "
                 f"({', '.join(per_layer)}); pooled detector "
                 f"{pooled_auroc['gradient']:.4f} > {pooled_auroc['activation']:.4f}; "
                 f"pipeline {pipeline.elapsed:.0f}s < 600s")


class TestCriterion5AdversarialDetection:
    def test_gradient_auroc_per_attack(self, pipeline):
        values = {}
        for kind in pipeline.cfg.attack_kinds:
            values[kind] = row_metric(pipeline.rows, f"adv-{kind}", "gradient", "auroc")
            assert values[kind] >= 0.85, f"{kind}: AUROC {values[kind]:.4f} < 0.85"
        announce(5, True,
                 "adversarial detection AUROC (gradient features): "
                 + ", ".join(f"{k} {v:.3f}" for k, v in values.items()) + " all >= 0.85")


class TestCriterion6OodDetection:
    def test_noise_aurocs_and_near_ood_ordering(self, pipeline):
        uniform = row_metric(pipeline.rows, "ood-uniform-noise", "gradient", "auroc")
        gaussian = row_metric(pipeline.rows, "ood-gaussian-noise", "gradient", "auroc")
        textures = row_metric(pipeline.rows, "ood-textures", "gradient", "auroc")
        assert uniform >= 0.95 and gaussian >= 0.95
        assert textures <= uniform
        announce(6, True,
                 f"OOD detection: uniform {uniform:.4f}, gaussian {gaussian:.4f} "
                 f">= 0.95; textures {textures:.4f} <= uniform {uniform:.4f}")


class TestCriterion7MethodInvariants:
    def test_sign_neutrality_scaling_and_roundtrip(self, pipeline, tmp_path):
        model = pipeline.model
        label = make_confounding_label(model.num_classes)
        images = pipeline.clean.images[:8]

        # sign neutrality: features from +J and -J identical bitwise
        for i in range(4):
            logits, _ = model.forward(images[i:i + 1])
            loss = bce_confounding_loss(logits, label)
            pos = backward(loss)
            neg = backward(loss * -1.0)
            for ps in model.params:
                fp = float(np.dot(pos[ps.tensor].reshape(-1), pos[ps.tensor].reshape(-1)))
                fn = float(np.dot(neg[ps.tensor].reshape(-1), neg[ps.tensor].reshape(-1)))
                assert fp == fn

        # loss scaling k -> feature scaling k^2, relative error < 1e-10
        k = 2.5
        worst = 0.0
        for i in range(4):
            logits, _ = model.forward(images[i:i + 1])
            loss = bce_confounding_loss(logits, label)
            base = backward(loss)
            scaled = backward(loss * k)
            for ps in model.params:
                f1 = np.dot(base[ps.tensor].reshape(-1), base[ps.tensor].reshape(-1))
                f2 = np.dot(scaled[ps.tensor].reshape(-1), scaled[ps.tensor].reshape(-1))
                worst = max(worst, abs(f2 - k * k * f1) / (k * k * f1))
        assert worst < 1e-10

        # features bitwise stable across a checkpoint round trip
        before = extract_gradient_features(model, images, label)
        path = tmp_path / "roundtrip.ggate"
        save_checkpoint(model, path)
        after = extract_gradient_features(load_checkpoint(path), images, label)
        assert before.values.tobytes() == after.values.tobytes()

        # full pipeline determinism on a reduced config, two fresh directories
        small = ExperimentConfig(dataset_count=400, epochs=2, attack_count=40,
                                 attack_kinds=("fgsm", "cw", "semantic"),
                                 cw_iterations=15, ood_kinds=("uniform-noise",),
                                 ood_count=40, detector_epochs=30,
                                 master_seed=13).validate()
        run_experiment(small, tmp_path / "runA")
        run_experiment(small, tmp_path / "runB")
        rep_a = (tmp_path / "runA" / f"report-{small.digest()}.kv").read_bytes()
        rep_b = (tmp_path / "runB" / f"report-{small.digest()}.kv").read_bytes()
        assert rep_a == rep_b

        announce(7, True,
                 f"method invariants: sign neutrality bitwise; k^2 scaling worst rel "
                 f"err {worst:.1e} < 1e-10; checkpoint round-trip bitwise; "
                 f"pipeline reports byte-identical across reruns")


class TestCriterion8SplitProtocol:
    def test_40_40_20_sizes(self):
        from gradgate.gradfeat import FeatureSet

        def features(n, tag):
            return FeatureSet(np.random.default_rng(n).uniform(size=(n, 3)),
                              np.arange(n), np.full(n, -1, dtype=np.int64),
                              [tag] * n)

        # divisible by 5: exact sizes
        train, val, test = assemble_detection_sets(features(100, "a"), features(50, "b"), 3)
        assert (len(train), len(val), len(test)) == (60, 60, 30)
        exact = [len(train), len(val), len(test)]

        # otherwise within one sample per side per part
        train, val, test = assemble_detection_sets(features(97, "a"), features(53, "b"), 4)
        for part, frac in ((train, 0.4), (val, 0.4), (test, 0.2)):
            for side, n in ((0, 97), (1, 53)):
                got = int((part.anomaly_labels == side).sum())
                assert abs(got - frac * n) < 1.0 + 1e-9
        # sanity on the classifier-side splitter too
        parts = split(gen_glyphs(100, seed=0), (0.4, 0.4, 0.2), seed=1)
        assert [len(p) for p in parts] == [40, 40, 20]
        announce(8, True,
                 f"split protocol: 100+50 -> {exact} exact 40/40/20; "
                 f"97+53 within one sample per side per part; dataset split 40/40/20 exact")
