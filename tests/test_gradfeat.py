import math

import numpy as np
import pytest

from gradgate.attacks import fgsm
from gradgate.autodiff import Tensor, backward
from gradgate.data import gen_glyphs, gen_ood
from gradgate.gradfeat import (
    CHUNK_SIZE,
    ConfoundingLabel,
    FeatureError,
    FeatureSet,
    bce_confounding_loss,
    concat_features,
    extract_activation_features,
    extract_gradient_features,
    feature_names,
    load_features_csv,
    make_confounding_label,
    norm_summary,
    save_features_csv,
)
from gradgate.nn import build_classifier, load_checkpoint, mlp, save_checkpoint, small_cnn


@pytest.fixture(scope="module")
def cnn():
    model = build_classifier(small_cnn(), seed=0)
    model.set_normalization(gen_glyphs(50, seed=0).images)
    return model


def per_sample_oracle(model, images, label):
    """One single-sample graph and backward pass per sample, reading the
    summed parameter gradients directly."""
    rows = []
    for i in range(len(images)):
        logits, _ = model.forward(images[i:i + 1])
        grads = backward(bce_confounding_loss(logits, label))
        rows.append([float(np.dot(grads[ps.tensor].reshape(-1), grads[ps.tensor].reshape(-1)))
                     for ps in model.params])
    return np.array(rows)


@pytest.fixture(scope="module")
def stream_sources(cnn):
    """Clean glyphs, fgsm glyphs, and two OOD kinds: 2 chunks + 3 of each."""
    n = 2 * CHUNK_SIZE + 3
    glyphs = gen_glyphs(2 * n, seed=21)
    adv = fgsm(cnn, glyphs.images[n:], glyphs.labels[n:], 0.1).images
    return {
        "clean": glyphs.images[:n],
        "fgsm": adv,
        "uniform-noise": gen_ood("uniform-noise", n, seed=22).images,
        "textures": gen_ood("textures", n, seed=23).images,
    }


def quartiles_oracle(col):
    """Sort-based linear-interpolation quantiles, written out by hand."""
    s = np.sort(np.asarray(col, dtype=np.float64))
    out = []
    for q in (0.25, 0.5, 0.75):
        h = (len(s) - 1) * q
        lo = int(np.floor(h))
        frac = h - lo
        hi = min(lo + 1, len(s) - 1)
        out.append(s[lo] + frac * (s[hi] - s[lo]))
    return out


class TestConfoundingLabel:
    def test_all_ones_ten_classes(self):
        lab = make_confounding_label(10, "all-ones")
        assert np.array_equal(lab.vector, np.ones(10))
        assert lab.descriptor == "all-ones"

    def test_all_zeros(self):
        lab = make_confounding_label(3, "all-zeros")
        assert np.array_equal(lab.vector, np.zeros(3))

    def test_single_hot_rejected(self):
        with pytest.raises(ValueError):
            make_confounding_label(5, "k-hot", k=1)
        with pytest.raises(ValueError):
            ConfoundingLabel(np.eye(4)[2], "sneaky one-hot")

    def test_k_hot_has_k_ones(self):
        lab = make_confounding_label(6, "k-hot", k=3, seed=5)
        assert lab.vector.sum() == 3

    def test_all_ones_never_matches_identity_row(self):
        for n in range(2, 12):
            lab = make_confounding_label(n, "all-ones")
            for row in np.eye(n):
                assert not np.array_equal(lab.vector, row)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            make_confounding_label(1, "all-ones")


class TestConfoundingLoss:
    def test_zero_logits_all_ones_is_ln2(self):
        for n in (2, 4, 10):
            loss = bce_confounding_loss(Tensor(np.zeros(n)), make_confounding_label(n))
            assert float(loss.data) == math.log(2.0)

    def test_hand_arithmetic_two_classes(self):
        loss = bce_confounding_loss(Tensor([math.log(3.0), 0.0]), make_confounding_label(2))
        expected = -(math.log(0.75) + math.log(0.5)) / 2.0
        assert abs(float(loss.data) - expected) < 1e-15
        assert abs(float(loss.data) - 0.490415) < 1e-6

    def test_huge_logits_saturate_to_zero_without_nan(self):
        loss = bce_confounding_loss(Tensor(np.full(5, 800.0)), make_confounding_label(5))
        assert float(loss.data) == 0.0
        loss = bce_confounding_loss(Tensor(np.full(5, -800.0)), make_confounding_label(5))
        assert np.isfinite(loss.data)


class TestGradientFeatures:
    def test_feature_length_is_param_set_count(self, cnn):
        images = gen_glyphs(3, seed=1).images
        fs = extract_gradient_features(cnn, images, make_confounding_label(10), "clean")
        assert fs.values.shape == (3, 8)
        assert feature_names(cnn, "gradient") == [f"layer{i}.{p}" for i in range(4)
                                                  for p in ("weight", "bias")]
        assert np.all(fs.anomaly_labels == -1)

    def test_nonnegative_and_finite(self, cnn):
        images = gen_glyphs(5, seed=2).images
        fs = extract_gradient_features(cnn, images, make_confounding_label(10))
        assert np.all(fs.values >= 0.0)
        assert np.all(np.isfinite(fs.values))

    def test_sign_neutrality_bitwise(self, cnn):
        # gradients of +loss and -loss give identical squared norms
        from gradgate.autodiff import backward

        image = gen_glyphs(1, seed=3).images
        label = make_confounding_label(10)
        logits, _ = cnn.forward(image)
        loss = bce_confounding_loss(logits, label)
        pos = backward(loss)
        neg = backward(loss * -1.0)
        for ps in cnn.params:
            fpos = float(np.dot(pos[ps.tensor].reshape(-1), pos[ps.tensor].reshape(-1)))
            fneg = float(np.dot(neg[ps.tensor].reshape(-1), neg[ps.tensor].reshape(-1)))
            assert fpos == fneg

    def test_loss_scaling_squares_features(self, cnn):
        from gradgate.autodiff import backward

        image = gen_glyphs(1, seed=4).images
        label = make_confounding_label(10)
        k = 3.75
        logits, _ = cnn.forward(image)
        loss = bce_confounding_loss(logits, label)
        base = backward(loss)
        scaled = backward(loss * k)
        for ps in cnn.params:
            f1 = np.dot(base[ps.tensor].reshape(-1), base[ps.tensor].reshape(-1))
            f2 = np.dot(scaled[ps.tensor].reshape(-1), scaled[ps.tensor].reshape(-1))
            assert abs(f2 - k * k * f1) <= 1e-10 * abs(k * k * f1)

    def test_agreeing_logits_give_near_zero_final_layer_features(self):
        model = build_classifier(mlp(num_classes=4, input_shape=(1, 2, 2), hidden=3), seed=1)
        model.params[-1].tensor.data[:] = 60.0  # final bias drives sigmoid to 1
        fs = extract_gradient_features(model, np.full((1, 1, 2, 2), 0.5),
                                       make_confounding_label(4))
        assert fs.values[0, -1] < 1e-20
        assert fs.values[0, -2] < 1e-20

    def test_features_stable_across_checkpoint_round_trip(self, cnn, tmp_path):
        images = gen_glyphs(4, seed=5).images
        label = make_confounding_label(10)
        before = extract_gradient_features(cnn, images, label)
        path = tmp_path / "model.ggate"
        save_checkpoint(cnn, path)
        after = extract_gradient_features(load_checkpoint(path), images, label)
        assert before.values.tobytes() == after.values.tobytes()


class TestBatchedGradientFeatures:
    """The chunked per-sample norms against the one-graph-per-sample oracle."""

    @pytest.mark.parametrize("source", ["clean", "fgsm", "uniform-noise", "textures"])
    def test_matches_per_sample_oracle(self, cnn, stream_sources, source):
        images = stream_sources[source]
        label = make_confounding_label(10)
        fs = extract_gradient_features(cnn, images, label, source)
        np.testing.assert_allclose(fs.values, per_sample_oracle(cnn, images, label),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 37])
    def test_batch_sizes(self, cnn, n):
        images = gen_glyphs(n, seed=24).images
        label = make_confounding_label(10, "k-hot", k=3, seed=2)
        fs = extract_gradient_features(cnn, images, label)
        assert fs.values.shape == (n, 8)
        np.testing.assert_allclose(fs.values, per_sample_oracle(cnn, images, label),
                                   rtol=1e-12, atol=0.0)

    def test_mlp_matches_per_sample_oracle(self):
        model = build_classifier(mlp(num_classes=4, input_shape=(1, 4, 4), hidden=5), seed=3)
        images = np.random.default_rng(4).uniform(size=(CHUNK_SIZE + 2, 1, 4, 4))
        label = make_confounding_label(4)
        fs = extract_gradient_features(model, images, label)
        np.testing.assert_allclose(fs.values, per_sample_oracle(model, images, label),
                                   rtol=1e-12, atol=0.0)

    def test_parameters_get_no_summed_gradient(self, cnn, monkeypatch):
        import gradgate.gradfeat as gf

        seen = []

        def spy(root):
            grads = backward(root)
            seen.append(grads)
            return grads

        monkeypatch.setattr(gf, "backward", spy)
        extract_gradient_features(cnn, gen_glyphs(CHUNK_SIZE + 1, seed=25).images,
                                  make_confounding_label(10))
        assert len(seen) == 2  # one backward pass per chunk
        for grads in seen:
            assert not any(ps.tensor in grads for ps in cnn.params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN pixel is the point
    def test_non_finite_feature_names_first_bad_sample(self, cnn):
        images = gen_glyphs(CHUNK_SIZE + 6, seed=26).images
        images[CHUNK_SIZE + 2, 0, 3, 3] = np.nan
        images[CHUNK_SIZE + 4, 0, 5, 5] = np.inf
        with pytest.raises(FeatureError, match=f"sample {CHUNK_SIZE + 2} "):
            extract_gradient_features(cnn, images, make_confounding_label(10), "bad")


class TestActivationFeatures:
    def test_zero_input_zero_bias_gives_zero_norms(self):
        model = build_classifier(mlp(num_classes=3, input_shape=(1, 2, 2), hidden=4), seed=2)
        for ps in model.params:
            if ps.name.endswith("bias"):
                ps.tensor.data[:] = 0.0
        fs = extract_activation_features(model, np.zeros((2, 1, 2, 2)))
        assert np.array_equal(fs.values, np.zeros((2, 2)))

    def test_entry_count_is_layer_count(self, cnn):
        fs = extract_activation_features(cnn, gen_glyphs(2, seed=6).images)
        assert fs.values.shape == (2, 4)
        assert feature_names(cnn, "activation") == ["layer0", "layer1", "layer2", "layer3"]

    def test_norms_nonnegative(self, cnn):
        fs = extract_activation_features(cnn, gen_glyphs(6, seed=7).images)
        assert np.all(fs.values >= 0.0)


class TestNormSummary:
    def test_single_sample_collapses(self):
        summary = norm_summary(np.array([[2.0, 5.0]]), ["only"])
        assert summary["only"][0] == (2.0, 2.0, 2.0, 2.0, 2.0)
        assert summary["only"][1] == (5.0, 5.0, 5.0, 5.0, 5.0)

    def test_constant_group(self):
        summary = norm_summary(np.full((7, 2), 3.25), ["c"] * 7)
        for stats in summary["c"]:
            assert stats == (3.25, 3.25, 3.25, 3.25, 3.25)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((40, 3))
        tags = ["a"] * 25 + ["b"] * 15
        summary = norm_summary(values, tags)
        for tag, rows in (("a", values[:25]), ("b", values[25:])):
            for j in range(3):
                mn, q1, med, q3, mx = summary[tag][j]
                oq1, omed, oq3 = quartiles_oracle(rows[:, j])
                assert mn == rows[:, j].min() and mx == rows[:, j].max()
                np.testing.assert_allclose([q1, med, q3], [oq1, omed, oq3], rtol=1e-12)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            norm_summary(np.empty((0, 2)), [])


class TestFeatureCsv:
    def test_round_trip_is_byte_identical(self, cnn, tmp_path):
        images = gen_glyphs(5, seed=8).images
        fs = extract_gradient_features(cnn, images, make_confounding_label(10), "clean")
        first = tmp_path / "a.csv"
        save_features_csv(fs, first)
        reloaded = load_features_csv(first)
        second = tmp_path / "b.csv"
        save_features_csv(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.values.tobytes() == fs.values.tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_file_and_row(self, cnn, tmp_path, bad):
        fs = extract_gradient_features(cnn, gen_glyphs(3, seed=9).images,
                                       make_confounding_label(10), "clean")
        path = tmp_path / "f.csv"
        save_features_csv(fs, path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = bad
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FeatureError, match="f.csv: non-finite value in row 1"):
            load_features_csv(path)

    def test_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,foo\n1,2\n")
        with pytest.raises(FeatureError):
            load_features_csv(bad)

    def test_concat_requires_same_dim(self):
        a = FeatureSet(np.zeros((2, 3)), np.arange(2), np.zeros(2, dtype=np.int64), ["x", "x"])
        b = FeatureSet(np.zeros((2, 4)), np.arange(2), np.zeros(2, dtype=np.int64), ["y", "y"])
        with pytest.raises(FeatureError):
            concat_features([a, b])
