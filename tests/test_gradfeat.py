import math

import numpy as np
import pytest

from gradgate import storage
from gradgate.attacks import fgsm
from gradgate.autodiff import ShapeError, Tensor, backward
from gradgate.data import gen_glyphs, gen_ood
from gradgate.detector import build_detector, msp_scores, score
from gradgate.gradfeat import (
    CHUNK_SIZE,
    FEATURE_MAGIC,
    ConfoundingLabel,
    FeatureError,
    FeatureSet,
    bce_confounding_loss,
    concat_features,
    extract_activation_features,
    extract_gradient_features,
    feature_names,
    load_features,
    make_confounding_label,
    norm_summary,
    save_features,
    unlabeled_features,
)
from gradgate.nn import (
    FORWARD_BLOCK,
    build_classifier,
    load_checkpoint,
    mlp,
    save_checkpoint,
    small_cnn,
)


@pytest.fixture(scope="module")
def cnn():
    model = build_classifier(small_cnn(), seed=0)
    model.set_normalization(gen_glyphs(50, seed=0).images)
    return model


def per_sample_oracle(model, images, label):
    """One single-sample graph and backward pass per sample, reading the
    summed parameter gradients of the trainable view directly."""
    live = model.trainable()
    rows = []
    for i in range(len(images)):
        logits, _ = live.forward(images[i:i + 1])
        grads = backward(bce_confounding_loss(logits, label))
        rows.append([float(np.dot(grads[ps.tensor].reshape(-1), grads[ps.tensor].reshape(-1)))
                     for ps in live.params])
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

    def test_all_zeros(self):
        lab = make_confounding_label(3, "all-zeros")
        assert np.array_equal(lab.vector, np.zeros(3))

    def test_single_hot_rejected(self):
        with pytest.raises(ValueError):
            make_confounding_label(5, "k-hot", k=1)
        with pytest.raises(ValueError):
            ConfoundingLabel(np.eye(4)[2])

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
            loss = bce_confounding_loss(Tensor(np.zeros((1, n))), make_confounding_label(n))
            assert float(loss.data) == math.log(2.0)

    def test_hand_arithmetic_two_classes(self):
        loss = bce_confounding_loss(Tensor([[math.log(3.0), 0.0]]), make_confounding_label(2))
        expected = -(math.log(0.75) + math.log(0.5)) / 2.0
        assert abs(float(loss.data) - expected) < 1e-15
        assert abs(float(loss.data) - 0.490415) < 1e-6

    def test_huge_logits_saturate_to_zero_without_nan(self):
        loss = bce_confounding_loss(Tensor(np.full((1, 5), 800.0)), make_confounding_label(5))
        assert float(loss.data) == 0.0
        loss = bce_confounding_loss(Tensor(np.full((1, 5), -800.0)), make_confounding_label(5))
        assert np.isfinite(loss.data)

    @pytest.mark.parametrize("shape", [(2, 3), (10,), (1, 1, 10)])
    def test_logits_other_than_batch_by_classes_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"^bce_confounding_loss: incompatible shapes "
                                             rf"\({', '.join(map(str, shape))},?\), \(10,\)"):
            bce_confounding_loss(Tensor(np.zeros(shape)), make_confounding_label(10))


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
        live = cnn.trainable()
        logits, _ = live.forward(image)
        loss = bce_confounding_loss(logits, label)
        pos = backward(loss)
        neg = backward(loss * -1.0)
        for ps in live.params:
            fpos = float(np.dot(pos[ps.tensor].reshape(-1), pos[ps.tensor].reshape(-1)))
            fneg = float(np.dot(neg[ps.tensor].reshape(-1), neg[ps.tensor].reshape(-1)))
            assert fpos == fneg

    def test_loss_scaling_squares_features(self, cnn):
        from gradgate.autodiff import backward

        image = gen_glyphs(1, seed=4).images
        label = make_confounding_label(10)
        k = 3.75
        live = cnn.trainable()
        logits, _ = live.forward(image)
        loss = bce_confounding_loss(logits, label)
        base = backward(loss)
        scaled = backward(loss * k)
        for ps in live.params:
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
        label = make_confounding_label(10)
        fs = extract_gradient_features(cnn, gen_glyphs(CHUNK_SIZE + 1, seed=25).images, label)
        assert fs.values.shape == (CHUNK_SIZE + 1, 8)  # the tail of one gives one row
        assert len(seen) == 2  # one backward pass per chunk, the padded tail's included
        for grads in seen:
            assert not any(ps.tensor in grads for ps in cnn.params)
            assert all(g.shape[0] == CHUNK_SIZE for g in grads.values() if g.ndim)
        seen.clear()
        assert extract_gradient_features(cnn, np.zeros((0, 1, 16, 16)), label).values.shape == (0, 8)
        assert len(seen) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN pixel is the point
    def test_non_finite_feature_names_first_bad_sample(self, cnn):
        # with CHUNK_SIZE > 6 both bad samples lie in the zero-padded tail chunk
        images = gen_glyphs(CHUNK_SIZE + 6, seed=26).images
        images[CHUNK_SIZE + 2, 0, 3, 3] = np.nan
        images[CHUNK_SIZE + 4, 0, 5, 5] = np.inf
        with pytest.raises(FeatureError, match=f"sample {CHUNK_SIZE + 2} "):
            extract_gradient_features(cnn, images, make_confounding_label(10), "bad")


class TestBatchInvariance:
    """``nn.map_blocks`` runs every block at its full row count, so a sample's
    bytes do not depend on the request it comes in."""

    @pytest.fixture(scope="class")
    def whole(self, cnn, stream_sources):
        """The stream sources extracted as one set, and a detector's scores of
        them; the detector is left untrained, since only its arithmetic matters."""
        images = np.concatenate(list(stream_sources.values()))
        label = make_confounding_label(10)
        fs = extract_gradient_features(cnn, images, label)
        det = build_detector(fs.values, hidden=64, seed=1)
        return images, label, fs.values, det, score(det, fs).scores

    @pytest.mark.parametrize("size", [1, 2, 3, CHUNK_SIZE - 1, CHUNK_SIZE + 1, 37])
    def test_request_rows_equal_whole_set_rows_bytewise(self, cnn, whole, size):
        images, label, values, det, scores = whole
        for offset in range(0, len(images) - size + 1, max(1, size // 2)):
            fs = extract_gradient_features(cnn, images[offset:offset + size], label)
            got = score(det, fs).scores
            for i in range(size):
                assert fs.values[i].tobytes() == values[offset + i].tobytes(), (offset, i)
                assert got[i].tobytes() == scores[offset + i].tobytes(), (offset, i)

    FORWARD_PASSES = {"logits": lambda model, x: model.logits(x),
                      "msp": msp_scores,
                      "activation": lambda model, x: extract_activation_features(model, x).values}

    @pytest.mark.parametrize("size", [1, 2, 3, CHUNK_SIZE + 1, FORWARD_BLOCK + 1])
    @pytest.mark.parametrize("name", list(FORWARD_PASSES))
    def test_forward_rows_equal_whole_set_rows_bytewise(self, cnn, whole, name, size):
        run = self.FORWARD_PASSES[name]
        images = whole[0]
        want = run(cnn, images)
        for offset in range(0, len(images) - size + 1, max(1, size // 2)):
            got = run(cnn, images[offset:offset + size])
            for i in range(size):
                assert got[i].tobytes() == want[offset + i].tobytes(), (offset, i)

    @pytest.mark.parametrize("size", [1, 2, 3, FORWARD_BLOCK - 1, FORWARD_BLOCK + 1])
    def test_detector_rows_equal_whole_set_rows_bytewise(self, whole, size):
        _, _, values, det, _ = whole
        rng = np.random.default_rng(29)
        rows = rng.normal(values.mean(axis=0), values.std(axis=0),
                          size=(2 * FORWARD_BLOCK + 3, values.shape[1]))
        want = score(det, unlabeled_features(rows, "")).scores
        for offset in range(0, len(rows) - size + 1, max(1, size // 2)):
            got = score(det, unlabeled_features(rows[offset:offset + size], "")).scores
            for i in range(size):
                assert got[i].tobytes() == want[offset + i].tobytes(), (offset, i)


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


class TestLayout:
    """The conv stack's batch-innermost layout ends at the flatten: what
    leaves the classifier is C-ordered, and features do not depend on how a
    conv activation is stored."""

    @pytest.fixture
    def c_ordered_convs(self, monkeypatch):
        """Conv outputs copied to C order, as they were stored before."""
        import gradgate.nn as nn_module

        conv2d = nn_module.conv2d

        def c_ordered(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            out.data = np.ascontiguousarray(out.data)
            return out

        monkeypatch.setattr(nn_module, "conv2d", c_ordered)

    def test_outputs_are_c_ordered(self, cnn):
        images = gen_glyphs(CHUNK_SIZE + 3, seed=27).images
        acts = cnn.forward(images)[1]
        assert not acts[0].data.flags.c_contiguous  # a batch-innermost conv activation
        assert cnn.logits(images).flags.c_contiguous
        assert extract_activation_features(cnn, images).values.flags.c_contiguous
        label = make_confounding_label(10)
        assert extract_gradient_features(cnn, images, label).values.flags.c_contiguous

    def test_features_match_c_ordered_activations_bytewise(self, cnn, request):
        images = gen_glyphs(2 * CHUNK_SIZE + 1, seed=28).images
        label = make_confounding_label(10)
        got = [extract_gradient_features(cnn, images, label).values,
               extract_activation_features(cnn, images).values, cnn.logits(images)]
        request.getfixturevalue("c_ordered_convs")
        assert cnn.forward(images)[1][0].data.flags.c_contiguous
        want = [extract_gradient_features(cnn, images, label).values,
                extract_activation_features(cnn, images).values, cnn.logits(images)]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestNormSummary:
    def test_single_sample_collapses(self):
        summary = norm_summary(np.array([[2.0, 5.0]]))
        assert summary.tolist() == [[2.0, 5.0]] * 5

    def test_constant_set(self):
        assert norm_summary(np.full((7, 2), 3.25)).tolist() == [[3.25, 3.25]] * 5

    @pytest.mark.parametrize("n", [2, 15, 25, 40])
    def test_matches_sort_oracle(self, n):
        values = np.random.default_rng(11).standard_normal((n, 3))
        summary = norm_summary(values)
        assert summary.shape == (5, 3)
        for j in range(3):
            mn, q1, med, q3, mx = summary[:, j]
            assert mn == values[:, j].min() and mx == values[:, j].max()
            np.testing.assert_allclose([q1, med, q3], quartiles_oracle(values[:, j]), rtol=1e-12)

    def test_equals_the_per_column_quartiles_bytewise(self):
        # the quartiles of the table compare-norms wrote one column at a time
        values = np.random.default_rng(12).exponential(size=(37, 8))
        for j, stats in enumerate(norm_summary(values).T):
            col = values[:, j]
            want = [col.min(), *np.quantile(col, [0.25, 0.5, 0.75]), col.max()]
            assert stats.tobytes() == np.array(want).tobytes()

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            norm_summary(np.empty((0, 2)))


class TestFeatureFile:
    def test_round_trip_is_byte_identical(self, cnn, tmp_path):
        images = gen_glyphs(5, seed=8).images
        fs = extract_gradient_features(cnn, images, make_confounding_label(10), "clean")
        first = tmp_path / "a.gfeat"
        save_features(fs, first)
        reloaded = load_features(first)
        second = tmp_path / "b.gfeat"
        save_features(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.values.tobytes() == fs.values.tobytes()
        assert reloaded.sample_ids.tolist() == fs.sample_ids.tolist()
        assert reloaded.anomaly_labels.tolist() == fs.anomaly_labels.tolist()
        assert reloaded.tags == fs.tags

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_with_file_and_row(self, cnn, tmp_path, bad):
        fs = extract_gradient_features(cnn, gen_glyphs(3, seed=9).images,
                                       make_confounding_label(10), "clean")
        fs.values[1, 2] = bad
        path = tmp_path / "f.gfeat"
        save_features(fs, path)
        with pytest.raises(FeatureError, match="f.gfeat: non-finite value in row 1"):
            load_features(path)

    @pytest.mark.parametrize("magic,metadata,records,error", [
        (b"GDATA", {"source_tag": "a"}, [("values", np.zeros((2, 3)))], storage.BadMagicError),
        (FEATURE_MAGIC, {}, [("values", np.zeros((2, 3)))], storage.RecordError),
        (FEATURE_MAGIC, {"source_tag": "a"}, [("vals", np.zeros((2, 3)))], storage.RecordError),
        (FEATURE_MAGIC, {"source_tag": "a"}, [("values", np.zeros(3))], storage.RecordError),
        (FEATURE_MAGIC, {"source_tag": "a"},
         [("values", np.zeros((2, 3))), ("values", np.zeros((2, 3)))], storage.RecordError)])
    def test_other_magic_or_layout_rejected(self, tmp_path, magic, metadata, records, error):
        path = tmp_path / "bad.gfeat"
        storage.write_container(path, magic, metadata, records)
        with pytest.raises(error):
            load_features(path)

    def test_save_refuses_rows_it_cannot_store(self, tmp_path):
        fs = unlabeled_features(np.zeros((3, 2)), "a")
        for other in (FeatureSet(fs.values, fs.sample_ids, np.ones(3, dtype=np.int64), fs.tags),
                      fs.subset([0, 2]),
                      concat_features([fs, unlabeled_features(np.zeros((1, 2)), "b")])):
            with pytest.raises(FeatureError, match="only the unlabeled rows"):
                save_features(other, tmp_path / "x.gfeat")
        assert list(tmp_path.iterdir()) == []

    def test_concat_requires_same_dim(self):
        a = FeatureSet(np.zeros((2, 3)), np.arange(2), np.zeros(2, dtype=np.int64), ["x", "x"])
        b = FeatureSet(np.zeros((2, 4)), np.arange(2), np.zeros(2, dtype=np.int64), ["y", "y"])
        with pytest.raises(FeatureError):
            concat_features([a, b])
