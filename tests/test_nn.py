import math
import re
import weakref

import numpy as np
import pytest

from gradgate import storage
from gradgate.autodiff import (
    ShapeError,
    Tensor,
    backward,
    conv2d,
    matmul,
    maxpool2d,
    relu,
    reshape,
    softmax_cross_entropy,
)
from gradgate.data import Dataset
from gradgate.detector import msp_scores, train_detector
from gradgate.gradfeat import (
    FeatureSet,
    extract_activation_features,
    extract_gradient_features,
    make_confounding_label,
)
from gradgate.nn import (
    FORWARD_BLOCK,
    ArchError,
    ArchSpec,
    ConvLayer,
    DenseLayer,
    TrainConfig,
    TrainingError,
    accuracy,
    build_classifier,
    load_checkpoint,
    mlp,
    save_checkpoint,
    small_cnn,
    sgd_epochs,
    train_classifier,
)


def relu_then_pool_logits(model, x):
    """The forward pass with each conv layer's relu before its pool, as the
    classifier ran it before it pooled first. It normalizes the (B, C, H, W)
    input Tensor ``x`` with add and mul on constants of x's full shape, not
    with ``normalize``: ``x + (-mean)`` is ``x - mean`` exactly."""
    neg_mean = np.broadcast_to(-model.norm_mean[:, None, None], x.data.shape).copy()
    inv_std = np.broadcast_to((1.0 / model.norm_std)[:, None, None], x.data.shape).copy()
    t = (x + Tensor(neg_mean)) * Tensor(inv_std)
    it = iter(model.params)
    for layer in model.arch.layers:
        weight, bias = next(it).tensor, next(it).tensor
        if isinstance(layer, ConvLayer):
            t = conv2d(t, weight, bias, stride=layer.stride, padding=layer.padding)
        else:
            if t.data.ndim == 4:
                t = reshape(t, (len(t.data), math.prod(t.data.shape[1:])))
            t = matmul(t, weight) + bias
        if layer.activation == "relu":
            t = relu(t)
        if isinstance(layer, ConvLayer) and layer.pool:
            t = maxpool2d(t, layer.pool)
    return t


def separable_blobs(n_per_class=40, seed=0):
    """Two well-separated Gaussian blobs rendered as 1x4x4 'images'."""
    rng = np.random.default_rng(seed)
    images = np.zeros((2 * n_per_class, 1, 4, 4))
    labels = np.zeros(2 * n_per_class, dtype=np.int64)
    for i in range(2 * n_per_class):
        cls = i % 2
        base = 0.2 if cls == 0 else 0.8
        images[i, 0] = np.clip(base + rng.normal(0, 0.05, (4, 4)), 0, 1)
        labels[i] = cls
    return Dataset(images, labels, "blobs", seed)


# Each forward-only pass of the classifier over a set, and its output shape on no
# samples for small_cnn: 10 classes, 8 parameter sets, 4 layers.
ZERO_ROW_PASSES = {
    "logits": (lambda model, x: model.logits(x), (0, 10)),
    "msp_scores": (msp_scores, (0,)),
    "gradient_features": (lambda model, x: extract_gradient_features(
        model, x, make_confounding_label(10)).values, (0, 8)),
    "activation_features": (lambda model, x: extract_activation_features(model, x).values,
                            (0, 4)),
}


def train_with_nan(trainer):
    """Run one trainer on inputs that make its first batch loss NaN."""
    train = separable_blobs(seed=0)
    if trainer == "classifier":
        model = build_classifier(mlp(num_classes=2, input_shape=(1, 4, 4)), seed=0)
        model.params[0].tensor.data[0, 0] = np.nan
        train_classifier(model, train, train, TrainConfig(epochs=1, seed=0))
    else:
        values = train.images.reshape(len(train.labels), -1).copy()
        values[0, 0] = np.nan
        features = FeatureSet(values, np.arange(len(values)), train.labels,
                              ["blobs"] * len(values))
        train_detector(features, features, hidden=4, max_epochs=1)


class TestBuild:
    def test_small_cnn_has_eight_param_sets(self):
        model = build_classifier(small_cnn(), seed=0)
        assert len(model.params) == 8
        assert model.param_names() == [f"layer{i}.{suffix}" for i in range(4)
                                       for suffix in ("weight", "bias")]

    def test_mlp_has_four_param_sets(self):
        model = build_classifier(mlp(num_classes=10), seed=0)
        assert len(model.params) == 4
        assert model.params[0].tensor.data.shape == (256, 64)

    def test_same_seed_bit_identical(self):
        a = build_classifier(small_cnn(), seed=9)
        b = build_classifier(small_cnn(), seed=9)
        for pa, pb in zip(a.params, b.params):
            assert pa.tensor.data.tobytes() == pb.tensor.data.tobytes()

    def test_bad_arch_reports_first_offending_layer(self):
        arch = ArchSpec((1, 4, 4), (DenseLayer(8, "relu"), ConvLayer(4, 3), DenseLayer(2)), 2)
        with pytest.raises(ArchError) as exc:
            build_classifier(arch, seed=0)
        assert exc.value.index == 1

    def test_final_layer_must_match_classes(self):
        arch = ArchSpec((1, 4, 4), (DenseLayer(5),), 3)
        with pytest.raises(ArchError):
            arch.validate()

    def test_arch_string_round_trip(self):
        arch = small_cnn(num_classes=7, input_shape=(1, 12, 12))
        assert ArchSpec.from_string(arch.to_string()) == arch

    def test_row_input_arch_string_round_trip(self):
        text = "in:5|dense:3:relu|dense:1:none|classes:1"
        arch = ArchSpec.from_string(text)
        assert arch.input_shape == (5,) and arch.to_string() == text
        assert arch.validate() == [(3,), (1,)]

    def test_conv_on_row_input_rejected(self):
        with pytest.raises(ArchError, match="conv after flatten") as exc:
            ArchSpec((5,), (ConvLayer(4, 3), DenseLayer(1)), 1).validate()
        assert exc.value.index == 0
        with pytest.raises(ValueError, match="conv after flatten"):
            ArchSpec.from_string("in:5|conv:4:3:1:1:relu:0|dense:1:none|classes:1")

    @pytest.mark.parametrize("shape", [(), (4, 4), (1, 1, 4, 4), (0,), (1, 0, 4)])
    def test_input_shape_of_other_rank_or_a_zero_side_rejected(self, shape):
        with pytest.raises(ArchError, match="bad input shape"):
            ArchSpec(shape, (DenseLayer(1),), 1).validate()

    @pytest.mark.parametrize("part", ["conv:8:3", "dense:10", "conv:8:3:1:1:relu:2:junk",
                                      "dense:10:none:1", "classes:10:9"])
    def test_arch_part_with_wrong_field_count_rejected(self, part):
        parts = ["in:1:16:16", "conv:8:3:1:1:relu:2", "dense:10:none", "classes:10"]
        parts[["conv", "dense", "classes"].index(part.split(":")[0]) + 1] = part
        with pytest.raises(ValueError, match=f"arch part '{part}' has"):
            ArchSpec.from_string("|".join(parts))


class TestForward:
    def test_zero_input_zero_bias_mlp(self):
        model = build_classifier(mlp(num_classes=3, input_shape=(1, 2, 2), hidden=4), seed=1)
        for ps in model.params:
            if ps.name.endswith("bias"):
                ps.tensor.data[:] = 0.0
        logits, acts = model.forward(np.zeros((2, 1, 2, 2)))
        assert np.array_equal(logits.data, np.zeros((2, 3)))
        for a in acts:
            assert np.array_equal(a.data, np.zeros_like(a.data))

    def test_activation_count_equals_layer_count(self):
        model = build_classifier(small_cnn(), seed=2)
        _, acts = model.forward(np.random.default_rng(0).uniform(size=(3, 1, 16, 16)))
        assert len(acts) == len(model.arch.layers) == 4

    def test_logits_match_manual_recomposition(self):
        # Re-apply the exported parameters with raw numpy as an oracle.
        model = build_classifier(mlp(num_classes=4, input_shape=(1, 3, 3), hidden=5), seed=3)
        x = np.random.default_rng(4).uniform(size=(6, 1, 3, 3))
        model.set_normalization(x)
        logits, _ = model.forward(x)
        flat = ((x - model.norm_mean[:, None, None]) / model.norm_std[:, None, None]).reshape(6, -1)
        w0, b0, w1, b1 = [ps.tensor.data for ps in model.params]
        manual = np.maximum(flat @ w0 + b0, 0.0) @ w1 + b1
        np.testing.assert_allclose(logits.data, manual, rtol=1e-12, atol=1e-14)

    def test_blocked_logits_equal_forward_passes_of_zero_padded_blocks(self):
        model = build_classifier(small_cnn(), seed=4)
        images = np.random.default_rng(5).uniform(size=(FORWARD_BLOCK + 2, 1, 16, 16))
        padded = np.zeros((2 * FORWARD_BLOCK, 1, 16, 16))
        padded[:len(images)] = images
        blocks = [model.forward(padded[start:start + FORWARD_BLOCK])[0].data
                  for start in (0, FORWARD_BLOCK)]
        want = np.concatenate(blocks)[:len(images)]
        assert model.logits(images).tobytes() == want.tobytes()
        assert np.array_equal(model.predict(images), np.argmax(want, axis=1))

    def test_pool_then_relu_matches_relu_then_pool(self):
        model = build_classifier(small_cnn(), seed=6)
        images = np.random.default_rng(7).uniform(size=(9, 1, 16, 16))
        model.set_normalization(images)
        live, labels = model.trainable(), np.arange(9) % 10
        x, x_ref = Tensor(images, requires_grad=True), Tensor(images, requires_grad=True)
        logits, _ = live.forward(x)
        logits_ref = relu_then_pool_logits(live, x_ref)
        assert logits.data.tobytes() == logits_ref.data.tobytes()
        grads = backward(softmax_cross_entropy(logits, labels))
        grads_ref = backward(softmax_cross_entropy(logits_ref, labels))
        for node in [x] + [ps.tensor for ps in live.params]:
            ref = x_ref if node is x else node
            assert np.array_equal(grads[node], grads_ref[ref])

    def test_returns_each_layers_output_before_pool_and_activation(self):
        model = build_classifier(small_cnn(), seed=8)
        images = np.random.default_rng(9).uniform(size=(3, 1, 16, 16))
        logits, pres = model.forward(images)
        assert [p.data.shape for p in pres] == [(3, 8, 16, 16), (3, 16, 8, 8), (3, 64), (3, 10)]
        assert pres[-1] is logits  # the last layer has no activation
        assert (pres[0].data < 0).any()

    @pytest.mark.parametrize("name", list(ZERO_ROW_PASSES))
    def test_zero_rows_give_zero_rows_of_full_width(self, name):
        run, shape = ZERO_ROW_PASSES[name]
        out = run(build_classifier(small_cnn(), seed=0), np.zeros((0, 1, 16, 16)))
        assert out.shape == shape

    def test_input_shape_mismatch(self):
        model = build_classifier(small_cnn(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 1, 8, 8)))

    def test_row_input_takes_rows_without_a_flatten(self):
        # the logits equal those of the same parameters on (n, d, 1, 1) images
        rows = build_classifier(mlp(num_classes=3, input_shape=(6,), hidden=4), seed=5)
        images = build_classifier(mlp(num_classes=3, input_shape=(6, 1, 1), hidden=4), seed=5)
        x = np.random.default_rng(6).standard_normal((7, 6))
        logits, pres = rows.forward(x)
        assert logits.data.tobytes() == images.forward(x[:, :, None, None])[0].data.tobytes()
        assert [p.data.shape for p in pres] == [(7, 4), (7, 3)]
        for bad in (x[:, :, None, None], x[0], x[:, :5]):
            with pytest.raises(ShapeError, match="normalize"):
                rows.forward(bad)

    def test_image_normalization_is_over_batch_and_pixels(self):
        model = build_classifier(small_cnn(input_shape=(2, 16, 16)), seed=0)
        images = np.random.default_rng(10).uniform(size=(5, 2, 16, 16))
        images[:, 1] = 0.25  # a constant channel takes the floor
        model.set_normalization(images)
        assert model.norm_mean.tobytes() == images.mean(axis=(0, 2, 3)).tobytes()
        want_std = np.maximum(images.std(axis=(0, 2, 3)), 1e-8)
        assert model.norm_std.tobytes() == want_std.tobytes()
        assert model.norm_std[1] == 1e-8

    def test_row_normalization_is_over_the_batch(self):
        model = build_classifier(mlp(num_classes=3, input_shape=(4,), hidden=4), seed=0)
        x = np.random.default_rng(11).standard_normal((9, 4)) * [1.0, 1e3, 1e-3, 0.0]
        model.set_normalization(x)
        assert model.norm_mean.tobytes() == x.mean(axis=0).tobytes()
        assert model.norm_std.tobytes() == np.maximum(x.std(axis=0), 1e-8).tobytes()


class TestTraining:
    def test_separable_set_reaches_perfect_val_accuracy(self):
        train = separable_blobs(seed=0)
        val = separable_blobs(seed=1)
        arch = mlp(num_classes=2, input_shape=(1, 4, 4), hidden=8)
        model = build_classifier(arch, seed=0)
        _, history = train_classifier(model, train, val,
                                      TrainConfig(epochs=20, batch_size=16,
                                                  learning_rate=0.1, seed=5))
        assert any(h["val_accuracy"] == 1.0 for h in history)

    def test_zero_epochs_is_a_no_op(self):
        train = separable_blobs(seed=0)
        model = build_classifier(mlp(num_classes=2, input_shape=(1, 4, 4)), seed=0)
        before = [ps.tensor.data.copy() for ps in model.params]
        _, history = train_classifier(model, train, train, TrainConfig(epochs=0, seed=0))
        assert history == []
        for ps, old in zip(model.params, before):
            assert np.array_equal(ps.tensor.data, old)
        assert np.array_equal(model.norm_mean, np.zeros(1))

    def test_training_is_bit_reproducible(self):
        def run():
            train = separable_blobs(seed=0)
            model = build_classifier(mlp(num_classes=2, input_shape=(1, 4, 4)), seed=1)
            train_classifier(model, train, train, TrainConfig(epochs=3, batch_size=8, seed=2))
            return b"".join(ps.tensor.data.tobytes() for ps in model.params)

        assert run() == run()

    def test_uniform_logits_cross_entropy_is_ln_n(self):
        for n in (2, 5, 10):
            for batch in (1, 4):
                logits = Tensor(np.full((batch, n), 1.7))
                loss = softmax_cross_entropy(logits, np.zeros(batch, dtype=np.int64))
                assert float(loss.data) == math.log(n)

    def test_last_batch_graph_is_freed_before_the_epoch_is_yielded(self):
        class Loss(Tensor):  # Tensor has __slots__ without __weakref__
            pass

        x = Tensor(np.random.default_rng(3).standard_normal((6, 2)))
        w = Tensor(np.zeros((2, 3)), requires_grad=True)
        last = []

        def batch_loss(idx):
            loss = softmax_cross_entropy(matmul(Tensor(x.data[idx]), w), idx % 3)
            probe = Loss(loss.data, requires_grad=True)
            probe._parents, probe._vjp = (loss,), lambda g: (g,)
            last.append(weakref.ref(probe))
            return probe

        for _ in sgd_epochs([w], batch_loss, 6, 4, seed=0, epochs=2, lr=0.1, momentum=0.9,
                            weight_decay=0.0):
            assert len(last) % 2 == 0 and last[-1]() is None

    @pytest.mark.parametrize("trainer", ["classifier", "detector"])
    def test_non_finite_loss_raises_training_error(self, trainer):
        with pytest.raises(TrainingError, match="non-finite loss nan at epoch 0 batch 0"):
            train_with_nan(trainer)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


class TestCheckpoint:
    def make_model(self, tmp_path):
        model = build_classifier(small_cnn(num_classes=4, input_shape=(1, 8, 8)), seed=11)
        model.set_normalization(np.random.default_rng(0).uniform(size=(10, 1, 8, 8)))
        model.val_accuracy = 0.875
        path = tmp_path / "model.ggate"
        save_checkpoint(model, path)
        return model, path

    def test_round_trip_bit_exact(self, tmp_path):
        model, path = self.make_model(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.arch == model.arch
        assert loaded.val_accuracy == model.val_accuracy
        assert np.array_equal(loaded.norm_mean, model.norm_mean)
        assert np.array_equal(loaded.norm_std, model.norm_std)
        assert loaded.param_names() == model.param_names()
        for pa, pb in zip(model.params, loaded.params):
            assert pa.tensor.data.tobytes() == pb.tensor.data.tobytes()
        x = np.random.default_rng(1).uniform(size=(5, 1, 8, 8))
        assert loaded.logits(x).tobytes() == model.logits(x).tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        model, path = self.make_model(tmp_path)
        other = tmp_path / "again.ggate"
        save_checkpoint(model, other)
        assert path.read_bytes() == other.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, path = self.make_model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(storage.TruncatedError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        _, path = self.make_model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXXX" + blob[5:])
        with pytest.raises(storage.BadMagicError):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        _, path = self.make_model(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[5:7] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(storage.VersionError):
            load_checkpoint(path)

    def test_record_name_mismatch_rejected(self, tmp_path):
        model, path = self.make_model(tmp_path)
        meta = {
            "arch": model.arch.to_string(), "classes": model.num_classes,
            "seed": model.seed, "norm_mean": "0", "norm_std": "1", "val_accuracy": "",
        }
        records = [(ps.name, ps.tensor.data) for ps in model.params]
        records[0] = ("layerX.weight", records[0][1])
        storage.write_container(path, b"GGATE", meta, records)
        with pytest.raises(storage.RecordError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        model, path = self.make_model(tmp_path)
        ps = model.params[2]
        ps.tensor.data.flat[3] = bad
        save_checkpoint(model, path)
        with pytest.raises(storage.RecordError, match=re.escape(ps.name)):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,bad", [
        ("norm_mean", [np.nan]), ("norm_mean", [-np.inf]), ("norm_std", [np.nan]),
        ("norm_std", [np.inf]), ("norm_std", [0.0]), ("norm_std", [-0.5]),
        ("norm_mean", [0.5, 0.5, 0.5]), ("norm_std", [1.0, 1.0])])
    def test_bad_normalization_rejected(self, tmp_path, key, bad):
        model, path = self.make_model(tmp_path)  # one input channel
        setattr(model, key, np.array(bad))
        save_checkpoint(model, path)
        with pytest.raises(storage.RecordError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("arch", "in:1:8:8|classes:4"), ("seed", "1.5"), ("seed", ""), ("norm_mean", ""),
        ("norm_mean", "0.5,"), ("norm_std", "x"), ("val_accuracy", "abc")])
    def test_malformed_metadata_value_rejected_naming_file_and_key(self, tmp_path, key, value):
        _, path = self.make_model(tmp_path)
        meta, records = storage.read_container(path, b"GGATE")
        meta[key] = value
        storage.write_container(path, b"GGATE", meta, records)
        with pytest.raises(storage.RecordError,
                           match=f"{re.escape(str(path))}: checkpoint metadata '{key}' = "):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["arch", "seed", "norm_mean", "norm_std", "val_accuracy"])
    def test_missing_metadata_key_rejected(self, tmp_path, key):
        _, path = self.make_model(tmp_path)
        meta, records = storage.read_container(path, b"GGATE")
        del meta[key]
        storage.write_container(path, b"GGATE", meta, records)
        with pytest.raises(storage.RecordError, match=f"'{key}'"):
            load_checkpoint(path)

    def test_accuracy_helper(self):
        model = build_classifier(mlp(num_classes=2, input_shape=(1, 4, 4)), seed=0)
        ds = separable_blobs(seed=3)
        acc = accuracy(model, ds.images, ds.labels)
        assert 0.0 <= acc <= 1.0

    def test_accuracy_of_empty_set_raises(self):
        model = build_classifier(mlp(num_classes=2, input_shape=(1, 4, 4)), seed=0)
        with pytest.raises(ValueError, match="empty"):
            accuracy(model, np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=np.int64))

    def test_fixed_seed_checkpoint_digest_is_frozen(self, tmp_path):
        # golden digest: initialization, normalization, and serialization
        # must all stay bit-stable across runs
        import hashlib

        from gradgate.data import gen_glyphs

        model = build_classifier(small_cnn(), seed=2024)
        model.set_normalization(gen_glyphs(100, seed=5).images)
        path = tmp_path / "golden.ggate"
        save_checkpoint(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "29130b73c5c6194305f42ec1861c1b6e94b06364e59628168c179c5982e17de4"


class TestTrainable:
    def test_shares_the_parameter_arrays(self):
        model = build_classifier(small_cnn(), seed=0)
        model.set_normalization(np.random.default_rng(1).uniform(size=(8, 1, 16, 16)))
        live = model.trainable()
        assert len(live.params) == len(model.params)
        assert live.param_names() == model.param_names()
        for ps, ls in zip(model.params, live.params):
            assert ls.tensor.data is ps.tensor.data
            assert ls.tensor.requires_grad
            assert not ps.tensor.requires_grad  # the model itself stays constant
        assert live.arch == model.arch and live.norm_std is model.norm_std

    def test_backward_gives_the_input_gradient_and_no_parameter_gradient(self):
        model = build_classifier(small_cnn(), seed=2)
        images = np.random.default_rng(3).uniform(size=(5, 1, 16, 16))
        labels = np.arange(5)
        live = model.trainable()
        x = Tensor(images, requires_grad=True)
        grads = backward(softmax_cross_entropy(model.forward(x)[0], labels))
        assert not any(ps.tensor in grads for ps in model.params)
        x_ref = Tensor(images, requires_grad=True)
        grads_ref = backward(softmax_cross_entropy(live.forward(x_ref)[0], labels))
        assert all(ps.tensor in grads_ref for ps in live.params)
        assert grads[x].tobytes() == grads_ref[x_ref].tobytes()
        padded = np.zeros((FORWARD_BLOCK, 1, 16, 16))  # logits pads to a full block
        padded[:len(images)] = images
        want = live.forward(padded)[0].data[:len(images)]
        assert model.logits(images).tobytes() == want.tobytes()

    def test_an_epoch_updates_the_models_own_arrays(self):
        train = separable_blobs(seed=0)
        model = build_classifier(mlp(num_classes=2, input_shape=(1, 4, 4)), seed=0)
        arrays = [ps.tensor.data for ps in model.params]
        before = [a.copy() for a in arrays]
        trained, _ = train_classifier(model, train, train, TrainConfig(epochs=1, seed=0))
        assert trained is model
        for ps, arr, old in zip(model.params, arrays, before):
            assert ps.tensor.data is arr and not ps.tensor.requires_grad
            assert not np.array_equal(arr, old)
