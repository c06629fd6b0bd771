import math

import numpy as np
import pytest

from gradgate import storage
from gradgate.autodiff import ShapeError, Tensor, backward, softmax_cross_entropy
from gradgate.data import Dataset
from gradgate.nn import (
    FORWARD_BLOCK,
    ArchError,
    ArchSpec,
    ConvLayer,
    DenseLayer,
    TrainConfig,
    accuracy,
    build_classifier,
    load_checkpoint,
    mlp,
    save_checkpoint,
    small_cnn,
    train_classifier,
)


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


class TestBuild:
    def test_small_cnn_has_eight_param_sets(self):
        model = build_classifier(small_cnn(), seed=0)
        assert len(model.params) == 8
        assert model.param_names()[:2] == ["layer0.weight", "layer0.bias"]
        assert [ps.ordinal for ps in model.params] == list(range(8))

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

    def test_blocked_logits_equal_one_forward_pass(self):
        model = build_classifier(small_cnn(), seed=4)
        images = np.random.default_rng(5).uniform(size=(FORWARD_BLOCK + 2, 1, 16, 16))
        whole = model.frozen().forward(images)[0].data
        assert model.logits(images).tobytes() == whole.tobytes()
        assert np.array_equal(model.predict(images), np.argmax(whole, axis=1))

    def test_input_shape_mismatch(self):
        model = build_classifier(small_cnn(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 1, 8, 8)))


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
        for pa, pb in zip(model.params, loaded.params):
            assert pa.name == pb.name and pa.ordinal == pb.ordinal
            assert pa.tensor.data.tobytes() == pb.tensor.data.tobytes()

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

    def test_accuracy_helper(self):
        model = build_classifier(mlp(num_classes=2, input_shape=(1, 4, 4)), seed=0)
        ds = separable_blobs(seed=3)
        acc = accuracy(model, ds.images, ds.labels)
        assert 0.0 <= acc <= 1.0

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


class TestFrozen:
    def test_shares_the_parameter_arrays(self):
        model = build_classifier(small_cnn(), seed=0)
        model.set_normalization(np.random.default_rng(1).uniform(size=(8, 1, 16, 16)))
        frozen = model.frozen()
        assert len(frozen.params) == len(model.params)
        for ps, fs in zip(model.params, frozen.params):
            assert (fs.name, fs.ordinal) == (ps.name, ps.ordinal)
            assert fs.tensor.data is ps.tensor.data
            assert not fs.tensor.requires_grad
        assert ps.tensor.requires_grad  # the model itself is untouched
        assert frozen.arch == model.arch and frozen.norm_std is model.norm_std

    def test_backward_gives_the_input_gradient_and_no_parameter_gradient(self):
        model = build_classifier(small_cnn(), seed=2)
        images = np.random.default_rng(3).uniform(size=(5, 1, 16, 16))
        labels = np.arange(5)
        frozen = model.frozen()
        x = Tensor(images, requires_grad=True)
        grads = backward(softmax_cross_entropy(frozen.forward(x)[0], labels))
        params = [ps.tensor for ps in model.params + frozen.params]
        assert not any(p in grads for p in params)
        x_ref = Tensor(images, requires_grad=True)
        grads_ref = backward(softmax_cross_entropy(model.forward(x_ref)[0], labels))
        assert all(ps.tensor in grads_ref for ps in model.params)
        assert grads[x].tobytes() == grads_ref[x_ref].tobytes()
        assert model.logits(images).tobytes() == model.forward(images)[0].data.tobytes()
