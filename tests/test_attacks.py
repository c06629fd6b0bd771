import numpy as np
import pytest

import gradgate.attacks as attacks_module
from gradgate.attacks import (
    ATTACK_KINDS,
    bim,
    cw_l2,
    fgsm,
    iterll,
    pgd,
    run_attack,
    semantic,
)
from gradgate.autodiff import Tensor, cw_hinge, tsum
from gradgate.data import gen_glyphs
from gradgate.nn import FORWARD_BLOCK, build_classifier, map_blocks, mlp, small_cnn


class ScalarLogistic:
    """Two-class model with logits (w*sum(x), 0); gradient sign is known."""

    num_classes = 2

    def __init__(self, w=2.0):
        self.w = w

    def forward(self, x):
        from gradgate.autodiff import matmul, reshape

        t = x if isinstance(x, Tensor) else Tensor(x)
        n = t.data.shape[0]
        flat = reshape(t, (n, t.data.size // n))
        weights = Tensor(np.concatenate([np.full((flat.data.shape[1], 1), self.w),
                                         np.zeros((flat.data.shape[1], 1))], axis=1))
        return matmul(flat, weights), []

    def logits(self, x):
        return self.forward(x)[0].data

    def predict(self, x):
        return np.argmax(self.logits(x), axis=1)


@pytest.fixture(scope="module")
def tiny_model():
    """A small trained-ish CNN: random init with fixed normalization."""
    model = build_classifier(small_cnn(num_classes=10, input_shape=(1, 16, 16)), seed=3)
    model.set_normalization(gen_glyphs(64, seed=0).images)
    return model


@pytest.fixture(scope="module")
def batch():
    ds = gen_glyphs(12, seed=1)
    return ds.images, ds.labels


class TestFgsm:
    def test_zero_epsilon_returns_input_exactly(self, tiny_model, batch):
        x, y = batch
        res = fgsm(tiny_model, x, y, 0.0)
        assert np.array_equal(res.images, x)
        assert np.all(res.linf == 0.0)

    def test_scalar_logistic_sign_is_analytic(self):
        # CE toward class 0 falls as w*sum(x) grows, so the ascent direction
        # for label 0 is -w's sign on every pixel; +epsilon for label 1.
        model = ScalarLogistic(w=2.0)
        x = np.full((1, 1, 2, 2), 0.5)
        res0 = fgsm(model, x, np.array([0]), 0.05)
        assert np.allclose(res0.images - x, -0.05)
        res1 = fgsm(model, x, np.array([1]), 0.05)
        assert np.allclose(res1.images - x, 0.05)

    def test_outputs_stay_in_unit_box(self, tiny_model, batch):
        x, y = batch
        res = fgsm(tiny_model, x, y, 0.3)
        assert res.images.min() >= 0.0 and res.images.max() <= 1.0

    def test_negative_epsilon_rejected(self, tiny_model, batch):
        x, y = batch
        with pytest.raises(ValueError):
            fgsm(tiny_model, x, y, -0.1)


class TestBim:
    def test_single_step_alpha_equals_epsilon_reproduces_fgsm_bitwise(self, tiny_model, batch):
        x, y = batch
        a = fgsm(tiny_model, x, y, 0.1)
        b = bim(tiny_model, x, y, 0.1, 0.1, 1)
        assert a.images.tobytes() == b.images.tobytes()

    def test_linf_budget_exact(self, tiny_model, batch):
        x, y = batch
        res = bim(tiny_model, x, y, 0.07, 0.02, 8)
        assert np.all(res.linf <= 0.07)

    def test_deterministic(self, tiny_model, batch):
        x, y = batch
        a = bim(tiny_model, x, y, 0.1, 0.01, 5)
        b = bim(tiny_model, x, y, 0.1, 0.01, 5)
        assert a.images.tobytes() == b.images.tobytes()


class TestPgd:
    def test_zero_epsilon_identity(self, tiny_model, batch):
        x, y = batch
        res = pgd(tiny_model, x, y, 0.0, 0.01, 3, seed=5)
        assert np.array_equal(res.images, x)

    def test_same_seed_identical(self, tiny_model, batch):
        x, y = batch
        a = pgd(tiny_model, x, y, 0.1, 0.01, 4, seed=9)
        b = pgd(tiny_model, x, y, 0.1, 0.01, 4, seed=9)
        assert a.images.tobytes() == b.images.tobytes()

    def test_different_seed_differs(self, tiny_model, batch):
        x, y = batch
        a = pgd(tiny_model, x, y, 0.1, 0.01, 4, seed=9)
        b = pgd(tiny_model, x, y, 0.1, 0.01, 4, seed=10)
        assert a.images.tobytes() != b.images.tobytes()

    def test_random_start_within_ball(self):
        # reproduce the start the same way pgd derives it
        eps, seed = 0.08, 21
        for i in range(4):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
            delta = rng.uniform(-eps, eps, size=(1, 16, 16))
            assert np.all(np.abs(delta) <= eps)

    def test_linf_budget_exact(self, tiny_model, batch):
        x, y = batch
        res = pgd(tiny_model, x, y, 0.1, 0.03, 6, seed=2)
        assert np.all(res.linf <= 0.1)


class TestIterll:
    def test_target_is_argmin_of_clean_logits(self, tiny_model, batch):
        x, _ = batch
        res = iterll(tiny_model, x, 0.1, 0.01, 3)
        expected = np.argmin(tiny_model.logits(x), axis=1)
        assert np.array_equal(res.targets, expected)

    def test_zero_epsilon_identity(self, tiny_model, batch):
        x, _ = batch
        res = iterll(tiny_model, x, 0.0, 0.01, 3)
        assert np.array_equal(res.images, x)

    def test_target_cross_entropy_decreases_for_most_samples(self, tiny_model):
        x = gen_glyphs(60, seed=8).images
        targets = np.argmin(tiny_model.logits(x), axis=1)

        def ce_per_sample(images):
            logits = tiny_model.logits(images)
            shifted = logits - logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(len(images)), targets]
            return lse

        res = iterll(tiny_model, x, 0.1, 0.01, 10)
        before = ce_per_sample(x)
        after = ce_per_sample(res.images)
        assert (after <= before + 1e-12).mean() >= 0.9


class TestCw:
    def test_already_misclassified_succeeds_at_tiny_perturbation(self):
        model = build_classifier(mlp(num_classes=3, input_shape=(1, 2, 2), hidden=4), seed=2)
        x = np.full((4, 1, 2, 2), 0.5)
        wrong = (model.predict(x) + 1) % 3  # deliberately wrong labels
        res = cw_l2(model, x, wrong, c=1.0, iterations=5, lr=0.01)
        assert np.all(res.success)
        assert np.all(res.l2 < 1e-3)

    def test_iterates_strictly_inside_unit_interval(self, tiny_model, batch):
        x, y = batch
        res = cw_l2(tiny_model, x, y, c=1.0, iterations=10, lr=0.05)
        assert res.images.min() > 0.0 and res.images.max() < 1.0

    def test_bad_constant_rejected(self, tiny_model, batch):
        x, y = batch
        with pytest.raises(ValueError):
            cw_l2(tiny_model, x, y, c=0.0, iterations=5, lr=0.05)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_bad_iterations_rejected(self, tiny_model, batch, iterations):
        x, y = batch
        with pytest.raises(ValueError, match="iterations"):
            cw_l2(tiny_model, x, y, c=1.0, iterations=iterations, lr=0.05)

    @pytest.mark.parametrize("lr", [0.0, -0.05])
    def test_bad_learning_rate_rejected(self, tiny_model, batch, lr):
        x, y = batch
        with pytest.raises(ValueError, match="lr"):
            cw_l2(tiny_model, x, y, c=1.0, iterations=5, lr=lr)

    def test_deterministic(self, tiny_model, batch):
        x, y = batch
        a = cw_l2(tiny_model, x, y, c=1.0, iterations=8, lr=0.05)
        b = cw_l2(tiny_model, x, y, c=1.0, iterations=8, lr=0.05)
        assert a.images.tobytes() == b.images.tobytes()


class TestCwActiveRows:
    """cw backpropagates only the real rows whose hinge is positive, in
    ``CW_GRAD_BLOCK``-row passes; the other rows' model gradients are
    exactly zero, so skipping them changes nothing."""

    C = 1.5

    def hinge_grad(self, model, x, y):
        loss = lambda logits: tsum(cw_hinge(logits, y)) * self.C
        return attacks_module._input_grad(model, x, loss)

    @pytest.fixture(scope="class")
    def half_wrong(self, tiny_model):
        x = gen_glyphs(FORWARD_BLOCK, seed=17).images
        y = tiny_model.predict(x)
        y[1::2] = (y[1::2] + 1) % tiny_model.num_classes
        active = cw_hinge(Tensor(tiny_model.logits(x)), y).data > 0.0
        assert 0 < active.sum() < len(y)
        return x, y, active

    def test_inactive_rows_have_zero_gradient(self, tiny_model, half_wrong):
        x, y, active = half_wrong
        full = self.hinge_grad(tiny_model, x, y)
        assert not full[~active].any()
        assert all(full[i].any() for i in np.flatnonzero(active))

    def test_small_block_gradients_match_the_full_block(self, tiny_model, half_wrong):
        x, y, active = half_wrong
        full = self.hinge_grad(tiny_model, x, y)
        small = map_blocks(lambda xb, yb: self.hinge_grad(tiny_model, xb, yb),
                           attacks_module.CW_GRAD_BLOCK, x[active], y[active])
        np.testing.assert_allclose(small, full[active], rtol=1e-12,
                                   atol=1e-12 * np.abs(full).max())

    def spy_input_grad(self, monkeypatch):
        calls = []
        real = attacks_module._input_grad

        def spy(model, x, loss):
            calls.append(x.copy())
            return real(model, x, loss)

        monkeypatch.setattr(attacks_module, "_input_grad", spy)
        return calls

    def test_padding_rows_are_never_differentiated(self, monkeypatch):
        # logits (2 sum(x), 0): every image above zero, the 64-row block's
        # padding rows included, predicts its padding label 0 with a positive hinge
        model = ScalarLogistic()
        x = gen_glyphs(1, seed=5).images
        calls = self.spy_input_grad(monkeypatch)
        cw_l2(model, x, np.zeros(1, int), c=1.0, iterations=6, lr=0.05)
        assert 1 <= len(calls) <= 6
        for xb in calls:
            assert len(xb) == attacks_module.CW_GRAD_BLOCK
            # one real row; the rest are this pass's exact-zero padding, while
            # a padding row of the 64-row block would sit near 1e-6
            assert xb[0].any() and not xb[1:].any()

    def test_no_backward_when_every_label_is_wrong(self, tiny_model, batch, monkeypatch):
        x, _ = batch
        wrong = (tiny_model.predict(x) + 1) % tiny_model.num_classes
        calls = self.spy_input_grad(monkeypatch)
        res = cw_l2(tiny_model, x, wrong, c=1.0, iterations=6, lr=0.05)
        assert calls == []
        assert np.all(res.success)


class TestSemantic:
    def test_involution(self, tiny_model, batch):
        x, y = batch
        once = semantic(tiny_model, x, y).images
        twice = semantic(tiny_model, once, y).images
        np.testing.assert_allclose(twice, x, rtol=0, atol=1e-15)

    def test_half_gray_fixed_point(self, tiny_model):
        x = np.full((2, 1, 16, 16), 0.5)
        assert np.array_equal(semantic(tiny_model, x, np.zeros(2, dtype=int)).images, x)


class TestDispatch:
    CFG = dict(epsilon=0.05, alpha=0.01, iterations=10, cw_c=1.0, cw_iterations=200,
               cw_lr=0.1, seed=0)

    def test_unknown_kind_rejected(self, tiny_model, batch):
        with pytest.raises(ValueError, match="unknown attack kind 'ddos'"):
            run_attack(tiny_model, *batch, "ddos", **self.CFG)

    def test_dispatch_matches_direct_call(self, tiny_model, batch):
        x, y = batch
        assert run_attack(tiny_model, x, y, "fgsm", **self.CFG).images.tobytes() == \
            fgsm(tiny_model, x, y, 0.05).images.tobytes()


class TestConstantParameters:
    """A plain classifier's parameters are constants, so an attack's graphs
    carry only the input gradient."""

    CFG = dict(epsilon=0.05, alpha=0.02, iterations=3, cw_c=1.0, cw_iterations=6, cw_lr=0.1,
               seed=9)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_backward_maps_hold_no_parameter(self, tiny_model, batch, kind, monkeypatch):
        from gradgate.autodiff import backward

        seen = []

        def spy(root):
            grads = backward(root)
            seen.append(grads)
            return grads

        monkeypatch.setattr(attacks_module, "backward", spy)
        run_attack(tiny_model, *batch, kind, **self.CFG)
        assert bool(seen) == (kind != "semantic")  # pixel negation takes no gradient
        for grads in seen:
            assert not any(ps.tensor in grads for ps in tiny_model.params)

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_trainable_view_gives_byte_identical_results(self, tiny_model, batch, kind):
        x, y = batch
        const = run_attack(tiny_model, x, y, kind, **self.CFG)
        live = run_attack(tiny_model.trainable(), x, y, kind, **self.CFG)
        for field in ("images", "success", "linf", "l2"):
            assert getattr(live, field).tobytes() == getattr(const, field).tobytes(), field


class TestBatchInvariance:
    """Attacks run in ``FORWARD_BLOCK``-row blocks through ``nn.map_blocks``,
    so a row's adversarial image does not depend on the rows attacked with
    it: alone, in a set whose last block has one row, or in a set whose last
    block has ``FORWARD_BLOCK - 1`` rows."""

    CFG = dict(epsilon=0.1, alpha=0.02, iterations=4, cw_c=1.0, cw_iterations=20, cw_lr=0.1,
               seed=4)

    @pytest.fixture(scope="class")
    def images(self):
        ds = gen_glyphs(2 * FORWARD_BLOCK - 1, seed=31)
        return ds.images, ds.labels

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_row_bytes_do_not_depend_on_the_set(self, tiny_model, images, kind):
        x, y = images
        whole = run_attack(tiny_model, x, y, kind, **self.CFG)  # last block FORWARD_BLOCK - 1 rows
        tail1 = run_attack(tiny_model, x[:FORWARD_BLOCK + 1], y[:FORWARD_BLOCK + 1], kind,
                           **self.CFG)
        for i in (0, 1, FORWARD_BLOCK - 1, FORWARD_BLOCK):
            assert tail1.images[i].tobytes() == whole.images[i].tobytes(), i
            assert tail1.success[i] == whole.success[i], i
        # pgd seeds each row's start with its index in the set, so a row
        # attacked alone has the start of row 0
        alone_rows = (0,) if kind == "pgd" else (0, FORWARD_BLOCK, len(x) - 1)
        for i in alone_rows:
            alone = run_attack(tiny_model, x[i:i + 1], y[i:i + 1], kind, **self.CFG)
            assert alone.images[0].tobytes() == whole.images[i].tobytes(), i
            assert alone.success[0] == whole.success[i], i
