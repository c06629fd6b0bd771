import itertools

import numpy as np
import pytest

from gradgate import autodiff as ad
from gradgate.autodiff import (
    GraphError,
    ShapeError,
    Tensor,
    backward,
    bce_with_logits,
    conv2d,
    cw_hinge,
    matmul,
    maxpool2d,
    normalize,
    relu,
    sgd_step,
    softmax_cross_entropy,
    stable_sigmoid,
    tsum,
)


def conv2d_reference(x, w, b=None, stride=1, padding=0):
    """Direct summation oracle for cross-correlation, nested loops only."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    B, C, H, W = x.shape
    cout, _, kh, kw = w.shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    out = np.zeros((B, cout, oh, ow))
    for n in range(B):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(C):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += x[n, c, i * stride + di, j * stride + dj] * w[o, c, di, dj]
                    out[n, o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def maxpool_reference(x, size, g):
    """Window-loop oracle for non-overlapping max pooling: the pooled values
    and the input gradient for output gradient g. One window slot at a time
    is gathered, so argmax over slots breaks ties in row-major order."""
    B, C, H, W = x.shape
    oh, ow = H // size, W // size
    win = np.empty((B, C, size * size, oh, ow))
    slots = [(i, j) for i in range(size) for j in range(size)]
    for k, (i, j) in enumerate(slots):
        win[:, :, k] = x[:, :, i:i + size * oh:size, j:j + size * ow:size]
    idx = np.argmax(win, axis=2)
    out = np.take_along_axis(win, idx[:, :, None], axis=2).squeeze(2)
    dwin = np.zeros_like(win)
    np.put_along_axis(dwin, idx[:, :, None], g[:, :, None], axis=2)
    dx = np.zeros(x.shape)
    for k, (i, j) in enumerate(slots):
        dx[:, :, i:i + size * oh:size, j:j + size * ow:size] += dwin[:, :, k]
    return out, dx


def conv2d_nchw_reference(x, w, b, g, stride, padding):
    """conv2d as it ran on (B, C, H, W) memory: im2col into (B, F, P)
    columns, one matmul per sample, the column gradient scattered back in
    (i, j) order, and tensordot for the kernel gradient. Returns the output
    and (dx, dw, db) for output gradient g."""
    B, C, H, W = x.shape
    cout, _, kh, kw = w.shape
    if padding:
        padded = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
        padded[:, :, padding:padding + H, padding:padding + W] = x
        x = padded
    Hp, Wp = x.shape[2:]
    oh, ow = (Hp - kh) // stride + 1, (Wp - kw) // stride + 1
    cols = np.empty((B, C, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    cols = cols.reshape(B, C * kh * kw, oh * ow)
    w2d = w.reshape(cout, C * kh * kw)
    out = np.matmul(w2d, cols).reshape(B, cout, oh, ow)
    out += b[None, :, None, None]
    g = np.ascontiguousarray(g)
    g2d = g.reshape(B, cout, oh * ow)
    dcols = np.matmul(w2d.T, g2d).reshape(B, C, kh, kw, oh, ow)
    dx = np.zeros((B, C, Hp, Wp))
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, :, i, j]
    dx = dx[:, :, padding:Hp - padding, padding:Wp - padding]
    dw = np.tensordot(g2d, cols, axes=((0, 2), (0, 2))).reshape(w.shape)
    db = g.sum(axis=(0, 2, 3))
    return out, (dx, dw, db)


def batch_innermost(a):
    """A copy of the (B, ...) array ``a`` stored with the batch axis
    innermost, viewed with a's shape."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


def is_batch_innermost(a) -> bool:
    return np.moveaxis(a, 0, -1).flags.c_contiguous


def classifier_sgd_reference(params, grads, velocity, lr, momentum, weight_decay):
    """The update loop nn.train_classifier ran inline before sgd_step."""
    for p, v in zip(params, velocity):
        g = grads[p]
        if weight_decay:
            g = g + weight_decay * p.data
        v *= momentum
        v += g
        p.data -= lr * v


def detector_sgd_reference(params, grads, velocity, lr, momentum):
    """The update loop detector.train_detector ran inline before sgd_step."""
    for p, v in zip(params, velocity):
        v *= momentum
        v += grads[p]
        p.data -= lr * v


def central_diff(f, arr, index, h=1e-5):
    """Central finite difference of scalar-valued f at one coordinate of arr."""
    orig = arr[index]
    arr[index] = orig + h
    hi = f()
    arr[index] = orig - h
    lo = f()
    arr[index] = orig
    return (hi - lo) / (2 * h)


def sum_of_squares(t):
    """A smooth scalar reduction whose gradient, 2t, reaches every element of t."""
    return tsum(t * t)


def grad_matches_fd(build_loss, params, rng, n_coords=20, h=1e-5, tol=1e-4):
    """Compare analytic gradients of a scalar loss against central differences
    on randomly chosen coordinates of each parameter tensor."""
    grads = backward(build_loss())
    for p in params:
        g = grads[p]
        assert g.shape == p.data.shape
        flat = p.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        for c in coords:
            num = central_diff(lambda: float(build_loss().data), flat, c, h=h)
            rel = abs(g.reshape(-1)[c] - num) / max(1e-8, abs(num))
            assert rel < tol, f"coord {c}: analytic {g.reshape(-1)[c]} vs fd {num}"


class TestForwardValues:
    def test_matmul_hand(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_conv2d_all_ones(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 2, 2))
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        assert out.data.shape == (1, 1, 2, 2)
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_conv2d_matches_summation_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
            ref = conv2d_reference(x, w, b, stride=stride, padding=padding)
            np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = maxpool2d(Tensor(x), 2)
        assert np.array_equal(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_clip(self):
        # relu clips below at 0: np.clip's values
        z = np.array([-2.0, -0.0, 0.0, 0.5, 3.0])
        assert relu(Tensor(z)).data.tobytes() == np.clip(z, 0.0, None).tobytes()

    def test_sigmoid_saturation_is_finite(self):
        out = stable_sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[1] == 0.5

    def test_bias_add_broadcast(self):
        out = Tensor(np.zeros((3, 2))) + Tensor([1.0, 2.0])
        assert np.array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))


class TestBackwardExamples:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        grads = backward(tsum(x * x))
        assert np.array_equal(grads[x], [2.0, 4.0, 6.0])

    def test_sigmoid_at_zero(self):
        # the BCE gradient at logit z is sigmoid(z) - target
        x = Tensor([0.0], requires_grad=True)
        grads = backward(bce_with_logits(x, [0.0]))
        assert np.isclose(grads[x][0], 0.5)

    def test_grad_wrt_input_linear(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = backward(tsum(x * 3.0))[x]
        assert np.array_equal(g, np.full((2, 3), 3.0))

    def test_grad_wrt_input_bilinear(self):
        w = Tensor([1.0, -2.0])
        x = Tensor([5.0, 5.0], requires_grad=True)
        g = backward(tsum(w * x))[x]
        assert np.array_equal(g, [1.0, -2.0])

    def test_fanout_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x  # dy/dx = 2x via two uses of x
        grads = backward(y)
        assert grads[x] == 4.0

    def test_diamond_graph_order(self):
        # b consumes a; root consumes both. Gradient of a must include the
        # path through b.
        a = Tensor(3.0, requires_grad=True)
        b = a * 2.0
        root = tsum(a + b)
        grads = backward(root)
        assert grads[a] == 3.0

    def test_input_not_on_tape(self):
        x = Tensor([1.0], requires_grad=True)
        other = Tensor([1.0], requires_grad=True)
        assert other not in backward(tsum(x * x))

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            backward(x * x)

    def test_constant_branch_gets_no_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        grads = backward(tsum(x * c))
        assert c not in grads


class TestGradientChecks:
    """Central-difference oracle per layer type, h=1e-5, rel err < 1e-4."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_dense_layer(self):
        rng = self.rng
        x = Tensor(rng.standard_normal((4, 5)))
        w = Tensor(rng.standard_normal((5, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        t = rng.integers(0, 3, size=4)
        build = lambda: softmax_cross_entropy(matmul(x, w) + b, t)
        grad_matches_fd(build, [w, b], rng)

    def test_conv_layer(self):
        rng = self.rng
        x = Tensor(rng.standard_normal((2, 2, 6, 6)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        build = lambda: sum_of_squares(conv2d(x, w, b, stride=1, padding=1))
        grad_matches_fd(build, [w, b], rng)

    def test_conv_stride_two(self):
        rng = self.rng
        x = Tensor(rng.standard_normal((1, 1, 7, 7)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(np.zeros(2))
        build = lambda: tsum(conv2d(x, w, b, stride=2, padding=0) * conv2d(x, w, b, stride=2, padding=0))
        grad_matches_fd(build, [x, w], rng)

    def test_relu_maxpool(self):
        rng = self.rng
        x = Tensor(rng.standard_normal((2, 1, 6, 6)), requires_grad=True)
        build = lambda: tsum(maxpool2d(relu(x), 2))
        grad_matches_fd(build, [x], rng)

    def test_cw_objective(self):
        """cw_l2's model term through a linear model: c times the summed
        hinge, differentiated with respect to the pixels."""
        rng = self.rng
        adv = Tensor(rng.uniform(0.1, 0.9, size=(4, 6)), requires_grad=True)
        weights = Tensor(rng.standard_normal((6, 5)))
        z = adv.data @ weights.data
        y = np.argmax(z, axis=1)
        y[:2] = np.argmin(z[:2], axis=1)  # two rows already misclassified
        build = lambda: tsum(cw_hinge(matmul(adv, weights), y)) * 2.0
        assert np.count_nonzero(build().data) and np.count_nonzero(backward(build())[adv])
        grad_matches_fd(build, [adv], rng)

    def test_sigmoid_log(self):
        """bce_with_logits is -log(sigmoid) in its saturating softplus form:
        its value matches the explicit composition and its gradient the fd."""
        rng = self.rng
        z = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
        t = rng.integers(0, 2, size=(3, 4)).astype(float)
        s = stable_sigmoid(z.data)
        composed = -np.mean(t * np.log(s) + (1.0 - t) * np.log(1.0 - s))
        np.testing.assert_allclose(bce_with_logits(z, t).data, composed, rtol=1e-12)
        grad_matches_fd(lambda: bce_with_logits(z, t), [z], rng)

    def test_clip_interior(self):
        # relu on either side of its bound 0, away from the kink
        rng = self.rng
        x = Tensor(rng.uniform(0.1, 0.9, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4)),
                   requires_grad=True)
        build = lambda: tsum(relu(x) * relu(x) + x * relu(x))
        grad_matches_fd(build, [x], rng)

    def test_bce_with_logits(self):
        rng = self.rng
        z = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        t = rng.integers(0, 2, size=(2, 6)).astype(float)
        build = lambda: bce_with_logits(z, t)
        grad_matches_fd(build, [z], rng)


REQUIRES_GRAD = [flags for flags in itertools.product((False, True), repeat=3) if any(flags)]


class TestGradientSkipping:
    """VJPs compute gradients only for parents that require them; every
    requires_grad combination is gradchecked."""

    def setup_method(self):
        self.rng = np.random.default_rng(13)

    def leaves(self, shapes, flags):
        return [Tensor(self.rng.standard_normal(shape) * 0.5, requires_grad=flag)
                for shape, flag in zip(shapes, flags)]

    @pytest.mark.parametrize("flags", REQUIRES_GRAD)
    def test_conv2d(self, flags):
        x, w, b = self.leaves([(2, 2, 5, 5), (3, 2, 3, 3), (3,)], flags)
        out = conv2d(x, w, b, stride=2, padding=1)
        computed = out._vjp(np.ones(out.data.shape))
        assert [g is not None for g in computed] == list(flags)
        grad_matches_fd(lambda: sum_of_squares(conv2d(x, w, b, stride=2, padding=1)),
                        [t for t in (x, w, b) if t.requires_grad], self.rng)

    @pytest.mark.parametrize("flags", REQUIRES_GRAD)
    def test_dense(self, flags):
        x, w, b = self.leaves([(4, 5), (5, 3), (3,)], flags)
        if x.requires_grad or w.requires_grad:
            out = matmul(x, w)
            computed = out._vjp(np.ones(out.data.shape))
            assert [g is not None for g in computed] == list(flags[:2])
        t = self.rng.integers(0, 3, size=4)
        grad_matches_fd(lambda: softmax_cross_entropy(matmul(x, w) + b, t),
                        [p for p in (x, w, b) if p.requires_grad], self.rng)

    @pytest.mark.parametrize("op,right_shape", [(ad.add, (4, 3)), (ad.add, (3,)),  # bias add
                                                (ad.mul, (4, 3))])
    def test_constant_right_operand_gets_no_gradient(self, op, right_shape):
        a, b = self.leaves([(4, 3), right_shape], (True, False))
        out = op(a, b)
        da, db = out._vjp(np.ones(out.data.shape))
        assert da is not None and db is None
        grad_matches_fd(lambda: sum_of_squares(op(a, b)), [a], self.rng)

    def test_mul_constant_left_operand_gets_no_gradient(self):
        a, b = self.leaves([(4, 3), (4, 3)], (False, True))
        out = a * b
        da, db = out._vjp(np.ones(out.data.shape))
        assert da is None and db is not None
        grad_matches_fd(lambda: sum_of_squares(a * b), [b], self.rng)


class TestNormalize:
    """normalize is (x - shift) * scale over the batch axis, with the input
    gradient g * scale; shift and scale are constants."""

    def setup_method(self):
        self.rng = np.random.default_rng(31)
        self.shift = self.rng.uniform(-0.5, 0.5, size=(2, 3, 3))
        self.scale = self.rng.uniform(0.5, 4.0, size=(2, 3, 3))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, batch_innermost])
    def test_bytes_equal_numpy(self, layout):
        x = layout(self.rng.standard_normal((5, 2, 3, 3)))
        out = normalize(Tensor(x), self.shift, self.scale)
        assert out.data.tobytes() == ((x - self.shift) * self.scale).tobytes()

    def test_gradient_matches_finite_differences(self):
        x = Tensor(self.rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        grad_matches_fd(lambda: sum_of_squares(normalize(x, self.shift, self.scale)), [x],
                        self.rng)
        g = self.rng.standard_normal((4, 2, 3, 3))
        dx = backward(tsum(normalize(x, self.shift, self.scale) * Tensor(g)))[x]
        assert dx.tobytes() == (g * self.scale).tobytes()

    @pytest.mark.parametrize("x_shape,scale_shape", [((4, 2, 3, 2), (2, 3, 3)),
                                                     ((2, 3, 3), (2, 3, 3)),
                                                     ((4, 2, 3, 3), (2, 3, 1))])
    def test_shape_mismatch_names_op(self, x_shape, scale_shape):
        with pytest.raises(ShapeError, match="normalize"):
            normalize(Tensor(np.ones(x_shape)), self.shift, np.ones(scale_shape))

    def test_constant_input_records_no_vjp(self):
        out = normalize(Tensor(np.ones((4, 2, 3, 3))), self.shift, self.scale)
        assert not out.requires_grad and out._vjp is None and out._parents == ()


class TestMaxpoolReshape:
    """maxpool2d's reshape must agree bit for bit with the window-loop
    oracle, on inputs the windows tile and on ragged ones they crop."""

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("extra", [(0, 0), (1, 0), (0, 2), (1, 1)])
    def test_matches_window_loop_bitwise(self, size, extra):
        rng = np.random.default_rng(size)
        shape = (2, 3, 3 * size + extra[0], 2 * size + extra[1])
        arr = rng.integers(0, 3, size=shape).astype(float)  # many ties
        g = rng.standard_normal((2, 3, shape[2] // size, shape[3] // size))
        x = Tensor(arr, requires_grad=True)
        out = maxpool2d(x, size)
        dx = backward(tsum(out * Tensor(g)))[x]
        out_ref, dx_ref = maxpool_reference(arr, size, g)
        assert out.data.tobytes() == out_ref.tobytes()
        assert dx.tobytes() == dx_ref.tobytes()


class TestInvariants:
    def test_backward_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = Tensor(rng.standard_normal(6), requires_grad=True)
            f = tsum(x * x)
            g = tsum(x * x * x)
            a, b = rng.standard_normal(2)
            combined = backward(f * float(a) + g * float(b))[x]
            separate = a * backward(f)[x] + b * backward(g)[x]
            np.testing.assert_allclose(combined, separate, rtol=1e-12)

    def test_negated_loss_same_grad_norm(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        t = np.ones((2, 4))
        loss = bce_with_logits(x, t)
        g_pos = backward(loss)[x]
        g_neg = backward(loss * -1.0)[x]
        assert np.linalg.norm(g_pos) == np.linalg.norm(g_neg)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.standard_normal((3, 1, 8, 8)))
            w = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
            loss = tsum(maxpool2d(relu(conv2d(x, w, Tensor(np.zeros(2)), padding=1)), 2))
            return backward(loss)[w].tobytes()

        assert run() == run()

    def test_maxpool_tie_routes_to_first(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        grads = backward(tsum(maxpool2d(x, 2)))
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0
        assert np.array_equal(grads[x], expected)

    def test_clip_zero_gradient_at_bounds(self):
        # relu max(x, 0): an input of exactly 0 gets no gradient
        x = Tensor([-1.0, -0.0, 0.0, 0.5], requires_grad=True)
        out = relu(x)
        assert np.array_equal(out.data, [0.0, 0.0, 0.0, 0.5])
        assert np.array_equal(backward(tsum(out))[x], [0.0, 0.0, 0.0, 1.0])


class TestSgdStep:
    """sgd_step against the two trainers' former inline loops, bit for bit,
    over several steps of random gradients."""

    @staticmethod
    def run(step, weight_decay):
        rng = np.random.default_rng(21)
        params = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in [(3, 4), (4,), (2, 1, 3, 3)]]
        velocity = [np.zeros_like(p.data) for p in params]
        for _ in range(5):
            grads = {p: rng.standard_normal(p.data.shape) for p in params}
            step(params, grads, velocity, weight_decay)
        return [a.tobytes() for a in [p.data for p in params] + velocity]

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_classifier_loop(self, weight_decay):
        got = self.run(lambda p, g, v, wd: sgd_step(p, g, v, 0.05, 0.9, wd), weight_decay)
        ref = self.run(lambda p, g, v, wd: classifier_sgd_reference(p, g, v, 0.05, 0.9, wd),
                       weight_decay)
        assert got == ref

    def test_matches_detector_loop(self):
        got = self.run(lambda p, g, v, wd: sgd_step(p, g, v, 0.05, 0.9), 0.0)
        ref = self.run(lambda p, g, v, wd: detector_sgd_reference(p, g, v, 0.05, 0.9), 0.0)
        assert got == ref


class TestShapeErrors:
    def test_add_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="add"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones((4, 1, 3))), Tensor(np.ones((4, 3, 2))))

    def test_matmul_rejects_a_stack(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones((4, 1, 3))), Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize("op,left_shape", [  # and only add broadcasts a bias
        pytest.param(ad.add, (2, 4, 3), id="add"), pytest.param(ad.mul, (2, 4, 3), id="mul"),
        pytest.param(ad.mul, (4, 3), id="mul-bias")])
    def test_bias_broadcasts_over_the_batch_axis_only(self, op, left_shape):
        with pytest.raises(ShapeError, match=op.__name__):
            op(Tensor(np.ones(left_shape)), Tensor(np.ones(3)))

    def test_python_scalar_is_only_a_mul_operand(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((2, 3))), 0.5)
        assert np.array_equal(ad.mul(Tensor(np.ones((2, 3))), 0.5).data, np.full((2, 3), 0.5))

    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeError, match="conv2d"):
            conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_reshape_bad_size(self):
        with pytest.raises(ShapeError, match="reshape"):
            ad.reshape(Tensor(np.ones(6)), (4, 2))

    def test_cross_entropy_bad_labels(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestReluBytes:
    """relu gives the bytes of the np.where oracle on every non-NaN input,
    -0.0 and +-inf included, at lengths that run numpy's scalar loops and
    its SIMD loops with their remainders."""

    def test_matches_where_oracle_bytewise(self):
        rng = np.random.default_rng(30)
        specials = np.array([-0.0, 0.0, np.inf, -np.inf])
        for n in range(1, 131):
            x = rng.standard_normal(n)
            pick = rng.integers(0, 8, size=n)
            x[pick < 4] = specials[pick[pick < 4]]
            for arr in (x, np.full(n, -0.0), x[::2], x[1:]):
                if arr.size == 0:
                    continue
                oracle = np.where(arr > 0, arr, 0.0)
                assert relu(Tensor(arr)).data.tobytes() == oracle.tobytes(), n

    def test_gradient_is_the_positive_mask(self):
        arr = np.array([-2.0, -0.0, 0.0, 1e-300, 3.0, np.inf, -np.inf])
        x = Tensor(arr, requires_grad=True)
        g = np.arange(1.0, 8.0)
        dx = backward(tsum(relu(x) * Tensor(g)))[x]
        assert dx.tobytes() == (g * (arr > 0)).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_nan_input_stays_nan(self, n):
        x = np.linspace(-1.0, 1.0, n)
        x[n // 2] = np.nan
        out = relu(Tensor(x)).data
        assert np.isnan(out[n // 2])
        assert np.isfinite(np.delete(out, n // 2)).all()


def cw_hinge_reference(z, y):
    """Row-loop oracle: the hinge values and, per row, the index of the
    first maximal class other than y."""
    values, firsts = [], []
    for row, label in zip(z, y):
        others = [k for k in range(len(row)) if k != label]
        first = max(others, key=lambda k: (row[k], -k))
        values.append(max(row[label] - row[first], 0.0))
        firsts.append(first)
    return np.array(values), np.array(firsts)


class TestCwHinge:
    """cw_hinge's values against a row-loop oracle, and its gradient: +g at
    the label and -g at the first maximal other class on rows with a
    positive margin, +0.0 everywhere else."""

    def test_routes_to_the_label_and_the_first_tied_other_maximum(self):
        z = np.array([[5.0, 3.0, 1.0, 3.0],
                      [2.0, 2.0, 2.0, 4.0],
                      [0.0, 7.0, 7.0, -1.0]])
        y = np.array([0, 3, 3])
        logits = Tensor(z, requires_grad=True)
        out = cw_hinge(logits, y)
        assert np.array_equal(out.data, [2.0, 2.0, 0.0])
        g = np.array([1.5, -0.25, 3.0])
        dz = out._vjp(g)[0]
        expected = np.zeros_like(z)
        expected[0, [0, 1]] = [1.5, -1.5]
        expected[1, [3, 0]] = [-0.25, 0.25]
        assert dz.tobytes() == expected.tobytes()

    def test_zero_and_negative_margins_give_positive_zero_bits(self):
        z = np.array([[3.0, 3.0, 1.0],      # zero margin, tied with the label
                      [-1.0, 4.0, 2.0],     # negative margin
                      [-0.0, 0.0, -2.0]])   # zero margin between signed zeros
        logits = Tensor(z, requires_grad=True)
        out = cw_hinge(logits, np.zeros(3, dtype=int))
        zeros = np.zeros(3)
        assert out.data.tobytes() == zeros.tobytes()
        for g in (np.ones(3), -np.ones(3)):
            assert out._vjp(g)[0].tobytes() == np.zeros_like(z).tobytes()

    @pytest.mark.parametrize("column", ["first", "last"])
    def test_label_in_the_first_and_last_column(self, column):
        rng = np.random.default_rng(90)
        z = rng.standard_normal((8, 6))
        y = np.full(8, 0 if column == "first" else 5)
        z[::2, y[0]] += 3.0  # every other row has a positive margin
        values, firsts = cw_hinge_reference(z, y)
        out = cw_hinge(Tensor(z, requires_grad=True), y)
        assert out.data.tobytes() == values.tobytes()
        g = rng.standard_normal(8)
        dz = out._vjp(g)[0]
        expected = np.zeros_like(z)
        for r in np.flatnonzero(values > 0.0):
            expected[r, y[r]], expected[r, firsts[r]] = g[r], -g[r]
        assert (values > 0.0).sum() >= 4
        assert dz.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("labels", [[0, -1], [0, 3]])
    def test_out_of_range_labels_raise(self, labels):
        with pytest.raises(ValueError, match="cw_hinge"):
            cw_hinge(Tensor(np.zeros((2, 3))), np.array(labels))

    def test_label_shape_must_match_the_rows(self):
        with pytest.raises(ShapeError, match="cw_hinge"):
            cw_hinge(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_grad_matches_fd_away_from_ties(self):
        rng = np.random.default_rng(91)
        z = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        # the label is each row's top, second or third class
        y = np.argsort(z.data, axis=1)[np.arange(6), [-1, -2, -3, -1, -2, -3]]
        # no margin near 0 and no near tie among the top three for the fd step to cross
        assert np.all(np.diff(np.sort(z.data, axis=1)[:, -3:], axis=1) > 1e-3)
        values, _ = cw_hinge_reference(z.data, y)
        assert values.any() and not values.all()
        weights = Tensor(rng.uniform(0.5, 2.0, size=6))
        grad_matches_fd(lambda: tsum(cw_hinge(z, y) * weights), [z], rng)


class TestMaxpoolMasks:
    """The running-maximum maxpool2d against the window-loop oracle, bit for
    bit, on relu outputs, where most windows tie at zero."""

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("extra", [(0, 0), (1, 2)])
    def test_relu_zero_ties_match_window_loop_bitwise(self, size, extra):
        rng = np.random.default_rng(40 + size)
        shape = (3, 2, 3 * size + extra[0], 2 * size + extra[1])
        pre = Tensor(rng.standard_normal(shape) - 1.5, requires_grad=True)
        act = relu(pre)
        out = maxpool2d(act, size)
        g = rng.standard_normal(out.data.shape)
        dact = backward(tsum(out * Tensor(g)))[act]
        out_ref, dact_ref = maxpool_reference(act.data, size, g)
        assert (out_ref == 0.0).mean() > 0.3  # many all-zero windows
        assert out.data.tobytes() == out_ref.tobytes()
        assert dact.tobytes() == dact_ref.tobytes()

    @pytest.mark.parametrize("size", [2, 3])
    def test_signed_zero_ties_keep_the_first_element(self, size):
        rng = np.random.default_rng(50 + size)
        arr = rng.choice(np.array([-0.0, 0.0, -1.0]), size=(2, 2, 2 * size, 2 * size))
        x = Tensor(arr, requires_grad=True)
        out = maxpool2d(x, size)
        g = rng.standard_normal(out.data.shape)
        out_ref, dx_ref = maxpool_reference(arr, size, g)
        assert out.data.tobytes() == out_ref.tobytes()
        assert backward(tsum(out * Tensor(g)))[x].tobytes() == dx_ref.tobytes()

    def test_constant_input_pools_the_same_values(self):
        arr = np.random.default_rng(60).integers(0, 3, size=(2, 3, 7, 6)).astype(float)
        out = maxpool2d(Tensor(arr), 2)
        assert not out.requires_grad
        assert out.data.tobytes() == maxpool_reference(arr, 2, np.zeros(out.data.shape))[0].tobytes()


class TestPoolThenRelu:
    """A conv layer pools its pre-activation before relu. Max commutes with
    relu, so the output bytes are those of relu then pool, and the gradients
    equal them up to the sign of a zero: relu then pool routes a dead
    window's gradient to its first element and zeroes it there, pool then
    relu zeroes it before routing."""

    @staticmethod
    def graphs(order):
        # a parameter of +-1 per channel, stored per element, scales x
        # exactly, -0.0 included (a conv's GEMM would turn -0.0 into +0.0)
        rng = np.random.default_rng(70)
        arr = rng.choice(np.array([-0.0, 0.0, -1.5, -0.5, 0.5, 2.0]), size=(3, 2, 6, 6))
        arr[0, 0, :2, :2] = -0.0  # all -0.0
        arr[0, 0, :2, 2:4] = [[-1.0, -2.0], [-3.0, -1.0]]  # all negative, tied
        arr[0, 0, :2, 4:] = [[2.0, 2.0], [2.0, -1.0]]  # positive ties
        x = Tensor(arr, requires_grad=True)
        w = Tensor(np.broadcast_to(np.stack([np.ones((6, 6)), -np.ones((6, 6))]), arr.shape),
                   requires_grad=True)
        pre = x * w
        out = relu(maxpool2d(pre, 2)) if order == "pool-relu" else maxpool2d(relu(pre), 2)
        g = rng.standard_normal(out.data.shape)
        return pre, out, backward(tsum(out * Tensor(g))), (x, w)

    def test_same_bytes_forward_and_equal_gradients(self):
        pre, out, grads, leaves = self.graphs("pool-relu")
        _, out_ref, grads_ref, leaves_ref = self.graphs("relu-pool")
        zero = pre.data == 0.0
        assert (zero & np.signbit(pre.data)).any() and (zero & ~np.signbit(pre.data)).any()
        assert out.data.tobytes() == out_ref.data.tobytes()
        for leaf, leaf_ref in zip(leaves, leaves_ref):
            assert np.array_equal(grads[leaf], grads_ref[leaf_ref])


CONV_SHAPES = {  # cin, cout, input side, stride, padding; 3x3 kernels
    "small-cnn-layer0": (1, 8, 16, 1, 1),
    "small-cnn-layer1": (8, 16, 8, 1, 1),
    "stride2-pad0": (3, 4, 9, 2, 0),
}


class TestBatchInnermostLayout:
    """The conv stack stores its data batch-innermost; each op gives the
    bytes of its (B, C, H, W)-memory form, whichever way its inputs and
    output gradients are stored."""

    @pytest.mark.parametrize("batch", [1, 3, 4, 5, 64, 100, 257])
    @pytest.mark.parametrize("shape", list(CONV_SHAPES))
    def test_conv2d_matches_nchw_reference_bytewise(self, batch, shape):
        cin, cout, side, stride, padding = CONV_SHAPES[shape]
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, cin, side, side))
        w = rng.standard_normal((cout, cin, 3, 3))
        b = rng.standard_normal(cout)
        o = (side + 2 * padding - 3) // stride + 1
        g = rng.standard_normal((batch, cout, o, o))
        out_ref, (dx_ref, dw_ref, db_ref) = conv2d_nchw_reference(x, w, b, g, stride, padding)
        _, (_, dw_mag, db_mag) = conv2d_nchw_reference(np.abs(x), w, b, np.abs(g), stride, padding)
        for xin in (x, batch_innermost(x)):
            out = conv2d(Tensor(xin, requires_grad=True), Tensor(w, requires_grad=True),
                         Tensor(b, requires_grad=True), stride=stride, padding=padding)
            assert is_batch_innermost(out.data)
            assert out.data.tobytes() == out_ref.tobytes()
            (dx, dw, db), (dx_bi, dw_bi, db_bi) = (out._vjp(gin) for gin in (g, batch_innermost(g)))
            assert dx.tobytes() == dx_ref.tobytes() and dx_bi.tobytes() == dx_ref.tobytes()
            # the kernel and bias gradients sum over (position, sample)
            # pairs in another order than the reference, so their last bits
            # differ, by at most 1e-12 of the sum of the terms' magnitudes;
            # they do not depend on how g is stored
            assert dw.shape == dw_ref.shape and db.shape == db_ref.shape
            assert np.all(np.abs(dw - dw_ref) <= 1e-12 * dw_mag)
            assert np.all(np.abs(db - db_ref) <= 1e-12 * db_mag)
            assert dw_bi.tobytes() == dw.tobytes() and db_bi.tobytes() == db.tobytes()

    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_relu_and_maxpool_keep_the_layout_and_the_bytes(self, batch):
        rng = np.random.default_rng(70 + batch)
        arr = rng.integers(-2, 3, size=(batch, 3, 9, 6)).astype(float)  # many ties
        for op in (relu, lambda t: maxpool2d(t, 2)):
            c_out = op(Tensor(arr, requires_grad=True))
            g = rng.standard_normal(c_out.data.shape)
            c_dx = c_out._vjp(g)[0]
            bi_out = op(Tensor(batch_innermost(arr), requires_grad=True))
            assert is_batch_innermost(bi_out.data)
            assert bi_out.data.tobytes() == c_out.data.tobytes()
            assert bi_out._vjp(g)[0].tobytes() == c_dx.tobytes()
            dx = bi_out._vjp(batch_innermost(g))[0]
            assert is_batch_innermost(dx)
            assert dx.tobytes() == c_dx.tobytes()

    def test_reshape_flattens_batch_innermost_data_in_c_order(self):
        arr = np.random.default_rng(80).standard_normal((6, 4, 3, 3))
        w = np.random.default_rng(81).standard_normal((36, 5))
        flat = ad.reshape(Tensor(batch_innermost(arr)), (6, 36)).data
        assert flat.flags.c_contiguous
        assert flat.tobytes() == arr.reshape(6, 36).tobytes()
        assert matmul(flat, w).data.tobytes() == (arr.reshape(6, 36) @ w).tobytes()
