"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation returns a new Tensor node whose
value is already computed and whose vector-Jacobian product is recorded as a
closure. Calling :func:`backward` on a scalar node walks the recorded graph
in reverse topological order and returns a map from node to accumulated
gradient. Nothing is mutated during backward, so parameter tensors can be
shared read-only between graphs evaluated on different threads.

All arithmetic is 64-bit. Broadcasting is deliberately restricted: the only
implicit broadcast is a right operand whose shape equals the left operand's
shape minus the leading batch axis (bias-add style). A plain python scalar
is accepted only as :func:`mul`'s right operand.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {', '.join(str(tuple(s)) for s in shapes)}")
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)


class GraphError(RuntimeError):
    """Raised for invalid backward requests (non-scalar root, detached input)."""


class Tensor:
    """A graph node holding a float64 ndarray value.

    Leaf tensors are created directly; interior nodes are created by the
    operations in this module. ``requires_grad`` controls whether the node
    participates in backward; constants never accumulate gradient.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._vjp = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; only mul takes a python scalar.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, vjp) -> Tensor:
    """Wrap an op result, recording the backward rule only when needed."""
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _bias_broadcastable(a: Tensor, b: Tensor) -> bool:
    return a.data.ndim >= 1 and b.data.shape == a.data.shape[1:]


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    need_b = b.requires_grad
    if a.data.shape == b.data.shape:
        return _node(a.data + b.data, (a, b), lambda g: (g, g if need_b else None))
    if _bias_broadcastable(a, b):
        return _node(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0) if need_b else None))
    raise ShapeError("add", a.data.shape, b.data.shape)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    need_b = b.requires_grad
    if a.data.shape == b.data.shape:
        return _node(a.data - b.data, (a, b), lambda g: (g, -g if need_b else None))
    if _bias_broadcastable(a, b):
        return _node(a.data - b.data, (a, b), lambda g: (g, -g.sum(axis=0) if need_b else None))
    raise ShapeError("sub", a.data.shape, b.data.shape)


def mul(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        s = float(b)
        return _node(a.data * s, (a,), lambda g: (g * s,))
    b = as_tensor(b)
    need_a, need_b = a.requires_grad, b.requires_grad
    if a.data.shape == b.data.shape:
        return _node(a.data * b.data, (a, b),
                     lambda g: (g * b.data if need_a else None,
                                g * a.data if need_b else None))
    if _bias_broadcastable(a, b):
        return _node(a.data * b.data, (a, b),
                     lambda g: (g * b.data if need_a else None,
                                (g * a.data).sum(axis=0) if need_b else None))
    raise ShapeError("mul", a.data.shape, b.data.shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError("matmul", a.data.shape, b.data.shape)
    need_a, need_b = a.requires_grad, b.requires_grad
    return _node(a.data @ b.data, (a, b),
                 lambda g: (g @ b.data.T if need_a else None,
                            a.data.T @ g if need_b else None))


def relu(x: Tensor) -> Tensor:
    """max(x, 0): +0.0 for every non-positive input, -0.0 included; NaN
    stays NaN."""
    x = as_tensor(x)
    mask = x.data > 0.0 if x.requires_grad else None
    return _node(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    try:  # read in C order, so a flatten of batch-innermost data is no strided view
        val = np.ascontiguousarray(x.data).reshape(shape)
    except ValueError:
        raise ShapeError("reshape", x.data.shape, shape) from None

    def vjp(g):
        dx = np.empty_like(x.data)  # in x's memory order, so a pool's backward reads one layout
        dx[...] = g.reshape(dx.shape)
        return (dx,)

    return _node(val, (x,), vjp)


def tsum(x: Tensor) -> Tensor:
    """Sum over all elements, as a scalar."""
    x = as_tensor(x)
    shape = x.data.shape
    return _node(x.data.sum(), (x,), lambda g: (np.broadcast_to(g, shape).copy(),))


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Gather conv patches into (B, C*kh*kw, oh*ow) columns.

    The columns are stored batch-innermost, as (C*kh*kw, oh*ow, B), and
    returned as a (B, C*kh*kw, oh*ow) view of that memory, so each slice copy
    runs over ``ow * B`` contiguous doubles rather than ``ow``. ``x`` may be
    stored in either order.
    """
    B, C, H, W = x.shape
    grid = x.transpose(1, 2, 3, 0)  # (C, H, W, B)
    if padding:  # by slice assignment: np.pad triples im2col's time on 4-sample chunks
        padded = np.zeros((C, H + 2 * padding, W + 2 * padding, B))
        padded[:, padding:padding + H, padding:padding + W] = grid
        grid = padded
    _, H, W, _ = grid.shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    cols = np.empty((C, kh, kw, oh, ow, B), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = grid[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(C * kh * kw, oh * ow, B).transpose(2, 0, 1), oh, ow


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int):
    """Scatter-add (C*kh*kw, oh*ow, B) columns, stored as im2col stores
    them, back to the (padded, then cropped) batch-innermost input grid;
    returns the (B, C, H, W) view of it."""
    B, C, H, W = x_shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    oh = (Hp - kh) // stride + 1
    ow = (Wp - kw) // stride + 1
    cols = cols.reshape(C, kh, kw, oh, ow, B)
    dx = np.zeros((C, Hp, Wp, B), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, i, j]
    if padding:
        dx = dx[:, padding:-padding, padding:-padding]
    return dx.transpose(3, 0, 1, 2)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
           columns: list | None = None) -> Tensor:
    """2-D cross-correlation of (B,Cin,H,W) with (Cout,Cin,kh,kw) kernels
    plus a (Cout,) bias.

    The output, like im2col's columns, is a (B, Cout, oh, ow) view of
    batch-innermost (Cout, oh, ow, B) memory: the forward pass is one GEMM of
    the (Cout, F) kernels with the (F, oh*ow*B) columns. The backward pass
    reads the output gradient as one (Cout, oh*ow*B) matrix g2d: dx is
    ``w2d.T @ g2d`` scattered back, dw is ``g2d @ cols2d.T``, db g2d's row sums.

    When ``columns`` is a list, im2col's (B, F, P) columns are appended to
    it, so a caller that needs them (per-example kernel gradients) does not
    gather the input again.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError("conv2d", x.data.shape, w.data.shape)
    cout, cin, kh, kw = w.data.shape
    B, _, H, W = x.data.shape
    if H + 2 * padding < kh or W + 2 * padding < kw:
        raise ShapeError("conv2d", x.data.shape, w.data.shape)
    if b.data.shape != (cout,):
        raise ShapeError("conv2d bias", b.data.shape, (cout,))

    cols, oh, ow = im2col(x.data, kh, kw, stride, padding)
    if columns is not None:
        columns.append(cols)
    w2d = w.data.reshape(cout, cin * kh * kw)
    cols2d = cols.transpose(1, 2, 0).reshape(cin * kh * kw, oh * ow * B)  # a view
    out = w2d @ cols2d
    out += b.data[:, None]
    out = out.reshape(cout, oh, ow, B).transpose(3, 0, 1, 2)

    x_shape = x.data.shape
    w_shape = w.data.shape
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad
    cols2d = cols2d if need_w else None  # the graph keeps the columns only for dw

    def vjp(g):
        g2d = g.transpose(1, 2, 3, 0).reshape(cout, oh * ow * B)  # a view if g is batch-innermost
        dx = _col2im(w2d.T @ g2d, x_shape, kh, kw, stride, padding) if need_x else None
        dw = (g2d @ cols2d.T).reshape(w_shape) if need_w else None
        db = g2d.sum(axis=1) if need_b else None
        return dx, dw, db

    return _node(out, (x, w, b), vjp)


def maxpool2d(x: Tensor, size: int) -> Tensor:
    """Max pooling over non-overlapping ``size`` x ``size`` windows.

    Rows and columns past the last whole window are dropped and get zero
    gradient. The forward pass folds the ``size**2`` strided window slots
    into a running maximum in row-major order. When the input needs a
    gradient it also keeps, for each slot after the first, the bool mask of
    where that slot beat the running maximum; the backward pass scans the
    masks in reverse, so the gradient goes to the window's first maximal
    element in row-major order and every other element gets +0.0.

    Every array is indexed in the conv stack's (C, H, W, B) memory order, so
    numpy walks batch-innermost data without permuting axes; the output is a
    (B, C, oh, ow) view of (C, oh, ow, B) memory.
    """
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError("maxpool2d", x.data.shape)
    B, C, H, W = x.data.shape
    if H < size or W < size:
        raise ShapeError("maxpool2d", x.data.shape, (size, size))
    hc, wc = H // size * size, W // size * size
    slots = [(slice(None), slice(i, hc, size), slice(j, wc, size))
             for i in range(size) for j in range(size)]
    grid = x.data.transpose(1, 2, 3, 0)
    pooled = grid[slots[0]].copy()
    masks = []
    for slot in slots[1:]:
        view = grid[slot]
        if x.requires_grad:
            masks.append(view > pooled)
        np.maximum(view, pooled, out=pooled)  # ties keep the earlier slot's value

    def vjp(g):
        dx = np.empty_like(grid)  # the slots fill all of it but the cropped edges
        dx[:, hc:] = 0.0
        dx[:, :, wc:] = 0.0
        # g where routed and +0.0 elsewhere, exactly for every value: g's bit
        # patterns times the 0/1 route, as integers (np.where is slower)
        bits = g.transpose(1, 2, 3, 0).view(np.int64)
        free = np.ones(pooled.shape, dtype=bool)  # windows whose maximum is not yet placed
        for slot, mask in zip(slots[:0:-1], masks[::-1]):
            route = mask & free
            free ^= route
            np.multiply(bits, route, out=dx[slot].view(np.int64))
        np.multiply(bits, free, out=dx[slots[0]].view(np.int64))
        return (dx.transpose(3, 0, 1, 2),)

    return _node(pooled.transpose(3, 0, 1, 2), (x,), vjp)


# ---------------------------------------------------------------------------
# fused losses (numerically stable forms with hand-derived backward rules)
# ---------------------------------------------------------------------------

def _class_labels(op: str, logits: Tensor, labels) -> np.ndarray:
    """The int64 labels of the rows of (B, N) ``logits``, each in [0, N)."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != (logits.data.shape[0],):
        raise ShapeError(op, logits.data.shape, labels.shape)
    N = logits.data.shape[1]
    if labels.min() < 0 or labels.max() >= N:
        raise ValueError(f"{op}: labels must lie in [0, {N})")
    return labels.astype(np.int64)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over a batch of integer labels."""
    logits = as_tensor(logits)
    y = _class_labels("softmax_cross_entropy", logits, labels)
    B = len(y)
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    sumexp = np.exp(shifted).sum(axis=1)
    # group (m - z_y) so the uniform-logit case cancels exactly
    per = np.log(sumexp) + (m[:, 0] - z[np.arange(B), y])
    val = per.mean()

    def vjp(g):
        p = np.exp(shifted) / sumexp[:, None]
        p[np.arange(B), y] -= 1.0
        return (g * p / B,)

    return _node(val, (logits,), vjp)


def cw_hinge(logits: Tensor, labels) -> Tensor:
    """Per-row Carlini-Wagner hinge max(z_y - max_{j != y} z_j, 0).

    A row with a positive margin gets +g at y and -g at its first maximal
    other class; every other entry, zero-margin rows included, gets +0.0.
    """
    logits = as_tensor(logits)
    y = _class_labels("cw_hinge", logits, labels)
    rows = np.arange(len(y))
    z = logits.data
    others = z.copy()
    others[rows, y] = -np.inf
    j = np.argmax(others, axis=1)
    margin = z[rows, y] - z[rows, j]
    p = rows[margin > 0.0]  # the rows whose hinge is active

    def vjp(g):
        dz = np.zeros_like(z)
        dz[p, y[p]] = g[p]
        dz[p, j[p]] = -g[p]
        return (dz,)

    return _node(np.maximum(margin, 0.0), (logits,), vjp)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy between sigmoid(logits) and fixed targets.

    Evaluated in the saturating softplus form, so finite logits can never
    produce a non-finite loss.
    """
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.data.shape:
        raise ShapeError("bce_with_logits", logits.data.shape, t.shape)
    z = logits.data
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    val = per.mean()
    n = z.size

    def vjp(g):
        return (g * (stable_sigmoid(z) - t) / n,)

    return _node(val, (logits,), vjp)


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function without overflow on either tail."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(root: Tensor) -> dict:
    """Run reverse-mode accumulation from a scalar root.

    Returns a map from every reachable requires-grad node to its gradient
    ndarray (same shape as the node's value). The graph itself is left
    untouched; repeated calls are independent.
    """
    if root.data.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return {root: np.ones_like(root.data)}

    # Iterative post-order over requires-grad nodes only. Nodes are marked
    # visited at expansion time (not push time), which keeps reverse
    # post-order a valid topological order on diamond-shaped graphs.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[Tensor, np.ndarray] = {root: np.ones_like(root.data)}
    for node in reversed(order):
        if node._vjp is None:
            continue
        g = grads[node]
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg
    return grads


def sgd_step(params, grads, velocity, lr: float, momentum: float,
             weight_decay: float = 0.0) -> None:
    """One in-place SGD-with-momentum update of each parameter tensor.

    ``grads`` maps each parameter to its gradient, as :func:`backward`
    returns it, and ``velocity`` holds one buffer per parameter, updated in
    place. A nonzero ``weight_decay`` adds the L2 term
    ``weight_decay * p`` to the gradient first.
    """
    for p, v in zip(params, velocity):
        g = grads[p]
        if weight_decay:
            g = g + weight_decay * p.data
        v *= momentum
        v += g
        p.data -= lr * v
