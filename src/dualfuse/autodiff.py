"""Dense float64 tensors with reverse-mode automatic differentiation.

Every numeric value in the network flows through this module. A Tensor wraps
one contiguous float64 numpy array plus an optional gradient buffer; a
forward op whose inputs need gradients gives its result a graph Node with
parent links and a backward closure, and ``backward()`` replays the recorded
graph in exact reverse topological order, accumulating gradients additively
into every reachable leaf with ``requires_grad``. Closures save only the
arrays their gradients read, so the graph holds no op result's Tensor, and
backward frees the graph as it goes: after a backward pass only leaves
(parameters, inputs) hold a ``grad``.

Engine-wide conventions:
  * float64 everywhere; convolution is cross-correlation (no kernel flip)
  * gradients accumulate additively; callers zero them between steps
  * tensors are treated as immutable once they enter a graph
  * with debug checks enabled, any op producing NaN/Inf aborts immediately,
    naming the op that produced it
"""

from __future__ import annotations

import ctypes
import math

import numpy as np


class EngineError(Exception):
    """Base class for engine failures."""


class DimensionError(EngineError):
    """Operand shapes are incompatible with the requested op."""


class ContractError(EngineError):
    """An op precondition was violated."""


class GraphStateError(EngineError):
    """Backward was invoked on a graph that has already been consumed."""


class NonFiniteError(EngineError):
    """An op produced NaN or Inf while debug checks were active, or a NaN or
    Inf gradient reached the optimizer."""


# glibc serves a block above M_MMAP_THRESHOLD with a fresh mmap whose pages
# all fault in on first touch, and raises that threshold (and the trim
# threshold) only after freeing such a block. Left to that, the scan's 4 MB
# temporaries fault ~1,250 times per call unless a larger block happened to
# be freed earlier in the process; with fixed thresholds they reuse heap
# pages from the second call on. 32 MB is the ceiling of glibc's own
# adjustment and 64 MB the trim threshold it pairs with it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3       # glibc <malloc.h>


def _pin_malloc_thresholds() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):    # no glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_pin_malloc_thresholds()


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread, so output bytes do not
    depend on the thread count: some block products (an 8- to 24-channel
    im2col conv, for one) round differently at 2 threads, and one thread
    costs at most a few percent at the model's sizes. The setter is
    ``scipy_openblas_set_num_threads64_``, found through numpy's core
    extension module. A BLAS without that symbol is left alone, and its
    bytes may then depend on its thread count."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        setter = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    setter.argtypes = (ctypes.c_int,)
    setter.restype = None
    setter(1)


_pin_blas_threads()

_debug_checks = False
_grad_enabled = True
_flop_counter: "FlopCounter | None" = None


def set_debug_checks(enabled: bool) -> None:
    """Toggle post-op NaN/Inf detection (off by default; training turns it on)."""
    global _debug_checks
    _debug_checks = bool(enabled)


class no_grad:
    """Context manager that skips graph construction inside its body."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class FlopCounter:
    """Counts scalar multiply-add work of forward ops while installed.

    Counts are deterministic functions of op shapes, which makes them a clean
    signal for the linear-complexity measurements: installing a counter and
    running an op twice yields identical totals.
    """

    def __init__(self):
        self.total = 0

    def add(self, n: int) -> None:
        self.total += int(n)

    def __enter__(self):
        global _flop_counter
        self._prev = _flop_counter
        _flop_counter = self
        return self

    def __exit__(self, *exc):
        global _flop_counter
        _flop_counter = self._prev
        return False


def _count(n: int) -> None:
    if _flop_counter is not None:
        _flop_counter.add(n)


class _GradTarget:
    """What backward accumulates a gradient into: a leaf Tensor (parameter or
    input) or the Node of an op result. Both have ``grad`` and ``shape``."""

    __slots__ = ()

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:        # a copy: add and sub pass one g to both
            self.grad = np.empty(self.shape)
            np.copyto(self.grad, g)
        else:
            self.grad += g


class Node(_GradTarget):
    """Graph record of one op result that requires grad.

    ``parents`` holds, per op input, that input's gradient target (its Node,
    or the Tensor itself for a leaf) or None when it needs no gradient;
    ``backward_fn(g, *parents)`` adds the input gradients for cotangent g.
    The node holds no array of its own: the closure keeps exactly the arrays
    and shapes it reads, so an op result's ``data`` lives only as long as the
    calling code or a closure needs it.
    """

    __slots__ = ("grad", "parents", "backward_fn", "op", "spent", "shape")

    def __init__(self, shape: tuple, parents: tuple, backward_fn, op: str):
        self.grad = None
        self.shape = shape
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op
        self.spent = False


class Tensor(_GradTarget):
    """N-D float64 array with an optional gradient slot.

    A leaf (input, parameter) is its own gradient target, so ``grad`` of a
    leaf with ``requires_grad`` holds its gradient after a backward pass. An
    op result that requires grad points at its graph ``Node`` and keeps
    ``grad`` None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() needs a single-element tensor, got shape %r"
                                % (self.shape,))
        return float(self.data.reshape(()))

    def __repr__(self):
        return "Tensor(op=%s, shape=%r, requires_grad=%s)" % (
            "leaf" if self._node is None else self._node.op, self.shape,
            self.requires_grad)

    # -- backward -----------------------------------------------------------

    def backward(self) -> None:
        """Populate grads of every reachable leaf with ``requires_grad``.

        The loss must be scalar; running backward twice over the same graph
        raises GraphStateError. Arrays are kept only where backward reads
        them: each closure saves the arrays and shapes its gradients need
        (``add`` two shapes, ``matmul`` its operands, a conv the padded input
        and the kernel), never an op result's Tensor, so an intermediate no
        closure reads is freed once the calling code drops it. The graph is
        released as it is consumed: once a node's closure has run, its
        ``grad``, closure and parent links are cleared, so each saved array
        is freed as soon as the last closure that reads it has run. Only
        leaves keep their ``grad``.
        """
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss, got shape %r"
                                % (self.shape,))
        if not self.requires_grad:
            raise ContractError("loss does not require grad; nothing to differentiate")
        order = toposort(self)
        for node in order:
            if isinstance(node, Node) and node.spent:
                raise GraphStateError(
                    "graph already consumed by a previous backward(); "
                    "rebuild the forward pass before differentiating again")
        order[-1]._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if isinstance(node, Node):
                node.backward_fn(node.grad, *node.parents)
                node.spent = True
                node.grad = node.backward_fn = None
                node.parents = ()

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, idx):
        return take(self, idx)

    # -- method sugar ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)

    @property
    def T(self):
        return transpose(self, None)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _target(t: Tensor):
    """Gradient target of ``t``: its Node, ``t`` itself for a leaf, or None
    when ``t`` needs no gradient."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def toposort(root: Tensor) -> list:
    """Gradient targets below ``root`` in topological order (parents before
    children, ``root``'s own target last): Nodes and leaf Tensors."""
    order: list = []
    seen: set = set()
    stack = [(_target(root), False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, Node):
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
    return order


def _make(out_data: np.ndarray, parents: tuple, op: str, backward_fn) -> Tensor:
    """Wrap an op result; record a graph Node unless grads are disabled or no
    input needs a gradient."""
    if _debug_checks and not np.isfinite(out_data).all():
        raise NonFiniteError("op '%s' produced a non-finite value" % op)
    out = Tensor(out_data)
    if _grad_enabled:
        targets = tuple(map(_target, parents))
        if any(t is not None for t in targets):
            out.requires_grad = True
            out._node = Node(out.shape, targets, backward_fn, op)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------
#
# Backward closures take the cotangent and one gradient target per input (None
# for an input that needs no gradient) and save only the arrays and shapes
# they read. Where one input's gradient reads the other input's data, that
# data is saved only when the first input requires grad.

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    _count(out.size)
    sa, sb = a.shape, b.shape

    def backward(g, ta, tb):
        if ta is not None:
            ta._accumulate(_unbroadcast(g, sa))
        if tb is not None:
            tb._accumulate(_unbroadcast(g, sb))

    return _make(out, (a, b), "add", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    _count(out.size)
    sa, sb = a.shape, b.shape

    def backward(g, ta, tb):
        if ta is not None:
            ta._accumulate(_unbroadcast(g, sa))
        if tb is not None:
            tb._accumulate(_unbroadcast(-g, sb))

    return _make(out, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    _count(out.size)
    sa, sb = a.shape, b.shape
    xb = b.data if a.requires_grad else None
    xa = a.data if b.requires_grad else None

    def backward(g, ta, tb):
        if ta is not None:
            ta._accumulate(_unbroadcast(g * xb, sa))
        if tb is not None:
            tb._accumulate(_unbroadcast(g * xa, sb))

    return _make(out, (a, b), "mul", backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    _count(out.size)
    sa, sb = a.shape, b.shape
    xb = b.data
    xa = a.data if b.requires_grad else None

    def backward(g, ta, tb):
        if ta is not None:
            ta._accumulate(_unbroadcast(g / xb, sa))
        if tb is not None:
            tb._accumulate(_unbroadcast(-g * xa / (xb * xb), sb))

    return _make(out, (a, b), "div", backward)


def neg(a: Tensor) -> Tensor:
    out = -a.data
    _count(out.size)

    def backward(g, ta):
        ta._accumulate(-g)

    return _make(out, (a,), "neg", backward)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    x = a.data
    out = x ** exponent
    _count(out.size)

    def backward(g, ta):
        ta._accumulate(g * exponent * x ** (exponent - 1.0))

    return _make(out, (a,), "pow", backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; at ties the gradient routes to the first operand."""
    xa, xb = a.data, b.data
    out = np.maximum(xa, xb)
    _count(out.size)
    sa, sb = a.shape, b.shape

    def backward(g, ta, tb):
        mask = (xa >= xb).astype(np.float64)
        if ta is not None:
            ta._accumulate(_unbroadcast(g * mask, sa))
        if tb is not None:
            tb._accumulate(_unbroadcast(g * (1.0 - mask), sb))

    return _make(out, (a, b), "maximum", backward)


def absolute(a: Tensor) -> Tensor:
    x = a.data
    out = np.abs(x)
    _count(out.size)

    def backward(g, ta):
        ta._accumulate(g * np.sign(x))

    return _make(out, (a,), "abs", backward)


# ---------------------------------------------------------------------------
# activations and pointwise transcendentals
# ---------------------------------------------------------------------------

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    _count(out.size)

    def backward(g, ta):
        ta._accumulate(g * out)

    return _make(out, (a,), "exp", backward)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_np(a.data)
    _count(out.size)

    def backward(g, ta):
        ta._accumulate(g * out * (1.0 - out))

    return _make(out, (a,), "sigmoid", backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e = e^-|x|, so
    # exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def silu(a: Tensor) -> Tensor:
    x = a.data
    s = _sigmoid_np(x)
    out = x * s
    _count(2 * out.size)

    def backward(g, ta):
        ta._accumulate(g * (s + x * s * (1.0 - s)))

    return _make(out, (a,), "silu", backward)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU (engine-wide choice, exact erf not needed)."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    _count(4 * out.size)

    def backward(g, ta):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        ta._accumulate(g * grad)

    return _make(out, (a,), "gelu", backward)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    _count(out.size)

    def backward(g, ta):
        ta._accumulate(g * (1.0 - out * out))

    return _make(out, (a,), "tanh", backward)


def softplus(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
    _count(2 * out.size)

    def backward(g, ta):
        ta._accumulate(g * _sigmoid_np(x))

    return _make(out, (a,), "softplus", backward)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Probability simplex along ``axis``, computed with max-subtraction."""
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError("softmax axis %d invalid for shape %r" % (axis, a.shape))
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    _count(4 * out.size)

    def backward(g, ta):
        dot = (g * out).sum(axis=axis, keepdims=True)
        ta._accumulate(out * (g - dot))

    return _make(out, (a,), "softmax", backward)


def layer_norm(a: Tensor, axis: int, eps: float = 1e-6) -> Tensor:
    """Zero-mean unit-variance normalization along ``axis`` (no affine)."""
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError("layer_norm axis %d invalid for shape %r" % (axis, a.shape))
    n = a.data.shape[axis]
    mu = a.data.mean(axis=axis, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = xc * inv
    _count(5 * out.size)

    def backward(g, ta):
        gy_sum = g.sum(axis=axis, keepdims=True)
        gy_dot = (g * out).sum(axis=axis, keepdims=True)
        ta._accumulate(inv / n * (n * g - gy_sum - out * gy_dot))

    return _make(out, (a,), "layer_norm", backward)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = a.data.reshape(shape)
    shape_in = a.shape

    def backward(g, ta):
        ta._accumulate(g.reshape(shape_in))

    return _make(out, (a,), "reshape", backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError("transpose axes %r invalid for ndim %d" % (axes, a.ndim))
    # contiguous output keeps downstream kernels on one deterministic path
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = np.argsort(axes)

    def backward(g, ta):
        ta._accumulate(g.transpose(inverse))

    return _make(out, (a,), "transpose", backward)


def flip(a: Tensor, axis: int) -> Tensor:
    out = np.flip(a.data, axis=axis).copy()

    def backward(g, ta):
        ta._accumulate(np.flip(g, axis=axis))

    return _make(out, (a,), "flip", backward)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g, *targets):
        for t, lo, hi in zip(targets, offsets[:-1], offsets[1:]):
            if t is not None:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(out, tuple(tensors), "concat", backward)


def _is_basic_index(idx) -> bool:
    """True for an index of ints, slices and Ellipsis only. Such an index
    selects each element at most once, so a gradient can add straight into
    the selected view; an advanced index may repeat elements, whose
    contributions must be summed with np.add.at."""
    for part in idx if isinstance(idx, tuple) else (idx,):
        if not (part is Ellipsis or isinstance(part, slice)
                or (isinstance(part, (int, np.integer))
                    and not isinstance(part, bool))):
            return False
    return True


def take(a: Tensor, idx) -> Tensor:
    out = a.data[idx]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out)
    shape_in = a.shape

    def backward(g, ta):
        if _is_basic_index(idx):
            if ta.grad is None:
                ta.grad = np.zeros(shape_in)
            ta.grad[idx] += g
        else:
            buf = np.zeros(shape_in)
            np.add.at(buf, idx, g)
            ta._accumulate(buf)

    return _make(out, (a,), "slice", backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    out = np.asarray(out)
    _count(a.size)
    shape_in = a.shape

    def backward(g, ta):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            for ax in sorted(axis):
                gg = np.expand_dims(gg, ax)
        ta._accumulate(np.broadcast_to(gg, shape_in))

    return _make(out, (a,), "sum", backward)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    count = a.size if axis is None else int(np.prod([a.data.shape[ax] for ax in axis]))
    out = a.data.mean(axis=axis, keepdims=keepdims)
    out = np.asarray(out)
    _count(a.size)
    shape_in = a.shape

    def backward(g, ta):
        gg = np.asarray(g) / count
        if axis is not None and not keepdims:
            for ax in sorted(axis):
                gg = np.expand_dims(gg, ax)
        ta._accumulate(np.broadcast_to(gg, shape_in))

    return _make(out, (a,), "mean", backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("matmul needs 2-D operands, got %r and %r"
                             % (a.shape, b.shape))
    if a.shape[1] != b.shape[0]:
        raise DimensionError("matmul inner dims disagree: %r vs %r"
                             % (a.shape, b.shape))
    out = a.data @ b.data
    _count(2 * a.shape[0] * a.shape[1] * b.shape[1])
    xb = b.data if a.requires_grad else None
    xa = a.data if b.requires_grad else None

    def backward(g, ta, tb):
        if ta is not None:
            ta._accumulate(g @ xb.T)
        if tb is not None:
            tb._accumulate(xa.T @ g)

    return _make(out, (a, b), "matmul", backward)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, pad: int | None = None) -> Tensor:
    """Cross-correlation of a C_in cube with a C_out x C_in x k x k kernel.

    ``pad=None`` selects zero padding that preserves spatial dims.
    """
    return _conv(x, w, "conv2d", pad=pad)


def depthwise_conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel k x k cross-correlation of x[C,H,W] with w[C,k,k], same padding."""
    return _conv(x, w, "depthwise_conv2d", depthwise=True)


def dilated_conv2d(x: Tensor, w: Tensor, dilation: int) -> Tensor:
    """Dilated k x k cross-correlation with same zero padding."""
    return _conv(x, w, "dilated_conv2d", dilation=dilation)


def _conv(x: Tensor, w: Tensor, op: str, pad: int | None = None,
          dilation: int = 1, depthwise: bool = False) -> Tensor:
    """Shifted-tap cross-correlation behind the three public conv ops.

    Tap (i, j) of output pixel (y, x) reads padded input pixel
    (y + dilation * i, x + dilation * j). Dense weights are w[Co,Ci,k,k],
    depthwise weights w[C,k,k] scale each tap per channel; ``pad=None`` keeps
    the spatial dims. The arithmetic runs in ``correlate`` on flat padded
    rows. Backward takes the weight gradient per tap from the same rows and
    the x-gradient as the correlation of the cotangent with the flipped
    kernel (in and out channels swapped) under pad span - 1 - pad.
    """
    if x.ndim != 3 or w.ndim != (3 if depthwise else 4):
        raise DimensionError("%s expects x[C,H,W] and a %dD kernel; got %r, %r"
                             % (op, 3 if depthwise else 4, x.shape, w.shape))
    c_in, h, wd = x.shape
    k = w.shape[-1]
    if w.shape[-2] != k:
        raise DimensionError("%s kernels must be square, got %r" % (op, w.shape))
    if w.shape[-3] != c_in:
        raise DimensionError("%s channel mismatch: input %d vs kernel %d"
                             % (op, c_in, w.shape[-3]))
    if dilation < 1:
        raise ContractError("%s dilation must be >= 1, got %r" % (op, dilation))
    c_out = c_in if depthwise else w.shape[0]
    span = dilation * (k - 1) + 1
    if pad is None:
        pad = (span - 1) // 2
    h_out = h + 2 * pad - span + 1
    w_out = wd + 2 * pad - span + 1
    if h_out < 1 or w_out < 1:
        raise DimensionError("%s output would be empty for input %r kernel %d"
                             % (op, x.shape, k))

    _count(2 * c_out * (1 if depthwise else c_in) * k * k * h_out * w_out)
    out, xf = correlate(x.data, w.data, pad, dilation, depthwise)
    xf = xf if w.requires_grad else None
    wk = w.data if x.requires_grad else None

    def backward(g, tx, tw):
        if tw is not None:
            wp = wd + 2 * pad
            gf = g
            if w_out < wp:                       # zero wrap-around columns
                gf = np.zeros((c_out, h_out, wp))
                gf[:, :, :w_out] = g
            gf = gf.reshape(c_out, -1)[:, :(h_out - 1) * wp + w_out]
            taps = _taps(xf, k, dilation, wp, gf.shape[1])
            if depthwise:        # per channel (1, n) @ (n, 1): (k, k, C)
                gwt = (taps[..., None, :] @ gf[..., None])[..., 0, 0]
                tw._accumulate(gwt.transpose(2, 0, 1))
            else:                # (Co, n) @ (n, Ci): (k, k, Co, Ci)
                tw._accumulate((gf @ taps.swapaxes(-1, -2)).transpose(2, 3, 0, 1))
        if tx is not None:
            # outputs beyond span - 1 pixels of padding read no input
            cut = max(0, pad - span + 1)
            flipped = wk[..., ::-1, ::-1]
            if not depthwise:
                flipped = flipped.swapaxes(0, 1)
            # contiguous, so correlate's kernel reshapes stay BLAS operands
            tx._accumulate(correlate(g[:, cut:h_out - cut, cut:w_out - cut],
                                     np.ascontiguousarray(flipped),
                                     span - 1 - pad + cut, dilation,
                                     depthwise)[0])

    return _make(out, (x, w), op, backward)


# Bytes of tap slices copied for one im2col matmul: the copy and the
# matmul's operands then stay in L2 (blocks of 256 KB to 1 MB timed alike on
# the 32x32 and 64x64 model shapes; whole-plane copies of 1-7 MB ran up to
# 2x slower at 64x64).
_IM2COL_BYTES = 1 << 19


def _taps(xf: np.ndarray, k: int, dilation: int, wp: int, n: int) -> np.ndarray:
    """(k, k, C, n) view of flat rows ``xf`` (C-contiguous): [i, j] holds
    every row's n values from offset dilation * (i*Wp + j) on."""
    item = xf.itemsize
    return np.ndarray((k, k, xf.shape[0], n), xf.dtype, xf, 0,
                      (dilation * wp * item, dilation * item, xf.strides[0], item))


def correlate(xd: np.ndarray, wk: np.ndarray, pad: int, dilation: int,
              depthwise: bool):
    """Cross-correlate x[Ci,H,W] with wk[Co,Ci,k,k] (or wk[C,k,k]) on flat rows.

    Each channel's zero-padded plane is one flat row of Hp*Wp values, so tap
    (i, j) of every output pixel at once is the contiguous slice at offset
    dilation * (i*Wp + j). Outputs are computed on a wide grid of Wp columns
    per row, n = (Ho - 1)*Wp + Wo values (the last slice ends at the end of
    the row), and the Wp - Wo columns that wrap round into the next row are
    dropped. Dense kernels with at least as many input channels as taps add
    one (Co,Ci) @ (Ci,n) product per tap; a 1x1 kernel with pad 0 is one
    matmul on a free reshape. Depthwise kernels, and dense ones with more
    taps than input channels (the 11x11 SSIM window, Sobel), run one matmul
    per block of outputs over a copy of that block's k*k slices. Returns
    out[Co,Ho,Wo] and the flat padded input (Ci, Hp*Wp). Plain arrays in,
    no graph node or flop count: the metrics' VIF and Sobel filters call it
    directly.
    """
    c_in, h, wd = xd.shape
    k = wk.shape[-1]
    c_out = c_in if depthwise else wk.shape[0]
    hp, wp = h + 2 * pad, wd + 2 * pad
    span = dilation * (k - 1) + 1
    h_out, w_out = hp - span + 1, wp - span + 1
    n = (h_out - 1) * wp + w_out
    if pad:
        xf = np.zeros((c_in, hp * wp))
        xf.reshape(c_in, hp, wp)[:, pad:pad + h, pad:pad + wd] = xd
    else:
        xf = np.ascontiguousarray(xd).reshape(c_in, hp * wp)
    full = np.empty((c_out, h_out * wp))
    wide = full[:, :n]
    if depthwise or c_in < k * k:
        taps = _taps(xf, k, dilation, wp, n).transpose(2, 0, 1, 3)
        block = max(1, _IM2COL_BYTES // (k * k * c_in * xf.itemsize))
        cols = np.empty((c_in, k * k, min(block, n)))
        if depthwise:        # per channel (1, k*k) @ (k*k, m)
            wm, out_view = wk.reshape(c_in, 1, k * k), wide[:, None]
        else:                # (Co, Ci*k*k) @ (Ci*k*k, m)
            wm, out_view = wk.reshape(c_out, -1), wide
        for s in range(0, n, block):
            m = min(block, n - s)
            rhs = cols[..., :m]
            np.copyto(rhs.reshape(c_in, k, k, m), taps[..., s:s + m])
            np.matmul(wm, rhs if depthwise else rhs.reshape(-1, m),
                      out=out_view[..., s:s + m])
    else:
        wt = np.ascontiguousarray(wk.reshape(c_out, c_in, k * k).transpose(2, 0, 1))
        np.matmul(wt[0], xf[:, :n], out=wide)
        tmp = np.empty((c_out, n)) if k > 1 else None
        for t in range(1, k * k):
            off = dilation * (t // k * wp + t % k)
            wide += np.matmul(wt[t], xf[:, off:off + n], out=tmp)
    out = full.reshape(c_out, h_out, wp)[:, :, :w_out]
    return np.ascontiguousarray(out), xf


def pad_reflect2d(x: Tensor, pad: int) -> Tensor:
    """Reflect-pad the two spatial axes of a C x H x W tensor."""
    if x.ndim != 3:
        raise DimensionError("pad_reflect2d expects x[C,H,W], got %r" % (x.shape,))
    c, h, w = x.shape
    if pad >= h or pad >= w:
        raise ContractError("reflect pad %d too large for %dx%d image" % (pad, h, w))
    out = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")

    def backward(g, tx):
        idx = np.pad(np.arange(h * w).reshape(h, w), pad, mode="reflect").ravel()
        gflat = g.reshape(c, -1)
        buf = np.zeros((c, h * w))
        for ch in range(c):
            buf[ch] = np.bincount(idx, weights=gflat[ch], minlength=h * w)
        tx._accumulate(buf.reshape(c, h, w))

    return _make(out, (x,), "pad_reflect2d", backward)


# ---------------------------------------------------------------------------
# selective-scan recurrence
# ---------------------------------------------------------------------------

def _recur(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First-order linear recurrence b[t] += a[t-1] * b[t-1] along axis 0.

    Runs in place over row views of ``b`` (which may be a reversed view) and
    returns it; ``a`` has one row fewer than ``b``.
    """
    prev = b[0]
    for a_t, b_t in zip(a, b[1:]):
        b_t += a_t * prev
        prev = b_t
    return b


def _recur_chunked(within: np.ndarray, boundary: np.ndarray, h: np.ndarray,
                   reverse: bool) -> np.ndarray:
    """``_recur`` over a chunk-interleaved layout, in place; returns ``h``.

    Row [i, k] of ``h`` (t, K, ...) is step i of chunk k. ``within``
    (t-1, K, ...) holds the coefficients of steps 1..t-1 of every chunk and
    ``boundary`` (K-1, ...) those of step 0 of the chunk a carry enters.
    Forward (``reverse`` False), ``h`` is K*t tokens in order and chunk k+1
    follows chunk k. Reversed (the adjoint), ``h`` is a view that reverses
    time within each chunk only, and chunk k follows chunk k+1: the chunk
    axis keeps its forward order, so every row the loops touch is
    contiguous, and ``boundary[k]`` carries the state from chunk k+1 into
    chunk k. The K*t-step loop becomes three loops of about t, K and t
    steps on rows K times wider: every chunk from a zero state at once, the
    true state at each chunk end, then each chunk's incoming state,
    decayed, added to its rows 0..t-2. With one step per chunk (t = 1) the
    first and last loops run zero times.
    """
    if reverse:         # chunks a carry enters, chunks it leaves
        dst, src, step = slice(None, -1), slice(1, None), -1
    else:
        dst, src, step = slice(1, None), slice(None, -1), 1
    _recur(within, h)
    _recur((boundary * np.prod(within[:, dst], axis=0))[::step], h[-1, ::step])
    carry = boundary * h[-1, src]
    for w_i, h_i in zip(within[:, dst], h[:-1, dst]):
        h_i += carry
        carry *= w_i
    return h


def selective_scan_core(u: Tensor, delta: Tensor, b: Tensor, c: Tensor,
                        a: Tensor, d: Tensor) -> Tensor:
    """Input-selective state-space recurrence over one token sequence.

    Shapes: u, delta are (L, C); b, c are (L, N); a is (C, N) and holds the
    continuous-time (negative) state matrix; d is (C,). For every channel ch:

        h_t = exp(delta_t * a) * h_{t-1} + (delta_t * u_t) * b_t
        y_t = <h_t, c_t> + d * u_t        with  h_0 = 0

    The (L, C, N) arrays live in a chunk-interleaved layout (t, L/t, C, N):
    token k*t + i is row [i, k], where the chunk length t is the largest
    divisor of L not above sqrt(L) (1 for a prime L). The (L, C) and (L, N)
    inputs are copied into that layout, contiguous, and only the small
    outputs and gradients are permuted back to token order. The outer
    products that build (L, C, N) arrays (``delta x a`` for the decay,
    ``(delta*u) x b`` for the drive, ``g x c`` for the adjoint) go through
    ``np.einsum`` on those copies: each element is still one multiply, but
    the inner loops run over whole rows instead of N elements. They stay
    per channel; a block-diagonal GEMM would be as fast but would let a NaN
    or Inf in one channel reach every other one through ``0 * inf``. The
    forward pass runs the recurrence with ``_recur_chunked``; backward runs
    the adjoint recursion with the same helper on views that reverse time
    within each chunk but keep the chunk axis in forward order, so each row
    it touches is contiguous (reversing the chunk axis too would make every
    row a strided view and the sweep about twice as slow). Both take about
    2t + L/t steps (3*sqrt(L) for square maps such as 32x32 and 64x64). The
    gradient contractions are batched matmuls: per-token (C, N) x N and
    C x (C, N) products, and a per-channel (1, L) x (L, N) product for
    ``a``. The backward closure keeps only ``hs`` and the inputs and
    rebuilds the laid-out copies it needs, ``decay`` among them: one
    ``einsum`` and ``exp`` on inputs it already holds, the same calls as
    forward, so the bytes match a kept copy and one (L, C, N) array fewer
    stays live between forward and backward. Work is linear in L.
    """
    if u.ndim != 2:
        raise DimensionError("selective_scan_core expects u[L,C], got %r"
                             % (u.shape,))
    length, ch = u.shape
    if length < 1:
        raise ContractError("selective scan needs at least one token")
    n = a.shape[1] if a.ndim == 2 else 0
    if delta.shape != u.shape:
        raise DimensionError("delta shape %r != u shape %r" % (delta.shape, u.shape))
    if b.shape != (length, n) or c.shape != (length, n):
        raise DimensionError("b/c must be (L,N)=(%d,%d); got %r, %r"
                             % (length, n, b.shape, c.shape))
    if a.shape != (ch, n) or d.shape != (ch,):
        raise DimensionError("a must be (C,N), d must be (C,)")

    t = max(i for i in range(1, math.isqrt(length) + 1) if length % i == 0)

    def lay(x):          # (L, X) token order -> contiguous (t, L/t, X) copy
        return np.ascontiguousarray(x.reshape(-1, t, x.shape[1]).swapaxes(0, 1))

    def unlay(x):        # (t, L/t, X) -> (L, X) token order
        return x.swapaxes(0, 1).reshape(length, -1)

    ud, dd, bd, cd, ad, sd = u.data, delta.data, b.data, c.data, a.data, d.data

    def decay_of():      # exp(delta x a), laid out; forward and backward
        decay = np.einsum("ikc,cn->ikcn", lay(dd), ad)
        return np.exp(decay, out=decay)

    decay = decay_of()
    drive = np.einsum("ikc,ikn->ikcn", lay(dd * ud), lay(bd))
    hs = _recur_chunked(decay[1:], decay[0, 1:], drive, False)    # h_t, in place
    y = unlay((hs @ lay(cd)[..., None])[..., 0]) + sd * ud
    _count(10 * length * ch * n + 2 * length * ch)

    def backward(g, tu, tdelta, tb, tc, ta, td):
        # adjoint gh_t = g_t c_t + decay_{t+1} gh_{t+1}: the same recurrence
        # run in place over views reversed in time within each chunk
        decay = decay_of()
        gl = lay(g)
        gh_all = np.einsum("ikc,ikn->ikcn", gl, lay(cd))
        _recur_chunked(decay[:0:-1], decay[0, 1:], gh_all[::-1], True)
        gdu = unlay((gh_all @ lay(bd)[..., None])[..., 0])        # d(delta*u)
        if tu is not None:
            tu._accumulate(g * sd + gdu * dd)
        if tdelta is not None or ta is not None:
            # gh_t * decay_t * h_{t-1}, formed in the rebuilt decay's buffer
            gda = np.multiply(decay, gh_all, out=decay)
            gda[1:] *= hs[:-1]
            gda[0, 1:] *= hs[-1, :-1]
            gda[0, 0] = 0.0
            if tdelta is not None:
                tdelta._accumulate(gdu * ud + unlay(np.einsum("ikcn,cn->ikc", gda, ad)))
            if ta is not None:
                dl = lay(dd).reshape(length, ch)      # layout order, as gda
                ta._accumulate((dl.T[:, None] @ gda.reshape(length, ch, n)
                               .swapaxes(0, 1))[:, 0])
        if tb is not None:
            tb._accumulate(unlay((lay(dd * ud)[:, :, None] @ gh_all)[:, :, 0]))
        if tc is not None:
            tc._accumulate(unlay((gl[:, :, None] @ hs)[:, :, 0]))
        if td is not None:
            td._accumulate((g * ud).sum(axis=0))

    return _make(y, (u, delta, b, c, a, d), "selective_scan_core", backward)
