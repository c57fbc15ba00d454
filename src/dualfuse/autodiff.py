"""Dense float64 tensors with reverse-mode automatic differentiation.

Every numeric value in the network flows through this module. A Tensor wraps
one contiguous float64 numpy array plus an optional gradient buffer; a
forward op whose inputs need gradients gives its result a graph Node with
parent links and a backward closure, which every op but the scan builds
with ``_grads`` from one gradient function per input, and ``backward()``
replays the recorded graph in exact reverse topological order, accumulating
gradients additively into every reachable leaf with ``requires_grad``.
Every contribution enters its target through ``_GradTarget._accumulate``.
Gradient functions save only the arrays they read, so the graph holds no op
result's Tensor, and backward frees the graph as it goes: after a backward
pass only leaves (parameters, inputs) hold a ``grad``. No function saves a
view of a larger array, and where an op's result equals what its backward
would read, the function saves the result, which the next op often saves
too.

Engine-wide conventions:
  * float64 everywhere; convolution is cross-correlation (no kernel flip)
  * gradients accumulate additively; callers zero them between steps
  * tensors are treated as immutable once they enter a graph
  * an op that records a graph Node raises on a NaN/Inf result, naming
    the op, so a graph never holds a non-finite value; under ``no_grad``,
    or with no input needing a gradient, nothing is checked
"""

from __future__ import annotations

import ctypes
import math
import operator

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
    """An op that records a graph Node produced NaN or Inf, or a NaN or Inf
    gradient reached the optimizer."""


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

_grad_enabled = True
_flop_counter: "FlopCounter | None" = None


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
        _flop_counter.total += int(n)


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """A gradient at an op's broadcast output shape, summed back down to the
    shape of the input it belongs to."""
    if g.shape != shape:
        while g.ndim > len(shape):
            g = g.sum(axis=0)
        for axis, dim in enumerate(shape):
            if dim == 1 and g.shape[axis] != 1:
                g = g.sum(axis=axis, keepdims=True)
    return g


class _GradTarget:
    """What backward accumulates a gradient into: a leaf Tensor (parameter or
    input) or the Node of an op result. Both have ``grad`` and ``shape``."""

    __slots__ = ()

    def _accumulate(self, g: np.ndarray) -> None:
        shape = self.shape
        g = _sum_to(g, shape)
        if self.grad is None:        # a copy: add and sub pass one g to both
            self.grad = np.empty(shape)
            np.copyto(self.grad, g)
        else:
            self.grad += g


class Node(_GradTarget):
    """Graph record of one op result that requires grad.

    ``parents`` holds, per op input, that input's gradient target (its Node,
    or the Tensor itself for a leaf) or None when it needs no gradient;
    ``backward_fn(g, *parents)`` adds the input gradients for cotangent g,
    and is None once backward has run it. ``_make`` records the node. Every
    op but the scan builds ``backward_fn`` with ``_grads`` from one gradient
    function per input; ``selective_scan_core``, whose six gradients share
    one rebuild, writes its own. The node holds no array of its own: the
    gradient functions keep exactly the arrays they read, so an op result's
    ``data`` lives only as long as the calling code or a function needs it.
    """

    __slots__ = ("grad", "parents", "backward_fn", "op", "shape")

    def __init__(self, shape: tuple, parents: tuple, backward_fn, op: str):
        self.grad = None
        self.shape = shape
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op


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
        them: each gradient function saves the arrays it reads (``add``
        none, ``matmul`` the other operand, a conv its unpadded input or
        the kernel, ``silu`` its result), never an op result's Tensor, so
        an intermediate nothing reads is freed once the calling code drops
        it. The graph is released as it is consumed:
        once a node's closure has run, its ``grad``, closure and parent
        links are cleared, so each saved array is freed as soon as the last
        closure that reads it has run. Only leaves keep their ``grad``.

        A graph may read ``StandIn`` leaves, the outputs of a graph that
        another process holds; ``_schedule`` then orders the pass and
        ``_run`` tells each stand-in's ``half`` when the stand-in's
        gradient is final and when its place in the order comes. A
        stand-in's ``parents`` are the op results here that its remote
        graph read, so each of them runs after that place.
        """
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss, got shape %r"
                                % (self.shape,))
        if not self.requires_grad:
            raise ContractError("loss does not require grad; nothing to differentiate")
        order = toposort(self)
        halves: dict = {}
        for node in order:
            if isinstance(node, Node) and node.backward_fn is None:
                raise GraphStateError(
                    "graph already consumed by a previous backward(); "
                    "rebuild the forward pass before differentiating again")
            if type(node) is StandIn:
                halves.setdefault(node.half, []).append(node)
        ready: dict = {}
        if halves:
            order, ready = _schedule(order, halves)
        order[-1]._accumulate(np.ones_like(self.data))
        for stand_in in ready.pop(None, ()):
            stand_in.half.ready(stand_in)
        _run(order, ready)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __getitem__(self, idx):
        return take(self, idx)

    # -- method sugar ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes or None)


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


class StandIn(Tensor):
    """A leaf that holds output ``index`` of a graph another process keeps
    (``parallel`` makes them). ``half``, that graph's proxy here, takes
    part in backward in three calls:

    - ``half.begin(found)`` with the stand-ins backward reaches, in the
      order ``toposort`` lists them; it returns those at whose place the
      remote graph's backward belongs (its heads);
    - ``half.ready(s)`` once the last op that reads ``s`` has run, so
      ``s.grad`` is final;
    - ``half.reached(s)`` at ``s``'s place in the order, where the remote
      graph's contributions are added in.

    ``half.leaves`` lists the gradient targets those contributions go to,
    besides ``half.stand_ins``: leaves, and the Nodes of op results the
    remote graph read, which are also ``parents`` of each stand-in whose
    graph reads them. So ``toposort`` lists those Nodes before the
    stand-in, as it lists an op's inputs before the op, and backward runs
    them after the stand-in's place."""

    __slots__ = ("half", "index", "parents")

    def __init__(self, data, half, index: int):
        super().__init__(data, requires_grad=True)
        self.half = half
        self.index = index
        self.parents = ()


def toposort(root: Tensor) -> list:
    """Gradient targets below ``root`` in topological order (parents before
    children, ``root``'s own target last): Nodes and leaf Tensors."""
    return _postorder(_target(root), set())


def _postorder(start, seen: set) -> list:
    """``toposort`` from the gradient target ``start``, leaving out and
    adding to ``seen`` (target ids). A stand-in's parents come before it,
    as a Node's do."""
    order: list = []
    stack = [(start, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, (Node, StandIn)):
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
    return order


def _schedule(order: list, halves: dict) -> tuple[list, dict]:
    """The order of a backward pass that reaches stand-ins (``halves`` maps
    each half to its stand-ins in ``order``), and when each is ready.

    The ops downstream of a stand-in move ahead of the others, keeping
    their own order, so that each stand-in's gradient is final as early as
    it can be. A stand-in whose parent moves moves with it, so its place,
    where the remote graph adds into that parent, stays ahead of the
    parent. Nothing moves if that would change the order of some target's
    contributions: no moved op, or moved head's place, may add into a
    target that an op left behind, or a remote backward at a head's place
    left behind, adds into before it. Returns the order and a map from an
    op's id to the stand-ins it is the last reader of (key None: stand-ins
    no op reads)."""
    heads = set()
    for half, found in halves.items():
        heads.update(map(id, half.begin(found)))
    unread = {id(s): s for found in halves.values() for s in found}
    down = set(unread)
    moving: set = set()
    ready: dict = {}
    for node in order:
        if isinstance(node, Node):
            for parent in node.parents:
                if id(parent) in down:
                    down.add(id(node))
                    moving.add(id(node))
                    if id(parent) in unread:    # the last reader comes first
                        ready.setdefault(id(node), []).append(
                            unread.pop(id(parent)))
        elif type(node) is StandIn \
                and not moving.isdisjoint(map(id, node.parents)):
            moving.add(id(node))
    if unread:
        ready[None] = list(unread.values())
    fed: set = set()
    for node in reversed(order):
        if isinstance(node, Node):
            ids = [id(p) for p in node.parents if p is not None]
        elif id(node) in heads:
            ids = [id(t) for t in node.half.leaves + node.half.stand_ins]
        else:
            continue
        if id(node) not in moving:
            fed.update(ids)
        elif not fed.isdisjoint(ids):
            return order, ready
    moved = [n for n in order if id(n) in moving]
    kept = [n for n in order if id(n) not in moving]
    return kept + moved, ready


def _segments(heads: list) -> list:
    """The Nodes above ``heads`` (gradient targets) as backward runs them
    when it reaches the heads in this order, each head before the ones after
    it: per head, the targets first reached from it, in the order backward
    runs them. The lists come in the order backward runs them, so the last
    head's first."""
    seen: set = set()
    return [_postorder(head, seen)[::-1] for head in heads][::-1]


def _run(nodes: list, ready: dict) -> None:
    """The one backward loop, in both processes: pop the gradient targets
    off the end of ``nodes`` and run each Node's gradient function,
    releasing the Node's grad, closure and parent links (and, with the
    list's reference gone, the Node itself) once it has run. After an op
    whose id ``ready`` holds, each stand-in listed there is final
    (``half.ready``); at a stand-in's own place its remote graph's
    contributions are added in (``half.reached``)."""
    while nodes:
        node = nodes.pop()
        if isinstance(node, Node):
            node.backward_fn(node.grad, *node.parents)
            node.grad = node.backward_fn = None
            node.parents = ()
            for stand_in in ready.pop(id(node), ()):
                stand_in.half.ready(stand_in)
        elif type(node) is StandIn:
            node.half.reached(node)
            node.parents = ()


def _make(out_data: np.ndarray, parents: tuple, op: str, backward_fn,
          flops: int = 0) -> Tensor:
    """Wrap an op result; every op returns through here. Count the op's
    ``flops`` into the installed FlopCounter and record a graph Node unless
    grads are disabled or no input needs a gradient. A result that gets a
    Node must be finite, or NonFiniteError names the op."""
    _count(flops)
    out = Tensor(out_data)
    if _grad_enabled:
        targets = tuple(map(_target, parents))
        if any(t is not None for t in targets):
            if not np.isfinite(out_data).all():
                raise NonFiniteError("op '%s' produced a non-finite value"
                                     % op)
            out.requires_grad = True
            out._node = Node(out.shape, targets, backward_fn, op)
    return out


def _grads(out_data: np.ndarray, op: str, flops: int, *pairs) -> Tensor:
    """``_make`` for an op whose gradient for each input is a function of the
    cotangent alone. ``pairs`` alternates the op's inputs with their
    gradient functions, g -> that input's gradient. A recorded node gets a
    backward that adds each function's result to its input's target; the
    function of an input that needs no gradient is dropped first, and with
    it every array it closes over."""
    out = _make(out_data, pairs[::2], op, None, flops)
    node = out._node
    if node is not None:
        grads = pairs[1::2]
        if None in node.parents:
            grads = tuple(None if t is None else grad
                          for t, grad in zip(node.parents, grads))

        def backward(g, *targets):
            for target, grad in zip(targets, grads):
                if grad is not None:
                    target._accumulate(grad(g))

        node.backward_fn = backward
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------
#
# Every op but the scan (``selective_scan_core``) goes through ``_grads``
# with one gradient function per input. A function closes over only the
# arrays it reads, never an input's Tensor, and may return the gradient at
# the output's broadcast shape: ``_accumulate`` sums it back down to the
# input's. Where one input's gradient reads the other input's data (``mul``,
# ``matmul``, a conv's weight), that data is saved only when the first input
# requires grad, because ``_grads`` drops the function otherwise.

def _same(g: np.ndarray) -> np.ndarray:
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _grads(out, "add", out.size, a, _same, b, _same)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _grads(out, "sub", out.size, a, _same, b, np.negative)


def mul(a: Tensor, b: Tensor) -> Tensor:
    xa, xb = a.data, b.data
    out = xa * xb
    return _grads(out, "mul", out.size, a, lambda g: g * xb,
                  b, lambda g: g * xa)


def div(a: Tensor, b: Tensor) -> Tensor:
    xa, xb = a.data, b.data
    out = xa / xb
    return _grads(out, "div", out.size, a, lambda g: g / xb,
                  b, lambda g: -g * xa / (xb * xb))


def neg(a: Tensor) -> Tensor:
    out = -a.data
    return _grads(out, "neg", out.size, a, np.negative)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    x = a.data
    out = x ** exponent
    return _grads(out, "pow", out.size,
                  a, lambda g: g * exponent * x ** (exponent - 1.0))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; at ties the gradient routes to the first operand,
    and where either is NaN to the second."""
    xa, xb = a.data, b.data
    out = np.maximum(xa, xb)
    return _grads(out, "maximum", out.size, a, lambda g: g * (xa >= xb),
                  b, lambda g: g * ~(xa >= xb))


def absolute(a: Tensor) -> Tensor:
    x = a.data
    out = np.abs(x)
    return _grads(out, "abs", out.size, a, lambda g: g * np.sign(x))


# ---------------------------------------------------------------------------
# activations and pointwise transcendentals
# ---------------------------------------------------------------------------

def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _grads(out, "exp", out.size, a, lambda g: g * out)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_np(a.data)
    return _grads(out, "sigmoid", out.size, a, lambda g: g * out * (1.0 - out))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e = e^-|x|, so
    # exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def silu(a: Tensor) -> Tensor:
    x = a.data
    s = _sigmoid_np(x)
    out = x * s       # saved in place of x: backward's x * s is out
    return _grads(out, "silu", 2 * out.size,
                  a, lambda g: g * (s + out * (1.0 - s)))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU (engine-wide choice, exact erf not needed)."""
    x = a.data

    def tanh_inner():    # run by forward and again by backward: only x is saved
        return np.tanh(_GELU_C * (x + 0.044715 * x * x * x))

    out = 0.5 * x * (1.0 + tanh_inner())

    def grad(g):
        t = tanh_inner()
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)

    return _grads(out, "gelu", 4 * out.size, a, grad)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _grads(out, "tanh", out.size, a, lambda g: g * (1.0 - out * out))


def softplus(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
    return _grads(out, "softplus", 2 * out.size, a, lambda g: g * _sigmoid_np(x))


def softmax(a: Tensor, axis: int) -> Tensor:
    """Probability simplex along ``axis``, computed with max-subtraction."""
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError("softmax axis %d invalid for shape %r" % (axis, a.shape))
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad(g):
        return out * (g - (g * out).sum(axis=axis, keepdims=True))

    return _grads(out, "softmax", 4 * out.size, a, grad)


def layer_norm(a: Tensor, axis: int) -> Tensor:
    """Zero-mean unit-variance normalization along ``axis`` (no affine), with
    1e-6 added to the variance."""
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError("layer_norm axis %d invalid for shape %r" % (axis, a.shape))
    n = a.data.shape[axis]
    mu = a.data.mean(axis=axis, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    out = xc * inv

    def grad(g):
        gy_sum = g.sum(axis=axis, keepdims=True)
        gy_dot = (g * out).sum(axis=axis, keepdims=True)
        return inv / n * (n * g - gy_sum - out * gy_dot)

    return _grads(out, "layer_norm", 5 * out.size, a, grad)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    shape_in = a.shape
    return _grads(a.data.reshape(shape), "reshape", 0,
                  a, lambda g: g.reshape(shape_in))


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError("transpose axes %r invalid for ndim %d" % (axes, a.ndim))
    # contiguous output keeps downstream kernels on one deterministic path
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = np.argsort(axes)
    return _grads(out, "transpose", 0, a, lambda g: g.transpose(inverse))


def flip(a: Tensor, axis: int) -> Tensor:
    return _grads(np.flip(a.data, axis=axis).copy(), "flip", 0,
                  a, lambda g: np.flip(g, axis=axis))


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    pairs, lo = [], 0
    for t in tensors:            # input i's gradient: its slice of g
        hi = lo + t.shape[axis]
        pairs += (t, operator.itemgetter(lead + (slice(lo, hi),)))
        lo = hi
    return _grads(out, "concat", 0, *pairs)


def _is_basic_index(idx) -> bool:
    """True for an index of ints, slices and Ellipsis only, the indexes
    ``take`` accepts: each selects an element at most once."""
    for part in idx if isinstance(idx, tuple) else (idx,):
        if not (part is Ellipsis or isinstance(part, slice)
                or (isinstance(part, (int, np.integer))
                    and not isinstance(part, bool))):
            return False
    return True


def take(a: Tensor, idx) -> Tensor:
    """``a.data[idx]`` for a basic index; any other raises ContractError.
    The gradient is a zero array of ``a``'s shape with g stored at idx."""
    if not _is_basic_index(idx):
        raise ContractError("take wants an index of ints, slices and "
                            "Ellipsis, got %r" % (idx,))
    out = a.data[idx]
    if _grad_enabled:                # a closure saving a view pins all of a
        out = out.copy()
    shape_in = a.shape

    def grad(g):
        full = np.zeros(shape_in)
        full[idx] = g
        return full

    return _grads(out, "slice", 0, a, grad)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _spread(g, axis, keepdims: bool, shape_in) -> np.ndarray:
    """A reduction's cotangent broadcast back over the reduced axes."""
    if axis is not None and not keepdims:
        for ax in sorted(axis):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape_in)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape_in = a.shape
    return _grads(np.asarray(out), "sum", a.size,
                  a, lambda g: _spread(g, axis, keepdims, shape_in))


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    count = a.size if axis is None else int(np.prod([a.data.shape[ax] for ax in axis]))
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape_in = a.shape
    return _grads(np.asarray(out), "mean", a.size,
                  a, lambda g: _spread(g / count, axis, keepdims, shape_in))


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
    xa, xb = a.data, b.data
    return _grads(xa @ xb, "matmul", 2 * a.shape[0] * a.shape[1] * b.shape[1],
                  a, lambda g: g @ xb.T, b, lambda g: xa.T @ g)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, pad: int) -> Tensor:
    """Cross-correlation of a C_in cube with a C_out x C_in x k x k kernel,
    zero-padded by ``pad`` on every side."""
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
    rows. ``grad_w`` saves the unpadded input, not a padded copy, and pads it
    again to form the weight gradient per tap; ``grad_x`` saves the kernel
    and correlates the cotangent with it flipped (in and out channels
    swapped) under pad span - 1 - pad.
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

    xd, wk = x.data, w.data
    out = correlate(xd, wk, pad, dilation, depthwise)

    def grad_x(g):
        # outputs beyond span - 1 pixels of padding read no input
        cut = max(0, pad - span + 1)
        flipped = wk[..., ::-1, ::-1]
        if not depthwise:
            flipped = flipped.swapaxes(0, 1)
        # contiguous, so correlate's kernel reshapes stay BLAS operands
        return correlate(g[:, cut:h_out - cut, cut:w_out - cut],
                         np.ascontiguousarray(flipped), span - 1 - pad + cut,
                         dilation, depthwise)

    def grad_w(g):
        wp = wd + 2 * pad
        gf = g
        if w_out < wp:                           # zero wrap-around columns
            gf = np.zeros((c_out, h_out, wp))
            gf[:, :, :w_out] = g
        gf = gf.reshape(c_out, -1)[:, :(h_out - 1) * wp + w_out]
        taps = _taps(_flat_padded(xd, pad), k, dilation, wp, gf.shape[1])
        if depthwise:            # per channel (1, n) @ (n, 1): (k, k, C)
            return (taps[..., None, :] @ gf[..., None])[..., 0, 0].transpose(2, 0, 1)
        # (Co, n) @ (n, Ci): (k, k, Co, Ci)
        return (gf @ taps.swapaxes(-1, -2)).transpose(2, 3, 0, 1)

    return _grads(out, op,
                  2 * c_out * (1 if depthwise else c_in) * k * k * h_out * w_out,
                  x, grad_x, w, grad_w)


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
              depthwise: bool) -> np.ndarray:
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
    out[Co,Ho,Wo]. Plain arrays in, no graph node or flop count: the
    metrics' VIF and Sobel filters call it directly.
    """
    c_in, h, wd = xd.shape
    k = wk.shape[-1]
    c_out = c_in if depthwise else wk.shape[0]
    hp, wp = h + 2 * pad, wd + 2 * pad
    span = dilation * (k - 1) + 1
    h_out, w_out = hp - span + 1, wp - span + 1
    n = (h_out - 1) * wp + w_out
    xf = _flat_padded(xd, pad)
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
    return np.ascontiguousarray(out)


def _flat_padded(xd: np.ndarray, pad: int) -> np.ndarray:
    """x[C,H,W] zero-padded by ``pad`` as C-contiguous rows (C, Hp*Wp)."""
    c, h, wd = xd.shape
    if not pad:
        return np.ascontiguousarray(xd).reshape(c, h * wd)
    xf = np.zeros((c, (h + 2 * pad) * (wd + 2 * pad)))
    xf.reshape(c, h + 2 * pad, wd + 2 * pad)[:, pad:pad + h, pad:pad + wd] = xd
    return xf


def pad_reflect2d(x: Tensor, pad: int) -> Tensor:
    """Reflect-pad the two spatial axes of a C x H x W tensor."""
    if x.ndim != 3:
        raise DimensionError("pad_reflect2d expects x[C,H,W], got %r" % (x.shape,))
    c, h, w = x.shape
    if pad >= h or pad >= w:
        raise ContractError("reflect pad %d too large for %dx%d image" % (pad, h, w))
    out = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")

    def grad(g):
        idx = np.pad(np.arange(h * w).reshape(h, w), pad, mode="reflect").ravel()
        gflat = g.reshape(c, -1)
        buf = np.zeros((c, h * w))
        for ch in range(c):
            buf[ch] = np.bincount(idx, weights=gflat[ch], minlength=h * w)
        return buf.reshape(c, h, w)

    return _grads(out, "pad_reflect2d", 0, x, grad)


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
    ``a``. The backward closure keeps only the inputs (u, delta, b, c, a,
    d). When backward starts it rebuilds the laid-out copies, then
    ``decay`` and the state history ``hs`` through ``states_of``, the
    helper forward ran: the decay ``einsum`` and ``exp``, the drive
    ``einsum`` and the forward sweep, the same calls on the same inputs, so
    every output and gradient byte matches kept copies. No (L, C, N) array
    stays live between forward and backward; a grad-mode call leaves only
    its (L, C) output. The rebuild makes a call's forward + backward about a fifth
    slower (4.4 -> 5.2 ms at (L, C, N) = (1024, 16, 8), one BLAS thread on
    a 2-core x86 host). Work is linear in L.
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

    def states_of(dl, dul, bl):  # (decay, h_t), laid out; forward and backward
        decay = np.einsum("ikc,cn->ikcn", dl, ad)
        np.exp(decay, out=decay)
        drive = np.einsum("ikc,ikn->ikcn", dul, bl)
        return decay, _recur_chunked(decay[1:], decay[0, 1:], drive, False)

    hs = states_of(lay(dd), lay(dd * ud), lay(bd))[1]
    y = unlay((hs @ lay(cd)[..., None])[..., 0]) + sd * ud

    def backward(g, tu, tdelta, tb, tc, ta, td):
        # adjoint gh_t = g_t c_t + decay_{t+1} gh_{t+1}: the same recurrence
        # run in place over views reversed in time within each chunk
        dl, dul, bl = lay(dd), lay(dd * ud), lay(bd)
        decay, hs = states_of(dl, dul, bl)
        gl = lay(g)
        gh_all = np.einsum("ikc,ikn->ikcn", gl, lay(cd))
        _recur_chunked(decay[:0:-1], decay[0, 1:], gh_all[::-1], True)
        gdu = unlay((gh_all @ bl[..., None])[..., 0])             # d(delta*u)
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
                ta._accumulate((dl.reshape(length, ch).T[:, None]   # layout order
                                @ gda.reshape(length, ch, n).swapaxes(0, 1))[:, 0])
        if tb is not None:
            tb._accumulate(unlay((dul[:, :, None] @ gh_all)[:, :, 0]))
        if tc is not None:
            tc._accumulate(unlay((gl[:, :, None] @ hs)[:, :, 0]))
        if td is not None:
            td._accumulate((g * ud).sum(axis=0))

    return _make(y, (u, delta, b, c, a, d), "selective_scan_core", backward,
                 10 * length * ch * n + 2 * length * ch)
