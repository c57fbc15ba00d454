"""Engine-level contracts: op oracles, gradient checks, graph semantics."""

import gc as cyclic_gc
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuse import autodiff as ad
from dualfuse.autodiff import (ContractError, DimensionError, FlopCounter,
                               GraphStateError, NonFiniteError, Tensor,
                               no_grad, parameter)
from dualfuse import gradcheck as gc
from dualfuse.config import RunConfig
from dualfuse.losses import stage2_loss
from dualfuse.model import build_model, fuse_pair, image_to_tensor
from dualfuse.toydata import make_toy_pairs

from conftest import assert_close, conv2d_adjoint_oracle, conv2d_oracle


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    eye = Tensor(np.eye(2))
    out = ad.matmul(eye, eye)
    assert_close(out.data, np.eye(2))


def test_matmul_zero():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [0.0]])
    assert_close(ad.matmul(a, b).data, [[0.0], [0.0]])


def test_matmul_against_triple_loop(rng):
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 2))
    # independent oracle: naive triple loop
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    assert_close(ad.matmul(Tensor(a), Tensor(b)).data, expect, tol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv2d_identity_1x1():
    x = Tensor(np.arange(9.0).reshape(1, 3, 3))
    w = Tensor(np.ones((1, 1, 1, 1)))
    assert_close(ad.conv2d(x, w, pad=0).data, x.data)


def test_conv2d_ones_kernel_constant_interior():
    v = 0.7
    x = Tensor(np.full((1, 5, 5), v))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, pad=1)
    assert out.shape == (1, 5, 5)
    assert_close(out.data[0, 2, 2], 9 * v)


def test_conv2d_against_six_loop_oracle(rng):
    x = rng.uniform(-1, 1, (2, 5, 5))
    w = rng.uniform(-1, 1, (3, 2, 3, 3))
    got = ad.conv2d(Tensor(x), Tensor(w), pad=1).data
    assert_close(got, conv2d_oracle(x, w, 1, 1), tol=1e-12)
    # the SSIM window: valid 11x11, the most taps any conv sees; the 40x30
    # plane spans more than one im2col block
    w = rng.uniform(-1, 1, (1, 1, 11, 11))
    for shape in ((1, 14, 13), (1, 40, 30)):
        x = rng.uniform(-1, 1, shape)
        got = ad.conv2d(Tensor(x), Tensor(w), pad=0).data
        assert_close(got, conv2d_oracle(x, w, 1, 0), tol=1e-12)
    # more input channels than taps (one product per tap), valid and padded,
    # on a non-square plane
    x = rng.uniform(-1, 1, (10, 5, 8))
    w = rng.uniform(-1, 1, (2, 10, 3, 3))
    for pad in (0, 1, 3):
        got = ad.conv2d(Tensor(x), Tensor(w), pad=pad).data
        assert_close(got, conv2d_oracle(x, w, 1, pad), tol=1e-12)


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError):
        ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                  pad=1)


def test_conv2d_same_padding_preserves_shape(rng):
    for k, c in ((1, 2), (3, 3)):
        x = Tensor(rng.uniform(-1, 1, (c, 7, 5)))
        w = Tensor(rng.uniform(-1, 1, (c, c, k, k)))
        assert ad.conv2d(x, w, pad=(k - 1) // 2).shape == (c, 7, 5)


def test_depthwise_conv2d_against_oracle(rng):
    # the 16-channel plane spans more than one im2col block
    for shape in ((3, 5, 4), (16, 20, 30)):
        x = rng.uniform(-1, 1, shape)
        w = rng.uniform(-1, 1, (shape[0], 3, 3))
        got = ad.depthwise_conv2d(Tensor(x), Tensor(w)).data
        # oracle: one single-channel conv per channel
        for c in range(shape[0]):
            ref = conv2d_oracle(x[c:c + 1], w[c][None, None], 1, 1)
            assert_close(got[c], ref[0], tol=1e-12)


@pytest.mark.parametrize("dilation", [1, 2, 4])
def test_dilated_conv2d_matches_inserted_zero_kernel(rng, dilation):
    # dilation-d 3x3 == ordinary (2d+1)x(2d+1) kernel with zeros between
    # taps; the non-square planes are where a row's taps that wrap round
    # into the next row would show, with fewer and with more input channels
    # than taps
    span = 2 * dilation + 1
    for shape in ((2, 6, 6), (2, 5, 9), (10, 7, 4)):
        x = rng.uniform(-1, 1, shape)
        w = rng.uniform(-1, 1, (2, shape[0], 3, 3))
        w_big = np.zeros((2, shape[0], span, span))
        w_big[:, :, ::dilation, ::dilation] = w
        got = ad.dilated_conv2d(Tensor(x), Tensor(w), dilation=dilation).data
        ref = conv2d_oracle(x, w_big, 1, dilation)
        assert_close(got, ref, tol=1e-12)


def test_dilated_conv2d_rejects_dilation_below_one():
    with pytest.raises(ContractError, match="dilation"):
        ad.dilated_conv2d(Tensor(np.zeros((1, 5, 5))),
                          Tensor(np.zeros((1, 1, 3, 3))), dilation=0)


def _conv_grads(conv, x, w, g):
    """(grad_x, grad_w) of sum(conv(x, w) * g) from the engine."""
    xt, wt = parameter(x), parameter(w)
    (conv(xt, wt) * Tensor(g)).sum().backward()
    return xt.grad, wt.grad


def test_conv2d_backward_against_loop_adjoint(rng):
    # 3x3 with pad 1 and fewer input channels than taps, then the valid
    # one-channel 11x11 SSIM window (the 40x30 plane's x-gradient spans
    # several im2col blocks)
    cases = [((2, 5, 6), (3, 2, 3, 3), 1),
             ((1, 14, 13), (1, 1, 11, 11), 0),
             ((1, 40, 30), (1, 1, 11, 11), 0)]
    for x_shape, w_shape, pad in cases:
        x = rng.uniform(-1, 1, x_shape)
        w = rng.uniform(-1, 1, w_shape)
        shrink = w_shape[-1] - 1 - 2 * pad
        g = rng.uniform(-1, 1, (w_shape[0], x_shape[1] - shrink,
                                x_shape[2] - shrink))
        gx, gw = _conv_grads(lambda a, b: ad.conv2d(a, b, pad=pad), x, w, g)
        ref_x, ref_w = conv2d_adjoint_oracle(x, w, g, pad)
        assert_close(gx, ref_x, tol=1e-12)
        assert_close(gw, ref_w, tol=1e-12)


def test_depthwise_conv2d_backward_against_loop_adjoint(rng):
    # (16, 20, 30) spans two im2col blocks; the oracle runs per channel
    x = rng.uniform(-1, 1, (16, 20, 30))
    w = rng.uniform(-1, 1, (16, 3, 3))
    g = rng.uniform(-1, 1, x.shape)
    gx, gw = _conv_grads(ad.depthwise_conv2d, x, w, g)
    for c in range(x.shape[0]):
        ref_x, ref_w = conv2d_adjoint_oracle(x[c:c + 1], w[c][None, None],
                                             g[c:c + 1], 1)
        assert_close(gx[c], ref_x[0], tol=1e-12)
        assert_close(gw[c], ref_w[0, 0], tol=1e-12)


@pytest.mark.parametrize("dilation", [2, 4])
def test_dilated_conv2d_backward_against_loop_adjoint(rng, dilation):
    # fewer and more input channels than taps, on non-square planes
    for x_shape in ((2, 9, 7), (10, 7, 5)):
        x = rng.uniform(-1, 1, x_shape)
        w = rng.uniform(-1, 1, (3, x_shape[0], 3, 3))
        g = rng.uniform(-1, 1, (3,) + x_shape[1:])
        gx, gw = _conv_grads(
            lambda a, b: ad.dilated_conv2d(a, b, dilation=dilation), x, w, g)
        ref_x, ref_w = conv2d_adjoint_oracle(x, w, g, dilation, dilation)
        assert_close(gx, ref_x, tol=1e-12)
        assert_close(gw, ref_w, tol=1e-12)


# ---------------------------------------------------------------------------
# softmax / layer_norm
# ---------------------------------------------------------------------------

def test_softmax_singleton_axis():
    assert_close(ad.softmax(Tensor([3.7]), axis=0).data, [1.0])


def test_softmax_uniform_on_equal_input():
    out = ad.softmax(Tensor([2.0, 2.0, 2.0, 2.0]), axis=0)
    assert_close(out.data, [0.25, 0.25, 0.25, 0.25])


def test_softmax_high_precision_oracle():
    # frozen from 50-digit decimal evaluation of [e/(e+1), 1/(e+1)]
    out = ad.softmax(Tensor([1.0, 0.0]), axis=0)
    assert_close(out.data,
                 [0.73105857863000487925, 0.26894142136999512075], tol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_is_probability_simplex(values):
    out = ad.softmax(Tensor(values), axis=0).data
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-6


def test_layer_norm_constant_is_zero():
    out = ad.layer_norm(Tensor([4.2, 4.2, 4.2]), axis=0)
    assert_close(out.data, np.zeros(3), tol=1e-9)


def test_layer_norm_two_point_oracle():
    eps = 1e-6                                # layer_norm's variance floor
    out = ad.layer_norm(Tensor([1.0, -1.0]), axis=0)
    expect = np.array([1.0, -1.0]) / np.sqrt(1.0 + eps)   # hand computation
    assert_close(out.data, expect, tol=1e-15)


def test_layer_norm_zero_mean(rng):
    x = Tensor(rng.uniform(-3, 3, (6, 5)))
    out = ad.layer_norm(x, axis=1)
    assert np.all(np.abs(out.data.mean(axis=1)) < 1e-9)


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

def test_backward_of_sum_is_ones(rng):
    x = parameter(rng.uniform(-1, 1, (3, 4)))
    x.sum().backward()
    assert_close(x.grad, np.ones((3, 4)))


def test_backward_of_sum_of_squares(rng):
    x = parameter(rng.uniform(-1, 1, (5,)))
    (x * x).sum().backward()
    assert_close(x.grad, 2 * x.data, tol=1e-12)


def test_backward_accumulates_over_shared_use(rng):
    x = parameter(rng.uniform(-1, 1, (4,)))
    y = x + x          # x used twice: grads must add
    y.sum().backward()
    assert_close(x.grad, 2 * np.ones(4))


def test_gradient_buffers_never_alias(rng):
    # add hands one cotangent object to both operands: each must get its own
    # buffer, or later contributions to one would show up in the other
    p = parameter(rng.uniform(-1, 1, (3, 4)))
    q = parameter(rng.uniform(-1, 1, (3, 4)))
    (p + q).sum().backward()
    assert not np.shares_memory(p.grad, q.grad)
    # interior a = 2x, b = 3x get their first contributions from one add:
    # d/dx [sum((a + b)^2) + sum(a * b)] = 50x + 12x
    for swap in (False, True):
        x = parameter(rng.uniform(-1, 1, (3, 4)))
        a, b = x * 2.0, x * 3.0
        terms = [((a + b) * (a + b)).sum(), (a * b).sum()]
        if swap:
            terms.reverse()
        (terms[0] + terms[1]).backward()
        assert_close(x.grad, 62.0 * x.data, tol=1e-12)


def test_backward_requires_scalar():
    x = parameter(np.ones((2, 2)))
    with pytest.raises(ContractError):
        (x * x).backward()


def test_backward_twice_is_error(rng):
    x = parameter(rng.uniform(-1, 1, (3,)))
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphStateError):
        loss.backward()


class RecordingLeaf(Tensor):
    """A parameter that keeps a copy of each gradient contribution."""

    __slots__ = ("got",)

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.got = []

    def _accumulate(self, g):
        self.got.append(np.array(g).tobytes())
        super()._accumulate(g)


class FakeHalf:
    """A remote graph's proxy that adds nothing: it records when backward
    calls it, and how many contributions ``p`` had by then."""

    def __init__(self, p):
        self.p = p
        self.leaves = [p]
        self.stand_ins = []
        self.events = []

    def begin(self, found):
        return list(found)

    def ready(self, stand_in):
        self.events.append(("ready", len(self.p.got)))

    def reached(self, stand_in):
        self.events.append(("reached", len(self.p.got)))


def two_part_loss(p, s, b_reads_p):
    # serial backward runs the a part (x * p) before the part that reads s
    a_part = (Tensor([1.0, 2.0, 3.0]) * p).sum()
    b = s * Tensor([0.5, 0.25, 2.0])
    if b_reads_p:
        b = b * p
    return a_part + b.sum()


@pytest.mark.parametrize("b_reads_p", [False, True])
def test_stand_in_readers_move_ahead_only_when_no_target_order_changes(
        b_reads_p):
    data = [0.3, -1.7, 2.9]
    serial_p = RecordingLeaf(np.array([1.1, 2.3, -0.7]))
    two_part_loss(serial_p, parameter(data), b_reads_p).backward()
    p = RecordingLeaf(np.array([1.1, 2.3, -0.7]))
    half = FakeHalf(p)
    s = ad.StandIn(np.array(data), half, 0)
    half.stand_ins.append(s)
    two_part_loss(p, s, b_reads_p).backward()
    assert p.got == serial_p.got
    assert p.grad.tobytes() == serial_p.grad.tobytes()
    if b_reads_p:
        # the ops reading s also add into p, after the a part: they stay
        assert half.events == [("ready", 2), ("reached", 2)]
    else:
        # s's gradient is final before the a part runs, and the remote
        # graph's place is still after it
        assert half.events == [("ready", 0), ("reached", 1)]
        assert s.grad.tobytes() == np.array([0.5, 0.25, 2.0]).tobytes()


class ParentHalf(FakeHalf):
    """A FakeHalf whose remote graph read the op result behind ``node``:
    at its place it adds ones into that node."""

    def __init__(self, p, node):
        super().__init__(p)
        self.leaves = [p, node]

    def reached(self, stand_in):
        super().reached(stand_in)
        self.leaves[1]._accumulate(np.ones(self.leaves[1].shape))


def stand_in_reading(p, data):
    """A stand-in whose remote graph read h = x * p, and h."""
    h = Tensor([1.5, 0.25, -0.5]) * p
    half = ParentHalf(p, h._node)
    s = ad.StandIn(np.array(data), half, 0)
    s.parents = (h._node,)
    half.stand_ins.append(s)
    return s, h


@pytest.mark.parametrize("first_part", ["independent", "reads_h"])
def test_a_stand_ins_parent_runs_after_its_place(first_part):
    # serial backward runs the first part before the part that reads s.
    # Hoisting s's reader, which adds into h, is refused when the first
    # part adds into h too: h would get its contributions in another order
    p = RecordingLeaf(np.array([1.1, 2.3, -0.7]))
    q = parameter(np.array([0.4, -0.8, 1.2]))
    s, h = stand_in_reading(p, [0.3, -1.7, 2.9])
    first = h if first_part == "reads_h" else q
    loss = (first * Tensor([1.0, 2.0, 3.0])).sum() + (s * h).sum()
    order = ad.toposort(loss)
    scheduled, ready = ad._schedule(list(order), {s.half: [s]})
    assert scheduled.index(h._node) < scheduled.index(s)
    reader = next(n for n in order if isinstance(n, ad.Node)
                  and s in n.parents)
    assert ready == {id(reader): [s]}
    first_sum = loss._node.parents[0]
    assert order.index(reader) < order.index(first_sum)
    if first_part == "reads_h":
        assert scheduled == order
    else:
        # s's reader now runs before the first part (toposort lists an op
        # after the ops backward runs after it)
        assert scheduled.index(reader) > scheduled.index(first_sum)
    loss.backward()
    # h ran once, after s's place had added into it
    assert s.half.events == [("ready", 0), ("reached", 0)]
    assert len(p.got) == 1


def test_a_moving_stand_ins_place_is_refused_before_a_kept_contribution():
    # s2's remote graph read q and h, and h is computed from the stand-in
    # s1, so h moves with s1's readers and s2 moves with h. But the first
    # part, which stays, adds into q before s2's place does in the serial
    # backward: moving the place ahead of it would reorder q's
    # contributions, so nothing moves
    q = RecordingLeaf(np.array([0.4, -0.8, 1.2]))
    half1 = FakeHalf(RecordingLeaf(np.array([1.1, 2.3, -0.7])))
    s1 = ad.StandIn(np.array([0.3, -1.7, 2.9]), half1, 0)
    half1.stand_ins.append(s1)
    h = s1 * Tensor([1.5, 0.25, -0.5])
    half2 = ParentHalf(q, h._node)
    s2 = ad.StandIn(np.array([0.6, 0.1, -1.0]), half2, 0)
    s2.parents = (h._node,)
    half2.stand_ins.append(s2)
    loss = (q * Tensor([1.0, 2.0, 3.0])).sum() + (s2 * h).sum()
    order = ad.toposort(loss)
    first_sum = loss._node.parents[0]
    assert order.index(s2) < order.index(first_sum)
    # no op that would move adds into a target a kept op fed: only the
    # place of s2 would reorder one
    scheduled, _ = ad._schedule(list(order), {half1: [s1], half2: [s2]})
    assert scheduled == order
    loss.backward()
    # s2's place came after the first part's contribution to q
    assert half2.events == [("ready", 1), ("reached", 1)]
    assert len(q.got) == 1


def test_backward_on_stale_subgraph_is_error(rng):
    x = parameter(rng.uniform(-1, 1, (3,)))
    mid = x * x
    loss = mid.sum()
    loss.backward()
    with pytest.raises(GraphStateError):
        mid.sum().backward()   # reuses the consumed `mid` node


def test_grad_accumulates_across_separate_graphs(rng):
    x = parameter(rng.uniform(-1, 1, (3,)))
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()   # fresh graph, same leaf
    assert_close(x.grad, 2 * first, tol=1e-12)


def test_backward_releases_interior_nodes(rng):
    x = parameter(rng.uniform(-1, 1, (3, 4)))
    w = parameter(rng.uniform(-1, 1, (4, 2)))
    h = ad.matmul(x, w)
    loss = (ad.tanh(h) * x[1:, :2].sum()).sum()
    interior = [n for n in ad.toposort(loss) if isinstance(n, ad.Node)]
    assert len(interior) == 6
    loss.backward()
    assert x.grad is not None and w.grad is not None
    # tensors the caller holds keep their values; the graph behind them goes
    assert_close(h.data, x.data @ w.data)
    assert h.grad is None and loss.data is not None
    for node in interior:
        assert node.grad is None and node.grad_fns is None
        assert node.parents == ()


def test_backward_frees_graph_arrays_without_collection(rng):
    # an array only the graph holds dies as backward returns, with no
    # gc.collect(): no reference cycle keeps the consumed graph alive
    x = parameter(rng.uniform(-1, 1, (6, 3)))
    mid = ad.exp(x * x)
    ref = weakref.ref(mid.data)
    loss = (mid * x).sum()
    del mid
    assert ref() is not None
    loss.backward()
    assert ref() is None


# consumers of an op result t that save no array of t's for backward
UNREAD_CONSUMERS = {
    "add": lambda t, w: t + 1.0,
    "shape ops": lambda t, w: ad.flip(t.transpose(0, 2, 1), 0).reshape(2, -1),
}


@pytest.mark.parametrize("name", sorted(UNREAD_CONSUMERS))
def test_unread_intermediate_is_freed_before_backward(rng, name):
    # closures save the arrays they read, not their inputs' tensors: an op
    # result the caller drops dies before backward when no closure reads it,
    # and the gradients do not change
    xd, cd = rng.uniform(-1, 1, (2, 2, 4, 4))
    wd = rng.uniform(-1, 1, (3, 2, 3, 3))

    def grads(drop):
        x, w = parameter(xd), parameter(wd)
        t = x + Tensor(cd)
        ref = weakref.ref(t.data)
        loss = UNREAD_CONSUMERS[name](t, w).sum()
        if drop:
            del t
            assert ref() is None
        loss.backward()
        return x.grad.tobytes(), None if w.grad is None else w.grad.tobytes()

    assert grads(True) == grads(False)


def _saved_objects(fns):
    """Everything a node's gradient functions save, through nested
    functions and containers."""
    stack = list(fns)
    while stack:
        obj = stack.pop()
        yield obj
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)


def _saved_arrays(t):
    return [obj for obj in _saved_objects(t._node.grad_fns)
            if isinstance(obj, np.ndarray)]


def test_padded_conv_saves_its_input_not_a_padded_copy(rng):
    # backward pads the saved input again for the weight gradient, so the
    # closure keeps t.data itself, which the caller or another closure
    # often holds already, and no (C, Hp*Wp) copy; the weight gradient
    # equals, to the byte, the one taken from rows padded up front
    xd, cd = rng.uniform(-1, 1, (2, 2, 4, 4))
    wd = rng.uniform(-1, 1, (3, 2, 3, 3))
    x, w = parameter(xd), parameter(wd)
    t = x + Tensor(cd)
    out = ad.conv2d(t, w, pad=1)
    saved = _saved_arrays(out)
    assert any(obj is t.data for obj in saved)
    assert all(obj.shape != (2, 6 * 6) for obj in saved)
    out.sum().backward()
    w_padded = parameter(wd)
    ad.conv2d(Tensor(np.pad(t.data, ((0, 0), (1, 1), (1, 1)))), w_padded,
              pad=0).sum().backward()
    assert w.grad.tobytes() == w_padded.grad.tobytes()
    assert_close(x.grad, conv2d_adjoint_oracle(t.data, wd, np.ones((3, 4, 4)),
                                               pad=1)[0])


def test_silu_saves_its_result_not_its_input(rng):
    # backward's x * s is the result, which the next op often saves anyway
    x = parameter(rng.uniform(-3, 3, (3, 4)))
    y = ad.silu(x)
    saved = _saved_arrays(y)
    assert not any(obj is x.data for obj in saved)
    assert any(obj is y.data for obj in saved)


def test_gelu_saves_only_its_input(rng):
    # backward rebuilds tanh(c (x + 0.044715 x^3)) with the forward's call
    x = parameter(rng.uniform(-3, 3, (3, 4)))
    saved = _saved_arrays(ad.gelu(x))
    assert saved and all(obj is x.data for obj in saved)


CONSTANT_THEN_PARAMETER = {
    "mul": (ad.mul, (3, 4), (3, 4)),
    "matmul": (ad.matmul, (3, 4), (4, 2)),
    "conv2d": (lambda c, p: ad.conv2d(c, p, pad=1), (2, 5, 5), (3, 2, 3, 3)),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_THEN_PARAMETER))
def test_gradient_function_of_a_constant_input_is_dropped(rng, name):
    # the parameter's gradient reads the constant's array, which is saved;
    # the constant's gradient would read the parameter's, and is dropped
    # with it when the node is built
    op, c_shape, p_shape = CONSTANT_THEN_PARAMETER[name]
    c = Tensor(rng.uniform(-1, 1, c_shape))
    p = parameter(rng.uniform(-1, 1, p_shape))
    saved = _saved_arrays(op(c, p))
    assert any(obj is c.data for obj in saved)
    assert not any(np.shares_memory(obj, p.data) for obj in saved)


@pytest.mark.parametrize("idx", [slice(2, 4), (slice(None), 1),
                                 (Ellipsis, slice(None, None, 2))])
def test_basic_slice_owns_its_memory(rng, idx):
    # a view would keep the whole input alive in every closure that saves
    # the slice: project_qkv's k = flat[c:2c] kept all of qkv that way
    x = parameter(rng.uniform(-1, 1, (6, 4)))
    out = ad.take(x, idx)
    assert not np.shares_memory(out.data, x.data)
    assert out.data.tobytes() == x.data[idx].tobytes()


@pytest.mark.parametrize("idx", [[0, 2, 0], np.array([True, False] * 3),
                                 (slice(None), [1])])
def test_take_refuses_an_advanced_index(rng, idx):
    x = parameter(rng.uniform(-1, 1, (6, 4)))
    with pytest.raises(ContractError):
        ad.take(x, idx)


def test_a_sliced_parameter_gets_its_gradient_through_accumulate(
        rng, monkeypatch):
    x = parameter(rng.uniform(-1, 1, (4, 3)))
    reached = []
    accumulate = ad._GradTarget._accumulate

    def recording(target, g):
        reached.append(target)
        accumulate(target, g)
    monkeypatch.setattr(ad._GradTarget, "_accumulate", recording)
    (x[1:3, 0].sum() + x[2].sum()).backward()
    assert sum(t is x for t in reached) == 2
    expected = np.zeros((4, 3))
    expected[1:3, 0] += 1.0
    expected[2] += 1.0
    assert x.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ablation", [{}, {"mamba_as_conv": True},
                                      {"interaction": False}])
def test_graph_holds_no_op_result_tensor(ablation):
    # a desk stage-II graph links nodes to nodes and leaves only, and its
    # closures save arrays and shapes, so no op result's Tensor (and so no
    # array its caller has dropped) is pinned by the graph
    cfg = RunConfig(channels=8, crop=32, batch=1, seed=0, **ablation).validate()
    model = build_model(cfg)
    pair = make_toy_pairs(1, 32, seed=0)[0]
    img_a, img_b = image_to_tensor(pair.a), image_to_tensor(pair.b)
    loss = stage2_loss(fuse_pair(img_a, img_b, model), img_a, img_b).total
    nodes = [n for n in ad.toposort(loss) if isinstance(n, ad.Node)]
    assert len(nodes) > 500
    for node in nodes:
        for p in node.parents:
            assert p is None or isinstance(p, ad.Node) or (
                p._node is None and p.requires_grad), node.op
        for obj in _saved_objects(node.grad_fns):
            assert not isinstance(obj, Tensor), "%s saves a Tensor" % node.op


def desk_stage2_memory_of(**ablation):
    """(bytes live after one desk-shape stage-II forward, peak during its
    backward), traced by tracemalloc."""
    cfg = RunConfig(channels=8, crop=32, batch=1, seed=0, **ablation).validate()
    model = build_model(cfg)
    pair = make_toy_pairs(1, 32, seed=0)[0]
    tracemalloc.start()
    try:
        img_a, img_b = image_to_tensor(pair.a), image_to_tensor(pair.b)
        loss = stage2_loss(fuse_pair(img_a, img_b, model),
                           img_a, img_b).total
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return live, peak


@pytest.fixture(scope="module")
def desk_stage2_memory():
    return desk_stage2_memory_of()


def test_backward_peak_stays_near_forward_live_memory(desk_stage2_memory):
    # one desk-shape stage-II step: with the graph freed as backward goes,
    # the backward peak stays close to what forward left live; a graph kept
    # whole until backward returns peaks at 1.6x
    live, peak = desk_stage2_memory
    assert peak <= 1.1 * live, "backward peak %.1f MB, %.1f MB live" % (
        peak / 1e6, live / 1e6)


def test_desk_stage2_forward_leaves_under_46_mb_live(desk_stage2_memory):
    # about 43.5 MB: the scans save only their inputs and no closure saves
    # an array twice (silu its result, gelu only x, a conv its unpadded
    # input, a slice its own copy): 48.8 MB without that; one scan closure
    # that keeps its state history again adds 29 MB
    live, _ = desk_stage2_memory
    assert live < 46e6, "%.1f MB live after forward" % (live / 1e6)


def test_desk_stage2_noscan_forward_leaves_under_31_mb_live():
    # about 28.3 MB with mamba_as_conv, 34.7 MB when closures save an
    # array twice
    live, _ = desk_stage2_memory_of(mamba_as_conv=True)
    assert live < 31e6, "%.1f MB live after forward" % (live / 1e6)


def test_scan_core_keeps_no_state_sized_array_for_backward(rng):
    # backward rebuilds decay = exp(delta x a) and the state history hs from
    # the inputs it saves, so a grad-mode scan leaves no (L, C, N) array
    # live: only its (L, C) output, an eighth of one; a kept hs adds a whole
    length, c, n = 1024, 16, 8
    inputs = [parameter(x) for x in (
        rng.uniform(-1, 1, (length, c)), rng.uniform(0.05, 0.8, (length, c)),
        rng.uniform(-1, 1, (length, n)), rng.uniform(-1, 1, (length, n)),
        rng.uniform(-1.5, -0.2, (c, n)), rng.uniform(-1, 1, c))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = ad.selective_scan_core(*inputs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    state_sized = [obj.shape for obj in _saved_objects(y._node.grad_fns)
                   if isinstance(obj, np.ndarray) and obj.size >= length * c * n]
    assert state_sized == []
    assert kept < 0.25 * length * c * n * 8, "%.2f MB live" % (kept / 1e6)


def test_scan_core_rebuild_dies_with_its_node(rng):
    # the six gradient functions share one rebuild (laid-out inputs, decay,
    # hs, the adjoint sweep), which dies with them when backward clears
    # the node, with no help from the cycle collector: what stays live is
    # the inputs' grads and the (L, C) output, and a rebuild kept past
    # backward would add several (L, C, N) arrays of 1 MB each
    length, c, n = 1024, 16, 8
    inputs = [parameter(x) for x in (
        rng.uniform(-1, 1, (length, c)), rng.uniform(0.05, 0.8, (length, c)),
        rng.uniform(-1, 1, (length, n)), rng.uniform(-1, 1, (length, n)),
        rng.uniform(-1.5, -0.2, (c, n)), rng.uniform(-1, 1, c))]
    collecting = cyclic_gc.isenabled()
    cyclic_gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = ad.selective_scan_core(*inputs)
        y.sum().backward()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if collecting:
            cyclic_gc.enable()
    # their arrays' bytes, plus 16 KB for the Python objects that hold
    # them (about 2.5 KB on CPython 3.11)
    bound = sum(t.grad.nbytes for t in inputs) + y.data.nbytes + (16 << 10)
    assert live <= bound, "%d bytes live, bound %d" % (live, bound)


def test_toposort_parents_precede_children(rng):
    x = parameter(rng.uniform(-1, 1, (3,)))
    c = Tensor(rng.uniform(-1, 1, (3,)))
    y = x * x
    z = (y + x + c).sum()
    order = ad.toposort(z)
    pos = {id(t): i for i, t in enumerate(order)}
    assert order[-1] is z._node and x in order
    assert all(t is not c for t in order)      # a constant is no graph node
    for node in order:
        if isinstance(node, ad.Node):
            for p in node.parents:
                assert p is None or pos[id(p)] < pos[id(node)]


# ---------------------------------------------------------------------------
# non-finite checks / determinism / flops
# ---------------------------------------------------------------------------

def test_an_op_that_records_a_node_checks_its_result():
    # a graph never holds NaN/Inf; an op that records no node, on plain
    # tensors or under no_grad, checks nothing
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteError, match="'div'"):
            ad.div(ad.parameter([1.0]), Tensor([0.0]))
        assert ad.div(Tensor([1.0]), Tensor([0.0])).data[0] == np.inf
        with ad.no_grad():
            out = ad.div(ad.parameter([1.0]), Tensor([0.0]))
        assert out.data[0] == np.inf and out._node is None


def test_forward_determinism(rng):
    x = rng.uniform(-1, 1, (4, 6, 6))
    w = rng.uniform(-1, 1, (4, 4, 3, 3))

    def run():
        out = ad.conv2d(Tensor(x), Tensor(w), pad=1)
        out = ad.silu(out)
        return ad.softmax(out.reshape(4, 36), axis=1).data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_flop_counter_counts_matmul(rng):
    a, b = Tensor(rng.random((3, 4))), Tensor(rng.random((4, 5)))
    with FlopCounter() as fc:
        ad.matmul(a, b)
    assert fc.total == 2 * 3 * 4 * 5


# op name -> (call, input shapes, flops the op reports on those shapes);
# every input is drawn from (0.5, 1.5), so div's divisor stays away from zero
FLOP_CASES = {
    "add": (ad.add, [(3, 4), (1, 4)], 12),
    "sub": (ad.sub, [(3, 4), (3, 4)], 12),
    "mul": (ad.mul, [(3, 4), (3, 4)], 12),
    "div": (ad.div, [(3, 4), (3, 4)], 12),
    "neg": (ad.neg, [(3, 4)], 12),
    "power": (lambda a: ad.power(a, 2.0), [(3, 4)], 12),
    "maximum": (ad.maximum, [(3, 4), (3, 4)], 12),
    "absolute": (ad.absolute, [(3, 4)], 12),
    "exp": (ad.exp, [(3, 4)], 12),
    "sigmoid": (ad.sigmoid, [(3, 4)], 12),
    "silu": (ad.silu, [(3, 4)], 2 * 12),
    "gelu": (ad.gelu, [(3, 4)], 4 * 12),
    "tanh": (ad.tanh, [(3, 4)], 12),
    "softplus": (ad.softplus, [(3, 4)], 2 * 12),
    "softmax": (lambda a: ad.softmax(a, axis=1), [(3, 4)], 4 * 12),
    "layer_norm": (lambda a: ad.layer_norm(a, axis=1), [(3, 4)], 5 * 12),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)], 0),
    "transpose": (ad.transpose, [(3, 4)], 0),
    "flip": (lambda a: ad.flip(a, axis=0), [(3, 4)], 0),
    "concat": (lambda a, b: ad.concat([a, b], axis=0), [(3, 4), (2, 4)], 0),
    "slice": (lambda a: ad.take(a, (slice(1, None), slice(None, None, 2))),
              [(3, 4)], 0),
    "reduce_sum": (lambda a: ad.reduce_sum(a, axis=1), [(3, 4)], 12),
    "reduce_mean": (lambda a: ad.reduce_mean(a, axis=1), [(3, 4)], 12),
    "matmul": (ad.matmul, [(3, 4), (4, 5)], 2 * 3 * 4 * 5),
    "conv2d": (lambda x, w: ad.conv2d(x, w, pad=1), [(2, 5, 6), (3, 2, 3, 3)],
               2 * 3 * 2 * 3 * 3 * 5 * 6),
    "depthwise_conv2d": (ad.depthwise_conv2d, [(2, 5, 6), (2, 3, 3)],
                         2 * 2 * 1 * 3 * 3 * 5 * 6),
    "dilated_conv2d": (lambda x, w: ad.dilated_conv2d(x, w, dilation=2),
                       [(2, 5, 6), (3, 2, 3, 3)], 2 * 3 * 2 * 3 * 3 * 5 * 6),
    "pad_reflect2d": (lambda x: ad.pad_reflect2d(x, 1), [(2, 5, 6)], 0),
    "selective_scan_core": (ad.selective_scan_core,
                            [(6, 3), (6, 3), (6, 2), (6, 2), (3, 2), (3,)],
                            10 * 6 * 3 * 2 + 2 * 6 * 3),
}


@pytest.mark.parametrize("name", sorted(FLOP_CASES))
def test_flop_counter_counts_every_op(name, rng):
    fn, shapes, flops = FLOP_CASES[name]
    arrays = [rng.uniform(0.5, 1.5, s) for s in shapes]
    totals = []
    for grad in (True, False):
        inputs = [Tensor(x, requires_grad=grad) for x in arrays]
        with FlopCounter() as fc:
            if grad:
                assert fn(*inputs).requires_grad
            else:
                with no_grad():
                    fn(*inputs)
        totals.append(fc.total)
    assert totals == [flops, flops]


def test_sigmoid_matches_masked_form_bit_for_bit(rng):
    def masked(x):                 # the boolean-mask form it replaced
        pos = x >= 0
        out = np.empty_like(x)
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    x = np.concatenate([[0.0, -0.0, 30.0, -30.0, 800.0, -800.0],
                        rng.normal(0.0, 20.0, 1000)])
    assert np.array_equal(ad._sigmoid_np(x).view(np.int64),
                          masked(x).view(np.int64))


def test_scan_reuses_heap_pages_across_calls():
    # fixed malloc thresholds: the scan's 4 MB temporaries come from the heap
    # on every call, not from fresh mmaps that fault in page by page
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = """
import resource
import numpy as np
from dualfuse import autodiff as ad
rng = np.random.default_rng(0)
L, C, N = 4096, 16, 8
args = [ad.Tensor(a) for a in (
    rng.normal(size=(L, C)), rng.uniform(0.05, 0.5, (L, C)),
    rng.normal(size=(L, N)), rng.normal(size=(L, N)),
    -rng.uniform(0.2, 1.5, (C, N)), rng.normal(size=C))]
faults = []
with ad.no_grad():
    ad.selective_scan_core(*args)
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ad.selective_scan_core(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(max(faults))
"""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert int(out) < 100, "a scan call faulted %s times" % out.strip()


def test_no_grad_builds_no_graph(rng):
    x = parameter(rng.uniform(-1, 1, (3,)))
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad and y._node is None


# ---------------------------------------------------------------------------
# finite differences for every primitive (module-level slice of the big suite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,case_fn", gc.primitive_cases())
def test_primitive_gradients(name, case_fn):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(3):
        build, arrays = case_fn(rng)
        worst = max(worst, gc.check_case(build, arrays))
    assert worst < gc.REL_TOL, "%s worst rel err %.3e" % (name, worst)


def test_gradcheck_suite_ignores_hash_seed():
    # each case's inputs are drawn from a seed derived from its name, which
    # must not depend on the per-process salt of str hashes
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("from dualfuse import gradcheck\n"
            "print([w for _, w, _ in gradcheck.run_suite(1, verbose=False)])")
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=300).stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# selective scan core contracts
# ---------------------------------------------------------------------------

def test_scan_core_rejects_empty_sequence():
    z = Tensor(np.zeros((0, 2)))
    zn = Tensor(np.zeros((0, 3)))
    with pytest.raises(ContractError):
        ad.selective_scan_core(z, z, zn, zn, Tensor(np.zeros((2, 3))),
                               Tensor(np.zeros(2)))


@pytest.mark.parametrize("length", [1, 2, 4, 7, 12, 30, 36, 98])
def test_recur_chunked_matches_recur_both_directions(length, rng):
    # the chunked helper on the forward views and on the views reversed in
    # time within each chunk (the adjoint) equals _recur on token-order arrays
    shape = (length, 3, 2)
    coef = rng.uniform(0.1, 1.0, shape)
    rows = rng.uniform(-1, 1, shape)
    t = max(i for i in range(1, int(length ** 0.5) + 1) if length % i == 0)

    def lay(x):
        return x.reshape(-1, t, 3, 2).swapaxes(0, 1)

    fwd = ad._recur(coef[1:], rows.copy())
    dl = lay(coef)
    got = ad._recur_chunked(dl[1:], dl[0, 1:], lay(rows).copy(), False)
    assert_close(got.swapaxes(0, 1).reshape(shape), fwd, tol=1e-12)

    bwd = rows.copy()
    ad._recur(coef[:0:-1], bwd[::-1])
    got = lay(rows).copy()
    ad._recur_chunked(dl[:0:-1], dl[0, 1:], got[::-1], True)
    assert_close(got.swapaxes(0, 1).reshape(shape), bwd, tol=1e-12)


def test_reflect_pad_matches_numpy(rng):
    x = rng.uniform(-1, 1, (2, 4, 5))
    out = ad.pad_reflect2d(Tensor(x), 2).data
    assert_close(out, np.pad(x, ((0, 0), (2, 2), (2, 2)), mode="reflect"))
