"""Central finite-difference verification of every differentiable operation.

Each registered case builds a scalar loss out of one primitive (plus a fixed
random cotangent so the full Jacobian-vector product is exercised), then
compares the engine's analytic gradients against central differences with
step 1e-4. Inputs are drawn in [-1, 1]; non-smooth ops are sampled away from
their kinks so the difference quotient is valid.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor, no_grad

FD_STEP = 1e-4
REL_TOL = 1e-4
ABS_FLOOR = 1e-7   # absolute slack for gradients that are themselves ~0


def check_case(build, arrays) -> float:
    """Worst elementwise relative error between analytic and numeric grads."""
    params = [ad.parameter(np.array(a, dtype=np.float64)) for a in arrays]
    named = [(str(i), p) for i, p in enumerate(params)]
    return check_model_grads(lambda: build(*params), named)


# ---------------------------------------------------------------------------
# case construction helpers
# ---------------------------------------------------------------------------

def _u(rng, shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def _cotangent(rng, compute):
    """Wrap an op so its output is contracted with a fixed random weight."""
    probe = {}

    def build(*ts):
        out = compute(*ts)
        if "w" not in probe:
            probe["w"] = rng.uniform(-1.0, 1.0, size=out.shape)
        return (out * Tensor(probe["w"])).sum()

    return build


def _away_from(rng, shape, other, margin=5e-2):
    """Sample values elementwise at least ``margin`` away from ``other``."""
    x = _u(rng, shape)
    mask = np.abs(x - other) < margin
    x[mask] = other[mask] + np.where(x[mask] >= other[mask], margin, -margin)
    return x


def shaped(op, *shapes):
    """A case of ``op`` on uniform inputs of ``shapes``, drawn in order
    before the cotangent."""
    def case(rng):
        return _cotangent(rng, op), [_u(rng, shape) for shape in shapes]
    return case


def primitive_cases():
    """(name, case_fn) registry; case_fn(rng) -> (build, input_arrays)."""
    def div_case(rng):
        a = _u(rng, (3, 4))
        b = rng.uniform(0.5, 1.5, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
        return _cotangent(rng, lambda x, y: ad.div(x, y)), [a, b]

    def maximum_case(rng):
        a = _u(rng, (3, 4))
        b = _away_from(rng, (3, 4), a)
        return _cotangent(rng, ad.maximum), [a, b]

    def abs_case(rng):
        x = _away_from(rng, (3, 4), np.zeros((3, 4)))
        return _cotangent(rng, ad.absolute), [x]

    def conv(pad):
        return lambda x, w: ad.conv2d(x, w, pad=pad)

    def dilated(dilation):
        return lambda x, w: ad.dilated_conv2d(x, w, dilation=dilation)

    def scan(length):
        # L=1 runs the recurrence loop zero times, L=2 once; L=7 is prime
        # (chunk length 1), L=12 runs four chunks of three tokens and L=30
        # six chunks of five, so both carry loops run several steps
        def scan_case(rng):
            ch, n = 3, 2
            u = _u(rng, (length, ch))
            delta = rng.uniform(0.05, 0.8, size=(length, ch))
            b = _u(rng, (length, n))
            c = _u(rng, (length, n))
            a = rng.uniform(-1.5, -0.2, size=(ch, n))
            d = _u(rng, (ch,))
            return _cotangent(rng, ad.selective_scan_core), [u, delta, b, c, a, d]
        return scan_case

    return [
        ("add", shaped(ad.add, (3, 4), (3, 4))),
        ("add_broadcast", shaped(ad.add, (3, 4), (3, 1))),
        ("sub", shaped(ad.sub, (3, 4), (3, 4))),
        ("mul", shaped(ad.mul, (3, 4), (3, 4))),
        ("mul_broadcast", shaped(ad.mul, (3, 4), (3, 1))),
        ("div", div_case),
        ("neg", shaped(ad.neg, (3, 4))),
        ("pow", shaped(lambda x: ad.power(x, 3), (3, 4))),
        ("maximum", maximum_case),
        ("abs", abs_case),
        ("exp", shaped(ad.exp, (3, 4))),
        ("sigmoid", shaped(ad.sigmoid, (3, 4))),
        ("silu", shaped(ad.silu, (3, 4))),
        ("gelu", shaped(ad.gelu, (3, 4))),
        ("tanh", shaped(ad.tanh, (3, 4))),
        ("softplus", shaped(ad.softplus, (3, 4))),
        ("softmax", shaped(lambda x: ad.softmax(x, axis=1), (3, 5))),
        ("layer_norm", shaped(lambda x: ad.layer_norm(x, axis=0), (5, 3))),
        ("matmul", shaped(ad.matmul, (3, 4), (4, 2))),
        ("reshape", shaped(lambda x: ad.reshape(x, (4, 3)), (3, 4))),
        ("transpose", shaped(lambda x: ad.transpose(x, (2, 0, 1)), (2, 3, 2))),
        ("flip", shaped(lambda x: ad.flip(x, 0), (4, 3))),
        ("concat", shaped(lambda x, y: ad.concat([x, y], axis=1), (2, 3), (2, 2))),
        ("slice", shaped(lambda x: x[1:3, :2], (4, 3))),
        # an int index, whose gradient fills one row
        ("slice_int", shaped(lambda x: x[1], (4, 3))),
        ("sum", shaped(lambda x: x.sum(axis=1), (3, 4))),
        ("mean", shaped(lambda x: x.mean(axis=0, keepdims=True), (3, 4))),
        ("conv2d_1x1", shaped(conv(0), (2, 4, 4), (3, 2, 1, 1))),
        ("conv2d_3x3", shaped(conv(1), (2, 4, 4), (2, 2, 3, 3))),
        ("depthwise_conv2d", shaped(ad.depthwise_conv2d, (3, 4, 4), (3, 3, 3))),
        ("dilated_conv2d", shaped(dilated(4), (2, 5, 5), (2, 2, 3, 3))),
        # conv2d_3x3 and dilated_conv2d have fewer input channels than taps
        # and copy tap slices; these have Ci = 10 > 9 taps and add one
        # product per tap, on non-square planes
        ("conv2d_3x3_deep", shaped(conv(1), (10, 3, 4), (2, 10, 3, 3))),
        ("dilated_conv2d_deep", shaped(dilated(2), (10, 4, 5), (2, 10, 3, 3))),
        # valid mode on a non-square plane, and a pad wider than the
        # kernel's reach, whose outer outputs read no input
        ("conv2d_valid", shaped(conv(0), (2, 4, 6), (3, 2, 3, 3))),
        ("conv2d_wide_pad", shaped(conv(3), (2, 3, 4), (2, 2, 3, 3))),
        ("pad_reflect2d", shaped(lambda x: ad.pad_reflect2d(x, 1), (2, 3, 4))),
        ("selective_scan_core", scan(4)),
        ("selective_scan_core_L1", scan(1)),
        ("selective_scan_core_L2", scan(2)),
        ("selective_scan_core_L7", scan(7)),
        ("selective_scan_core_L12", scan(12)),
        ("selective_scan_core_L30", scan(30)),
    ]


def loss_cases():
    """Gradient checks of both loss stages w.r.t. the predicted image."""
    from . import losses
    from .metrics import _sobel_xy

    def stage1_case(rng):
        h = w = 12
        truth_a = rng.uniform(0.1, 0.9, size=(1, h, w))
        truth_b = rng.uniform(0.1, 0.9, size=(1, h, w))
        pred_a = rng.uniform(0.1, 0.9, size=(1, h, w))
        pred_b = rng.uniform(0.1, 0.9, size=(1, h, w))

        def build(pa, pb):
            return losses.stage1_loss(Tensor(truth_a), pa, Tensor(truth_b), pb).total

        return build, [pred_a, pred_b]

    def stage2_case(rng):
        # the loss is piecewise linear in the fused image (L1 + abs inside
        # sobel); sample until every kink on the differentiated path is at
        # least a safe margin away from the finite-difference stencil
        # away from kinks the loss is exactly linear, so the margin only has
        # to cover the FD stencil (a 1e-4 nudge moves sobel sums by <= 8e-4)
        h = w = 8
        margin = 1e-3
        src_a = rng.uniform(0.0, 1.0, size=(1, h, w))
        src_b = rng.uniform(0.0, 1.0, size=(1, h, w))
        target = np.maximum(src_a, src_b)

        ga = sum(np.abs(g) for g in _sobel_xy(src_a[0]))
        gb = sum(np.abs(g) for g in _sobel_xy(src_b[0]))
        grad_target = np.maximum(ga, gb)
        # border columns of gx (rows of gy) are identically zero under
        # reflect padding and stay zero under any perturbation; at corners
        # both gradient magnitudes are invariantly zero on each side. Those
        # entries are constants, not kinks, so they carry no margin demand.
        corner = np.zeros((h, w), dtype=bool)
        corner[0, 0] = corner[0, -1] = corner[-1, 0] = corner[-1, -1] = True
        for _ in range(500):
            fused = rng.uniform(0.05, 0.95, size=(1, h, w))
            gx, gy = _sobel_xy(fused[0])
            gf = np.abs(gx) + np.abs(gy)
            if (np.all(np.abs(fused - target) > margin)
                    and np.all(np.abs(gx[:, 1:-1]) > margin)
                    and np.all(np.abs(gy[1:-1, :]) > margin)
                    and np.all(np.abs(gf - grad_target)[~corner] > margin)):
                break
        else:
            raise RuntimeError("no kink-free stage2 sample found")

        def build(f):
            return losses.stage2_loss(f, Tensor(src_a), Tensor(src_b)).total

        return build, [fused]

    return [("stage1_loss", stage1_case), ("stage2_loss", stage2_case)]


def check_model_grads(loss_fn, named_params, step: float = FD_STEP,
                      sample: int | None = None, rng=None) -> float:
    """FD-check d(loss_fn()) / d(param) for every named parameter tensor.

    ``loss_fn`` must rebuild its graph from the parameters' current data on
    each call. With ``sample`` set, only that many randomly chosen elements
    per parameter are probed (full sweep otherwise). Returns the worst
    relative error; parameter grads are cleared afterwards.
    """
    for _, t in named_params:
        t.grad = None
    loss_fn().backward()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in named_params}
    worst = 0.0
    for name, t in named_params:
        flat = t.data.ravel()
        if sample is None or flat.size <= sample:
            idxs = range(flat.size)
        else:
            idxs = rng.choice(flat.size, size=sample, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            with no_grad():
                up = loss_fn().item()
            flat[i] = orig - step
            with no_grad():
                down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].ravel()[i]
            denom = max(abs(a), abs(numeric), ABS_FLOOR / REL_TOL)
            worst = max(worst, abs(a - numeric) / denom)
    for _, t in named_params:
        t.grad = None
    return worst


def run_suite(cases_per_op: int = 20, verbose: bool = True):
    """Run the full gradient suite; returns list of (name, worst_err, seconds)."""
    if cases_per_op < 1:
        raise ContractError("gradcheck needs at least one case per op, got %r"
                            % (cases_per_op,))
    results = []
    for name, case_fn in primitive_cases() + loss_cases():
        rng = np.random.default_rng(zlib.crc32(name.encode()) % 100000)
        worst = 0.0
        start = time.monotonic()
        for _ in range(cases_per_op):
            build, arrays = case_fn(rng)
            worst = max(worst, check_case(build, arrays))
        elapsed = time.monotonic() - start
        results.append((name, worst, elapsed))
        if verbose:
            status = "ok " if worst < REL_TOL else "FAIL"
            print("%s %-22s worst rel err %.3e  (%.2fs)" % (status, name, worst, elapsed))
    return results
