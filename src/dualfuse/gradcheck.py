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

def _u(rng, shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)


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


def primitive_cases():
    """(name, case_fn) registry; case_fn(rng) -> (build, input_arrays)."""

    def binary(op):
        def case(rng):
            a, b = _u(rng, (3, 4)), _u(rng, (3, 4))
            return _cotangent(rng, op), [a, b]
        return case

    def binary_broadcast(op):
        def case(rng):
            a, b = _u(rng, (3, 4)), _u(rng, (3, 1))
            return _cotangent(rng, op), [a, b]
        return case

    def unary(op, lo=-1.0, hi=1.0):
        def case(rng):
            return _cotangent(rng, op), [_u(rng, (3, 4), lo, hi)]
        return case

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

    def pow_case(rng):
        return _cotangent(rng, lambda x: ad.power(x, 3)), [_u(rng, (3, 4))]

    def softmax_case(rng):
        return _cotangent(rng, lambda x: ad.softmax(x, axis=1)), [_u(rng, (3, 5))]

    def layer_norm_case(rng):
        return _cotangent(rng, lambda x: ad.layer_norm(x, axis=0)), [_u(rng, (5, 3))]

    def matmul_case(rng):
        return _cotangent(rng, ad.matmul), [_u(rng, (3, 4)), _u(rng, (4, 2))]

    def reshape_case(rng):
        return _cotangent(rng, lambda x: ad.reshape(x, (4, 3))), [_u(rng, (3, 4))]

    def transpose_case(rng):
        return _cotangent(rng, lambda x: ad.transpose(x, (2, 0, 1))), [_u(rng, (2, 3, 2))]

    def flip_case(rng):
        return _cotangent(rng, lambda x: ad.flip(x, 0)), [_u(rng, (4, 3))]

    def concat_case(rng):
        return (_cotangent(rng, lambda x, y: ad.concat([x, y], axis=1)),
                [_u(rng, (2, 3)), _u(rng, (2, 2))])

    def slice_case(rng):
        return (_cotangent(rng, lambda x: x[1:3, :2]), [_u(rng, (4, 3))])

    # an advanced index with a repeated row, whose contributions must add,
    # and an int index, which adds straight into one row
    def slice_repeated_case(rng):
        return (_cotangent(rng, lambda x: x[[0, 2, 0]]), [_u(rng, (4, 3))])

    def slice_int_case(rng):
        return (_cotangent(rng, lambda x: x[1]), [_u(rng, (4, 3))])

    def sum_case(rng):
        return (_cotangent(rng, lambda x: x.sum(axis=1)), [_u(rng, (3, 4))])

    def mean_case(rng):
        return (_cotangent(rng, lambda x: x.mean(axis=0, keepdims=True)),
                [_u(rng, (3, 4))])

    def conv1x1_case(rng):
        return (_cotangent(rng, lambda x, w: ad.conv2d(x, w, pad=0)),
                [_u(rng, (2, 4, 4)), _u(rng, (3, 2, 1, 1))])

    def conv3x3_case(rng):
        return (_cotangent(rng, lambda x, w: ad.conv2d(x, w, pad=1)),
                [_u(rng, (2, 4, 4)), _u(rng, (2, 2, 3, 3))])

    def depthwise_case(rng):
        return (_cotangent(rng, ad.depthwise_conv2d),
                [_u(rng, (3, 4, 4)), _u(rng, (3, 3, 3))])

    def dilated_case(rng):
        return (_cotangent(rng, lambda x, w: ad.dilated_conv2d(x, w, dilation=4)),
                [_u(rng, (2, 5, 5)), _u(rng, (2, 2, 3, 3))])

    # conv2d_3x3 and dilated_conv2d have fewer input channels than taps and
    # copy tap slices; these have Ci = 10 > 9 taps and add one product per
    # tap, on non-square planes
    def conv3x3_deep_case(rng):
        return (_cotangent(rng, lambda x, w: ad.conv2d(x, w, pad=1)),
                [_u(rng, (10, 3, 4)), _u(rng, (2, 10, 3, 3))])

    def dilated_deep_case(rng):
        return (_cotangent(rng, lambda x, w: ad.dilated_conv2d(x, w, dilation=2)),
                [_u(rng, (10, 4, 5)), _u(rng, (2, 10, 3, 3))])

    # valid mode on a non-square plane, and a pad wider than the kernel's
    # reach, whose outer outputs read no input
    def conv_valid_case(rng):
        return (_cotangent(rng, lambda x, w: ad.conv2d(x, w, pad=0)),
                [_u(rng, (2, 4, 6)), _u(rng, (3, 2, 3, 3))])

    def conv_wide_pad_case(rng):
        return (_cotangent(rng, lambda x, w: ad.conv2d(x, w, pad=3)),
                [_u(rng, (2, 3, 4)), _u(rng, (2, 2, 3, 3))])

    def pad_reflect_case(rng):
        return (_cotangent(rng, lambda x: ad.pad_reflect2d(x, 1)),
                [_u(rng, (2, 3, 4))])

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
        ("add", binary(ad.add)),
        ("add_broadcast", binary_broadcast(ad.add)),
        ("sub", binary(ad.sub)),
        ("mul", binary(ad.mul)),
        ("mul_broadcast", binary_broadcast(ad.mul)),
        ("div", div_case),
        ("neg", unary(ad.neg)),
        ("pow", pow_case),
        ("maximum", maximum_case),
        ("abs", abs_case),
        ("exp", unary(ad.exp)),
        ("sigmoid", unary(ad.sigmoid)),
        ("silu", unary(ad.silu)),
        ("gelu", unary(ad.gelu)),
        ("tanh", unary(ad.tanh)),
        ("softplus", unary(ad.softplus)),
        ("softmax", softmax_case),
        ("layer_norm", layer_norm_case),
        ("matmul", matmul_case),
        ("reshape", reshape_case),
        ("transpose", transpose_case),
        ("flip", flip_case),
        ("concat", concat_case),
        ("slice", slice_case),
        ("slice_repeated", slice_repeated_case),
        ("slice_int", slice_int_case),
        ("sum", sum_case),
        ("mean", mean_case),
        ("conv2d_1x1", conv1x1_case),
        ("conv2d_3x3", conv3x3_case),
        ("depthwise_conv2d", depthwise_case),
        ("dilated_conv2d", dilated_case),
        ("conv2d_3x3_deep", conv3x3_deep_case),
        ("dilated_conv2d_deep", dilated_deep_case),
        ("conv2d_valid", conv_valid_case),
        ("conv2d_wide_pad", conv_wide_pad_case),
        ("pad_reflect2d", pad_reflect_case),
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


def run_suite(cases_per_op: int = 20, seed: int = 0, verbose: bool = True):
    """Run the full gradient suite; returns list of (name, worst_err, seconds)."""
    if cases_per_op < 1:
        raise ContractError("gradcheck needs at least one case per op, got %r"
                            % (cases_per_op,))
    results = []
    for name, case_fn in primitive_cases() + loss_cases():
        rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 100000)
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
