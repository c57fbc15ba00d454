"""Selective-scan state-space branch.

A 1-D input-selective recurrence (timestep, input and readout projections are
all functions of the current token) is swept along four spatial traversal
orders of the feature map and summed, giving the sequence model 2-D awareness.
The block wrapper follows the visual-state-space shape: norm, expanded input
projection, depthwise conv, SiLU, the four-direction scan, a SiLU-gated side
branch, output projection, residual add. The "swap Mamba for a conv"
ablation keeps that shell and puts a second depthwise 3x3 conv in the
scan's place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import channel_norm
from .autodiff import DimensionError, Tensor
from .params import fan_in_normal

STATE_DIM = 8
EXPANSION = 2
DELTA_INIT = 0.05          # softplus(delta_bias) at init: small, stable steps

# The four traversal orders (row, row reversed, column, column reversed):
# the axes of a C x H x W map that list its tokens, and whether the scan
# runs backwards along them.
SCAN_ORDERS = (((1, 2, 0), False), ((1, 2, 0), True),
               ((2, 1, 0), False), ((2, 1, 0), True))


@dataclass
class ScanParams:
    """Parameters of one selective scan over C-channel tokens."""
    a_log: Tensor       # (C, N): log of -A, so the continuous A stays negative
    delta_w: Tensor     # (C, C)
    delta_bias: Tensor  # (C,)
    b_w: Tensor         # (C, N)
    c_w: Tensor         # (C, N)
    skip: Tensor        # (C,): direct input gain


@dataclass
class SsmBlockParams:
    """Full residual scan block operating on C-channel maps. Exactly one of
    ``scan`` and ``conv_mix`` is set; ``scan`` None is the conv ablation."""
    norm_gain: Tensor       # (C,)
    norm_bias: Tensor
    in_proj: Tensor         # (E, C, 1, 1) with E = EXPANSION * C
    gate_proj: Tensor       # (E, C, 1, 1)
    conv_depth: Tensor      # (E, 3, 3)
    scan: ScanParams | None     # over E channels
    conv_mix: Tensor | None     # (E, 3, 3): takes the scan's place
    out_proj: Tensor        # (C, E, 1, 1)

    @property
    def channels(self) -> int:
        return self.out_proj.shape[0]


def make_scan_params(rng: np.random.Generator, channels: int) -> ScanParams:
    c, n = channels, STATE_DIM
    a_init = np.tile(np.log(np.arange(1, n + 1, dtype=np.float64)), (c, 1))
    delta_bias = np.full(c, np.log(np.expm1(DELTA_INIT)))
    std = 1.0 / np.sqrt(c)
    return ScanParams(
        a_log=ad.parameter(a_init),
        delta_w=fan_in_normal(rng, c, c),
        delta_bias=ad.parameter(delta_bias),
        b_w=ad.parameter(rng.normal(0.0, std, size=(c, n))),
        c_w=ad.parameter(rng.normal(0.0, std, size=(c, n))),
        skip=ad.parameter(np.ones(c)),
    )


def _block_shell(rng: np.random.Generator, channels: int):
    c = channels
    e = EXPANSION * c
    return dict(
        norm_gain=ad.parameter(np.ones(c)),
        norm_bias=ad.parameter(np.zeros(c)),
        in_proj=fan_in_normal(rng, e, c, 1, 1),
        gate_proj=fan_in_normal(rng, e, c, 1, 1),
        conv_depth=fan_in_normal(rng, e, 3, 3),
        out_proj=fan_in_normal(rng, c, e, 1, 1),
    )


def make_ssm_block_params(rng: np.random.Generator, channels: int,
                          as_conv: bool = False) -> SsmBlockParams:
    """Shell weights are drawn first, then the scan or ``conv_mix``."""
    shell = _block_shell(rng, channels)
    e = EXPANSION * channels
    if as_conv:
        return SsmBlockParams(scan=None, conv_mix=fan_in_normal(rng, e, 3, 3),
                              **shell)
    scan = make_scan_params(rng, e)
    return SsmBlockParams(scan=scan, conv_mix=None, **shell)


def selective_scan(x: Tensor, p: ScanParams) -> Tensor:
    """Run the input-selective recurrence over an (L, C) token sequence.

    Per token, the timestep is softplus of a learned projection (strictly
    positive), and the state input/readout vectors are linear in the token;
    the state matrix exp(delta * A) decays because A = -exp(a_log) < 0.
    Shapes are checked by ``ad.matmul`` (2-D tokens, C channels) and
    ``ad.selective_scan_core`` (at least one token).
    """
    delta = ad.softplus(ad.matmul(x, p.delta_w) + p.delta_bias)
    b = ad.matmul(x, p.b_w)
    c = ad.matmul(x, p.c_w)
    a = ad.neg(ad.exp(p.a_log))
    return ad.selective_scan_core(x, delta, b, c, a, p.skip)


def cross_scan_2d(x: Tensor, p: ScanParams) -> Tensor:
    """Sum of the selective scan over all four spatial traversal orders."""
    if x.ndim != 3:
        raise DimensionError("cross_scan_2d expects a CxHxW map, got %r"
                             % (x.shape,))
    out = None
    for axes, backwards in SCAN_ORDERS:
        grid = x.transpose(*axes)
        tokens = grid.reshape(-1, x.shape[0])
        if backwards:
            tokens = ad.flip(tokens, 0)
        scanned = selective_scan(tokens, p)
        if backwards:
            scanned = ad.flip(scanned, 0)
        folded = scanned.reshape(*grid.shape).transpose(*np.argsort(axes))
        out = folded if out is None else out + folded
    return out


def ssm_block(x: Tensor, p: SsmBlockParams) -> Tensor:
    """Residual scan block (or its conv ablation when ``p.scan`` is None);
    preserves the C x H x W shape."""
    if x.shape[0] != p.channels:
        raise DimensionError("block built for %d channels, input has %d"
                             % (p.channels, x.shape[0]))
    normed = channel_norm(x, p.norm_gain, p.norm_bias)
    main = ad.conv2d(normed, p.in_proj, pad=0)
    main = ad.silu(ad.depthwise_conv2d(main, p.conv_depth))
    if p.scan is None:
        main = ad.depthwise_conv2d(main, p.conv_mix)
    else:
        main = cross_scan_2d(main, p.scan)
    gate = ad.silu(ad.conv2d(normed, p.gate_proj, pad=0))
    return x + ad.conv2d(main * gate, p.out_proj, pad=0)
