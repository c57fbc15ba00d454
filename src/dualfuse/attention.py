"""Transposed channel attention branch.

Attention here runs across channels, not pixels: queries and keys meet in a
C x C matrix, so cost grows linearly with pixel count at fixed channel width.
A block is pre-norm with two residual sublayers: channel attention, then a
gated feed-forward (two parallel pointwise+depthwise paths, GELU gate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, DimensionError, Tensor
from .params import fan_in_normal

FF_EXPANSION = 2


@dataclass
class TransformerBlockParams:
    norm1_gain: Tensor      # (C,)
    norm1_bias: Tensor
    qkv_point: Tensor       # (3C, C, 1, 1)
    qkv_depth: Tensor       # (3C, 3, 3)
    attn_out: Tensor        # (C, C, 1, 1)
    log_scale: Tensor       # () unconstrained; attention scale = exp
    norm2_gain: Tensor
    norm2_bias: Tensor
    ff_gate_point: Tensor   # (E, C, 1, 1) with E = FF_EXPANSION * C
    ff_gate_depth: Tensor   # (E, 3, 3)
    ff_value_point: Tensor  # (E, C, 1, 1)
    ff_value_depth: Tensor  # (E, 3, 3)
    ff_out: Tensor          # (C, E, 1, 1)


def make_transformer_block_params(rng: np.random.Generator,
                                  channels: int) -> TransformerBlockParams:
    c = channels
    e = FF_EXPANSION * c
    return TransformerBlockParams(
        norm1_gain=ad.parameter(np.ones(c)),
        norm1_bias=ad.parameter(np.zeros(c)),
        qkv_point=fan_in_normal(rng, 3 * c, c, 1, 1),
        qkv_depth=fan_in_normal(rng, 3 * c, 3, 3),
        attn_out=fan_in_normal(rng, c, c, 1, 1),
        log_scale=ad.parameter(np.zeros(())),
        norm2_gain=ad.parameter(np.ones(c)),
        norm2_bias=ad.parameter(np.zeros(c)),
        ff_gate_point=fan_in_normal(rng, e, c, 1, 1),
        ff_gate_depth=fan_in_normal(rng, e, 3, 3),
        ff_value_point=fan_in_normal(rng, e, c, 1, 1),
        ff_value_depth=fan_in_normal(rng, e, 3, 3),
        ff_out=fan_in_normal(rng, c, e, 1, 1),
    )


def channel_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-pixel layer norm over the channel axis of a C x H x W map."""
    c = x.shape[0]
    normed = ad.layer_norm(x, axis=0)
    return normed * gain.reshape(c, 1, 1) + bias.reshape(c, 1, 1)


def project_qkv(x: Tensor, qkv_point: Tensor,
                qkv_depth: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Pointwise then depthwise projection of a C x H x W map into Q/K/V.

    ``qkv_point`` is the (3C, C, 1, 1) pointwise kernel and ``qkv_depth`` the
    (3C, 3, 3) depthwise one. Spatial dims are flattened row-major; returns
    (q, k, v) with q and v (HW, C) and k pre-transposed as (C, HW).
    """
    if x.ndim != 3:
        raise DimensionError("project_qkv expects a CxHxW map, got %r" % (x.shape,))
    c, h, w = x.shape
    if h < 3 or w < 3:
        raise ContractError("spatial dims must be >= 3 for the depthwise 3x3")
    qkv = ad.depthwise_conv2d(ad.conv2d(x, qkv_point, pad=0), qkv_depth)
    flat = qkv.reshape(3 * c, h * w)
    k = flat[c:2 * c]                        # already (C, HW)
    q = flat[0:c].transpose()                # (HW, C)
    v = flat[2 * c:3 * c].transpose()
    return q, k, v


def channel_attention(q: Tensor, k: Tensor, scale: Tensor) -> Tensor:
    """Row-stochastic C x C attention matrix of project_qkv's q and k.

    ``scale`` is a positive scalar (the exp of an unconstrained parameter).
    ``apply_attention`` mixes the value channels with it: output channel i
    is sum_j A[i,j] * V[:,j]. Work is O(HW * C^2), never quadratic in pixel
    count.
    """
    if k.shape != (q.shape[1], q.shape[0]):
        raise DimensionError("k must be the transpose shape of q")
    return ad.softmax(ad.matmul(k, q) / scale, axis=1)


def apply_attention(attn: Tensor, v: Tensor) -> Tensor:
    """Apply a C x C attention matrix to a value matrix (HW, C)."""
    return ad.matmul(v, attn.transpose())


def gated_feed_forward(x: Tensor, p: TransformerBlockParams) -> Tensor:
    gate = ad.depthwise_conv2d(ad.conv2d(x, p.ff_gate_point, pad=0),
                               p.ff_gate_depth)
    value = ad.depthwise_conv2d(ad.conv2d(x, p.ff_value_point, pad=0),
                                p.ff_value_depth)
    return ad.conv2d(ad.gelu(gate) * value, p.ff_out, pad=0)


def transformer_block(x: Tensor, p: TransformerBlockParams) -> Tensor:
    """Pre-norm residual block: channel attention, then gated feed-forward."""
    c, h, w = x.shape
    q, k, v = project_qkv(channel_norm(x, p.norm1_gain, p.norm1_bias),
                          p.qkv_point, p.qkv_depth)
    attended = apply_attention(channel_attention(q, k, ad.exp(p.log_scale)), v)
    attended = attended.transpose().reshape(c, h, w)
    x = x + ad.conv2d(attended, p.attn_out, pad=0)
    ff = gated_feed_forward(channel_norm(x, p.norm2_gain, p.norm2_bias), p)
    return x + ff
