"""Cross-modality fusion head and decoder.

``fuse_features`` runs the whole stage-two head. Scan-branch features of
the two modalities pre-fuse by plain elementwise addition. Attention-branch
features pre-fuse at the attention level: each modality yields its own
channel-attention matrix (with its own scale), a dilated-conv weighting head
turns both feature maps into two softmax weights, and the convex combination
of the per-modality matrices is applied to both value matrices. Each
pre-fused map then passes through its own dual-branch fusion block, and the
decoder renders the final image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .attention import TransformerBlockParams, apply_attention, \
    channel_attention, make_transformer_block_params, project_qkv, \
    transformer_block
from .autodiff import ContractError, DimensionError, Tensor
from .blocks import DualBranchBlockParams, dual_branch_block, \
    make_dual_branch_params
from .config import RunConfig
from .params import fan_in_normal


@dataclass
class AsppWeightParams:
    """Dilated 3x3 convs with dense connections, pooled into two weights."""
    conv1_w: Tensor     # (C, C, 3, 3), dilation 1
    conv1_b: Tensor
    conv2_w: Tensor     # (C, 2C, 3, 3), dilation 2
    conv2_b: Tensor
    conv3_w: Tensor     # (C, 3C, 3, 3), dilation 4
    conv3_b: Tensor
    fc_w: Tensor        # (2, 2C)
    fc_b: Tensor        # (2,)


@dataclass
class CrossModalParams:
    """Shared Q/K/V projection with per-modality attention scales."""
    qkv_point: Tensor        # (3C, C, 1, 1)
    qkv_depth: Tensor        # (3C, 3, 3)
    log_scale_vis: Tensor    # (): visible-path scale, exp-parameterized
    log_scale_ir: Tensor     # (): infrared-path twin
    weights: AsppWeightParams | None   # absent when cross-modal attention is off


@dataclass
class DecoderParams:
    merge_w: Tensor          # (C, branches*C, 1, 1)
    merge_b: Tensor
    block: TransformerBlockParams
    out_w: Tensor            # (1, C, 1, 1)
    out_b: Tensor


@dataclass
class FusionParams:
    cross: CrossModalParams | None          # None when transformer branch off
    fuse_trans: DualBranchBlockParams | None
    fuse_mamba: DualBranchBlockParams | None


def make_aspp_weight_params(rng: np.random.Generator,
                            channels: int) -> AsppWeightParams:
    c = channels
    return AsppWeightParams(
        conv1_w=fan_in_normal(rng, c, c, 3, 3),
        conv1_b=ad.parameter(np.zeros(c)),
        conv2_w=fan_in_normal(rng, c, 2 * c, 3, 3),
        conv2_b=ad.parameter(np.zeros(c)),
        conv3_w=fan_in_normal(rng, c, 3 * c, 3, 3),
        conv3_b=ad.parameter(np.zeros(c)),
        fc_w=fan_in_normal(rng, 2, 2 * c),
        fc_b=ad.parameter(np.zeros(2)),
    )


def make_cross_modal_params(rng: np.random.Generator,
                            cfg: RunConfig) -> CrossModalParams:
    """Q/K/V starts as three stacked identities (pointwise copy plus a
    center-tap depthwise kernel), so the initial pre-fusion feature is an
    attention-mixed sum of the branch features the decoder already knows.
    The weighting head is drawn only with ``cross_modal_attention``."""
    c = cfg.channels
    eye = np.zeros((3 * c, c, 1, 1))
    for i in range(3 * c):
        eye[i, i % c, 0, 0] = 1.0
    depth = np.zeros((3 * c, 3, 3))
    depth[:, 1, 1] = 1.0
    return CrossModalParams(
        qkv_point=ad.parameter(eye),
        qkv_depth=ad.parameter(depth),
        log_scale_vis=ad.parameter(np.zeros(())),
        log_scale_ir=ad.parameter(np.zeros(())),
        weights=make_aspp_weight_params(rng, c)
        if cfg.cross_modal_attention else None,
    )


def make_decoder_params(rng: np.random.Generator,
                        cfg: RunConfig) -> DecoderParams:
    c = cfg.channels
    branches = int(cfg.transformer_branch) + int(cfg.mamba_branch)
    return DecoderParams(
        merge_w=fan_in_normal(rng, c, branches * c, 1, 1),
        merge_b=ad.parameter(np.zeros(c)),
        block=make_transformer_block_params(rng, c),
        out_w=fan_in_normal(rng, 1, c, 1, 1),
        out_b=ad.parameter(np.zeros(1)),
    )


# ---------------------------------------------------------------------------
# pre-fusion
# ---------------------------------------------------------------------------

def modality_attentions(vis_t: Tensor, ir_t: Tensor, p: CrossModalParams):
    """Per-modality channel-attention matrices plus their value matrices.

    Returns (attn_vis, attn_ir, values_vis, values_ir); the visible path uses
    one learned scale and the infrared path its twin.
    """
    if vis_t.shape != ir_t.shape:
        raise DimensionError("modality features differ: %r vs %r"
                             % (vis_t.shape, ir_t.shape))
    q_vis, k_vis, v_vis = project_qkv(vis_t, p.qkv_point, p.qkv_depth)
    q_ir, k_ir, v_ir = project_qkv(ir_t, p.qkv_point, p.qkv_depth)
    attn_vis = channel_attention(q_vis, k_vis, ad.exp(p.log_scale_vis))
    attn_ir = channel_attention(q_ir, k_ir, ad.exp(p.log_scale_ir))
    return attn_vis, attn_ir, v_vis, v_ir


def _aspp_encode(x: Tensor, wp: AsppWeightParams) -> Tensor:
    c = x.shape[0]
    y1 = ad.silu(ad.dilated_conv2d(x, wp.conv1_w, 1) + wp.conv1_b.reshape(c, 1, 1))
    y2 = ad.silu(ad.dilated_conv2d(ad.concat([x, y1], axis=0), wp.conv2_w, 2)
                 + wp.conv2_b.reshape(c, 1, 1))
    y3 = ad.silu(ad.dilated_conv2d(ad.concat([x, y1, y2], axis=0), wp.conv3_w, 4)
                 + wp.conv3_b.reshape(c, 1, 1))
    return y3


def attention_weighting(vis_t: Tensor, ir_t: Tensor,
                        attn_vis: Tensor, attn_ir: Tensor,
                        wp: AsppWeightParams):
    """Convex combination of the two attention matrices.

    Both modality features pass through the dilated-conv encoder, are pooled
    and concatenated, and a fully connected layer plus softmax yields the two
    weights. Returns (combined_attention, w_vis, w_ir).
    """
    if attn_vis.shape != attn_ir.shape:
        raise DimensionError("attention matrices differ: %r vs %r"
                             % (attn_vis.shape, attn_ir.shape))
    enc_vis = _aspp_encode(vis_t, wp).mean(axis=(1, 2))   # (C,)
    enc_ir = _aspp_encode(ir_t, wp).mean(axis=(1, 2))
    pooled = ad.concat([enc_vis, enc_ir], axis=0).reshape(-1, 1)
    logits = ad.matmul(wp.fc_w, pooled).reshape(2) + wp.fc_b
    weights = ad.softmax(logits, axis=0)
    w_vis, w_ir = weights[0], weights[1]
    combined = w_vis * attn_vis + w_ir * attn_ir
    return combined, w_vis, w_ir


def prefuse_transformer(attn_ir: Tensor, attn_vis: Tensor, v_ir: Tensor,
                        v_vis: Tensor, height: int, width: int) -> Tensor:
    """Apply each modality's attention to its value matrix and sum.

    Cross-modal attention passes the one combined matrix as both
    attentions; the per-modality ablation passes each modality's own.
    """
    if v_ir.shape != v_vis.shape:
        raise DimensionError("value matrices differ: %r vs %r"
                             % (v_ir.shape, v_vis.shape))
    if v_ir.shape[0] != height * width:
        raise DimensionError("value rows %d != %d pixels"
                             % (v_ir.shape[0], height * width))
    mixed = apply_attention(attn_ir, v_ir) + apply_attention(attn_vis, v_vis)
    c = mixed.shape[1]
    return mixed.transpose().reshape(c, height, width)


# ---------------------------------------------------------------------------
# fusion blocks and decoder
# ---------------------------------------------------------------------------

def fuse_features(enc_a: tuple, enc_b: tuple,
                  p: FusionParams) -> tuple[Tensor | None, Tensor | None]:
    """The stage-two head: pre-fuse both modalities' encodings, then pass
    each pre-fused map through its own dual-branch block.

    ``enc_a`` and ``enc_b`` are ``model.encode``'s (transformer, mamba)
    pairs of the infrared-like and the visible-like modality. Scan features
    pre-fuse by addition; attention features through ``modality_attentions``
    and, when ``p.cross`` has weights (``cross_modal_attention``), the
    learned ``attention_weighting`` (else each modality keeps its own
    matrix). Returns the fused (transformer,
    mamba) pair; a disabled branch yields None.

    Pre-fused features are two-modality sums, so they enter the blocks
    scaled by 1/2: that keeps them in the per-modality magnitude regime the
    stage-one decoder was trained in (a raw sum saturates it). The
    attention-side block keeps only its attention-branch output and the
    scan-side block only its scan output. With both present, the two
    blocks share no parameter and run through ``parallel.both``. Under
    ``no_grad`` the attention side runs on the helper: it is the shorter
    of the two (at most one scan layer to two), so a helper slowed by a
    busy CPU has slack before it holds up the caller. In a training step
    the scan side does, forward and backward: the serial backward reaches
    it last, after the attention side and the rest of the head, so its
    remote backward runs while the caller runs those.
    """
    (trans_a, mamba_a), (trans_b, mamba_b) = enc_a, enc_b
    pre_mamba = mamba_a + mamba_b if mamba_a is not None else None
    if trans_a is None:
        return None, _scan_side(pre_mamba, p.fuse_mamba)
    # visible-like modality is b, infrared-like is a
    attn_vis, attn_ir, v_vis, v_ir = modality_attentions(trans_b, trans_a,
                                                         p.cross)
    if p.cross.weights is not None:
        combined, _, _ = attention_weighting(trans_b, trans_a, attn_vis,
                                             attn_ir, p.cross.weights)
        attn_ir = attn_vis = combined
    pre_trans = prefuse_transformer(attn_ir, attn_vis, v_ir, v_vis,
                                    *trans_a.shape[1:])
    if pre_mamba is None:
        return _attention_side(pre_trans, p.fuse_trans), None
    scan = (_scan_side, pre_mamba, p.fuse_mamba)
    attention = (_attention_side, pre_trans, p.fuse_trans)
    if ad._grad_enabled:
        return parallel.both(attention, scan)
    fused_m, fused_t = parallel.both(scan, attention)
    return fused_t, fused_m


def _attention_side(pre_trans: Tensor, p: DualBranchBlockParams) -> Tensor:
    return dual_branch_block(pre_trans * Tensor(0.5), p)[0]


def _scan_side(pre_mamba: Tensor, p: DualBranchBlockParams) -> Tensor:
    return dual_branch_block(pre_mamba * Tensor(0.5), p)[1]


def make_fusion_params(rng: np.random.Generator,
                       cfg: RunConfig) -> FusionParams:
    """Cross-modal head and two fusion blocks, each cut to the output its
    side reads (``_attention_side``: 0, ``_scan_side``: 1)."""
    t_on, m_on = cfg.transformer_branch, cfg.mamba_branch
    return FusionParams(
        cross=make_cross_modal_params(rng, cfg) if t_on else None,
        fuse_trans=make_dual_branch_params(rng, cfg, keep=0) if t_on else None,
        fuse_mamba=make_dual_branch_params(rng, cfg, keep=1) if m_on else None,
    )


def decode(feat_t: Tensor | None, feat_m: Tensor | None,
           p: DecoderParams) -> Tensor:
    """Merge branch features and render a single-channel image in [0, 1]."""
    present = [f for f in (feat_t, feat_m) if f is not None]
    if not present:
        raise ContractError("decode needs at least one feature map")
    if len(present) == 2 and present[0].shape != present[1].shape:
        raise DimensionError("decoder inputs differ: %r vs %r"
                             % (present[0].shape, present[1].shape))
    stacked = ad.concat(present, axis=0) if len(present) > 1 else present[0]
    merged = ad.conv2d(stacked, p.merge_w, pad=0) \
        + p.merge_b.reshape(-1, 1, 1)
    refined = transformer_block(merged, p.block)
    out = ad.conv2d(refined, p.out_w, pad=0) + p.out_b.reshape(1, 1, 1)
    return ad.sigmoid(out)
