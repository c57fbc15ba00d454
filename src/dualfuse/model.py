"""Whole-network assembly: encoder, fusion head, decoder, forward paths.

Construction is driven entirely by the run config (seed and ablation
toggles), and the parameter tree order is deterministic, so a (seed, config)
pair pins every initial weight bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fusion as fusion_mod
from . import parallel
from .autodiff import ContractError, Tensor, no_grad
from .blocks import ShallowParams, dual_branch_block, \
    make_dual_branch_params, make_shallow_params
from .config import RunConfig
from .data import ImagePair
from .fusion import DecoderParams, FusionParams, decode, fuse_features, \
    make_decoder_params, make_fusion_params, prefuse_mamba, \
    prefuse_transformer


@dataclass
class ModelParams:
    """Every learnable tensor of the network, in deterministic field order."""
    shallow: ShallowParams
    encoder: list
    fusion: FusionParams
    decoder: DecoderParams


def build_model(cfg: RunConfig) -> ModelParams:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    c = cfg.channels
    encoder = [make_dual_branch_params(rng, c,
                                       transformer_on=cfg.transformer_branch,
                                       mamba_on=cfg.mamba_branch,
                                       interaction_on=cfg.interaction,
                                       mamba_as_conv=cfg.mamba_as_conv)
               for _ in range(cfg.depth)]
    fusion = make_fusion_params(rng, cfg)
    n_decoder_inputs = int(cfg.transformer_branch) + int(cfg.mamba_branch)
    return ModelParams(
        shallow=make_shallow_params(rng, c),
        encoder=encoder,
        fusion=fusion,
        decoder=make_decoder_params(rng, c, n_decoder_inputs),
    )


def encode(img: Tensor, shallow: ShallowParams, encoder: list):
    """Shallow features then the dual-branch encoder stack.

    Returns (transformer_features, mamba_features); a disabled branch yields
    None. With depth > 1 the branch outputs are summed to feed the next block.
    """
    # looked up at call time: a module-level binding would keep the
    # unwrapped function when a tracer patches blocks.shallow_extract
    from .blocks import shallow_extract
    feat = shallow_extract(img, shallow)
    trans = mamba = None
    for i, block in enumerate(encoder):
        trans, mamba = dual_branch_block(feat, block)
        if i + 1 < len(encoder):
            if trans is not None and mamba is not None:
                feat = trans + mamba
            else:
                feat = trans if trans is not None else mamba
    return trans, mamba


def restore(img: Tensor, m: ModelParams) -> Tensor:
    """Stage-one path: encode one modality and decode it straight back."""
    trans, mamba = encode(img, m.shallow, m.encoder)
    return decode(trans, mamba, m.decoder)


def fuse_pair(img_a: Tensor, img_b: Tensor, m: ModelParams, cfg: RunConfig,
              fusion_trained: bool = True) -> Tensor:
    """Full fusion forward pass.

    Both modalities run through the shared encoder (under ``no_grad``, on
    two cores when there are two: see ``parallel``). Scan-branch features
    pre-fuse by addition; attention-branch features pre-fuse through the
    cross-modal attention (or per-modality attention when that toggle is
    off). With ``fusion_trained`` false (a stage-one-only model) the fusion
    blocks are bypassed and branch features average, which reduces to plain
    restoration when both inputs agree.
    """
    (trans_a, mamba_a), (trans_b, mamba_b) = parallel.both(
        (encode, img_a, m.shallow, m.encoder),
        (encode, img_b, m.shallow, m.encoder))

    if not fusion_trained:
        half = Tensor(0.5)
        trans = (trans_a + trans_b) * half if trans_a is not None else None
        mamba = (mamba_a + mamba_b) * half if mamba_a is not None else None
        return decode(trans, mamba, m.decoder)

    pre_m = prefuse_mamba(mamba_a, mamba_b) if mamba_a is not None else None

    pre_t = None
    if trans_a is not None:
        cross = m.fusion.cross
        # visible-like modality is b, infrared-like is a
        attn_vis, attn_ir, v_vis, v_ir = fusion_mod.modality_attentions(
            trans_b, trans_a, cross)
        h, w = img_a.shape[1], img_a.shape[2]
        if cfg.cross_modal_attention:
            combined, _, _ = fusion_mod.attention_weighting(
                trans_b, trans_a, attn_vis, attn_ir, cross.weights)
            attn_ir = attn_vis = combined
        pre_t = prefuse_transformer(attn_ir, attn_vis, v_ir, v_vis, h, w)

    fused_t, fused_m = fuse_features(pre_t, pre_m, m.fusion)
    return decode(fused_t, fused_m, m.decoder)


def stage1_parameter_tree(m: ModelParams):
    """Sections optimized during restoration pretraining."""
    return [m.shallow, m.encoder, m.decoder]


def stage2_parameter_tree(m: ModelParams):
    """Stage two adds the cross-modal interaction and fusion blocks."""
    return [m.shallow, m.encoder, m.fusion, m.decoder]


def image_to_tensor(img: np.ndarray) -> Tensor:
    if img.ndim != 2:
        raise ContractError("expected an HxW image, got %r" % (img.shape,))
    return Tensor(img[None])


def fuse_pair_arrays(pair: ImagePair, m: ModelParams, cfg: RunConfig,
                     fusion_trained: bool = True) -> np.ndarray:
    """Fuse one pair and return the [0, 1] float image (H, W)."""
    with no_grad():
        out = fuse_pair(image_to_tensor(pair.a), image_to_tensor(pair.b),
                        m, cfg, fusion_trained=fusion_trained)
    return out.data[0]
