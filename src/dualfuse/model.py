"""Whole-network assembly: encoder, fusion head, decoder, forward paths.

Construction is driven entirely by the run config (seed and ablation
toggles), and the parameter tree order is deterministic, so a (seed, config)
pair pins every initial weight bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blocks, parallel
from .autodiff import ContractError, DimensionError, Tensor, no_grad
from .blocks import ShallowParams, dual_branch_block, \
    make_dual_branch_params, make_shallow_params
from .config import RunConfig
from .data import ImagePair
from .fusion import DecoderParams, FusionParams, decode, fuse_features, \
    make_decoder_params, make_fusion_params


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
    encoder = [make_dual_branch_params(rng, cfg) for _ in range(cfg.depth)]
    fusion = make_fusion_params(rng, cfg)
    return ModelParams(
        shallow=make_shallow_params(rng, cfg.channels),
        encoder=encoder,
        fusion=fusion,
        decoder=make_decoder_params(rng, cfg),
    )


def encode(img: Tensor, shallow: ShallowParams, encoder: list):
    """Shallow features then the dual-branch encoder stack.

    Returns (transformer_features, mamba_features); a disabled branch yields
    None. With depth > 1 the branch outputs are summed to feed the next block.
    """
    # looked up at call time, so a tracer that patches
    # blocks.shallow_extract sees this call
    feat = blocks.shallow_extract(img, shallow)
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


def fuse_pair(img_a: Tensor, img_b: Tensor, m: ModelParams,
              fusion_trained: bool = True) -> Tensor:
    """Full fusion forward pass.

    Both modalities run through the shared encoder, ``fuse_features``
    fuses them and the decoder renders the image. With two cores, under
    ``no_grad`` or in a training step (see ``parallel``), modality b's
    encode runs on the helper, and so does one of the two fusion blocks:
    the attention side at inference, the scan side in training, where its
    backward runs while the caller runs the attention side and the head
    (see ``fuse_features``). With ``fusion_trained``
    false (a stage-one-only model) the fusion head is bypassed and branch
    features average, which reduces to plain restoration when both inputs
    agree.
    """
    if img_a.shape != img_b.shape:
        raise DimensionError("modalities differ: %r vs %r"
                             % (img_a.shape, img_b.shape))
    enc_a, enc_b = parallel.both((encode, img_a, m.shallow, m.encoder),
                                 (encode, img_b, m.shallow, m.encoder))
    if not fusion_trained:
        half = Tensor(0.5)
        return decode(*[(fa + fb) * half if fa is not None else None
                        for fa, fb in zip(enc_a, enc_b)], m.decoder)
    return decode(*fuse_features(enc_a, enc_b, m.fusion), m.decoder)


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
    """Fuse one pair and return the [0, 1] float image (H, W). ``cfg`` is
    unread: ``m`` carries every setting the forward needs. It stays because
    callers, the benchmark's workloads among them, pass it positionally."""
    with no_grad():
        out = fuse_pair(image_to_tensor(pair.a), image_to_tensor(pair.b),
                        m, fusion_trained=fusion_trained)
    return out.data[0]
