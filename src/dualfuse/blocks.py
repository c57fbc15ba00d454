"""Dual-branch encoder block with hierarchical branch interaction.

One block runs two layers of each branch over shared input. Between layers
the branches exchange what the other lacks: the scan branch's position-aware
features are blended into the attention branch through a single global gate
(a sigmoid-squashed scalar, structurally confined to (0,1)), and the
attention branch's channel-mixed output is folded back into the scan branch
through a pointwise mix plus a 3x3 spatial aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import TransformerBlockParams, make_transformer_block_params, \
    transformer_block
from .autodiff import ContractError, DimensionError, Tensor
from .config import RunConfig
from .params import fan_in_normal
from .ssm import SsmBlockParams, make_ssm_block_params, ssm_block

@dataclass
class InteractionParams:
    mix_gate_raw: Tensor        # (): global blend gate, sigma(raw) in (0,1)
    mix1_w: Tensor | None       # (C, 2C, 1, 1)
    mix1_b: Tensor | None       # (C,)
    mix3_w: Tensor | None       # (C, C, 3, 3)
    mix3_b: Tensor | None       # (C,)

    def gate(self) -> Tensor:
        return ad.sigmoid(self.mix_gate_raw)


@dataclass
class DualBranchBlockParams:
    """Two layers per branch plus one interaction (which needs both). A None
    layer is not run: ablations drop a branch, fusion blocks unread layers."""
    transformer1: TransformerBlockParams | None
    transformer2: TransformerBlockParams | None
    mamba1: SsmBlockParams | None
    mamba2: SsmBlockParams | None
    interaction: InteractionParams | None


@dataclass
class ShallowParams:
    embed_w: Tensor         # (C, 1, 1, 1)
    embed_b: Tensor         # (C,)
    block: TransformerBlockParams


def make_interaction_params(rng: np.random.Generator,
                            channels: int) -> InteractionParams:
    c = channels
    return InteractionParams(
        mix_gate_raw=ad.parameter(np.zeros(())),    # gate starts at 0.5
        mix1_w=fan_in_normal(rng, c, 2 * c, 1, 1),
        mix1_b=ad.parameter(np.zeros(c)),
        mix3_w=fan_in_normal(rng, c, c, 3, 3),
        mix3_b=ad.parameter(np.zeros(c)),
    )


def make_dual_branch_params(rng: np.random.Generator, cfg: RunConfig,
                            keep: int | None = None) -> DualBranchBlockParams:
    """The block ``cfg``'s branch, interaction and ``mamba_as_conv`` flags
    ask for, its layers drawn in field order.

    A fusion block passes ``keep``, the output it keeps (0 the attention
    branch's, 1 the scan branch's). It starts as an exact identity, every
    residual output projection zero, so a fresh stage-two model starts
    from the stage-one behavior instead of scrambling the trained feature
    pathways, and it drops the layers that output does not read. Every
    layer is drawn first, so a kept tensor's bytes do not depend on the
    cut."""
    c, t_on, m_on = cfg.channels, cfg.transformer_branch, cfg.mamba_branch
    trans = [make_transformer_block_params(rng, c) if t_on else None
             for _ in range(2)]
    mamba = [make_ssm_block_params(rng, c, as_conv=cfg.mamba_as_conv)
             if m_on else None for _ in range(2)]
    ip = make_interaction_params(rng, c) \
        if cfg.interaction and t_on and m_on else None
    if keep is not None:
        for layer in filter(None, trans):
            layer.attn_out.data[:] = layer.ff_out.data[:] = 0.0
        for layer in filter(None, mamba):
            layer.out_proj.data[:] = 0.0
        if ip is not None:
            # channel mix starts as "keep the scan-branch half unchanged"
            ip.mix1_w.data[:] = ip.mix3_w.data[:] = 0.0
            eye = np.eye(c)
            ip.mix1_w.data[:, :c, 0, 0] = ip.mix3_w.data[:, :, 1, 1] = eye
        if keep == 0:
            # no second scan layer, so no mix; and without the blend, no scan
            mamba = [mamba[0] if ip is not None else None, None]
            if ip is not None:
                ip.mix1_w = ip.mix1_b = ip.mix3_w = ip.mix3_b = None
        elif ip is None:    # no attention layer feeds the scan
            trans = [None, None]
    return DualBranchBlockParams(*trans, *mamba, ip)


def make_shallow_params(rng: np.random.Generator, channels: int) -> ShallowParams:
    return ShallowParams(
        embed_w=fan_in_normal(rng, channels, 1, 1, 1),
        embed_b=ad.parameter(np.zeros(channels)),
        block=make_transformer_block_params(rng, channels),
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def shallow_extract(img: Tensor, p: ShallowParams) -> Tensor:
    """Embed a single-channel image to C channels and run one attention block."""
    if img.ndim != 3 or img.shape[0] != 1:
        raise ContractError("shallow_extract wants a 1xHxW image, got %r"
                            % (img.shape,))
    c = p.embed_w.shape[0]
    embedded = ad.conv2d(img, p.embed_w, pad=0) \
        + p.embed_b.reshape(c, 1, 1)
    return transformer_block(embedded, p.block)


def positional_blend(mamba_feat: Tensor, trans_feat: Tensor,
                     ip: InteractionParams) -> Tensor:
    """gate * mamba + (1 - gate) * transformer, one global scalar gate.

    The same gate serves every channel, pixel and modality, so the blend
    shifts proportions without disturbing the positional encoding itself.
    """
    if mamba_feat.shape != trans_feat.shape:
        raise DimensionError("blend operands differ: %r vs %r"
                             % (mamba_feat.shape, trans_feat.shape))
    gate = ip.gate()
    return gate * mamba_feat + (Tensor(1.0) - gate) * trans_feat


def channel_mix(mamba_feat: Tensor, trans_out: Tensor,
                ip: InteractionParams) -> Tensor:
    """Concat channels, 1x1 mix down to C, then 3x3 spatial aggregation."""
    if mamba_feat.shape != trans_out.shape:
        raise DimensionError("mix operands differ: %r vs %r"
                             % (mamba_feat.shape, trans_out.shape))
    c = mamba_feat.shape[0]
    both = ad.concat([mamba_feat, trans_out], axis=0)
    mixed = ad.conv2d(both, ip.mix1_w, pad=0) + ip.mix1_b.reshape(c, 1, 1)
    return ad.conv2d(mixed, ip.mix3_w, pad=1) + ip.mix3_b.reshape(c, 1, 1)


def dual_branch_block(x: Tensor, p: DualBranchBlockParams
                      ) -> tuple[Tensor | None, Tensor | None]:
    """Run both branch stacks with the inter-branch injections.

    Order matters: the second attention layer consumes the blend of both
    first-layer outputs, and the second scan layer consumes the channel mix
    of the first scan output with that second attention output. A branch
    whose second layer is None yields None.
    """
    trans1 = transformer_block(x, p.transformer1) \
        if p.transformer1 is not None else None
    mamba1 = ssm_block(x, p.mamba1) if p.mamba1 is not None else None
    interact = p.interaction is not None     # built only with both branches

    trans_out = None
    if p.transformer2 is not None:
        second_in = positional_blend(mamba1, trans1, p.interaction) \
            if interact else trans1
        trans_out = transformer_block(second_in, p.transformer2)

    mamba_out = None
    if p.mamba2 is not None:
        second_in = channel_mix(mamba1, trans_out, p.interaction) \
            if interact else mamba1
        mamba_out = ssm_block(second_in, p.mamba2)

    return trans_out, mamba_out
