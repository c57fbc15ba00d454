"""Whole-network assembly under every ablation configuration."""

import numpy as np
import pytest

from dualfuse import params
from dualfuse.autodiff import Tensor, no_grad
from dualfuse.config import RunConfig
from dualfuse.model import build_model, encode, fuse_pair, fuse_pair_arrays, \
    image_to_tensor, restore, stage1_parameter_tree, stage2_parameter_tree
from dualfuse.toydata import make_toy_pairs

ABLATIONS = {
    "attention_only": dict(mamba_branch=False, interaction=False,
                           cross_modal_attention=False),
    "attention_plus_cross": dict(mamba_branch=False, interaction=False),
    "dual_no_interaction": dict(interaction=False),
    "full": dict(),
    "scan_as_conv": dict(mamba_as_conv=True),
}


def cfg_for(name, **extra):
    base = dict(channels=4, crop=16, batch=1, seed=1)
    base.update(ABLATIONS[name])
    base.update(extra)
    return RunConfig(**base).validate()


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation_configs_construct_and_run(name, rng):
    cfg = cfg_for(name)
    model = build_model(cfg)
    img_a = image_to_tensor(rng.uniform(0, 1, (16, 16)))
    img_b = image_to_tensor(rng.uniform(0, 1, (16, 16)))
    with no_grad():
        recon = restore(img_a, model)
        fused = fuse_pair(img_a, img_b, model, cfg)
    assert recon.shape == (1, 16, 16)
    assert fused.shape == (1, 16, 16)
    assert np.all(fused.data >= 0) and np.all(fused.data <= 1)


def test_branch_toggles_shape_parameter_tree():
    full = build_model(cfg_for("full"))
    t_only = build_model(cfg_for("attention_only"))
    names_full = {n for n, _ in params.named_parameters(full)}
    names_t = {n for n, _ in params.named_parameters(t_only)}
    assert any("mamba" in n for n in names_full)
    assert not any("mamba" in n for n in names_t)
    assert any("interaction" in n for n in names_full)
    assert not any("interaction" in n for n in names_t)


@pytest.mark.parametrize("name,extra", [(n, {}) for n in sorted(ABLATIONS)]
                         + [("full", dict(depth=2)),
                            ("dual_no_interaction",
                             dict(transformer_branch=False,
                                  cross_modal_attention=False))])
def test_stage_trees_share_no_tensor(name, extra):
    # the training loop hands each stage tree to Adam as-is, one entry per
    # tensor, so no tensor may appear twice in a tree
    model = build_model(cfg_for(name, **extra))
    for tree in (stage1_parameter_tree(model), stage2_parameter_tree(model)):
        tensors = [t for section in tree
                   for _, t in params.trainable_parameters(section)]
        assert len({id(t) for t in tensors}) == len(tensors)


def test_seeded_build_is_deterministic():
    cfg = cfg_for("full")
    a = params.named_parameters(build_model(cfg))
    b = params.named_parameters(build_model(cfg))
    for (name_a, ta), (name_b, tb) in zip(a, b):
        assert name_a == name_b
        assert ta.data.tobytes() == tb.data.tobytes()


def test_network_is_resolution_agnostic(rng):
    cfg = cfg_for("full", crop=16)
    model = build_model(cfg)
    pair = make_toy_pairs(1, 40)[0]      # trained crop size never constrains
    out = fuse_pair_arrays(pair, model, cfg)
    assert out.shape == (40, 40)


def test_encode_returns_both_branches(rng):
    cfg = cfg_for("full")
    model = build_model(cfg)
    with no_grad():
        trans, mamba = encode(image_to_tensor(rng.uniform(0, 1, (16, 16))),
                              model)
    assert trans.shape == (4, 16, 16)
    assert mamba.shape == (4, 16, 16)


def test_stage1_mode_fuse_of_identical_pair_is_restoration(rng):
    cfg = cfg_for("full")
    model = build_model(cfg)
    x = rng.uniform(0, 1, (16, 16))
    img = image_to_tensor(x)
    with no_grad():
        restored = restore(img, model)
        fused = fuse_pair(img, img, model, cfg, fusion_trained=False)
    assert restored.data.tobytes() == fused.data.tobytes()


def test_deeper_encoder_builds(rng):
    cfg = cfg_for("full", depth=2)
    model = build_model(cfg)
    assert len(model.encoder) == 2
    with no_grad():
        out = restore(image_to_tensor(rng.uniform(0, 1, (16, 16))), model)
    assert out.shape == (1, 16, 16)