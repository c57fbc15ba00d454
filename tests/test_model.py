"""Whole-network assembly under every ablation configuration."""

import contextlib
import hashlib

import numpy as np
import pytest

from dualfuse import autodiff as ad
from dualfuse import params
from dualfuse.autodiff import DimensionError, Tensor, no_grad
from dualfuse.config import RunConfig
from dualfuse.losses import stage1_loss, stage2_loss
from dualfuse.model import build_model, encode, fuse_pair, fuse_pair_arrays, \
    image_to_tensor, restore, stage1_parameter_tree, stage2_parameter_tree
from dualfuse.toydata import make_toy_pairs

# the paper's ablation rows, in its order: T, T+A, T+A+M, T+A+M+I (the full
# model) and T+C (the scan swapped for a conv)
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
        fused = fuse_pair(img_a, img_b, model)
    assert recon.shape == (1, 16, 16)
    assert fused.shape == (1, 16, 16)
    assert np.all(fused.data >= 0) and np.all(fused.data <= 1)


@pytest.mark.parametrize("grad", [True, False])
def test_fuse_pair_rejects_modalities_of_different_shape(grad, rng):
    cfg = cfg_for("full")
    model = build_model(cfg)
    img_a = image_to_tensor(rng.uniform(0, 1, (16, 16)))
    img_b = image_to_tensor(rng.uniform(0, 1, (16, 20)))
    with contextlib.nullcontext() if grad else no_grad():
        with pytest.raises(DimensionError, match="modalities differ"):
            fuse_pair(img_a, img_b, model)


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
                   for _, t in params.named_parameters(section)]
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
                              model.shallow, model.encoder)
    assert trans.shape == (4, 16, 16)
    assert mamba.shape == (4, 16, 16)


def test_stage1_mode_fuse_of_identical_pair_is_restoration(rng):
    cfg = cfg_for("full")
    model = build_model(cfg)
    x = rng.uniform(0, 1, (16, 16))
    img = image_to_tensor(x)
    with no_grad():
        restored = restore(img, model)
        fused = fuse_pair(img, img, model, fusion_trained=False)
    assert restored.data.tobytes() == fused.data.tobytes()


def test_deeper_encoder_builds(rng):
    cfg = cfg_for("full", depth=2)
    model = build_model(cfg)
    assert len(model.encoder) == 2
    with no_grad():
        out = restore(image_to_tensor(rng.uniform(0, 1, (16, 16))), model)
    assert out.shape == (1, 16, 16)


# the default config and six ablations of it
BUILDS = {
    "full": dict(),
    "scan_as_conv": dict(mamba_as_conv=True),
    "no_interaction": dict(interaction=False),
    "no_cross_modal": dict(cross_modal_attention=False),
    "scan_only": dict(transformer_branch=False, cross_modal_attention=False),
    "attention_only": dict(mamba_branch=False),
    "depth_2": dict(depth=2),
}

# sha256 over each parameter's path and initial bytes, in tree order. A
# build with whole fusion blocks gives the same digests over these paths, so
# dropping the unread layers changed no kept tensor's draw.
INITIAL_DIGESTS = {
    "full": "3702b43f5b97f885ae5961d12cf11913d0bcd57b8a02834dff0d01efcacca366",
    "scan_as_conv":
        "13f1d844636dc2d6fb53a8b59b4f814bde6f12803c29f1f2d7792cad132cedbb",
    "no_interaction":
        "1375b8d080361fee945247d50adca582ab6c29fc90da983d94be7e998c710f75",
    "no_cross_modal":
        "aa5ccd9bfa647f3fd876d6860285b5a2105631842e75dec9efae468b8a4f9d00",
    "scan_only":
        "a11d330ea6fc6eb5d7990d7504c62532e6c7eac7dbd3ab33185976b4ad36a28a",
    "attention_only":
        "44f1dbbd32364e5693c65a79d6e9ba6b370811ea0cf1127bb408380b263a5e3a",
    "depth_2":
        "246a0eb7b71c5412c1f7fdebd64d672a9d2ef908e07d5804cc70b9b55f0089be",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_initial_parameter_bytes_are_pinned(name):
    digest = hashlib.sha256()
    model = build_model(cfg_for("full", **BUILDS[name]))
    for path, t in params.named_parameters(model):
        digest.update(path.encode())
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == INITIAL_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_trained_tensor_gets_a_gradient_and_every_node_is_spent(
        name, rng, monkeypatch):
    # a graph Node that backward never reaches is work the loss does not
    # read; a trained tensor without a gradient is a layer nothing runs
    nodes = []
    node_init = ad.Node.__init__

    def recording_init(self, *args):
        node_init(self, *args)
        nodes.append(self)
    monkeypatch.setattr(ad.Node, "__init__", recording_init)
    cfg = cfg_for("full", **BUILDS[name])
    model = build_model(cfg)
    img_a = image_to_tensor(rng.uniform(0, 1, (16, 16)))
    img_b = image_to_tensor(rng.uniform(0, 1, (16, 16)))
    for stage, tree in (("I", stage1_parameter_tree(model)),
                        ("II", stage2_parameter_tree(model))):
        named = [pair for section in tree
                 for pair in params.named_parameters(section)]
        nodes.clear()
        if stage == "I":
            loss = stage1_loss(img_a, restore(img_a, model),
                               img_b, restore(img_b, model)).total
        else:
            loss = stage2_loss(fuse_pair(img_a, img_b, model),
                               img_a, img_b).total
        loss.backward()
        assert [n for n, t in named if t.grad is None] == [], stage
        assert nodes, stage
        assert [n.op for n in nodes if n.backward_fn is not None] == [], stage
        for _, t in named:
            t.grad = None


def _stage_objective(stage, model, cfg, img_a, img_b, weights):
    """Stage I's training loss, or for stage II the smooth sum(w * fused^2):
    the stage-II loss has |.| and max kinks that a difference step can
    straddle."""
    if stage == "I":
        return stage1_loss(img_a, restore(img_a, model),
                           img_b, restore(img_b, model)).total
    fused = fuse_pair(img_a, img_b, model)
    return (Tensor(weights) * fused * fused).sum()


@pytest.mark.parametrize("stage", ["I", "II"])
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_whole_network_gradient_matches_central_difference(name, stage):
    # the gradient of a whole stage along one random direction over every
    # parameter its tree trains, against a central difference at h = 1e-7.
    # Parameters sit N(0, 0.05) off init, so no fusion block is transparent.
    # Worst relative error over the 14 cases: 9.3e-6 (scan_only, stage I,
    # where the slope is -1.9e3 on a loss of 1.4); 12 of 14 read under 2e-7.
    # It is truncation error: 9.2e-4 at h = 1e-6 and 9e-8 at h = 1e-8. The
    # tolerance 1e-4 leaves 10x over that worst case; two planted backward
    # faults (a write into a saved operand, a gradient buffer adopted without
    # a copy) read 3e-3 or more in every case they failed.
    rng = np.random.default_rng(21)
    cfg = cfg_for("full", **BUILDS[name])
    model = build_model(cfg)
    for _, t in params.named_parameters(model):
        t.data = t.data + rng.normal(0.0, 0.05, t.shape)
    tree = (stage1_parameter_tree if stage == "I"
            else stage2_parameter_tree)(model)
    trained = [t for section in tree
               for _, t in params.named_parameters(section)]
    direction = [rng.standard_normal(t.shape) for t in trained]
    img_a, img_b = (image_to_tensor(rng.uniform(0, 1, (12, 13)))
                    for _ in range(2))
    weights = rng.uniform(0, 1, (1, 12, 13))

    def objective():
        return _stage_objective(stage, model, cfg, img_a, img_b, weights)

    objective().backward()
    analytic = sum(float((t.grad * d).sum()) for t, d in zip(trained, direction))
    base = [t.data for t in trained]

    def shifted(step):
        for t, b, d in zip(trained, base, direction):
            t.data = b + step * d
        return objective().item()

    h = 1e-7
    numeric = (shifted(h) - shifted(-h)) / (2 * h)
    assert abs(numeric - analytic) <= 1e-4 * abs(analytic), (numeric, analytic)
