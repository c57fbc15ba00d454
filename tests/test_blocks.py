"""Dual-branch block: shallow extractor, injections, assembly semantics."""

import numpy as np
import pytest

from dualfuse import attention as attn
from dualfuse import autodiff as ad
from dualfuse import blocks, gradcheck, params, ssm
from dualfuse.autodiff import ContractError, DimensionError, Tensor
from dualfuse.config import RunConfig

from conftest import assert_close, conv2d_oracle


def fmap(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def make_block(channels=2, seed=0, **kw):
    return blocks.make_dual_branch_params(np.random.default_rng(seed),
                                          RunConfig(channels=channels, **kw))


# ---------------------------------------------------------------------------
# shallow extractor
# ---------------------------------------------------------------------------

def test_shallow_extract_shape(rng):
    p = blocks.make_shallow_params(np.random.default_rng(0), 16)
    out = blocks.shallow_extract(Tensor(rng.uniform(0, 1, (1, 32, 32))), p)
    assert out.shape == (16, 32, 32)


def test_shallow_extract_zero_image_zero_bias():
    p = blocks.make_shallow_params(np.random.default_rng(0), 4)
    out = blocks.shallow_extract(Tensor(np.zeros((1, 8, 8))), p)
    assert not out.data.any()


def test_shallow_extract_rejects_multichannel():
    p = blocks.make_shallow_params(np.random.default_rng(0), 4)
    with pytest.raises(ContractError):
        blocks.shallow_extract(Tensor(np.zeros((3, 8, 8))), p)


@pytest.mark.slow
def test_shallow_extract_full_scale_shape():
    p = blocks.make_shallow_params(np.random.default_rng(0), 64)
    img = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 128, 128)))
    with ad.no_grad():
        out = blocks.shallow_extract(img, p)
    assert out.shape == (64, 128, 128)


# ---------------------------------------------------------------------------
# positional blend
# ---------------------------------------------------------------------------

def test_blend_gate_low_limit(rng):
    ip = blocks.make_interaction_params(np.random.default_rng(0), 2)
    ip.mix_gate_raw.data[()] = -20.0
    m = fmap(rng.uniform(-1, 1, (2, 4, 4)))
    t = fmap(rng.uniform(-1, 1, (2, 4, 4)))
    out = blocks.positional_blend(m, t, ip)
    assert_close(out.data, t.data, tol=1e-8)


def test_blend_gate_high_limit(rng):
    ip = blocks.make_interaction_params(np.random.default_rng(0), 2)
    ip.mix_gate_raw.data[()] = 20.0
    m = fmap(rng.uniform(-1, 1, (2, 4, 4)))
    t = fmap(rng.uniform(-1, 1, (2, 4, 4)))
    out = blocks.positional_blend(m, t, ip)
    assert_close(out.data, m.data, tol=1e-8)


def test_blend_midpoint(rng):
    ip = blocks.make_interaction_params(np.random.default_rng(0), 3)
    assert ip.mix_gate_raw.data == 0.0         # gate starts at exactly 0.5
    x = rng.uniform(-1, 1, (3, 4, 4))
    out = blocks.positional_blend(fmap(2 * x), fmap(np.zeros_like(x)), ip)
    assert_close(out.data, x, tol=1e-12)


def test_blend_checks_shape(rng):
    ip = blocks.make_interaction_params(np.random.default_rng(0), 2)
    m = fmap(np.zeros((2, 4, 4)))
    with pytest.raises(DimensionError):
        blocks.positional_blend(m, fmap(np.zeros((2, 4, 5))), ip)


def test_gate_stays_in_unit_interval_under_updates():
    ip = blocks.make_interaction_params(np.random.default_rng(0), 2)
    for raw in (-20.0, -5.0, 0.0, 5.0, 20.0):
        ip.mix_gate_raw.data[()] = raw
        g = ip.gate().item()
        assert 0.0 < g < 1.0


# ---------------------------------------------------------------------------
# channel mix
# ---------------------------------------------------------------------------

def test_channel_mix_zero_inputs_bias_only(rng):
    ip = blocks.make_interaction_params(np.random.default_rng(0), 3)
    z = fmap(np.zeros((3, 5, 5)))
    out = blocks.channel_mix(z, fmap(np.zeros((3, 5, 5))), ip)
    assert not out.data.any()             # biases default to zero
    ip.mix1_b.data[:] = 0.3
    out2 = blocks.channel_mix(z, fmap(np.zeros((3, 5, 5))), ip)
    assert out2.data.any()


def test_channel_mix_shape(rng):
    ip = blocks.make_interaction_params(np.random.default_rng(0), 4)
    m = fmap(rng.uniform(-1, 1, (4, 6, 6)))
    t = fmap(rng.uniform(-1, 1, (4, 6, 6)))
    assert blocks.channel_mix(m, t, ip).shape == (4, 6, 6)


def test_channel_mix_matches_composed_conv_oracle(rng):
    ip = blocks.make_interaction_params(np.random.default_rng(3), 2)
    ip.mix1_b.data[:] = rng.uniform(-0.5, 0.5, 2)
    ip.mix3_b.data[:] = rng.uniform(-0.5, 0.5, 2)
    a = rng.uniform(-1, 1, (2, 5, 5))
    b = rng.uniform(-1, 1, (2, 5, 5))
    got = blocks.channel_mix(fmap(a), fmap(b), ip)
    stackd = np.concatenate([a, b], axis=0)
    step1 = conv2d_oracle(stackd, ip.mix1_w.data, 1, 0) \
        + ip.mix1_b.data[:, None, None]
    step2 = conv2d_oracle(step1, ip.mix3_w.data, 1, 1) \
        + ip.mix3_b.data[:, None, None]
    assert_close(got.data, step2, tol=1e-12)


# ---------------------------------------------------------------------------
# dual-branch block
# ---------------------------------------------------------------------------

def test_block_output_shapes(rng):
    p = make_block(channels=2)
    x = fmap(rng.uniform(-1, 1, (2, 4, 4)))
    t_out, m_out = blocks.dual_branch_block(x, p)
    assert t_out.shape == (2, 4, 4)
    assert m_out.shape == (2, 4, 4)


def test_block_without_interaction_equals_pure_stacks(rng):
    p = make_block(channels=2, seed=4, interaction=False)
    x = rng.uniform(-1, 1, (2, 4, 4))
    t_out, m_out = blocks.dual_branch_block(fmap(x), p)
    pure_t = attn.transformer_block(
        attn.transformer_block(Tensor(x), p.transformer1), p.transformer2)
    pure_m = ssm.ssm_block(ssm.ssm_block(Tensor(x), p.mamba1), p.mamba2)
    assert t_out.data.tobytes() == pure_t.data.tobytes()
    assert m_out.data.tobytes() == pure_m.data.tobytes()


def test_block_mamba_disabled_reduces_to_transformer_path(rng):
    p = make_block(channels=2, seed=8, mamba_branch=False)
    x = rng.uniform(-1, 1, (2, 4, 4))
    t_out, m_out = blocks.dual_branch_block(fmap(x), p)
    assert m_out is None
    pure_t = attn.transformer_block(
        attn.transformer_block(Tensor(x), p.transformer1), p.transformer2)
    assert t_out.data.tobytes() == pure_t.data.tobytes()


def test_block_gate_gradient_finite_difference(rng):
    p = make_block(channels=2, seed=2)
    x = rng.uniform(-1, 1, (2, 4, 4))
    probe_t = rng.uniform(-1, 1, (2, 4, 4))
    probe_m = rng.uniform(-1, 1, (2, 4, 4))

    def loss():
        t_out, m_out = blocks.dual_branch_block(fmap(x), p)
        return (t_out * Tensor(probe_t)).sum() \
            + (m_out * Tensor(probe_m)).sum()

    worst = gradcheck.check_model_grads(
        loss, [("gate_raw", p.interaction.mix_gate_raw)])
    assert worst < gradcheck.REL_TOL, worst


def test_block_full_parameter_gradients_sampled(rng):
    p = make_block(channels=2, seed=6)
    x = rng.uniform(-1, 1, (2, 4, 4))
    probe_t = rng.uniform(-1, 1, (2, 4, 4))
    probe_m = rng.uniform(-1, 1, (2, 4, 4))

    def loss():
        t_out, m_out = blocks.dual_branch_block(fmap(x), p)
        return (t_out * Tensor(probe_t)).sum() \
            + (m_out * Tensor(probe_m)).sum()

    # step 1e-5: deep composition, FD truncation dominates at the default step
    worst = gradcheck.check_model_grads(loss, params.named_parameters(p),
                                        step=1e-5, sample=2,
                                        rng=np.random.default_rng(3))
    assert worst < gradcheck.REL_TOL, worst
