"""Channel-attention branch: projection, attention oracle, block semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuse import attention as attn
from dualfuse import autodiff as ad
from dualfuse import complexity, gradcheck, params
from dualfuse.autodiff import ContractError, DimensionError, Tensor

from conftest import assert_close, dense_attention_oracle


def make_params(channels, seed=0):
    return attn.make_transformer_block_params(np.random.default_rng(seed), channels)


def qkv(p):
    return p.qkv_point, p.qkv_depth


# ---------------------------------------------------------------------------
# project_qkv
# ---------------------------------------------------------------------------

def test_project_qkv_zero_input_gives_zero_triplet():
    p = make_params(3)
    q, k, v = attn.project_qkv(Tensor(np.zeros((3, 4, 4))), *qkv(p))
    assert not q.data.any()
    assert not k.data.any()
    assert not v.data.any()


def test_project_qkv_identity_projection_c1(rng):
    p = make_params(1)
    p.qkv_point.data[:] = 1.0                  # 1x1: copy the single channel
    p.qkv_depth.data[:] = 0.0
    p.qkv_depth.data[:, 1, 1] = 1.0            # depthwise identity tap
    x = rng.uniform(-1, 1, (1, 4, 4))
    q, _, _ = attn.project_qkv(Tensor(x), *qkv(p))
    assert_close(q.data[:, 0], x.ravel())


def test_project_qkv_shapes():
    p = make_params(4)
    q, k, v = attn.project_qkv(Tensor(np.zeros((4, 8, 8))), *qkv(p))
    assert q.shape == (64, 4)
    assert k.shape == (4, 64)
    assert v.shape == (64, 4)


def test_project_qkv_channel_mismatch():
    p = make_params(4)
    with pytest.raises(DimensionError):
        attn.project_qkv(Tensor(np.zeros((3, 8, 8))), *qkv(p))


def test_project_qkv_needs_3x3_spatial():
    p = make_params(2)
    with pytest.raises(ContractError):
        attn.project_qkv(Tensor(np.zeros((2, 2, 8))), *qkv(p))


# ---------------------------------------------------------------------------
# channel_attention
# ---------------------------------------------------------------------------

def attend(q, k, v, alpha=1.0):
    """(output, matrix) of channel attention applied to v."""
    a = attn.channel_attention(Tensor(q), Tensor(k), Tensor(alpha))
    return attn.apply_attention(a, Tensor(v)), a


def test_channel_attention_single_channel(rng):
    v = rng.uniform(-1, 1, (6, 1))
    out, a = attend(rng.uniform(-1, 1, (6, 1)), rng.uniform(-1, 1, (1, 6)), v)
    assert_close(a.data, [[1.0]])
    assert_close(out.data, v)


def test_channel_attention_zero_query_uniform_rows(rng):
    hw, c = 5, 4
    out, a = attend(
        np.zeros((hw, c)), rng.uniform(-1, 1, (c, hw)),
        rng.uniform(-1, 1, (hw, c)))
    assert_close(a.data, np.full((c, c), 0.25))
    assert out.shape == (hw, c)


def test_channel_attention_matches_dense_oracle(rng):
    hw, c = 6, 3
    q = rng.uniform(-1, 1, (hw, c))
    k = rng.uniform(-1, 1, (c, hw))
    v = rng.uniform(-1, 1, (hw, c))
    out, a = attend(q, k, v, alpha=1.0)
    ref_out, ref_a = dense_attention_oracle(q, k, v, 1.0)
    assert_close(a.data, ref_a, tol=1e-10)
    assert_close(out.data, ref_out, tol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_attention_rows_are_stochastic(seed):
    r = np.random.default_rng(seed)
    hw = int(r.integers(1, 12))
    c = int(r.integers(1, 6))
    alpha = float(r.uniform(0.2, 5.0))
    _, a = attend(
        r.uniform(-3, 3, (hw, c)), r.uniform(-3, 3, (c, hw)),
        r.uniform(-3, 3, (hw, c)), alpha)
    assert np.all(a.data >= 0)
    assert np.max(np.abs(a.data.sum(axis=1) - 1.0)) < 1e-6


def test_channel_attention_rejects_mismatched_key():
    # k must be (C, HW) for a (HW, C) query; here it spans 5 pixels, not 6
    with pytest.raises(DimensionError):
        attend(np.zeros((6, 2)), np.zeros((2, 5)), np.zeros((6, 2)))


# ---------------------------------------------------------------------------
# transformer_block
# ---------------------------------------------------------------------------

def test_block_is_identity_with_zero_output_projections(rng):
    p = make_params(4)
    p.attn_out.data[:] = 0.0
    p.ff_out.data[:] = 0.0
    x = rng.uniform(-1, 1, (4, 5, 5))
    out = attn.transformer_block(Tensor(x), p)
    assert out.data.tobytes() == x.tobytes()   # bit-exact


def test_block_preserves_shape(rng):
    p = make_params(8)
    x = Tensor(rng.uniform(-1, 1, (8, 16, 16)))
    assert attn.transformer_block(x, p).shape == (8, 16, 16)


def test_block_parameter_gradients(rng):
    p = make_params(2, seed=5)
    x = rng.uniform(-1, 1, (2, 4, 4))
    probe = rng.uniform(-1, 1, (2, 4, 4))

    def loss():
        return (attn.transformer_block(Tensor(x), p) * Tensor(probe)).sum()

    worst = gradcheck.check_model_grads(loss, params.named_parameters(p),
                                        sample=6, rng=np.random.default_rng(0))
    assert worst < gradcheck.REL_TOL, worst


# ---------------------------------------------------------------------------
# linear complexity in pixel count
# ---------------------------------------------------------------------------

def test_channel_attention_flops_scale_linearly():
    sizes = [64, 256, 1024]
    flops = complexity.measure_channel_attention_flops(sizes)
    report = complexity.linearity_report(sizes, flops)
    assert report["r_squared"] > 0.999
    assert report["quadratic_share"] < 0.01
