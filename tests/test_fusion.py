"""Fusion head: pre-fusion algebra, weighting head, fusion blocks, decoder."""

import numpy as np
import pytest

from dualfuse import autodiff as ad
from dualfuse import fusion
from dualfuse.attention import channel_attention, project_qkv
from dualfuse.autodiff import ContractError, DimensionError, Tensor
from dualfuse.config import RunConfig
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close, dense_attention_oracle


def fmap(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def make_cross(channels=3, seed=0, with_weights=True):
    return fusion.make_cross_modal_params(
        np.random.default_rng(seed),
        RunConfig(channels=channels, cross_modal_attention=with_weights))


# ---------------------------------------------------------------------------
# modality attentions
# ---------------------------------------------------------------------------

def test_identical_features_equal_scales_give_equal_attention(rng):
    p = make_cross(3)
    x = rng.uniform(-1, 1, (3, 5, 5))
    a_vis, a_ir, v_vis, v_ir = fusion.modality_attentions(
        fmap(x), fmap(x), p)
    assert a_vis.data.tobytes() == a_ir.data.tobytes()
    assert v_vis.data.tobytes() == v_ir.data.tobytes()


def test_modality_attentions_row_stochastic(rng):
    p = make_cross(4, seed=3)
    p.log_scale_ir.data[()] = 0.7         # distinct scales
    a_vis, a_ir, _, _ = fusion.modality_attentions(
        fmap(rng.uniform(-1, 1, (4, 6, 6))),
        fmap(rng.uniform(-1, 1, (4, 6, 6))), p)
    for mat in (a_vis.data, a_ir.data):
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) < 1e-6


def test_modality_attentions_match_dense_oracle(rng):
    p = make_cross(3, seed=5)
    vis = fmap(rng.uniform(-1, 1, (3, 4, 4)))
    ir = fmap(rng.uniform(-1, 1, (3, 4, 4)))
    a_vis, a_ir, v_vis, v_ir = fusion.modality_attentions(vis, ir, p)
    # oracle consumes the same projected Q/K/V, computed densely
    for x, log_scale, got in ((vis, p.log_scale_vis, a_vis),
                              (ir, p.log_scale_ir, a_ir)):
        q, k, v = project_qkv(x, p.qkv_point, p.qkv_depth)
        _, ref = dense_attention_oracle(q.data, k.data, v.data,
                                        ad.exp(log_scale).item())
        assert_close(got.data, ref, tol=1e-10)


# ---------------------------------------------------------------------------
# attention weighting
# ---------------------------------------------------------------------------

def test_weight_override_selects_one_matrix(rng):
    # with a zero fc the logits are fc_b; exp(-1000) underflows to 0, so
    # the softmax weights are exactly (1, 0)
    p = make_cross(3, seed=1)
    p.weights.fc_w.data[:] = 0.0
    p.weights.fc_b.data[:] = (0.0, -1000.0)
    vis = fmap(rng.uniform(-1, 1, (3, 5, 5)))
    ir = fmap(rng.uniform(-1, 1, (3, 5, 5)))
    a_vis, a_ir, _, _ = fusion.modality_attentions(vis, ir, p)
    combined, w1, w2 = fusion.attention_weighting(vis, ir, a_vis, a_ir,
                                                  p.weights)
    assert w1.item() == 1.0 and w2.item() == 0.0
    assert combined.data.tobytes() == a_vis.data.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_weighting_is_convex_and_row_stochastic(seed):
    r = np.random.default_rng(seed)
    p = fusion.make_cross_modal_params(np.random.default_rng(7),
                                       RunConfig(channels=3))
    vis = fmap(r.uniform(-2, 2, (3, 4, 4)))
    ir = fmap(r.uniform(-2, 2, (3, 4, 4)))
    a_vis, a_ir, _, _ = fusion.modality_attentions(vis, ir, p)
    combined, w1, w2 = fusion.attention_weighting(vis, ir, a_vis, a_ir, p.weights)
    assert w1.item() >= 0 and w2.item() >= 0
    assert abs(w1.item() + w2.item() - 1.0) < 1e-9
    assert np.max(np.abs(combined.data.sum(axis=1) - 1.0)) < 1e-6


def test_swapped_inputs_with_mirrored_fc_swap_weights(rng):
    c = 3
    p = make_cross(c, seed=9)
    vis = fmap(rng.uniform(-1, 1, (c, 5, 5)))
    ir = fmap(rng.uniform(-1, 1, (c, 5, 5)))
    a_vis, a_ir, _, _ = fusion.modality_attentions(vis, ir, p)
    _, w1, w2 = fusion.attention_weighting(vis, ir, a_vis, a_ir, p.weights)

    mirrored = fusion.make_aspp_weight_params(np.random.default_rng(9), c)
    for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b"):
        getattr(mirrored, name).data[:] = getattr(p.weights, name).data
    fc = p.weights.fc_w.data
    mirrored.fc_w.data[0] = np.concatenate([fc[1, c:], fc[1, :c]])
    mirrored.fc_w.data[1] = np.concatenate([fc[0, c:], fc[0, :c]])
    mirrored.fc_b.data[:] = p.weights.fc_b.data[::-1]

    _, m1, m2 = fusion.attention_weighting(ir, vis, a_ir, a_vis, mirrored)
    assert abs(m1.item() - w2.item()) < 1e-12
    assert abs(m2.item() - w1.item()) < 1e-12


# ---------------------------------------------------------------------------
# prefuse_transformer
# ---------------------------------------------------------------------------

def random_row_stochastic(rng, c):
    m = rng.uniform(0.1, 1.0, (c, c))
    return m / m.sum(axis=1, keepdims=True)


def test_prefuse_transformer_zero_value_path(rng):
    c, h, w = 3, 4, 5
    attn = random_row_stochastic(rng, c)
    v_ir = rng.uniform(-1, 1, (h * w, c))
    out = fusion.prefuse_transformer(Tensor(attn), Tensor(attn), Tensor(v_ir),
                                     Tensor(np.zeros((h * w, c))), h, w)
    expect = (v_ir @ attn.T).T.reshape(c, h, w)
    assert_close(out.data, expect, tol=1e-12)


def test_prefuse_transformer_equal_values_double(rng):
    c, h, w = 2, 3, 3
    attn = random_row_stochastic(rng, c)
    v = rng.uniform(-1, 1, (h * w, c))
    out = fusion.prefuse_transformer(Tensor(attn), Tensor(attn), Tensor(v),
                                     Tensor(v), h, w)
    expect = 2 * (v @ attn.T).T.reshape(c, h, w)
    assert_close(out.data, expect, tol=1e-12)


def test_prefuse_transformer_distributes(rng):
    c, h, w = 3, 4, 4
    attn = random_row_stochastic(rng, c)
    x = rng.uniform(-1, 1, (h * w, c))
    y = rng.uniform(-1, 1, (h * w, c))
    got = fusion.prefuse_transformer(Tensor(attn), Tensor(attn), Tensor(x),
                                     Tensor(y), h, w)
    expect = (x @ attn.T + y @ attn.T).T.reshape(c, h, w)
    assert_close(got.data, expect, tol=1e-12)


def test_per_modality_prefuse_degradation(rng):
    # cross-modal toggle off: each modality keeps its own attention, add
    c, h, w = 3, 4, 4
    a_vis = random_row_stochastic(rng, c)
    a_ir = random_row_stochastic(rng, c)
    v_vis = rng.uniform(-1, 1, (h * w, c))
    v_ir = rng.uniform(-1, 1, (h * w, c))
    out = fusion.prefuse_transformer(
        Tensor(a_ir), Tensor(a_vis), Tensor(v_ir), Tensor(v_vis), h, w)
    expect = (v_ir @ a_ir.T + v_vis @ a_vis.T).T.reshape(c, h, w)
    assert_close(out.data, expect, tol=1e-12)


def test_prefuse_transformer_guards(rng):
    # per-modality attentions get the same value-shape checks as a shared one
    a_ir = Tensor(random_row_stochastic(rng, 2))
    a_vis = Tensor(random_row_stochastic(rng, 2))
    v = Tensor(rng.uniform(-1, 1, (6, 2)))
    with pytest.raises(DimensionError):
        fusion.prefuse_transformer(a_ir, a_vis, v, Tensor(np.zeros((4, 2))), 2, 3)
    with pytest.raises(DimensionError):
        fusion.prefuse_transformer(a_ir, a_vis, v, v, 2, 2)


def test_eq_chain_matches_dense_oracle(rng):
    # full attention-level chain on raw triplets; with a zero fc the learned
    # head weighs the two matrices by softmax(fc_b) = (0.3, 0.7)
    c, hw = 3, 6
    q_v, k_v = rng.uniform(-1, 1, (hw, c)), rng.uniform(-1, 1, (c, hw))
    q_i, k_i = rng.uniform(-1, 1, (hw, c)), rng.uniform(-1, 1, (c, hw))
    v_v, v_i = rng.uniform(-1, 1, (hw, c)), rng.uniform(-1, 1, (hw, c))
    alpha, beta = 1.3, 0.8
    a_v = channel_attention(Tensor(q_v), Tensor(k_v), Tensor(alpha))
    a_i = channel_attention(Tensor(q_i), Tensor(k_i), Tensor(beta))
    wp = fusion.make_aspp_weight_params(np.random.default_rng(2), c)
    wp.fc_w.data[:] = 0.0
    wp.fc_b.data[:] = np.log([0.3, 0.7])
    vis, ir = (fmap(rng.uniform(-1, 1, (c, 2, 3))) for _ in range(2))
    combined, w1, w2 = fusion.attention_weighting(vis, ir, a_v, a_i, wp)
    assert_close([w1.item(), w2.item()], [0.3, 0.7], tol=1e-12)
    got = fusion.prefuse_transformer(combined, combined, Tensor(v_i),
                                     Tensor(v_v), 2, 3)
    # dense oracle for the whole chain
    _, ref_av = dense_attention_oracle(q_v, k_v, v_v, alpha)
    _, ref_ai = dense_attention_oracle(q_i, k_i, v_i, beta)
    ref_a = w1.item() * ref_av + w2.item() * ref_ai
    ref = (v_i @ ref_a.T + v_v @ ref_a.T).T.reshape(3, 2, 3)
    assert_close(got.data, ref, tol=1e-10)


# ---------------------------------------------------------------------------
# fusion blocks + decoder
# ---------------------------------------------------------------------------

def make_fusion_params(channels=2, seed=0):
    return fusion.make_fusion_params(np.random.default_rng(seed),
                                     RunConfig(channels=channels))


def encodings(rng, c):
    """Two random (transformer, mamba) pairs, as ``model.encode`` returns."""
    return [(fmap(rng.uniform(-1, 1, (c, 4, 4))),
             fmap(rng.uniform(-1, 1, (c, 4, 4)))) for _ in range(2)]


def test_fuse_features_shapes(rng):
    p = make_fusion_params()
    fused_t, fused_m = fusion.fuse_features(*encodings(rng, 2), p)
    assert fused_t.shape == (2, 4, 4)
    assert fused_m.shape == (2, 4, 4)


def test_gradient_reaches_weighting_head(rng):
    c = 2
    p = make_fusion_params(channels=c, seed=4)
    fused_t, fused_m = fusion.fuse_features(*encodings(rng, c), p)
    (fused_t.sum() + fused_m.sum()).backward()
    fc_grad = p.cross.weights.fc_w.grad
    assert fc_grad is not None and np.abs(fc_grad).max() > 0


def test_decode_range_shape_determinism(rng):
    p = fusion.make_decoder_params(np.random.default_rng(3),
                                   RunConfig(channels=4))
    t = fmap(rng.uniform(-3, 3, (4, 6, 6)))
    m = fmap(rng.uniform(-3, 3, (4, 6, 6)))
    out1 = fusion.decode(t, m, p)
    out2 = fusion.decode(t, m, p)
    assert out1.shape == (1, 6, 6)
    assert np.all(out1.data >= 0) and np.all(out1.data <= 1)
    assert out1.data.tobytes() == out2.data.tobytes()


def test_decode_guards():
    p = fusion.make_decoder_params(np.random.default_rng(3),
                                   RunConfig(channels=4))
    with pytest.raises(ContractError):
        fusion.decode(None, None, p)
    with pytest.raises(DimensionError):
        fusion.decode(fmap(np.zeros((4, 6, 6))),
                      fmap(np.zeros((4, 5, 6))), p)
    with pytest.raises(DimensionError):
        fusion.decode(fmap(np.zeros((4, 6, 6))), None, p)
