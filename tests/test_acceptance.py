"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline). The toy end-to-end training run is shared module-wide.
"""

import dataclasses
import functools
import os
import time

import numpy as np
import pytest

from dualfuse import attention, complexity, fusion, gradcheck, metrics, ssm
from dualfuse.attention import apply_attention, channel_attention
from dualfuse.autodiff import Tensor, no_grad
from dualfuse.blocks import make_interaction_params, positional_blend
from dualfuse.checkpoint import load_checkpoint
from dualfuse.config import RunConfig
from dualfuse.losses import stage2_loss
from dualfuse.model import build_model, encode, fuse_pair_arrays, \
    image_to_tensor
from dualfuse.toydata import make_toy_pairs
from dualfuse.train import train

from conftest import TOY_RUN, dense_attention_oracle
from test_model import ABLATIONS
from test_ssm import cross_scan_oracle, scan_oracle


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("FAIL — criterion %d: %s" % (number, label), flush=True)
                raise
            print("PASS — criterion %d: %s" % (number, label), flush=True)
        return run
    return wrap


@pytest.fixture(scope="module")
def toy_run(request):
    """200 + 200 training steps on the 8-pair 32x32 synthetic set, trained
    in a child process that the session starts at collection; the tests
    that read it run last (see conftest.py)."""
    return request.config.stash[TOY_RUN].result()


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

@criterion(1, "finite-difference gradients, every op and both loss stages")
def test_criterion_1_gradient_suite():
    start = time.monotonic()
    results = gradcheck.run_suite(cases_per_op=20, verbose=False)
    elapsed = time.monotonic() - start
    assert len(results) >= 30
    for name, worst, _ in results:
        assert worst < gradcheck.REL_TOL, "%s: %.3e" % (name, worst)
    assert elapsed < 300.0, "gradient suite took %.1fs" % elapsed


# ---------------------------------------------------------------------------
# 2. scan oracles
# ---------------------------------------------------------------------------

@criterion(2, "selective scan vs literal recurrence; cross-scan exact")
def test_criterion_2_scan_oracles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        length = int(rng.integers(1, 33))
        channels = int(rng.integers(1, 9))
        state = int(rng.integers(1, 9))
        p = ssm.make_scan_params(np.random.default_rng(rng.integers(1 << 30)),
                                 channels)
        # the scan op takes any state size N; the model's is ssm.STATE_DIM
        p = dataclasses.replace(p, **{
            name: Tensor(getattr(p, name).data[:, :state])
            for name in ("a_log", "b_w", "c_w")})
        x = rng.uniform(-1, 1, (length, channels))
        got = ssm.selective_scan(Tensor(x), p).data
        assert np.max(np.abs(got - scan_oracle(x, p))) <= 1e-10
    for h, w in ((1, 1), (2, 3), (5, 7), (8, 8)):
        p = ssm.make_scan_params(np.random.default_rng(h * 10 + w), 3)
        x = rng.uniform(-1, 1, (3, h, w))
        got = ssm.cross_scan_2d(Tensor(x), p).data
        assert got.tobytes() == cross_scan_oracle(x, p).tobytes()


# ---------------------------------------------------------------------------
# 3. attention oracles
# ---------------------------------------------------------------------------

@criterion(3, "channel attention and cross-modal chain vs dense oracles")
def test_criterion_3_attention_oracles():
    rng = np.random.default_rng(5)
    # channel attention vs entrywise dense computation
    for _ in range(20):
        hw = int(rng.integers(2, 10))
        c = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.3, 3.0))
        q = rng.uniform(-1, 1, (hw, c))
        k = rng.uniform(-1, 1, (c, hw))
        v = rng.uniform(-1, 1, (hw, c))
        a = channel_attention(Tensor(q), Tensor(k), Tensor(alpha))
        out = apply_attention(a, Tensor(v))
        ref_out, ref_a = dense_attention_oracle(q, k, v, alpha)
        assert np.max(np.abs(a.data - ref_a)) <= 1e-10
        assert np.max(np.abs(out.data - ref_out)) <= 1e-10
    # full attention-level fusion chain; with a zero fc the learned head
    # weighs the two matrices by softmax(fc_b) = (0.35, 0.65)
    c, h, w = 3, 2, 3
    q_v, k_v = rng.uniform(-1, 1, (h * w, c)), rng.uniform(-1, 1, (c, h * w))
    q_i, k_i = rng.uniform(-1, 1, (h * w, c)), rng.uniform(-1, 1, (c, h * w))
    v_v, v_i = rng.uniform(-1, 1, (h * w, c)), rng.uniform(-1, 1, (h * w, c))
    alpha, beta = 1.4, 0.6
    a_v = channel_attention(Tensor(q_v), Tensor(k_v), Tensor(alpha))
    a_i = channel_attention(Tensor(q_i), Tensor(k_i), Tensor(beta))
    wp = fusion.make_aspp_weight_params(np.random.default_rng(6), c)
    wp.fc_w.data[:] = 0.0
    wp.fc_b.data[:] = np.log([0.35, 0.65])
    vis, ir = np.random.default_rng(6).uniform(-1, 1, (2, c, h, w))
    combined, w_vis, w_ir = fusion.attention_weighting(
        Tensor(vis), Tensor(ir), a_v, a_i, wp)
    assert abs(w_vis.item() - 0.35) <= 1e-12
    got = fusion.prefuse_transformer(combined, combined, Tensor(v_i),
                                     Tensor(v_v), h, w)
    _, ref_av = dense_attention_oracle(q_v, k_v, v_v, alpha)
    _, ref_ai = dense_attention_oracle(q_i, k_i, v_i, beta)
    ref_a = w_vis.item() * ref_av + w_ir.item() * ref_ai
    ref = (v_i @ ref_a.T + v_v @ ref_a.T).T.reshape(c, h, w)
    assert np.max(np.abs(got.data - ref)) <= 1e-10
    # 1000-case row-stochastic fuzz
    for _ in range(1000):
        hw = int(rng.integers(1, 9))
        c = int(rng.integers(1, 6))
        a = channel_attention(
            Tensor(rng.uniform(-4, 4, (hw, c))),
            Tensor(rng.uniform(-4, 4, (c, hw))),
            Tensor(float(rng.uniform(0.1, 5.0))))
        assert np.all(a.data >= 0)
        assert np.max(np.abs(a.data.sum(axis=1) - 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# 4. linear complexity
# ---------------------------------------------------------------------------

@criterion(4, "linear op-count scaling of both branch primitives")
def test_criterion_4_linear_complexity():
    sizes = [64, 256, 1024]
    for measure in (complexity.measure_channel_attention_flops,
                    complexity.measure_selective_scan_flops):
        report = complexity.linearity_report(sizes, measure(sizes))
        assert report["r_squared"] > 0.999, report
        assert report["quadratic_share"] < 0.01, report


# ---------------------------------------------------------------------------
# 5. interaction semantics + ablation matrix
# ---------------------------------------------------------------------------

@criterion(5, "gate boundaries, weight convexity, all five ablations train")
def test_criterion_5_interaction_and_ablations(tmp_path):
    rng = np.random.default_rng(3)
    # global gate boundary behavior
    ip = make_interaction_params(np.random.default_rng(0), 3)
    m = Tensor(rng.uniform(-1, 1, (3, 4, 4)))
    t = Tensor(rng.uniform(-1, 1, (3, 4, 4)))
    ip.mix_gate_raw.data[()] = -20.0
    assert np.max(np.abs(positional_blend(m, t, ip).data - t.data)) < 1e-8
    ip.mix_gate_raw.data[()] = 20.0
    assert np.max(np.abs(positional_blend(m, t, ip).data - m.data)) < 1e-8
    # weighting convexity and row-stochastic combination
    cross = fusion.make_cross_modal_params(np.random.default_rng(1),
                                           RunConfig(channels=3))
    for _ in range(50):
        vis = Tensor(rng.uniform(-2, 2, (3, 5, 5)))
        ir = Tensor(rng.uniform(-2, 2, (3, 5, 5)))
        a_v, a_i, _, _ = fusion.modality_attentions(vis, ir, cross)
        combined, w1, w2 = fusion.attention_weighting(vis, ir, a_v, a_i,
                                                      cross.weights)
        assert w1.item() >= 0 and w2.item() >= 0
        assert abs(w1.item() + w2.item() - 1.0) < 1e-9
        assert np.max(np.abs(combined.data.sum(axis=1) - 1.0)) < 1e-6
    # the five ablation rows construct, train one epoch, checkpoint validly
    pairs = make_toy_pairs(8, 32, seed=7)
    for name, toggles in ABLATIONS.items():
        cfg = RunConfig(channels=8, crop=32, batch=2, epochs_stage1=1,
                        epochs_stage2=1, lr=1e-3, seed=2,
                        out_dir=str(tmp_path / name), **toggles)
        result = train(cfg, pairs)
        loaded = load_checkpoint(result.checkpoint_path)
        fused = fuse_pair_arrays(pairs[0], loaded.model, loaded.config,
                                 fusion_trained=loaded.fusion_trained)
        assert fused.shape == (32, 32)
        assert np.all(np.isfinite(fused))


# ---------------------------------------------------------------------------
# 6. toy end-to-end
# ---------------------------------------------------------------------------

@criterion(6, "toy two-stage training: loss halves, fusion beats both inputs")
def test_criterion_6_toy_end_to_end(toy_run):
    result = toy_run["result"]
    cfg = toy_run["cfg"]
    pairs = toy_run["pairs"]
    stage1 = [float(r[-1]) for r in result.log_rows if r[0] == "I"]
    assert len(stage1) == 200
    assert stage1[199] <= 0.5 * stage1[0], \
        "stage-I loss %.4f -> %.4f" % (stage1[0], stage1[199])

    fused_int, base_int, fused_q, base_q = [], [], [], []
    for pair in pairs:
        fused = fuse_pair_arrays(pair, result.model, cfg)
        img_a = image_to_tensor(pair.a)
        img_b = image_to_tensor(pair.b)
        with no_grad():
            fused_int.append(stage2_loss(image_to_tensor(fused), img_a,
                                         img_b).intensity.item())
            base_int.append(min(
                stage2_loss(img_a, img_a, img_b).intensity.item(),
                stage2_loss(img_b, img_a, img_b).intensity.item()))
        f_u8 = metrics.quantize_u8(fused)
        a_u8 = metrics.quantize_u8(pair.a)
        b_u8 = metrics.quantize_u8(pair.b)
        fused_q.append(metrics.metric_qabf(f_u8, a_u8, b_u8))
        base_q.append(metrics.metric_qabf(a_u8, a_u8, b_u8))
    assert np.mean(fused_int) <= 0.5 * np.mean(base_int), \
        "intensity %.4f vs single %.4f" % (np.mean(fused_int),
                                           np.mean(base_int))
    assert np.mean(fused_q) > np.mean(base_q), \
        "qabf %.4f vs %.4f" % (np.mean(fused_q), np.mean(base_q))
    assert toy_run["seconds"] < 1800.0, \
        "toy run took %.1fs" % toy_run["seconds"]


def test_branches_do_not_collapse_after_stage1(toy_run):
    """Channelwise correlation between the two branch outputs stays < 0.99."""
    ckpt = load_checkpoint(os.path.join(toy_run["out_dir"],
                                        "checkpoint_stage1.tmam"))
    pair = toy_run["pairs"][0]
    with no_grad():
        trans, mamba = encode(image_to_tensor(pair.a), ckpt.model.shallow,
                              ckpt.model.encoder)
    t = trans.data.reshape(trans.shape[0], -1)
    m = mamba.data.reshape(mamba.shape[0], -1)
    corrs = []
    for ch in range(t.shape[0]):
        if t[ch].std() > 1e-12 and m[ch].std() > 1e-12:
            corrs.append(abs(np.corrcoef(t[ch], m[ch])[0, 1]))
    assert corrs and float(np.mean(corrs)) < 0.99


def test_stage1_model_fuses_identical_pair_to_itself(toy_run):
    """Restoration-mode sanity: fuse(m, (x, x)) after stage I stays close."""
    ckpt = load_checkpoint(os.path.join(toy_run["out_dir"],
                                        "checkpoint_stage1.tmam"))
    pair = toy_run["pairs"][0]
    from dualfuse.data import ImagePair
    same = ImagePair("same", pair.a, pair.a.copy())
    fused = fuse_pair_arrays(same, ckpt.model, ckpt.config,
                             fusion_trained=ckpt.fusion_trained)
    assert np.abs(fused - pair.a).mean() < 0.05


# ---------------------------------------------------------------------------
# 7. metric oracles
# ---------------------------------------------------------------------------

@criterion(7, "closed-form metric cases, self-fusion quality, MI bound")
def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(11)
    constant = np.full((16, 16), 42, dtype=np.uint8)
    assert metrics.metric_en(constant) == 0.0
    assert metrics.metric_sd(constant) == 0.0
    assert metrics.metric_sf(constant) == 0.0
    half = np.zeros((16, 16), dtype=np.uint8)
    half[:8] = 255
    assert abs(metrics.metric_en(half) - 1.0) < 1e-12
    assert abs(metrics.metric_sd(half) - 127.5) < 1e-12
    checker = np.zeros((8, 8), dtype=np.uint8)
    checker[::2, 1::2] = 255
    checker[1::2, ::2] = 255
    assert abs(metrics.metric_sf(checker) - 255.0 * np.sqrt(2.0)) < 1e-12
    img = rng.integers(0, 256, (32, 32)).astype(np.uint8)
    assert abs(metrics.metric_mi(img, img, img)
               - 2.0 * metrics.metric_en(img)) < 1e-9
    # qabf self-fusion on a natural-statistics stand-in
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    blob = np.exp(-((yy - 20) ** 2 + (xx - 30) ** 2) / 200.0) \
        + 0.6 * np.exp(-((yy - 45) ** 2 + (xx - 15) ** 2) / 80.0)
    natural = metrics.quantize_u8(blob / blob.max())
    assert metrics.metric_qabf(natural, natural, natural) >= 0.95
    # MI bounded by marginal entropies under fuzzing
    for _ in range(200):
        f = rng.integers(0, 256, (10, 10)).astype(np.uint8)
        a = rng.integers(0, 256, (10, 10)).astype(np.uint8)
        assert metrics._mi_pair(f, a) <= \
            min(metrics.metric_en(f), metrics.metric_en(a)) + 1e-9


# ---------------------------------------------------------------------------
# 8. reproducibility
# ---------------------------------------------------------------------------

@criterion(8, "seed-fixed runs byte-identical; checkpoint round trip exact")
def test_criterion_8_reproducibility(tmp_path):
    pairs = make_toy_pairs(4, 24, seed=9)
    logs = []
    last = None
    for run in range(2):
        cfg = RunConfig(channels=4, crop=16, batch=2, epochs_stage1=2,
                        epochs_stage2=2, lr=1e-3, seed=13,
                        out_dir=str(tmp_path / ("run%d" % run)))
        last = train(cfg, pairs)
        with open(os.path.join(cfg.out_dir, "loss_log.csv"), "rb") as fh:
            logs.append(fh.read())
    assert logs[0] == logs[1]
    direct = fuse_pair_arrays(pairs[0], last.model, last.config)
    loaded = load_checkpoint(last.checkpoint_path)
    reloaded = fuse_pair_arrays(pairs[0], loaded.model, loaded.config,
                                fusion_trained=loaded.fusion_trained)
    assert direct.tobytes() == reloaded.tobytes()
