"""Selective scan: recurrence oracle, cross-scan exactness, block semantics."""

import math

import numpy as np
import pytest

from dualfuse import autodiff as ad
from dualfuse import complexity, gradcheck, params, ssm
from dualfuse.autodiff import ContractError, DimensionError, Tensor

from conftest import as_avx2_host, assert_close


def make_scan(channels=3, seed=0):
    return ssm.make_scan_params(np.random.default_rng(seed), channels)


def scan_oracle(x, p):
    """Literal step-by-step recurrence with scalar loops, projections included."""
    length, c = x.shape
    n = p.a_log.shape[1]
    a = -np.exp(p.a_log.data)
    h = np.zeros((c, n))
    y = np.zeros((length, c))
    for t in range(length):
        xt = x[t]
        delta = np.empty(c)
        for ci in range(c):
            raw = p.delta_bias.data[ci]
            for cj in range(c):
                raw += xt[cj] * p.delta_w.data[cj, ci]
            delta[ci] = math.log1p(math.exp(raw))          # softplus
        b = np.zeros(n)
        cvec = np.zeros(n)
        for nn in range(n):
            for cj in range(c):
                b[nn] += xt[cj] * p.b_w.data[cj, nn]
                cvec[nn] += xt[cj] * p.c_w.data[cj, nn]
        for ci in range(c):
            for nn in range(n):
                h[ci, nn] = (math.exp(delta[ci] * a[ci, nn]) * h[ci, nn]
                             + delta[ci] * xt[ci] * b[nn])
        for ci in range(c):
            acc = 0.0
            for nn in range(n):
                acc += h[ci, nn] * cvec[nn]
            y[t, ci] = acc + p.skip.data[ci] * xt[ci]
    return y


# ---------------------------------------------------------------------------
# selective_scan
# ---------------------------------------------------------------------------

def test_single_token_has_no_history_term(rng):
    p = make_scan(channels=2)
    x = rng.uniform(-1, 1, (1, 2))
    got = ssm.selective_scan(Tensor(x), p).data
    # closed form: y1 = <delta1*B1*x1, C1> + D*x1
    delta = np.log1p(np.exp(x[0] @ p.delta_w.data + p.delta_bias.data))
    b = x[0] @ p.b_w.data
    cvec = x[0] @ p.c_w.data
    expect = ((delta * x[0])[:, None] * b[None, :]) @ cvec + p.skip.data * x[0]
    assert_close(got[0], expect, tol=1e-12)


def test_zero_input_zero_bias_gives_zero_output():
    p = make_scan(channels=3)
    p.delta_bias.data[:] = 0.0
    out = ssm.selective_scan(Tensor(np.zeros((6, 3))), p).data
    assert not out.any()


def test_scan_matches_literal_recurrence_oracle(rng):
    p = make_scan(channels=3, seed=7)
    x = rng.uniform(-1, 1, (5, 3))
    got = ssm.selective_scan(Tensor(x), p).data
    assert_close(got, scan_oracle(x, p), tol=1e-10)


@pytest.mark.parametrize("length", [36, 49, 97, 98, 120, 1024])
def test_scan_matches_oracle_for_every_chunk_shape(length, rng):
    # square (36, 49), prime (97: chunk length 1), 2 x prime (98), a
    # non-square composite (120) and a long sequence (1024)
    p = make_scan(channels=3, seed=7)
    x = rng.uniform(-1, 1, (length, 3))
    got = ssm.selective_scan(Tensor(x), p).data
    assert_close(got, scan_oracle(x, p), tol=1e-10)


def scan_core_adjoint_oracle(u, delta, b, cm, a, d, g):
    """Literal token-order adjoint of selective_scan_core with scalar loops.

    Runs the forward recurrence, then gh_t = g_t c_t + decay_{t+1} gh_{t+1}
    from the last token to the first, and returns the gradients of
    sum(g * y) w.r.t. (u, delta, b, c, a, d).
    """
    length, c = u.shape
    n = a.shape[1]
    hs = np.zeros((length + 1, c, n))            # hs[t + 1] = h_t, hs[0] = 0
    for t in range(length):
        for ci in range(c):
            for nn in range(n):
                hs[t + 1, ci, nn] = (math.exp(delta[t, ci] * a[ci, nn]) * hs[t, ci, nn]
                                     + delta[t, ci] * u[t, ci] * b[t, nn])
    gu, gdelta = np.zeros((length, c)), np.zeros((length, c))
    gb, gc = np.zeros((length, n)), np.zeros((length, n))
    ga, gd = np.zeros((c, n)), np.zeros(c)
    gh = np.zeros((c, n))
    for t in reversed(range(length)):
        for ci in range(c):
            gu[t, ci] += g[t, ci] * d[ci]
            gd[ci] += g[t, ci] * u[t, ci]
            for nn in range(n):
                if t + 1 < length:
                    gh[ci, nn] *= math.exp(delta[t + 1, ci] * a[ci, nn])
                gh[ci, nn] += g[t, ci] * cm[t, nn]
                gc[t, nn] += g[t, ci] * hs[t + 1, ci, nn]
                gu[t, ci] += gh[ci, nn] * delta[t, ci] * b[t, nn]
                gb[t, nn] += gh[ci, nn] * delta[t, ci] * u[t, ci]
                decayed = math.exp(delta[t, ci] * a[ci, nn]) * hs[t, ci, nn]
                gdelta[t, ci] += gh[ci, nn] * (u[t, ci] * b[t, nn] + a[ci, nn] * decayed)
                ga[ci, nn] += gh[ci, nn] * delta[t, ci] * decayed
    return gu, gdelta, gb, gc, ga, gd


@pytest.mark.parametrize("length", [36, 49, 97, 98, 120, 1024])
def test_scan_core_gradients_match_literal_adjoint(length, rng):
    # the chunked adjoint, at the chunk shapes of the forward oracle test
    c, n = 3, 4
    arrays = [rng.uniform(-1, 1, (length, c)), rng.uniform(0.05, 0.8, (length, c)),
              rng.uniform(-1, 1, (length, n)), rng.uniform(-1, 1, (length, n)),
              rng.uniform(-1.5, -0.2, (c, n)), rng.uniform(-1, 1, c)]
    g = rng.uniform(-1, 1, (length, c))
    inputs = [ad.parameter(x.copy()) for x in arrays]
    (ad.selective_scan_core(*inputs) * Tensor(g)).sum().backward()
    for got, expect in zip(inputs, scan_core_adjoint_oracle(*arrays, g)):
        assert_close(got.grad, expect, tol=1e-10)


def test_byte_pin_failures_name_the_host_class():
    # OpenBLAS's kernel and numpy's dispatch targets, picked from the CPU at
    # load time, move the pinned bytes' last bits; a child process emulates
    # an AVX2-only host, and the failure message names it
    build = as_avx2_host("import conftest; print(conftest.numpy_build())")
    assert "Haswell" in build and "X86_V4" not in build, build


def test_scan_core_keeps_a_nan_in_its_channel(rng):
    # the decay and drive products are per channel: a NaN in one channel of
    # delta must not reach another channel's output through 0 * nan
    length, c, n = 36, 4, 3
    delta = rng.uniform(0.05, 0.8, (length, c))
    delta[5, 2] = np.nan
    a = rng.uniform(-1.5, -0.2, (c, n))
    y = ad.selective_scan_core(Tensor(rng.uniform(-1, 1, (length, c))), Tensor(delta),
                               Tensor(rng.uniform(-1, 1, (length, n))),
                               Tensor(rng.uniform(-1, 1, (length, n))), Tensor(a),
                               Tensor(np.zeros(c))).data
    assert np.isnan(y[5:, 2]).all()
    assert np.isfinite(np.delete(y, 2, axis=1)).all()


def test_scan_rejects_empty_and_mismatched():
    p = make_scan(channels=3)
    with pytest.raises(ContractError):
        ssm.selective_scan(Tensor(np.zeros((0, 3))), p)
    for shape in ((4, 2), (4, 3, 1), (3,)):     # wrong C, not (L, C)
        with pytest.raises(DimensionError):
            ssm.selective_scan(Tensor(np.zeros(shape)), p)


def test_positional_sensitivity():
    # identical tokens at positions 0 and 2 with a distinct token between:
    # the scan state differs when each is reached, so outputs must differ
    p = make_scan(channels=2, seed=3)
    token = np.array([0.5, -0.3])
    other = np.array([-0.8, 0.9])
    x = np.stack([token, other, token])
    y = ssm.selective_scan(Tensor(x), p).data
    assert np.max(np.abs(y[0] - y[2])) > 1e-9


def test_decay_of_first_token_influence():
    # constant input, frozen delta/B/C: d y_t / d x_1 shrinks as t grows
    length, c, n = 6, 2, 3
    rng = np.random.default_rng(11)
    delta = np.full((length, c), 0.4)
    b = np.tile(rng.uniform(-1, 1, (1, n)), (length, 1))
    cm = np.tile(rng.uniform(-1, 1, (1, n)), (length, 1))
    a = rng.uniform(-1.5, -0.5, (c, n))
    d = np.zeros(c)
    x = np.full((length, c), 0.7)
    influences = []
    for t in range(length):
        u = ad.parameter(x.copy())
        y = ad.selective_scan_core(u, Tensor(delta), Tensor(b), Tensor(cm),
                                   Tensor(a), Tensor(d))
        y[t].sum().backward()
        influences.append(np.abs(u.grad[0]).sum())
    for earlier, later in zip(influences, influences[1:]):
        assert later <= earlier + 1e-12


# ---------------------------------------------------------------------------
# cross_scan_2d
# ---------------------------------------------------------------------------

def cross_scan_oracle(x, p):
    """Materialize all four traversal orders explicitly, scan, fold, sum."""
    c, h, w = x.shape
    row = [(i, j) for i in range(h) for j in range(w)]
    col = [(i, j) for j in range(w) for i in range(h)]
    orders = [row, list(reversed(row)), col, list(reversed(col))]
    total = None
    for order in orders:
        seq = np.array([x[:, i, j] for (i, j) in order])
        y = ssm.selective_scan(Tensor(seq), p).data
        folded = np.zeros_like(x)
        for t, (i, j) in enumerate(order):
            folded[:, i, j] = y[t]
        total = folded if total is None else total + folded
    return total


def test_each_direction_is_a_bijective_reordering(rng):
    x = rng.uniform(-1, 1, (3, 4, 5))
    orders = []
    for axes, backwards in ssm.SCAN_ORDERS:
        grid = x.transpose(axes)
        tokens = grid.reshape(-1, 3)
        assert tokens.shape == (20, 3)
        orders.append((tokens[::-1] if backwards else tokens).tobytes())
        back = tokens.reshape(grid.shape).transpose(np.argsort(axes))
        assert back.tobytes() == x.tobytes()
    assert len(set(orders)) == len(ssm.SCAN_ORDERS) == 4


def test_cross_scan_records_one_transpose_in_and_out_per_order(rng,
                                                                monkeypatch):
    ops = []
    node_init = ad.Node.__init__

    def recording_init(self, *args):
        node_init(self, *args)
        ops.append(self.op)
    monkeypatch.setattr(ad.Node, "__init__", recording_init)
    x = ad.parameter(rng.uniform(-1, 1, (3, 4, 5)))
    ssm.cross_scan_2d(x, make_scan(channels=3))
    counts = {op: ops.count(op) for op in
              ("transpose", "reshape", "flip", "matmul", "selective_scan_core")}
    assert counts == {"transpose": 8, "reshape": 8, "flip": 4, "matmul": 12,
                      "selective_scan_core": 4}


def test_cross_scan_degenerate_grid(rng):
    p = make_scan(channels=3)
    x = rng.uniform(-1, 1, (3, 1, 1))
    got = ssm.cross_scan_2d(Tensor(x), p).data
    single = ssm.selective_scan(Tensor(x.reshape(1, 3)), p).data
    assert_close(got[:, 0, 0], 4.0 * single[0], tol=1e-12)


def test_cross_scan_transpose_symmetry(rng):
    p = make_scan(channels=2, seed=5)
    x = rng.uniform(-1, 1, (2, 3, 5))
    a = ssm.cross_scan_2d(Tensor(x.transpose(0, 2, 1).copy()), p).data
    b = ssm.cross_scan_2d(Tensor(x), p).data.transpose(0, 2, 1)
    assert_close(a, b, tol=1e-12)


@pytest.mark.parametrize("h,w", [(2, 2), (3, 4), (4, 4), (8, 8)])
def test_cross_scan_matches_explicit_reordering_oracle(h, w, rng):
    p = make_scan(channels=3, seed=9)
    x = rng.uniform(-1, 1, (3, h, w))
    got = ssm.cross_scan_2d(Tensor(x), p).data
    ref = cross_scan_oracle(x, p)
    assert got.tobytes() == ref.tobytes()    # exact: same arithmetic order


# ---------------------------------------------------------------------------
# ssm_block
# ---------------------------------------------------------------------------

def test_block_identity_with_zero_output_projection(rng):
    p = ssm.make_ssm_block_params(np.random.default_rng(2), 4)
    p.out_proj.data[:] = 0.0
    x = rng.uniform(-1, 1, (4, 5, 5))
    out = ssm.ssm_block(Tensor(x), p)
    assert out.data.tobytes() == x.tobytes()


def test_block_preserves_shape(rng):
    p = ssm.make_ssm_block_params(np.random.default_rng(2), 8)
    assert ssm.ssm_block(Tensor(rng.uniform(-1, 1, (8, 16, 16))), p).shape \
        == (8, 16, 16)


def test_block_parameter_gradients(rng):
    p = ssm.make_ssm_block_params(np.random.default_rng(4), 2)
    x = rng.uniform(-1, 1, (2, 4, 4))
    probe = rng.uniform(-1, 1, (2, 4, 4))

    def loss():
        return (ssm.ssm_block(Tensor(x), p) * Tensor(probe)).sum()

    worst = gradcheck.check_model_grads(loss, params.named_parameters(p),
                                        sample=5, rng=np.random.default_rng(1))
    assert worst < gradcheck.REL_TOL, worst


def test_conv_substitute_block_runs(rng):
    p = ssm.make_ssm_block_params(np.random.default_rng(6), 4, as_conv=True)
    out = ssm.ssm_block(Tensor(rng.uniform(-1, 1, (4, 6, 6))), p)
    assert out.shape == (4, 6, 6)


def test_block_parameter_paths_pinned():
    # checkpoints store parameters by these paths, in this order
    shell = ["norm_gain", "norm_bias", "in_proj", "gate_proj", "conv_depth"]
    conv = ssm.make_ssm_block_params(np.random.default_rng(6), 4, as_conv=True)
    assert [n for n, _ in params.named_parameters(conv)] == \
        shell + ["conv_mix", "out_proj"]
    scan = ssm.make_ssm_block_params(np.random.default_rng(6), 4)
    assert [n for n, _ in params.named_parameters(scan)] == shell + [
        "scan.a_log", "scan.delta_w", "scan.delta_bias", "scan.b_w",
        "scan.c_w", "scan.skip", "out_proj"]


# ---------------------------------------------------------------------------
# linear complexity in sequence length
# ---------------------------------------------------------------------------

def test_selective_scan_flops_scale_linearly():
    lengths = [64, 256, 1024]
    flops = complexity.measure_selective_scan_flops(lengths)
    report = complexity.linearity_report(lengths, flops)
    assert report["r_squared"] > 0.999
    assert report["quadratic_share"] < 0.01
