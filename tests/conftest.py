import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def assert_close(actual, expected, tol=1e-12):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, (actual.shape, expected.shape)
    err = np.max(np.abs(actual - expected)) if actual.size else 0.0
    assert err <= tol, "max abs err %.3e > tol %.1e" % (err, tol)


def dense_attention_oracle(q, k, v, alpha):
    """Entrywise dense computation of scores, softmax rows and the output."""
    c, hw = k.shape
    scores = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            scores[i, j] = sum(k[i, t] * q[t, j] for t in range(hw)) / alpha
    a = np.zeros((c, c))
    for i in range(c):
        row = np.exp(scores[i] - scores[i].max())
        a[i] = row / row.sum()
    out = np.zeros((hw, c))
    for t in range(hw):
        for i in range(c):
            out[t, i] = sum(v[t, j] * a[i, j] for j in range(c))
    return out, a


def conv2d_oracle(x, w, stride, pad):
    """Direct six-loop sliding-window cross-correlation."""
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for co in range(c_out):
        for ci in range(c_in):
            for oy in range(h_out):
                for ox in range(w_out):
                    for ky in range(k):
                        for kx in range(k):
                            out[co, oy, ox] += (xp[ci, oy * stride + ky,
                                                   ox * stride + kx]
                                                * w[co, ci, ky, kx])
    return out


def conv2d_adjoint_oracle(x, w, g, pad, dilation=1):
    """Loop adjoint of a stride-1 cross-correlation with taps ``dilation``
    apart: each output's cotangent times each tap, added into the input and
    weight gradients. Returns (grad_x, grad_w)."""
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    _, h_out, w_out = g.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for co in range(c_out):
        for ci in range(c_in):
            for oy in range(h_out):
                for ox in range(w_out):
                    for ky in range(k):
                        for kx in range(k):
                            iy, ix = oy + dilation * ky, ox + dilation * kx
                            gxp[ci, iy, ix] += g[co, oy, ox] * w[co, ci, ky, kx]
                            gw[co, ci, ky, kx] += g[co, oy, ox] * xp[ci, iy, ix]
    return gxp[:, pad:pad + h, pad:pad + wd], gw
