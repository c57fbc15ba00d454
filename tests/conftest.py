import csv
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

# the run criterion 6 and the stage-one checks of test_acceptance.py share:
# 200 + 200 steps on the 8-pair 32x32 synthetic set
TOY_CONFIG = dict(channels=8, crop=32, batch=1, epochs_stage1=25,
                  epochs_stage2=25, lr=2e-3, lr_decay=0.5, lr_decay_every=20,
                  seed=0)
TOY_PAIRS = dict(n_pairs=8, size=32, seed=7)


def train_toy(out_dir: str) -> None:
    """The toy run, in this process; its wall seconds go to a file beside
    the loss log. The session's child process runs this."""
    # dualfuse is imported in the functions that use it: an import error
    # at the top of conftest.py would fail every test module, not just the
    # ones that import the broken module
    from dualfuse.config import RunConfig
    from dualfuse.toydata import make_toy_pairs
    from dualfuse.train import train
    cfg = RunConfig(out_dir=out_dir, **TOY_CONFIG)
    pairs = make_toy_pairs(**TOY_PAIRS)
    start = time.monotonic()
    train(cfg, pairs)
    elapsed = time.monotonic() - start
    with open(os.path.join(out_dir, "seconds"), "w", encoding="utf-8") as fh:
        fh.write(repr(elapsed))


class ToyRun:
    """``train_toy`` in a child process, so the rest of the suite runs on
    the other core while it trains."""

    def __init__(self):
        self.out_dir = tempfile.mkdtemp(prefix="toy_run-")
        self.stderr = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "import conftest; conftest.train_toy(sys.argv[2])",
             os.path.dirname(os.path.abspath(__file__)), self.out_dir],
            stdout=subprocess.DEVNULL, stderr=self.stderr)

    def result(self) -> dict:
        """Wait for the child; return what training in process returned:
        config, pairs, a TrainResult from the loss log and final checkpoint
        (a checkpoint round trip is exact), the child's training seconds
        and the output directory."""
        from dualfuse.checkpoint import load_checkpoint
        from dualfuse.config import RunConfig
        from dualfuse.toydata import make_toy_pairs
        from dualfuse.train import TrainResult
        if self.proc.wait(timeout=1800) != 0:
            self.stderr.seek(0)
            pytest.fail("toy training child exited with %d:\n%s" % (
                self.proc.returncode, self.stderr.read().decode(errors="replace")),
                pytrace=False)
        path = os.path.join(self.out_dir, "checkpoint.tmam")
        ckpt = load_checkpoint(path)
        with open(os.path.join(self.out_dir, "loss_log.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(os.path.join(self.out_dir, "seconds"), encoding="utf-8") as fh:
            seconds = float(fh.read())
        cfg = RunConfig(out_dir=self.out_dir, **TOY_CONFIG)
        result = TrainResult(ckpt.model, cfg, rows, path, ckpt.stage1_steps,
                             ckpt.stage2_steps)
        return dict(cfg=cfg, pairs=make_toy_pairs(**TOY_PAIRS), result=result,
                    seconds=seconds, out_dir=self.out_dir)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()
        shutil.rmtree(self.out_dir, ignore_errors=True)


TOY_RUN = pytest.StashKey[ToyRun]()


@pytest.hookimpl(trylast=True)       # after -k and -m have deselected
def pytest_collection_modifyitems(config, items):
    # the tests that read the toy run go last, and the run starts now
    late = [item for item in items
            if "toy_run" in getattr(item, "fixturenames", ())]
    items[:] = [item for item in items if item not in late] + late
    if late and not config.option.collectonly:
        config.stash[TOY_RUN] = ToyRun()


def pytest_sessionfinish(session):
    run = session.config.stash.get(TOY_RUN, None)
    if run is not None:
        run.close()


def numpy_build() -> str:
    """numpy's version and the BLAS it was built with, for byte-pin
    failures: pinned digests hold for one numpy and BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):     # numpy before 1.26
        name = "unknown BLAS"
    return "numpy %s with %s" % (np.__version__, name)


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
