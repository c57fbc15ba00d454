"""Training loop semantics on deliberately tiny runs."""

import os
import subprocess
import sys

import numpy as np
import pytest

from dualfuse import params
from dualfuse.autodiff import NonFiniteError
from dualfuse.checkpoint import load_checkpoint
from dualfuse.config import RunConfig
from dualfuse.model import fuse_pair_arrays
from dualfuse.toydata import make_toy_pairs, write_toy_dataset
from dualfuse.train import train, write_loss_log


def tiny_config(tmp_path, **kw):
    base = dict(channels=4, crop=16, batch=2, epochs_stage1=2, epochs_stage2=1,
                lr=1e-3, seed=5, out_dir=str(tmp_path / "out"))
    base.update(kw)
    return RunConfig(**base)


def tiny_pairs():
    return make_toy_pairs(4, 16, seed=2)


def test_short_run_emits_logs_and_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path)
    result = train(cfg, tiny_pairs())
    assert result.stage1_steps == 2 * 2       # 4 pairs / batch 2, 2 epochs
    assert result.stage2_steps == 2
    assert os.path.exists(result.checkpoint_path)
    assert os.path.exists(os.path.join(cfg.out_dir, "checkpoint_stage1.tmam"))
    log_path = os.path.join(cfg.out_dir, "loss_log.csv")
    with open(log_path, "rb") as fh:
        text = fh.read()
    assert text.startswith(b"stage,epoch,step,lr,intensity,ssim_or_grad,total")
    assert text.count(b"\r\n") == 1 + 6        # RFC-4180 line endings
    loaded = load_checkpoint(result.checkpoint_path)
    assert loaded.stage1_steps == 4 and loaded.stage2_steps == 2
    assert loaded.fusion_trained


def test_seed_fixed_runs_are_byte_identical(tmp_path):
    logs = []
    for run in range(2):
        cfg = tiny_config(tmp_path, out_dir=str(tmp_path / ("o%d" % run)))
        result = train(cfg, tiny_pairs())
        path = os.path.join(cfg.out_dir, "loss_log.csv")
        with open(path, "rb") as fh:
            logs.append(fh.read())
    assert logs[0] == logs[1]


def test_different_seed_changes_log(tmp_path):
    cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
    cfg_b = tiny_config(tmp_path, seed=6, out_dir=str(tmp_path / "b"))
    log_a = train(cfg_a, tiny_pairs()).log_rows
    log_b = train(cfg_b, tiny_pairs()).log_rows
    assert log_a != log_b


def test_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at 2 OpenBLAS threads a stage-II backward product (the weighting
    # head's dilated conv, 8 to 24 channels) rounds differently unless the
    # engine pins BLAS to one thread at import
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = """
import sys
from dualfuse.config import RunConfig
from dualfuse.toydata import make_toy_pairs
from dualfuse.train import train
cfg = RunConfig(channels=8, crop=32, batch=1, epochs_stage1=1,
                epochs_stage2=2, lr=2e-3, seed=0, out_dir=sys.argv[1])
train(cfg, make_toy_pairs(2, 32, seed=0))
"""
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / ("threads%s" % threads)
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", code, str(out_dir)], env=env,
                       check=True, timeout=300)
        outputs.append([(out_dir / name).read_bytes()
                        for name in ("loss_log.csv", "checkpoint.tmam")])
    assert outputs[0][0] == outputs[1][0], "loss logs differ"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ"

def test_checkpoint_bytes_do_not_depend_on_run_dirs(tmp_path):
    blobs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run / "out"
        cfg = tiny_config(tmp_path, epochs_stage1=1, epochs_stage2=1,
                          data_dir=str(tmp_path / run / "data"),
                          out_dir=str(out_dir))
        train(cfg, tiny_pairs())
        blobs.append([(out_dir / name).read_bytes()
                      for name in ("checkpoint_stage1.tmam",
                                   "checkpoint.tmam")])
    assert blobs[0] == blobs[1]


def test_checkpoint_round_trip_preserves_fusion(tmp_path):
    cfg = tiny_config(tmp_path)
    result = train(cfg, tiny_pairs())
    pair = tiny_pairs()[0]
    direct = fuse_pair_arrays(pair, result.model, cfg)
    loaded = load_checkpoint(result.checkpoint_path)
    reloaded = fuse_pair_arrays(pair, loaded.model, loaded.config,
                                fusion_trained=loaded.fusion_trained)
    assert direct.tobytes() == reloaded.tobytes()


def test_nonfinite_input_aborts_with_op_name(tmp_path):
    cfg = tiny_config(tmp_path)
    pairs = tiny_pairs()
    pairs[0].a[0, 0] = np.inf     # first op touching it must be named
    with pytest.raises(NonFiniteError, match="conv2d"):
        train(cfg, pairs)


def test_loss_log_write_helper(tmp_path):
    path = str(tmp_path / "log.csv")
    write_loss_log(path, [["I", "0", "1", "0.001", "1.0", "0.5", "1.5"]])
    with open(path, "r", newline="", encoding="utf-8") as fh:
        lines = fh.read().split("\r\n")
    assert lines[0] == "stage,epoch,step,lr,intensity,ssim_or_grad,total"
    assert lines[1] == "I,0,1,0.001,1.0,0.5,1.5"


def test_toy_dataset_writer(tmp_path):
    from dualfuse.data import load_dataset
    out = str(tmp_path / "toy")
    files = write_toy_dataset(out, n_pairs=3, size=24, seed=1)
    assert len(files) == 6
    pairs = load_dataset(out)
    assert len(pairs) == 3
    assert pairs[0].a.shape == (24, 24)
    # disjoint bright structure: the pixelwise max outgrows either input
    for p in pairs:
        joint = np.maximum(p.a, p.b)
        assert joint.sum() > p.a.sum() + 1.0
        assert joint.sum() > p.b.sum() + 1.0