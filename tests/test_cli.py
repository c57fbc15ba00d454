"""End-to-end command-line flows on a miniature dataset."""

import contextlib
import io
import os
import re

import numpy as np
import pytest

from dualfuse import cli, data, metrics
from dualfuse.autodiff import ContractError
from dualfuse.gradcheck import run_suite
from dualfuse.toydata import write_toy_dataset

TINY_CONFIG = """
channels = 4
crop = 16
batch = 2
epochs_stage1 = 1
epochs_stage2 = 1
lr = 1e-3
seed = 3
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = str(root / "pairs")
    out_dir = str(root / "out")
    write_toy_dataset(data_dir, n_pairs=4, size=48, seed=4)
    cfg_path = str(root / "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(TINY_CONFIG)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["train", "--config", cfg_path, "--data", data_dir,
                       "--out", out_dir])
    assert rc == 0
    return dict(root=root, data_dir=data_dir, out_dir=out_dir,
                ckpt=os.path.join(out_dir, "checkpoint.tmam"),
                stdout=stdout.getvalue())


def test_train_artifacts(trained):
    assert os.path.exists(trained["ckpt"])
    assert os.path.exists(os.path.join(trained["out_dir"], "loss_log.csv"))


def test_train_summary_reports_steps_loss_and_peak_memory(trained):
    lines = trained["stdout"].splitlines()
    assert lines[0] == "trained 2 + 2 steps; checkpoint at %s" % trained["ckpt"]
    assert lines[1].startswith("final loss: ")
    peak = re.fullmatch(r"peak resident memory: (\d+\.\d) MB", lines[2])
    assert peak and float(peak.group(1)) > 0.0
    assert len(lines) == 3


def test_fuse_pgm_output(trained):
    out = str(trained["root"] / "fused.pgm")
    rc = cli.main(["fuse", "--ckpt", trained["ckpt"],
                   "--a", os.path.join(trained["data_dir"], "toy00_a.pgm"),
                   "--b", os.path.join(trained["data_dir"], "toy00_b.pgm"),
                   "--out", out])
    assert rc == 0
    img = data.read_pgm(out)
    assert img.shape == (48, 48)
    assert img.dtype == np.uint8


def test_fuse_color_visible_recombines(trained, rng):
    gray = rng.integers(0, 256, (48, 48)).astype(np.uint8)
    rgb = rng.integers(0, 256, (48, 48, 3)).astype(np.uint8)
    a_path = str(trained["root"] / "col_a.pgm")
    b_path = str(trained["root"] / "col_b.png")
    out = str(trained["root"] / "col_f.png")
    data.write_pgm(a_path, gray)
    data.write_png(b_path, rgb)
    rc = cli.main(["fuse", "--ckpt", trained["ckpt"], "--a", a_path,
                   "--b", b_path, "--out", out])
    assert rc == 0
    fused = data.read_png(out)
    assert fused.shape == (48, 48, 3)     # chroma recombined


def test_eval_csv(trained, capsys):
    rc = cli.main(["eval", "--ckpt", trained["ckpt"],
                   "--dir", trained["data_dir"]])
    assert rc == 0
    outp = capsys.readouterr().out
    lines = [ln for ln in outp.split("\r\n") if ln]
    assert lines[0] == metrics.CSV_HEADER
    assert len(lines) == 1 + 4 + 1         # header, 4 pairs, mean row
    assert lines[-1].startswith("mean,")
    mean_vals = np.array([float(v) for v in lines[-1].split(",")[1:]])
    rows = np.array([[float(v) for v in ln.split(",")[1:]]
                     for ln in lines[1:-1]])
    assert np.allclose(mean_vals, rows.mean(axis=0), atol=5.1e-5)  # 4dp round


def test_eval_to_file(trained):
    out = str(trained["root"] / "metrics.csv")
    rc = cli.main(["eval", "--ckpt", trained["ckpt"],
                   "--dir", trained["data_dir"], "--out", out])
    assert rc == 0
    with open(out, "rb") as fh:
        blob = fh.read()
    assert blob.startswith(b"image_id,en,sd,sf,mi,vif,qabf\r\n")


def test_gradcheck_command_tiny(capsys):
    rc = cli.main(["gradcheck", "--cases", "1"])
    assert rc == 0
    assert "worst relative error" in capsys.readouterr().out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_gradcheck_command_rejects_no_cases(cases, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--cases", cases])
    assert exc.value.code == 2
    assert "--cases" in capsys.readouterr().err
    with pytest.raises(ContractError, match="at least one case"):
        run_suite(cases_per_op=int(cases), verbose=False)


def test_bench_command(capsys):
    rc = cli.main(["bench"])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "channel_attention" in outp and "selective_scan" in outp
    assert "r^2" in outp
    # the counts perfbench's linearity report fits: an op added to or
    # dropped from either primitive changes them
    lines = outp.splitlines()
    assert "channel_attention: flops [4176, 16464, 65616]" in lines
    assert "selective_scan: flops [32064, 128064, 512064]" in lines
