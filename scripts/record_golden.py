#!/usr/bin/env python3
"""Record the byte-identity manifest ``tests/golden.json``.

The manifest holds sha256 digests of what the model computes, taken on a
tree whose bytes are known good. ``tests/test_golden.py`` recomputes them,
so a change that claims to leave every byte alone is checked against the
tree before it:

- ``fuse/<build>/<fusion>``: ``fuse_pair_arrays`` of one toy pair for each
  of the seven ``BUILDS`` in ``tests/test_model.py`` (the default config
  and six ablations of it), with the fusion head trained and untrained;
- ``init/<build>``: each of those builds' parameter paths and initial
  bytes, in tree order;
- ``train/<run>/...``: a 1 + 1-epoch run on two toy pairs with the default
  config, ``mamba_as_conv`` and ``interaction = false``: its loss log and,
  for the stage-one and the final checkpoint, every ``param/``, ``adam_m/``
  and ``adam_v/`` record (one digest over each kind, in file order);
- ``eval/default``: the ``dualfuse eval`` CSV through the default run's
  final checkpoint, on two 48x48 toy pairs (VIF needs 41x41 or more);
- ``gradcheck``: each case's name and the ``repr`` of its worst error
  under ``run_suite(1)`` (the CLI text prints seconds, so it is not used);
- ``bench``: the stdout of ``dualfuse bench``;
- ``scan_core/<L>/<needs>``: ``selective_scan_core``'s output and each
  input's gradient (``-`` for one that needs none) at (C, N) = (16, 8) and
  L = 1024 (chunk length 32), 7 (a prime) and 1, with every input, only
  ``u`` or only ``a`` needing a gradient.

OpenBLAS and numpy pick their kernels from the CPU when numpy loads, and
the last bits of these digests move with them. So the manifest holds one
record per host class, keyed by ``conftest.numpy_build()``: this host's,
and the AVX2 class's, recorded in a child process under
``conftest.AVX2_HOST``. A class this host cannot emulate is named and
skipped, and the manifest keeps only the classes this run recorded.

    PYTHONPATH=src python scripts/record_golden.py [--out tests/golden.json]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tests")
sys.path.insert(0, TESTS)

from conftest import AVX2_HOST, as_avx2_host, numpy_build  # noqa: E402
from test_model import BUILDS, cfg_for  # noqa: E402

from dualfuse import autodiff as ad  # noqa: E402
from dualfuse import cli, gradcheck  # noqa: E402
from dualfuse.checkpoint import load_checkpoint  # noqa: E402
from dualfuse.config import RunConfig  # noqa: E402
from dualfuse.model import build_model, fuse_pair_arrays  # noqa: E402
from dualfuse.params import named_parameters  # noqa: E402
from dualfuse.toydata import make_toy_pairs, write_toy_dataset  # noqa: E402
from dualfuse.train import train  # noqa: E402

RUNS = {
    "default": dict(),
    "mamba_as_conv": dict(mamba_as_conv=True),
    "no_interaction": dict(interaction=False),
}


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _records_sha(records) -> str:
    return _sha(*(part for name, arr in records
                  for part in (name.encode(), arr.tobytes())))


def _checkpoint_digests(path: str) -> dict:
    ckpt = load_checkpoint(path)
    kinds = {"param": [(n, t.data) for n, t in named_parameters(ckpt.model)],
             "adam_m": sorted(ckpt.adam.m.items()),
             "adam_v": sorted(ckpt.adam.v.items())}
    return {kind: _records_sha(records) for kind, records in kinds.items()}


def _cli_stdout(*argv: str) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        if cli.main(list(argv)) != 0:
            raise RuntimeError("dualfuse %s failed" % " ".join(argv))
    return text.getvalue().encode("utf-8")


def _scan_core_sha(length: int, needs: str) -> str:
    rng = np.random.default_rng(length)
    c, n = 16, 8
    arrays = dict(u=rng.uniform(-1, 1, (length, c)),
                  delta=rng.uniform(0.05, 0.8, (length, c)),
                  b=rng.uniform(-1, 1, (length, n)),
                  c=rng.uniform(-1, 1, (length, n)),
                  a=rng.uniform(-1.5, -0.2, (c, n)), d=rng.uniform(-1, 1, c))
    g = rng.uniform(-1, 1, (length, c))
    inputs = [ad.Tensor(x, requires_grad=needs in ("all", name))
              for name, x in arrays.items()]
    y = ad.selective_scan_core(*inputs)
    (y * ad.Tensor(g)).sum().backward()
    return _sha(y.data.tobytes(), *(b"-" if t.grad is None else t.grad.tobytes()
                                    for t in inputs))


def digests() -> dict:
    """Every digest of the manifest, by name."""
    out = {}
    pair = make_toy_pairs(1, 16, seed=0)[0]
    for name, extra in sorted(BUILDS.items()):
        cfg = cfg_for("full", **extra)
        model = build_model(cfg)
        out["init/" + name] = _records_sha(
            (path, t.data) for path, t in named_parameters(model))
        for trained in (True, False):
            fused = fuse_pair_arrays(pair, model, cfg, fusion_trained=trained)
            out["fuse/%s/%s" % (name, "trained" if trained else "untrained")] = \
                _sha(fused.tobytes())
    pairs = make_toy_pairs(2, 20, seed=7)
    for run, extra in sorted(RUNS.items()):
        with tempfile.TemporaryDirectory(prefix="golden-") as out_dir:
            cfg = RunConfig(channels=4, crop=16, batch=1, epochs_stage1=1,
                            epochs_stage2=1, lr=2e-3, seed=0, out_dir=out_dir,
                            **extra)
            train(cfg, pairs)
            with open(os.path.join(out_dir, "loss_log.csv"), "rb") as fh:
                out["train/%s/loss_log" % run] = _sha(fh.read())
            for ckpt in ("checkpoint_stage1", "checkpoint"):
                for kind, value in _checkpoint_digests(
                        os.path.join(out_dir, ckpt + ".tmam")).items():
                    out["train/%s/%s/%s" % (run, ckpt, kind)] = value
            if run == "default":
                eval_dir = os.path.join(out_dir, "eval")
                write_toy_dataset(eval_dir, 2, 48, seed=3)
                out["eval/default"] = _sha(_cli_stdout(
                    "eval", "--ckpt", os.path.join(out_dir, "checkpoint.tmam"),
                    "--dir", eval_dir))
    out["gradcheck"] = _sha(*(("%s %r\n" % (name, worst)).encode()
                              for name, worst, _ in gradcheck.run_suite(
                                  1, verbose=False)))
    out["bench"] = _sha(_cli_stdout("bench"))
    for length in (1024, 7, 1):
        for needs in ("all", "u", "a"):
            out["scan_core/%d/%s" % (length, needs)] = _scan_core_sha(length, needs)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(TESTS, "golden.json"))
    args = parser.parse_args()
    host, start = numpy_build(), time.monotonic()
    manifest = {host: digests()}
    print("%s: %.1f s" % (host, time.monotonic() - start))
    start = time.monotonic()
    try:
        build, record = json.loads(as_avx2_host(
            "import json, conftest, record_golden; print(json.dumps("
            "[conftest.numpy_build(), record_golden.digests()]))"))
    except subprocess.CalledProcessError as exc:
        build, record = "an error: " + exc.stderr.strip(), None
    if record is None or build in manifest:
        print("AVX2 class skipped: under %s the child gave %s" % (AVX2_HOST, build))
    else:
        manifest[build] = record
        print("%s: %.1f s" % (build, time.monotonic() - start))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d classes of %d digests -> %s" % (len(manifest), len(manifest[host]),
                                              args.out))


if __name__ == "__main__":
    main()
