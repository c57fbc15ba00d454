#!/usr/bin/env python3
"""Record the byte-identity manifest ``tests/golden.json``.

The manifest holds sha256 digests of what the model computes, taken on a
tree whose bytes are known good. ``tests/test_golden.py`` recomputes them,
so a change that claims to leave every byte alone is checked against the
tree before it:

- ``fuse/<build>/<fusion>``: ``fuse_pair_arrays`` of one toy pair for each
  of the seven ``BUILDS`` in ``tests/test_model.py`` (the default config
  and six ablations of it), with the fusion head trained and untrained;
- ``train/<run>/...``: a 1 + 1-epoch run on two toy pairs with the default
  config, ``mamba_as_conv`` and ``interaction = false``: its loss log and,
  for the stage-one and the final checkpoint, every ``param/``, ``adam_m/``
  and ``adam_v/`` record (one digest over each kind, in file order);
- ``eval/default``: the ``dualfuse eval`` CSV through the default run's
  final checkpoint, on two 48x48 toy pairs (VIF needs 41x41 or more);
- ``gradcheck``: each case's name and the ``repr`` of its worst error
  under ``run_suite(1)`` (the CLI text prints seconds, so it is not used);
- ``bench``: the stdout of ``dualfuse bench``.

The digests hold for one numpy and BLAS, which the manifest names.

    PYTHONPATH=src python scripts/record_golden.py [--out tests/golden.json]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tests")
sys.path.insert(0, TESTS)

from conftest import numpy_build  # noqa: E402
from test_model import BUILDS, cfg_for  # noqa: E402

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


def _checkpoint_digests(path: str) -> dict:
    ckpt = load_checkpoint(path)
    kinds = {"param": [(n, t.data) for n, t in named_parameters(ckpt.model)],
             "adam_m": sorted(ckpt.adam.m.items()),
             "adam_v": sorted(ckpt.adam.v.items())}
    return {kind: _sha(*(part for name, arr in records
                         for part in (name.encode(), arr.tobytes())))
            for kind, records in kinds.items()}


def _cli_stdout(*argv: str) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        if cli.main(list(argv)) != 0:
            raise RuntimeError("dualfuse %s failed" % " ".join(argv))
    return text.getvalue().encode("utf-8")


def digests() -> dict:
    """Every digest of the manifest, by name."""
    out = {}
    pair = make_toy_pairs(1, 16, seed=0)[0]
    for name, extra in sorted(BUILDS.items()):
        cfg = cfg_for("full", **extra)
        model = build_model(cfg)
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
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(TESTS, "golden.json"))
    args = parser.parse_args()
    manifest = {"numpy": numpy_build(), "digests": digests()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d digests under %s -> %s" % (len(manifest["digests"]),
                                         manifest["numpy"], args.out))


if __name__ == "__main__":
    main()
