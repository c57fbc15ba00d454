"""Command-line interface.

Subcommands: ``train`` (two-stage run from a config file), ``fuse`` (one
pair through a checkpoint), ``eval`` (metric table over a pair directory),
``gradcheck`` (the finite-difference suite) and ``bench`` (linear-complexity
measurements).
"""

from __future__ import annotations

import argparse
import resource
import sys

import numpy as np

from . import complexity, metrics, parallel
from .checkpoint import load_checkpoint
from .config import load_config
from .data import load_dataset, load_pair, save_gray, write_png, ycbcr_to_rgb
from .model import fuse_pair_arrays
from .train import train


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.data:
        cfg.data_dir = args.data
    if args.out:
        cfg.out_dir = args.out
    dataset = load_dataset(cfg.data_dir)
    result = train(cfg, dataset, out_dir=cfg.out_dir)
    final = result.log_rows[-1] if result.log_rows else None
    print("trained %d + %d steps; checkpoint at %s"
          % (result.stage1_steps, result.stage2_steps, result.checkpoint_path))
    if final:
        print("final loss: %s" % final[-1])
    print("peak resident memory: %.1f MB"
          % _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    # the helper ran modality b's half of every step, which this process's
    # figure does not cover
    helper = parallel.helper_peak_rss()
    print("helper peak resident memory: %s"
          % ("%.1f MB" % _mb(helper) if helper else "none (no helper ran)"))
    return 0


def _mb(peak: int) -> float:
    """A peak resident set (``ru_maxrss``: KiB on Linux, bytes on macOS) in
    MB."""
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _cmd_fuse(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    pair = load_pair(args.a, args.b)
    fused = fuse_pair_arrays(pair, ckpt.model, ckpt.config,
                             fusion_trained=ckpt.fusion_trained)
    fused_u8 = metrics.quantize_u8(fused)
    if pair.b_chroma is not None and args.out.lower().endswith(".png"):
        rgb = ycbcr_to_rgb(fused_u8.astype(np.float64), pair.b_chroma[0],
                           pair.b_chroma[1])
        write_png(args.out, rgb)
    else:
        save_gray(args.out, fused_u8)
    print("wrote %s" % args.out)
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.dir)
    reports = []
    for pair in dataset:
        fused = fuse_pair_arrays(pair, ckpt.model, ckpt.config,
                                 fusion_trained=ckpt.fusion_trained)
        reports.append(metrics.evaluate_image(
            pair.pair_id, metrics.quantize_u8(fused),
            metrics.quantize_u8(pair.a), metrics.quantize_u8(pair.b)))
    reports.append(metrics.mean_report(reports))
    lines = [metrics.CSV_HEADER] + [r.csv_row() for r in reports]
    text = "\r\n".join(lines) + "\r\n"
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import REL_TOL, run_suite
    results = run_suite(cases_per_op=args.cases)
    worst = max(err for _, err, _ in results)
    failed = [name for name, err, _ in results if err >= REL_TOL]
    print("%d ops checked, worst relative error %.3e" % (len(results), worst))
    if failed:
        print("FAILED: %s" % ", ".join(failed))
        return 1
    return 0


def _cmd_bench(args) -> int:
    sizes = [64, 256, 1024]
    for name, measure in (
            ("channel_attention", complexity.measure_channel_attention_flops),
            ("selective_scan", complexity.measure_selective_scan_flops)):
        report = complexity.linearity_report(sizes, measure(sizes))
        print("%s: flops %s" % (name, report["flops"]))
        print("  linear fit r^2 = %.9f, quadratic share = %.3e"
              % (report["r_squared"], report["quadratic_share"]))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualfuse",
        description="dual-branch image fusion: train, fuse, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="two-stage training run")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--data", help="override data_dir from the config")
    p_train.add_argument("--out", help="override out_dir from the config")
    p_train.set_defaults(func=_cmd_train)

    p_fuse = sub.add_parser("fuse", help="fuse one image pair")
    p_fuse.add_argument("--ckpt", required=True)
    p_fuse.add_argument("--a", required=True, help="infrared-like input")
    p_fuse.add_argument("--b", required=True, help="visible-like input")
    p_fuse.add_argument("--out", required=True)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_eval = sub.add_parser("eval", help="metric table over a pair directory")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--dir", required=True)
    p_eval.add_argument("--out", help="CSV path (stdout when omitted)")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference gradient suite")
    p_grad.add_argument("--cases", type=_positive_int, default=20)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_bench = sub.add_parser("bench", help="linear-complexity measurements")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
