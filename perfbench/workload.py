"""One benchmark workload in one fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} --out DIR --t0 CLOCK [--compare DIR]

``run.py`` starts this script once per measurement so that peak memory and
set-up time belong to a single workload. The modes:

- ``setup``: stop after the warm-up step or pair; only set-up time counts.
- ``run``: the untraced measurement, followed by the reference checks.
- ``trace``: the same steps or pairs with every hooked public function
  recorded as a span (see ``tracer.py``); its outputs must equal those of
  the ``run`` directory given by ``--compare``, byte for byte.

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process (the same monotonic clock on Linux), so set-up time includes the
interpreter start and every import. The result is written to
``DIR/result.json``.

``python3 perfbench/workload.py --write-reference`` recomputes the stored
reference values next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_JSON = os.path.join(HERE, "reference.json")
REFERENCE_IMAGE = os.path.join(HERE, "reference_fused.npy")

# Reference tolerances: float64 reordering moves these values by ~1e-15
# relative; any change of the computation moves them by far more than 1e-9.
LOSS_RTOL = 1e-9
IMAGE_ATOL = 1e-9

TOY_PAIRS = 8           # desk.cfg data: 8 pairs, batch 1, 8 steps per epoch
TOY_SIZE = 32
FUSE_PAIRS = 8          # distinct pairs, cycled through the timed loop
FUSE_SIZE = 64          # metric_vif needs four pyramid scales
REFERENCE_SEED = 0
# The workload seed makes the image pairs; weights, shuffling and crops use a
# fixed seed so that the checkpoint (its config text included) has the same
# size on every seed.
MODEL_SEED = 0
MEM_EVERY = 4           # every 4th traced item measures memory, not time

# Mean seconds per step (stage I, stage II) or per pair, measured on a
# shared 2-core x86-64 VM; they only size the run to about --seconds.
# ``chunks``: calibration chunks timed after each step or pair, about one
# per 0.3 s of work.
WORKLOADS = {
    "train-toy": {"kind": "train", "mamba_as_conv": False,
                  "nominal_s": (0.30, 0.52), "chunks": 1},
    "train-noscan": {"kind": "train", "mamba_as_conv": True,
                     "nominal_s": (0.14, 0.23), "chunks": 1},
    "fuse-eval": {"kind": "fuse", "nominal_s": 0.95, "chunks": 3},
}

MODULES = ("autodiff", "ssm", "attention", "blocks", "fusion", "model",
           "losses", "optim", "data", "metrics", "checkpoint", "train")


class Calibrator:
    """A fixed chunk of numpy work that calls no dualfuse code. The shared
    host changes the speed it gives this process by up to 1.5x over
    seconds to minutes; timed right after every step or pair (outside its
    interval), the chunk's time tracks that speed, and ``run.py`` scales
    the item times by it.

    The chunk makes elementwise passes over 2 MB arrays, the size of the
    scan state at 32x32, into buffers allocated once. On the three
    workloads, medians of step or pair time over a few seconds went with
    the chunk's time to the power 0.9-1.3; a chunk that stays in L1 went
    with a power of only 0.5-0.7, as the workloads also wait on cache and
    memory."""

    SIZE = 1 << 18      # float64 elements: 2 MB
    LOOPS = 6           # about 6 ms on a 2-core x86-64 VM

    def __init__(self, np):
        rng = np.random.default_rng(12345)
        self.np = np
        self.a = rng.standard_normal(self.SIZE)
        self.b = rng.standard_normal(self.SIZE)
        self.c = np.empty(self.SIZE)

    def chunk(self) -> float:
        np, a, b, c = self.np, self.a, self.b, self.c
        start = time.perf_counter()
        for _ in range(self.LOOPS):
            np.multiply(a, 0.999, out=c)
            np.add(c, b, out=c)
            np.tanh(c, out=c)
            float(c[::97].sum())
        return time.perf_counter() - start


class SetupDone(Exception):
    """Raised from the step hook to end a set-up-only run."""


def plan(workload: str, seconds: float):
    """Deterministic run length: (stage-I epochs, stage-II epochs) for the
    training workloads, timed pair count for fuse-eval. Each training stage
    gets half the window and at least 16 steps, so 15 timed intervals."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "train":
        return tuple(max(2, round(seconds / 2 / s / TOY_PAIRS))
                     for s in spec["nominal_s"])
    return max(12, round(seconds / spec["nominal_s"]))


def train_config(mod, workload, seed, epochs, out_dir, data_dir):
    """The shapes of configs/desk.cfg, all four toggles on."""
    return mod["config"].RunConfig(
        channels=8, depth=1, crop=32, batch=1,
        epochs_stage1=epochs[0], epochs_stage2=epochs[1],
        lr=2e-3, lr_decay=0.5, lr_decay_every=20, seed=seed,
        transformer_branch=True, mamba_branch=True, interaction=True,
        cross_modal_attention=True,
        mamba_as_conv=WORKLOADS[workload]["mamba_as_conv"],
        data_dir=data_dir, out_dir=out_dir)


def finite_row(row) -> bool:
    return all(math.isfinite(float(v)) for v in row[3:])


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

def run_train(mod, args, rec, on_step):
    """Write and load the toy pairs, then ``train.train`` both stages.

    ``on_step`` runs after every ``adam_step`` return as train calls it."""
    e1, e2 = plan(args.workload, args.seconds)
    data_dir, out_dir = "pairs", "train"   # relative: the config text, and
    # so the checkpoint bytes, must not depend on the run directory
    mod["toydata"].write_toy_dataset(data_dir, TOY_PAIRS, TOY_SIZE, args.seed)
    dataset = mod["data"].load_dataset(data_dir)
    cfg = train_config(mod, args.workload, MODEL_SEED, (e1, e2), out_dir,
                       data_dir)
    if rec is not None:     # the recorder's adam_step hook calls on_step
        return mod["train"].train(cfg, dataset, out_dir), e1 * TOY_PAIRS, \
            e2 * TOY_PAIRS
    original = mod["train"].adam_step

    def adam_step(*a, **kw):
        original(*a, **kw)
        on_step()
    mod["train"].adam_step = adam_step
    try:
        return mod["train"].train(cfg, dataset, out_dir), e1 * TOY_PAIRS, \
            e2 * TOY_PAIRS
    finally:
        mod["train"].adam_step = original


def train_reference(mod, workload):
    """First stage-I and stage-II loss rows of a fixed one-pair run."""
    import tempfile
    pairs = mod["toydata"].make_toy_pairs(1, TOY_SIZE, REFERENCE_SEED)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cfg = train_config(mod, workload, REFERENCE_SEED, (1, 1), tmp, tmp)
        rows = mod["train"].train(cfg, pairs, tmp).log_rows
    return [rows[0], rows[1]]


# ---------------------------------------------------------------------------
# inference workload
# ---------------------------------------------------------------------------

def write_fuse_inputs(mod, directory, seed):
    """64x64 pairs on disk: infrared side PGM; visible side a PGM for even
    pairs and a colour PNG (exercising PNG and YCbCr) for odd ones."""
    import numpy as np
    data = mod["data"]
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:FUSE_SIZE, 0:FUSE_SIZE] / FUSE_SIZE
    paths = []
    for i, pair in enumerate(mod["toydata"].make_toy_pairs(FUSE_PAIRS,
                                                           FUSE_SIZE, seed)):
        a_path = os.path.join(directory, "%s_a.pgm" % pair.pair_id)
        data.write_pgm(a_path, mod["metrics"].quantize_u8(pair.a))
        luma = mod["metrics"].quantize_u8(pair.b)
        if i % 2:
            cb = 128.0 + 40.0 * np.sin(2 * np.pi * (xx + rng.uniform()))
            cr = 128.0 + 40.0 * np.cos(2 * np.pi * (yy + rng.uniform()))
            b_path = os.path.join(directory, "%s_b.png" % pair.pair_id)
            data.write_png(b_path, data.ycbcr_to_rgb(
                luma.astype(np.float64), cb, cr))
        else:
            b_path = os.path.join(directory, "%s_b.pgm" % pair.pair_id)
            data.write_pgm(b_path, luma)
        paths.append((pair.pair_id, a_path, b_path))
    return paths


def fuse_one(mod, ckpt, pair_id, a_path, b_path, out_dir):
    """One pair as ``dualfuse fuse`` and ``eval`` handle it: read, fuse
    under no_grad, all six metrics, write the fused image. Returns the
    number of failed output checks (0 or 1)."""
    import numpy as np
    data, metrics = mod["data"], mod["metrics"]
    pair = data.load_pair(a_path, b_path, pair_id)
    fused = mod["model"].fuse_pair_arrays(pair, ckpt.model, ckpt.config,
                                          fusion_trained=ckpt.fusion_trained)
    ok = (fused.shape == pair.a.shape and bool(np.all(np.isfinite(fused)))
          and float(fused.min()) >= 0.0 and float(fused.max()) <= 1.0)
    fused_u8 = metrics.quantize_u8(fused)
    # MetricsReport validates its ranges on construction
    metrics.evaluate_image(pair_id, fused_u8, metrics.quantize_u8(pair.a),
                           metrics.quantize_u8(pair.b))
    if pair.b_chroma is not None:
        rgb = data.ycbcr_to_rgb(fused_u8.astype(np.float64),
                                pair.b_chroma[0], pair.b_chroma[1])
        data.write_png(os.path.join(out_dir, pair_id + "_fused.png"), rgb)
    else:
        data.save_gray(os.path.join(out_dir, pair_id + "_fused.pgm"),
                       fused_u8)
    return 0 if ok else 1


def fuse_reference(mod):
    """Fused float image of one fixed pair through a fixed model."""
    cfg = mod["config"].RunConfig(channels=8, depth=1, seed=REFERENCE_SEED)
    pair = mod["toydata"].make_toy_pairs(1, FUSE_SIZE, REFERENCE_SEED)[0]
    return mod["model"].fuse_pair_arrays(pair, mod["model"].build_model(cfg),
                                         cfg, fusion_trained=True)


def run_fuse(mod, args, rec, boundary, result):
    """Set-up (inputs, checkpoint save and load, warm-up pair), then the
    timed pairs. ``boundary`` runs after every pair, warm-up included."""
    n_timed = plan(args.workload, args.seconds)
    paths = write_fuse_inputs(mod, "pairs", args.seed)
    out_dir = "fused"
    os.makedirs(out_dir)
    cfg = mod["config"].RunConfig(channels=8, depth=1, seed=MODEL_SEED)
    ckpt_path = "checkpoint.tmam"
    mod["checkpoint"].save_checkpoint(
        ckpt_path, cfg, mod["model"].build_model(cfg),
        mod["optim"].AdamState(), 1, 1)  # stage2_steps > 0: fusion runs
    ckpt = mod["checkpoint"].load_checkpoint(ckpt_path)
    result["checkpoint_bytes"] = os.path.getsize(ckpt_path)
    for i in range(n_timed + 1):
        try:
            result["failed"] += fuse_one(mod, ckpt, *paths[i % FUSE_PAIRS],
                                         out_dir)
        except Exception:          # counted, the loop goes on
            traceback.print_exc()
            result["failed"] += 1
        result["attempted"] += 1
        boundary()
    return n_timed


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_modules():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib
    names = MODULES + ("config", "toydata", "complexity")
    return {n: importlib.import_module("dualfuse." + n) for n in names}


def environment(np):
    """Record what the timings depend on, BLAS threads as the library
    reports them."""
    import ctypes
    import glob
    import platform
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--mode", choices=("setup", "run", "trace"))
    parser.add_argument("--out")
    parser.add_argument("--t0", type=float)
    parser.add_argument("--compare")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_reference:
        return write_reference()

    import tracemalloc
    os.chdir(args.out)
    import numpy as np
    mod = load_modules()
    ad = mod["autodiff"]
    spec = WORKLOADS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "attempted": 0, "failed": 0, "checks": {},
              "env": environment(np)}
    stamps = []         # end of each step or pair (the first: set-up)
    starts = []         # start of the next one, after its calibration
    cals = []           # mean calibration chunk seconds at each stamp
    calibrator = Calibrator(np)
    snapshots = []      # per boundary: flops, graph nodes, tracemalloc peak
    rec = flops = None
    if args.mode == "trace":
        from tracer import Recorder
        rec = Recorder()
        flops = ad.FlopCounter().__enter__()

    def boundary():
        """End of a step or pair. In the traced run, every MEM_EVERY-th
        item runs under tracemalloc (started empty, so its peak is what the
        item allocated on top of what was live); the others give times."""
        stamps.append(time.perf_counter())
        if rec is not None:
            peak = None
            if tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            snapshots.append((flops.total, rec.counts["autodiff.graph_nodes"],
                              peak))
        cals.append(sum(calibrator.chunk() for _ in range(spec["chunks"]))
                    / spec["chunks"])
        if args.mode == "setup" and len(stamps) == 1:
            raise SetupDone
        if rec is not None:
            rec.item += 1
            if rec.item % MEM_EVERY == 0:
                tracemalloc.start()
        starts.append(time.perf_counter())

    if rec is not None:
        rec.install(mod, step_hook=boundary if spec["kind"] == "train"
                    else None)

    try:
        if spec["kind"] == "train":
            outcome, n1, n2 = run_train(mod, args, rec, boundary)
            rows = outcome.log_rows
            result["attempted"] = n1 + n2
            result["failed"] = sum(not finite_row(r) for r in rows) \
                + (n1 + n2 - len(rows))
            result["stages"] = [n1, n2]
            result["checkpoint_bytes"] = os.path.getsize(
                os.path.join(args.out, "train", "checkpoint.tmam"))
        else:
            run_fuse(mod, args, rec, boundary, result)
    except SetupDone:
        pass
    except Exception:
        traceback.print_exc()
        result["error"] = True
        if result["attempted"] == 0:
            result["attempted"] = 1
        result["failed"] = result["attempted"]
    if flops is not None:
        flops.__exit__(None, None, None)
    if rec is not None:
        rec.unpatch()
    result["stamps"] = stamps
    result["starts"] = starts
    result["cals"] = cals
    result["setup_s"] = stamps[0] - args.t0 if stamps else None
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.mode == "run" and not result.get("error"):
        check(result, "reference", lambda: reference_ok(mod, args.workload))
    if args.mode == "trace":
        tracemalloc.stop()
        traced_checks(mod, args, rec, result, snapshots)
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def check(result, name, fn) -> None:
    """One whole-run output check, counted as one operation."""
    try:
        ok = bool(fn())
    except Exception:
        traceback.print_exc()
        ok = False
    result["checks"][name] = ok
    result["attempted"] += 1
    result["failed"] += 0 if ok else 1
    if not ok:
        print("check failed: %s" % name, file=sys.stderr)


def reference_ok(mod, workload) -> bool:
    import numpy as np
    if WORKLOADS[workload]["kind"] == "fuse":
        return np.allclose(fuse_reference(mod), np.load(REFERENCE_IMAGE),
                           rtol=0.0, atol=IMAGE_ATOL)
    with open(REFERENCE_JSON, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    got = train_reference(mod, workload)
    for row, ref in zip(got, expected):
        if row[:3] != ref[:3]:
            return False
        for value, want in zip(row[3:], ref[3:]):
            if not math.isclose(float(value), float(want), rel_tol=LOSS_RTOL):
                return False
    return True


def write_reference() -> int:
    import numpy as np
    mod = load_modules()
    refs = {name: train_reference(mod, name)
            for name, spec in WORKLOADS.items() if spec["kind"] == "train"}
    with open(REFERENCE_JSON, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    np.save(REFERENCE_IMAGE, fuse_reference(mod))
    print("wrote %s and %s" % (REFERENCE_JSON, REFERENCE_IMAGE))
    return 0


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_checks(mod, args, rec, result, snapshots):
    import tracer
    spec = WORKLOADS[args.workload]
    table = rec.aggregate()
    rec.write(os.path.join(args.out, "spans.tsv"))
    result["table"] = [[name, item] + row
                       for (name, item), row in sorted(table.items())]
    result["snapshots"] = snapshots
    counts = dict(rec.counts)
    result["counts"] = counts
    pixels = counts.get("ssm.pixels", 0)
    result["scan_tokens_per_pixel"] = \
        counts.get("ssm.tokens", 0) / pixels if pixels else 0.0
    result["linearity"] = {}
    sizes = [64, 256, 1024]
    cx = mod["complexity"]
    for name, measure in (
            ("channel_attention", cx.measure_channel_attention_flops),
            ("selective_scan", cx.measure_selective_scan_flops)):
        report = cx.linearity_report(sizes, measure(sizes))
        result["linearity"][name] = report["quadratic_share"]

    # the ops folded into "other" are covered as one hook
    other = {"autodiff." + op for op in tracer.OTHER_OPS}
    calls = {}
    for (name, item), row in table.items():
        key = "autodiff.other" if name in other else name
        calls[key] = calls.get(key, 0) + row[0]
    hooks = [n for n in tracer.HOOKS if n not in other]
    hooks += ["autodiff.other", "autodiff.backward"]
    zeros = expected_zero(args.workload)
    wrong = [n for n in hooks if (calls.get(n, 0) == 0) != (n in zeros)]
    result["coverage_errors"] = wrong
    check(result, "hook_coverage", lambda: not wrong)
    if spec["kind"] == "train":
        for name in ("train/loss_log.csv", "train/checkpoint.tmam"):
            check(result, "same_" + os.path.basename(name),
                  lambda n=name: same_bytes(args.out, args.compare, n))
    else:
        names = sorted(os.listdir(os.path.join(args.compare, "fused")))
        check(result, "same_fused_files", lambda: names == sorted(
            os.listdir(os.path.join(args.out, "fused"))) and all(
            same_bytes(args.out, args.compare, os.path.join("fused", n))
            for n in names))
        check(result, "same_checkpoint",
              lambda: same_bytes(args.out, args.compare, "checkpoint.tmam"))
    # four traversal orders, each recomputing the per-token projections
    check(result, "scan_tokens_per_pixel",
          lambda: result["scan_tokens_per_pixel"]
          == (0.0 if spec.get("mamba_as_conv") else 4.0))


def expected_zero(workload) -> set:
    """Hooks a workload must never reach; every other hook must be called."""
    import tracer
    if WORKLOADS[workload]["kind"] == "fuse":
        return {"autodiff.backward", "optim.adam_step", "losses.stage1_loss",
                "losses.stage2_loss", "model.restore", "data.crop_sampler",
                "data.load_dataset", "train.train"}
    zeros = {"metrics." + m for m in tracer.METRIC_FUNCS}
    zeros |= {"metrics.evaluate_image", "data.read_png", "data.save_gray",
              "data.write_png", "checkpoint.load_checkpoint"}
    if WORKLOADS[workload]["mamba_as_conv"]:
        zeros |= {"autodiff.selective_scan_core", "autodiff.softplus",
                  "autodiff.flip", "ssm.cross_scan_2d", "ssm.selective_scan"}
    return zeros


def same_bytes(dir_a, dir_b, name) -> bool:
    with open(os.path.join(dir_a, name), "rb") as fa, \
            open(os.path.join(dir_b, name), "rb") as fb:
        return fa.read() == fb.read()


if __name__ == "__main__":
    sys.exit(main())
