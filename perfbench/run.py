"""dualfuse benchmark: one command, one workload (or all), fresh processes.

    python3 perfbench/run.py --workload {train-toy,train-noscan,fuse-eval,all}
        --seed N --seconds S --trace {0,1}

Run it from the repository root. For the chosen workload it starts, one
after another and each in a fresh process (``workload.py``):

1. ``SETUP_REPEATS`` set-up-only runs; ``setup_s`` is the median of their
   set-up times and the main run's;
2. the untraced main run, which measures about ``--seconds`` of steps or
   pairs and then checks its outputs against stored reference values;
3. with ``--trace 1``, a traced run of the same steps or pairs, which
   records a span per hooked public function, must write byte-identical
   outputs, and yields the per-module table.

The workloads are a closed loop with one caller: the next step or pair
starts only when the previous one has returned. BLAS runs one thread.

Times are reported at a reference host speed. The shared host this runs on
changes the speed it gives a process by up to 1.5x over seconds to minutes,
so after each step or pair, outside its timed interval, the workload process
times a fixed calibration chunk of numpy work that calls no dualfuse code
(``workload.Calibrator``). Every item time is multiplied by the host speed
around it: ``CAL_REF_S`` over the median time of the chunks timed within
``CAL_WINDOW_S`` of the item's middle (and the two next to it). A program
change moves the scaled times as it moves wall times; the wall figures and
the host speed are printed beside them. ``setup_s`` is wall time: set-up
(interpreter start, imports, inputs, model) responds to the host differently
from the chunk, and scaling it by the run's host speed made it noisier.

The end-to-end times are the pair loop's median and tail on fuse-eval. On
the training workloads they are the step-weighted mean of the two stages'
own medians (and tails): a single median over both stages would sit in the
upper tail of the shorter stage-I steps.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Everything else
(environment, per-stage figures, the per-module table, the spans) goes to
``.perfbench_work/<workload>-seed<N>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workload import MEM_EVERY, WORKLOADS, plan  # noqa: E402

SETUP_REPEATS = 4
DEADLINE_S = 170.0      # every run ends within 180 s, children included
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
CAL_REF_S = 0.006       # chunk seconds that define the reference host speed
CAL_WINDOW_S = 2.0      # chunks this close to an item's middle scale it
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

# per-layer metrics: (metric, span names, "self" | "incl" | "per_call")
LAYER_TIMES = [("autodiff.backward_s", ["autodiff.backward"], "self")]
LAYER_TIMES += [("autodiff.%s.fwd_s" % op, ["autodiff." + op], "self")
                for op in tracer.NAMED_OPS]
LAYER_TIMES += [
    ("autodiff.other.fwd_s", ["autodiff." + op for op in tracer.OTHER_OPS],
     "self"),
    ("ssm.cross_scan_2d_s", ["ssm.cross_scan_2d"], "incl"),
    ("attention.transformer_block_s", ["attention.transformer_block"], "self"),
    ("attention.channel_attention_s", ["attention.channel_attention"], "self"),
    ("blocks.dual_branch_block_s", ["blocks.dual_branch_block"], "incl"),
    ("blocks.shallow_extract_s", ["blocks.shallow_extract"], "incl"),
    ("fusion.modality_attentions_s", ["fusion.modality_attentions"], "self"),
    ("fusion.attention_weighting_s", ["fusion.attention_weighting"], "self"),
    ("fusion.fuse_features_s", ["fusion.fuse_features"], "self"),
    ("fusion.decode_s", ["fusion.decode"], "self"),
    ("model.restore_s", ["model.restore"], "incl"),
    ("model.fuse_forward_s", ["model.fuse_pair"], "incl"),
    ("losses.stage1_loss_s", ["losses.stage1_loss"], "self"),
    ("losses.stage2_loss_s", ["losses.stage2_loss"], "self"),
    ("optim.adam_step_s", ["optim.adam_step"], "self"),
    ("data.crop_sampler_s", ["data.crop_sampler"], "self"),
    ("data.load_pair_s", ["data.load_pair"], "self"),
    ("data.read_pgm_s", ["data.read_pgm"], "self"),
    ("data.read_png_s", ["data.read_png"], "self"),
    ("data.save_gray_s", ["data.save_gray"], "self"),
    ("data.write_png_s", ["data.write_png"], "self"),
    ("data.load_dataset_s", ["data.load_dataset"], "per_call"),
    ("metrics.evaluate_image_s", ["metrics.evaluate_image"], "self"),
]
LAYER_TIMES += [("metrics.%s_s" % m, ["metrics." + m], "self")
                for m in tracer.METRIC_FUNCS]
LAYER_TIMES += [
    ("checkpoint.save_checkpoint_s", ["checkpoint.save_checkpoint"],
     "per_call"),
    ("checkpoint.load_checkpoint_s", ["checkpoint.load_checkpoint"],
     "per_call"),
]


def tail(values):
    """(value, percentile, n): the highest percentile that still has
    TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], int(100 * (idx + 1) // n), n


def item_seconds(result):
    """Item id -> wall seconds. Stamp k is a return of adam_step as train
    calls it, or the end of a pair; stamp 0 ends the set-up, warm-up
    included. Item k runs from the start that follows stamp k-1 (after the
    calibration chunk) to stamp k."""
    stamps, starts = result["stamps"], result["starts"]
    return {k: stamps[k] - starts[k - 1] for k in range(1, len(stamps))}


def item_scales(result):
    """Item id -> factor from wall to reference-speed seconds. Chunk k is
    timed right after stamp k; item k takes CAL_REF_S over the median of
    chunks k-1 and k and of every other chunk within CAL_WINDOW_S of its
    middle. Set-up (item 0) and the spans after the last stamp take the
    whole run's factor."""
    stamps, cals = result["stamps"], result["cals"]
    speed = run_speed(result)
    scales = {0: speed, len(stamps): speed}
    for k, seconds in item_seconds(result).items():
        middle = stamps[k] - seconds / 2
        near = [cals[j] for j in range(len(cals))
                if j in (k - 1, k) or abs(stamps[j] - middle) <= CAL_WINDOW_S]
        scales[k] = CAL_REF_S / statistics.median(near)
    return scales


def run_speed(result):
    """The whole run's factor: CAL_REF_S over the median of its chunks."""
    return CAL_REF_S / statistics.median(result["cals"])


def scaled_seconds(result):
    """Item id -> seconds at the reference host speed."""
    scales = item_scales(result)
    return {k: s * scales[k] for k, s in item_seconds(result).items()}


def timed_items(result):
    """Ids of the timed items. Training leaves out each stage's first step
    (the warm-up, and the stage-I checkpoint write)."""
    if "stages" in result:
        n1, n2 = result["stages"]
        return set(range(1, n1)) | set(range(n1 + 1, n1 + n2))
    return set(range(1, len(result["stamps"])))


def timed_span_items(traced):
    """The timed items of a traced run that ran without tracemalloc."""
    return {i for i in timed_items(traced) if i % MEM_EVERY}


def by_stage(result, items):
    """Split item ids into the training stages, or keep them as pairs."""
    if "stages" in result:
        n1 = result["stages"][0]
        return {"stage1": {i for i in items if i < n1},
                "stage2": {i for i in items if i > n1}}
    return {"pair": set(items)}


def intervals(result, seconds):
    """Timed seconds per item, by stage."""
    return {part: [seconds[i] for i in sorted(ids)]
            for part, ids in by_stage(result, timed_items(result)).items()}


def child(mode, args, out, deadline, compare=None):
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", out]
    if compare:
        cmd += ["--compare", compare]
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("%s run exited with %d" % (mode, proc.returncode))
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def weighted(parts, stat):
    """Mean of ``stat`` over the stages, weighted by their item counts."""
    n = sum(len(xs) for xs in parts.values())
    return sum(len(xs) * stat(xs) for xs in parts.values()) / n


def end_to_end(main, setups):
    parts = intervals(main, scaled_seconds(main))
    items = [x for part in parts.values() for x in part]
    scales = item_scales(main)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "item_s.p50": (weighted(parts, statistics.median), "s"),
        "item_s.tail": (weighted(parts, lambda xs: tail(xs)[0]), "s"),
        "items_per_s": (len(items) / sum(items), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    # the same figures by stage under the names the workloads are read by,
    # and the wall figures with the host speed they were scaled by
    wall = intervals(main, item_seconds(main))
    detail = {"items": (len(items), "count"),
              "host_speed": (run_speed(main), "ratio"),
              "host_speed.min": (min(scales.values()), "ratio"),
              "host_speed.max": (max(scales.values()), "ratio"),
              "wall.item_s.p50": (weighted(wall, statistics.median), "s"),
              "wall.items_per_s": (len(items) / sum(
                  x for xs in wall.values() for x in xs), "1/s")}
    for part, xs in parts.items():
        name = "fuse_pair_s" if part == "pair" else part + "_step_s"
        value, pct, n = tail(xs)
        detail[name + ".p50"] = (statistics.median(xs), "s")
        detail[name + ".tail"] = (value, "s")
        detail[name + ".tail.percentile"] = (pct, "%")
        detail[name + ".n"] = (n, "count")
    key = "pairs_per_s" if "pair" in parts else "steps_per_s"
    detail[key] = (len(items) / sum(items), "1/s")
    return metrics, detail


def per_layer(traced, main):
    """Per timed item: span times (at the reference host speed) from the
    items without tracemalloc, memory from those with it, exact counts
    from all of them."""
    counted = sorted(timed_items(traced))
    items = timed_span_items(traced)
    n_items = len(items)
    scale = item_scales(traced)
    incl, self_t, calls, per_call = {}, {}, {}, {}
    for name, item, n, inclusive, own in traced["table"]:
        inclusive *= scale[item]
        own *= scale[item]
        calls[name] = calls.get(name, 0) + (n if item in items else 0)
        per_call.setdefault(name, [0, 0.0])
        per_call[name][0] += n
        per_call[name][1] += inclusive
        if item in items:
            incl[name] = incl.get(name, 0.0) + inclusive
            self_t[name] = self_t.get(name, 0.0) + own
    metrics = {}
    for metric, names, kind in LAYER_TIMES:
        if kind == "per_call":
            n = sum(per_call.get(x, [0, 0.0])[0] for x in names)
            total = sum(per_call.get(x, [0, 0.0])[1] for x in names)
            metrics[metric] = (total / n if n else 0.0, "s")
        else:
            source = incl if kind == "incl" else self_t
            metrics[metric] = (sum(source.get(x, 0.0) for x in names)
                               / n_items, "s")
    for op in tracer.NAMED_OPS:
        metrics["autodiff.%s.calls" % op] = (
            calls.get("autodiff." + op, 0) / n_items, "count")
    snaps = traced["snapshots"]
    metrics["autodiff.flops"] = (sum(
        snaps[i][0] - snaps[i - 1][0] for i in counted) / len(counted),
        "count")
    metrics["autodiff.graph_nodes"] = (sum(
        snaps[i][1] - snaps[i - 1][1] for i in counted) / len(counted),
        "count")
    metrics["mem.step_peak_mb"] = (statistics.median(
        snaps[i][2] for i in counted if i % MEM_EVERY == 0) / 2 ** 20, "MB")
    metrics["ssm.scan_tokens_per_pixel"] = (traced["scan_tokens_per_pixel"],
                                            "ratio")
    metrics["checkpoint.bytes"] = (traced["checkpoint_bytes"], "bytes")
    for name, share in traced["linearity"].items():
        metrics["complexity.%s.quadratic_share" % name] = (share, "ratio")
    # same items on both sides: the traced run's times without tracemalloc
    plain = scaled_seconds(main)
    with_trace = scaled_seconds(traced)
    metrics["trace.overhead"] = (
        sum(with_trace[i] for i in items) / sum(plain[i] for i in items)
        - 1.0, "share")
    return metrics


def module_table(traced):
    """Text table: per timed item, calls, self and inclusive milliseconds
    (at the reference host speed) and self share of the item time, for each
    hooked function."""
    groups = by_stage(traced, timed_span_items(traced))
    seconds = scaled_seconds(traced)
    scale = item_scales(traced)
    item_s = {g: statistics.mean(seconds[i] for i in ids)
              for g, ids in groups.items()}
    stats = {}
    for name, item, n, inclusive, own in traced["table"]:
        inclusive *= scale[item]
        own *= scale[item]
        for g, ids in groups.items():
            if item in ids:
                row = stats.setdefault(name, {}).setdefault(g, [0, 0.0, 0.0])
                row[0] += n
                row[1] += own
                row[2] += inclusive
    head = "%-34s" % "span (per timed item)"
    for g in groups:
        head += " | %-8s %9s %9s %6s" % (g, "self ms", "incl ms", "self%")
    lines = [head, "-" * len(head)]
    names = sorted(stats, key=lambda k: -sum(r[1] for r in stats[k].values()))
    for name in names:
        line = "%-34s" % name
        for g, ids in groups.items():
            n, own, inclusive = stats[name].get(g, [0, 0.0, 0.0])
            k = len(ids)
            line += " | %8.1f %9.3f %9.3f %6.1f" % (
                n / k, 1e3 * own / k, 1e3 * inclusive / k,
                100.0 * own / k / item_s[g])
        lines.append(line)
    lines.append("item seconds: " + ", ".join(
        "%s %.4f" % (g, s) for g, s in item_s.items()))
    return "\n".join(lines) + "\n"


def run_workload(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(ROOT, ".perfbench_work",
                        "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    setups, attempted, failed = [], 0, 0
    for i in range(SETUP_REPEATS):
        res = child("setup", args, os.path.join(work, "setup%d" % i), deadline)
        attempted += 1
        if res.get("error") or res["setup_s"] is None:
            failed += 1
        else:
            setups.append(res["setup_s"])
    main = child("run", args, os.path.join(work, "run"), deadline)
    attempted += main["attempted"]
    failed += main["failed"]
    if main.get("error"):
        print("the main run failed; see the traceback above", file=sys.stderr)
        return 1
    setups.append(main["setup_s"])
    e2e, detail = end_to_end(main, setups)
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "plan": plan(args.workload,
                                                     args.seconds),
               "env": main["env"], "checks": dict(main["checks"]),
               "setup_samples": setups, "end_to_end": e2e,
               "detail": detail}
    metrics = e2e
    if args.trace:
        traced = child("trace", args, os.path.join(work, "trace"), deadline,
                       compare=os.path.join(work, "run"))
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced.get("error"):
            print("the traced run failed; see the traceback above",
                  file=sys.stderr)
            return 1
        metrics = per_layer(traced, main)
        table = module_table(traced)
        with open(os.path.join(work, "module_table.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table)
        summary.update(per_layer=metrics, module_table=table,
                       coverage_errors=traced["coverage_errors"],
                       traced_checks=traced["checks"])
        summary["checks"].update(traced["checks"])
    summary["failed_share"] = failed / attempted
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    env = main["env"]
    print("workload %s  seed %d  %s  python %s  numpy %s  %s x%s threads  "
          "nproc %s" % (args.workload, args.seed, "traced" if args.trace
                        else "untraced", env["python"], env["numpy"],
                        env["blas"], env["blas_threads"], env["nproc"]))
    for name, (value, unit) in list(e2e.items()) + list(detail.items()) + [
            ("failed_share", (failed / attempted, "share"))]:
        print("  %-32s %14.6g %s" % (name, value, unit))
    for name, ok in summary["checks"].items():
        print("  check %-22s %s" % (name, "ok" if ok else "FAILED"))
    if args.trace:
        print(table, end="")
        if traced["coverage_errors"]:
            print("hook coverage wrong for: %s"
                  % ", ".join(traced["coverage_errors"]))
    correct = failed == 0 and all(summary["checks"].values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dualfuse",
                                       "__init__.py")):
        print("no dualfuse sources under %s; run from a full checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        args.workload = name
        status = max(status, run_workload(args))
    return status


if __name__ == "__main__":
    sys.exit(main())
