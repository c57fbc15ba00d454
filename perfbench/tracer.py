"""Span recorder for the traced benchmark run.

Every hooked public function is replaced, in each namespace that calls it,
by a wrapper that records one span: name, start, end, parent span and the
step or pair it ran in. Spans stay in memory until the run ends. Self time
is a span's duration minus the time its direct children cover.

The hook table names where each function is *called from*: ``train`` binds
``adam_step``, ``stage1_loss``, ``restore`` and ``crop_sampler`` by name, so
those are patched in ``train``; engine ops are reached as ``ad.<op>`` (and
``Tensor`` operators look the same module globals up), so they are patched
once in ``autodiff``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# engine ops reported one by one; everything else is folded into "other"
NAMED_OPS = ("selective_scan_core", "depthwise_conv2d", "conv2d",
             "dilated_conv2d", "gelu", "silu", "softplus", "layer_norm",
             "matmul", "softmax", "transpose", "reshape", "add", "mul",
             "concat", "flip")
OTHER_OPS = ("sub", "div", "neg", "power", "maximum", "absolute", "exp",
             "sigmoid", "tanh", "take", "reduce_sum", "reduce_mean",
             "pad_reflect2d")

METRIC_FUNCS = ("en", "sd", "sf", "mi", "vif", "qabf")

# span name -> [(module, attribute)] where the function is looked up
HOOKS = {}
for _op in NAMED_OPS + OTHER_OPS:
    HOOKS["autodiff." + _op] = [("autodiff", _op)]
HOOKS.update({
    "ssm.cross_scan_2d": [("ssm", "cross_scan_2d")],
    "ssm.selective_scan": [("ssm", "selective_scan")],
    "attention.transformer_block": [("blocks", "transformer_block"),
                                    ("fusion", "transformer_block")],
    "attention.channel_attention": [("attention", "channel_attention"),
                                    ("fusion", "channel_attention")],
    "blocks.dual_branch_block": [("model", "dual_branch_block"),
                                 ("fusion", "dual_branch_block")],
    "blocks.shallow_extract": [("blocks", "shallow_extract")],
    "fusion.modality_attentions": [("fusion", "modality_attentions")],
    "fusion.attention_weighting": [("fusion", "attention_weighting")],
    "fusion.fuse_features": [("model", "fuse_features")],
    "fusion.decode": [("model", "decode")],
    "model.restore": [("train", "restore")],
    "model.fuse_pair": [("train", "fuse_pair"), ("model", "fuse_pair")],
    "losses.stage1_loss": [("train", "stage1_loss")],
    "losses.stage2_loss": [("train", "stage2_loss")],
    "optim.adam_step": [("train", "adam_step")],
    "data.crop_sampler": [("train", "crop_sampler")],
    "data.load_pair": [("data", "load_pair")],
    "data.read_pgm": [("data", "read_pgm")],
    "data.read_png": [("data", "read_png")],
    "data.save_gray": [("data", "save_gray")],
    "data.write_png": [("data", "write_png")],
    "data.load_dataset": [("data", "load_dataset")],
    "metrics.evaluate_image": [("metrics", "evaluate_image")],
    "checkpoint.save_checkpoint": [("train", "save_checkpoint"),
                                   ("checkpoint", "save_checkpoint")],
    "checkpoint.load_checkpoint": [("checkpoint", "load_checkpoint")],
    "train.train": [("train", "train")],
})
for _m in METRIC_FUNCS:
    HOOKS["metrics." + _m] = [("metrics", "metric_" + _m)]


class Recorder:
    """In-memory span list plus the exact counters taken at the same hooks."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent, item)
        self.item = 0               # step or pair the next span belongs to
        self._stack: list = []
        self.counts = defaultdict(int)
        self._patched: list = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(args, result)``
        runs once the span is closed."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            item = self.item
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, item)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def patch(self, obj, attr: str, replacement) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def unpatch(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def install(self, modules: dict, step_hook=None) -> None:
        """Wrap every function of ``HOOKS``; ``step_hook`` runs after each
        ``adam_step`` return (the training step boundary)."""
        ad = modules["autodiff"]
        counts = self.counts

        def count_nodes(args, result):
            counts["autodiff.graph_nodes"] += len(result)

        def count_pixels(args, result):
            counts["ssm.pixels"] += args[0].shape[1] * args[0].shape[2]

        def count_tokens(args, result):
            counts["ssm.tokens"] += args[0].shape[0]

        after = {"ssm.cross_scan_2d": count_pixels,
                 "ssm.selective_scan": count_tokens}
        if step_hook is not None:
            after["optim.adam_step"] = lambda args, result: step_hook()
        for name, sites in HOOKS.items():
            module, attr = sites[0]
            original = getattr(modules[module], attr)
            wrapped = self.wrap(name, original, after.get(name))
            for module, attr in sites:
                if getattr(modules[module], attr) is not original:
                    raise RuntimeError("%s.%s is not the function hooked as %s"
                                       % (module, attr, name))
                self.patch(modules[module], attr, wrapped)
        self.patch(ad.Tensor, "backward",
                   self.wrap("autodiff.backward", ad.Tensor.backward))
        original_toposort = ad.toposort

        def toposort(root):
            order = original_toposort(root)
            count_nodes(None, order)
            return order
        self.patch(ad, "toposort", toposort)

    def aggregate(self):
        """Per (name, item): [calls, inclusive seconds, self seconds]."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, item in spans:
            if parent >= 0:
                covered[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, parent, item), child in zip(spans, covered):
            row = table[(name, item)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return table

    def write(self, path: str) -> None:
        """Write the spans as tab-separated text, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\titem\n")
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (idx, name, start, end, parent, item))
