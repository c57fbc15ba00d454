"""The traced benchmark's hook table still matches the program.

``perfbench/tracer.py`` wraps each hooked function in every namespace that
calls it, and refuses to install when a site is missing or binds a
different object. These checks catch such a break without a traced run,
and a traced fuse and a traced training run check that the hooks their
benchmark workloads read record spans in the caller.
"""

import importlib
import importlib.util
import os

import pytest

from dualfuse import parallel
from dualfuse.config import RunConfig
from dualfuse.model import build_model
from dualfuse.toydata import make_toy_pairs, write_toy_dataset

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = load_tracer()
HOOKS = tracer.HOOKS


@pytest.mark.parametrize("name", sorted(HOOKS))
def test_hook_sites_resolve_to_one_function(name):
    found = []
    for module, attr in HOOKS[name]:
        mod = importlib.import_module("dualfuse." + module)
        assert hasattr(mod, attr), "%s: dualfuse.%s has no %s" % (
            name, module, attr)
        found.append(getattr(mod, attr))
    assert all(f is found[0] for f in found), \
        "%s: sites %r bind different objects" % (name, HOOKS[name])


# spans the traced fuse-eval workload reads from the caller's recorder
FUSE_SPANS = ("fusion.modality_attentions", "fusion.attention_weighting",
              "fusion.fuse_features", "fusion.decode",
              "blocks.dual_branch_block", "blocks.shallow_extract",
              "attention.channel_attention", "attention.transformer_block",
              "ssm.cross_scan_2d", "ssm.selective_scan", "model.fuse_pair")


@pytest.mark.parametrize("helper_on", [True, False])
def test_traced_fuse_records_every_fusion_span(helper_on, monkeypatch):
    monkeypatch.setattr(parallel, "_two_cpus", lambda: helper_on)
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    modules = {mod: importlib.import_module("dualfuse." + mod)
               for sites in HOOKS.values() for mod, _ in sites}
    parallel._shutdown()        # a helper forked earlier is not this one
    rec = tracer.Recorder()
    try:
        rec.install(modules)
        modules["model"].fuse_pair_arrays(pair, m, cfg)
        assert (parallel._helper is not None) == helper_on
    finally:
        rec.unpatch()
        parallel._shutdown()    # a helper forked here runs the wrappers
    recorded = {span[0] for span in rec.spans}
    assert [n for n in FUSE_SPANS if n not in recorded] == []


def load_workload(monkeypatch):
    """perfbench/workload.py, which imports ``tracer`` by that name."""
    monkeypatch.syspath_prepend(os.path.dirname(TRACER))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workload",
        os.path.join(os.path.dirname(TRACER), "workload.py"))
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    return workload


def test_traced_training_records_every_training_span_in_the_caller(
        tmp_path, monkeypatch):
    # one stage-I and one stage-II step with b's half, and in stage II the
    # scan-side fusion block, on the helper: the spans and scan counts the
    # traced training workloads check come from the caller's recorder,
    # which sees only what runs in the caller
    zeros = load_workload(monkeypatch).expected_zero("train-toy")
    monkeypatch.setattr(parallel, "_two_cpus", lambda: True)
    data_dir = str(tmp_path / "pairs")
    write_toy_dataset(data_dir, n_pairs=1, size=16, seed=3)
    cfg = RunConfig(channels=4, crop=16, batch=1, epochs_stage1=1,
                    epochs_stage2=1, seed=2, out_dir=str(tmp_path / "out"))
    modules = {mod: importlib.import_module("dualfuse." + mod)
               for sites in HOOKS.values() for mod, _ in sites}
    finished = []
    finish = parallel._Half._finish

    def recording_finish(half):
        finished.append(half.applied == len(half.groups) > 0
                        and not half.done)
        finish(half)
    monkeypatch.setattr(parallel._Half, "_finish", recording_finish)
    parallel._shutdown()        # a helper forked earlier is not this one
    rec = tracer.Recorder()
    try:
        rec.install(modules)
        dataset = modules["data"].load_dataset(data_dir)
        result = modules["train"].train(cfg, dataset)
    finally:
        rec.unpatch()
        parallel._shutdown()    # a helper forked here runs the wrappers
    assert (result.stage1_steps, result.stage2_steps) == (1, 1)
    assert finished == [True] * 3   # restore(b); the scan side, encode(b)
    recorded = {span[0] for span in rec.spans}
    other = {"autodiff." + op for op in tracer.OTHER_OPS}
    needed = [n for n in HOOKS if n not in zeros and n not in other]
    assert [n for n in needed + ["autodiff.backward"]
            if n not in recorded] == []
    assert recorded & other
    assert rec.counts["ssm.tokens"] == 4 * rec.counts["ssm.pixels"] > 0
