"""The traced benchmark's hook table still matches the program.

``perfbench/tracer.py`` wraps each hooked function in every namespace that
calls it, and refuses to install when a site is missing or binds a
different object. These checks catch such a break without a traced run,
and one traced fuse checks that the fusion path's hooks record spans in the
caller.
"""

import importlib
import importlib.util
import os

import pytest

from dualfuse import parallel
from dualfuse.config import RunConfig
from dualfuse.model import build_model
from dualfuse.toydata import make_toy_pairs

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
