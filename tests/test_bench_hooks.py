"""The traced benchmark's hook table still matches the program.

``perfbench/tracer.py`` wraps each hooked function in every namespace that
calls it, and refuses to install when a site is missing or binds a
different object. These checks catch such a break without a traced run.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


HOOKS = load_hooks()


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
