"""Byte-identity manifest: what the model computes, against digests that
``scripts/record_golden.py`` recorded on a known-good tree."""

import importlib.util
import json
import os

from conftest import numpy_build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _record_golden():
    spec = importlib.util.spec_from_file_location(
        "record_golden", os.path.join(ROOT, "scripts", "record_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_manifest():
    # fused images of seven builds, three tiny training runs' loss logs,
    # parameters and Adam moments, one eval CSV, the gradient suite's worst
    # errors and the bench report; any moved byte names its digest
    with open(os.path.join(ROOT, "tests", "golden.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    got = _record_golden().digests()
    assert sorted(got) == sorted(manifest["digests"])
    moved = [name for name in sorted(got) if got[name] != manifest["digests"][name]]
    assert not moved, "%d of %d digests moved under %s (recorded under %s): %s" % (
        len(moved), len(got), numpy_build(), manifest["numpy"], ", ".join(moved))
