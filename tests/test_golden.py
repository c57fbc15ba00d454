"""Byte-identity manifest: what the model computes, against the digests
``scripts/record_golden.py`` recorded on a known-good tree for the host
class this process runs as."""

import importlib.util
import json
import os

import pytest

from conftest import as_avx2_host, numpy_build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _record_golden():
    spec = importlib.util.spec_from_file_location(
        "record_golden", os.path.join(ROOT, "scripts", "record_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def moved_digests() -> str:
    """Every digest this process computes against its host class's record:
    the failure message, or "" when every byte held."""
    with open(os.path.join(ROOT, "tests", "golden.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    build = numpy_build()
    if build not in manifest:
        return "no record for %s; recorded: %s" % (build, "; ".join(sorted(manifest)))
    want, got = manifest[build], _record_golden().digests()
    moved = sorted(name for name in set(want) | set(got)
                   if want.get(name) != got.get(name))
    return "%d of %d digests moved under %s: %s" % (
        len(moved), len(want), build, ", ".join(moved)) if moved else ""


def test_outputs_match_the_golden_manifest():
    # fused images and initial parameters of seven builds, three tiny
    # training runs' loss logs, parameters and Adam moments, one eval CSV,
    # the gradient suite's worst errors, the bench report and the scan
    # core's bytes; any moved byte names its digest and the host class
    message = moved_digests()
    assert not message, message


def test_outputs_match_the_avx2_record():
    # the same comparison in a child that emulates an AVX2-only host, whose
    # OpenBLAS kernel and numpy loops round the last bits differently
    if as_avx2_host("import conftest; print(conftest.numpy_build())").strip() \
            == numpy_build():
        pytest.skip("this host's own class is the AVX2 class")
    message = as_avx2_host(
        "import test_golden; print(test_golden.moved_digests())").strip()
    assert not message, message
