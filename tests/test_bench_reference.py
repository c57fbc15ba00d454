"""The benchmark's output gate holds on the program as it stands.

``perfbench/workload.py`` checks every untraced run against
``perfbench/reference.json`` (first stage-I and stage-II loss rows, 1e-9
relative) and ``perfbench/reference_fused.npy`` (a fused image, 1e-9
absolute). Running that same check here makes a change that moves those
bytes fail in the test suite, not first in a benchmark run.
"""

import importlib.util
import os
import sys

import pytest

WORKLOAD = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "workload.py")


def load_workload():
    spec = importlib.util.spec_from_file_location("perfbench_workload", WORKLOAD)
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    return workload


workload = load_workload()


@pytest.fixture(scope="module")
def modules():
    path = sys.path[:]            # load_modules puts the checkout's src/ first
    try:
        yield workload.load_modules()
    finally:
        sys.path[:] = path


@pytest.mark.parametrize("name", ["train-toy", "train-noscan", "fuse-eval"])
def test_workload_output_matches_reference(modules, name):
    assert workload.reference_ok(modules, name)
