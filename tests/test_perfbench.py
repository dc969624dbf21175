import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_where_the_tracer_patches_it():
    # the benchmark imports its tracer on every run, and Tracer.install reads
    # owner.__dict__[attr] for each patch, so a renamed or moved name breaks
    # every workload
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.PATCHES if attr not in owner.__dict__]
    assert missing == []


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py imported as worker.py imports it, with
    perfbench/ on sys.path; the benchmark's modules are dropped afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module("workloads")
    for name in set(sys.modules) - before:
        if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
            del sys.modules[name]


def test_each_workload_checks_its_first_item_without_failures(workloads, tmp_path):
    # the benchmark's calls into the program (verify_bundle's keywords, the
    # report and Trajectory fields, the CSV columns) as its worker makes
    # them, on the first input only, with references passed through JSON
    failures = {}
    for name, cls in workloads.WORKLOADS.items():
        inputs = cls.make_inputs(0)
        first = inputs[:1] if isinstance(inputs, list) else inputs
        refs = json.loads(json.dumps(cls.references(first)))
        workload = cls(0, tmp_path / name, refs)
        item = workload.items[0]
        failures[name] = workload.check(item, workload.run(item))[1]
    assert failures == {name: [] for name in workloads.WORKLOADS}
