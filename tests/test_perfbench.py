import importlib.util
from pathlib import Path

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
