"""The benchmark's tracer finds every program attribute it wraps."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_instrumentation_resolves_its_targets(monkeypatch):
    # perfbench/workload.py looks up module attributes by name when it
    # registers its spans, so a renamed or deleted one fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workload

    tr = tracer.Tracer()
    workload.instrument(tr)  # registers the wrappers without installing them
    assert len(tr._patches) == 23
