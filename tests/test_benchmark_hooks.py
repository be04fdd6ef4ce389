"""The benchmark finds every program attribute it wraps and every module it times."""

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


def test_benchmark_import_breakdown_finds_its_modules(monkeypatch):
    # perfbench/run.py reads the numpy, scipy.linalg and scipy.optimize times
    # from the `-X importtime` trace of `import nonshare.cli`; a module that
    # leaves that trace (a lazy import, say) has no samples and the traced
    # run fails on the median of an empty list
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    times = run.import_breakdown(run.bench_env(str(PERFBENCH.parent)))
    assert set(times) == set(run.IMPORTTIME_MODULES.values())
    assert all(isinstance(t, float) and t > 0.0 for t in times.values())


def test_benchmark_scan_check_accepts_the_golden_scan(monkeypatch):
    # the npa-scan workload's correctness gate, on the pinned output whose
    # last row of each tilt is infeasible, with NaN values
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    golden = Path(__file__).resolve().parent / "golden"
    csv_text = (golden / "npa_scan_a0_0.5_g4_i3200.csv").read_text(encoding="utf-8")
    err_text = (golden / "npa_scan_a0_0.5_g4_i3200.err").read_text(encoding="utf-8")
    assert csv_text.count(",nan,nan,inf,inf,-inf,infeasible,no\n") == 2
    assert checks.check_scan(csv_text, err_text, [0.0, 0.5], 4) == []
