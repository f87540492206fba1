"""The benchmark's run-time tracer finds, wraps and restores every name it patches.

``benchmark/tracing.py`` reads each target from its owner's ``__dict__``,
so renaming or moving one of them breaks ``benchmark/run.py --trace 1``
with a KeyError; this test fails first.
"""

import importlib
from pathlib import Path

import fracwave.solver as solver
from fracwave.fileio import write_trace_csv
from fracwave.harness import draw_screen, trial_generator
from fracwave.sensor import simulate_measurements
from fracwave.solver import Reconstructor, SolverConfig

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_benchmark_tracer_wraps_and_restores_its_targets(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    patched = [(owner, attr) for owner, attr, *_ in tracing._TARGETS]
    patched += [(solver, "pcg_solve"), (Reconstructor, "reconstruct")]
    originals = [owner.__dict__[attr] for owner, attr in patched]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(patched, originals))
        rec = Reconstructor(3, cache_dir=tmp_path)
        rng = trial_generator(0, 0)
        truth = draw_screen(rec.fractal, rng)
        slopes = simulate_measurements(truth, rec.pupil, 0.5, rng)
        _, trace = rec.reconstruct(slopes, SolverConfig("u-pcg-opt", 4, 1e-30), truth=truth)
        write_trace_csv(tmp_path / "trace.csv", trace, {})  # reads the derived Strehl column
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(patched, originals))

    names = {span[0] for span in tracer.spans}
    assert {"solver.init", "solver.reconstruct", "solver.pcg_solve", "solver.normal_apply",
            "solver.operator_diagonal_stats", "metrics.residual_stats",
            "metrics.strehl_ratio"} <= names
    assert tracer.iterations == 4
    layers = tracer.layer_metrics(1, rec.n * rec.n)
    # one residual per monitor call, iterations 0..4, and one Strehl read
    assert layers["metrics.diagnostics_calls"] == 6
    assert layers["solver.cache_builds"] == 1
