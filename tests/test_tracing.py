"""The benchmark's run-time tracer finds, wraps and restores every name it patches.

``benchmark/tracing.py`` reads each target from its owner's ``__dict__``,
so renaming or moving one of them breaks ``benchmark/run.py --trace 1``
with a KeyError; this test fails first.  It also sees every multiscale
map a cold preconditioner build runs and every iteration of each column
of a stacked solve, which its per-layer figures count.  The benchmark's
dense reference must build the package's K, or its accuracy check reads
a change to the prior as estimate error.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fracwave.solver as solver
from fracwave.fileio import write_trace_csv
from fracwave.fractal import FractalOperator, build_outer_operator
from fracwave.harness import draw_screen, trial_generator
from fracwave.sensor import simulate_measurements
from fracwave.solver import Reconstructor, SolverConfig
from fracwave.turbulence import kolmogorov

from oracles import dense_grid_operator

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_benchmark_tracer_wraps_and_restores_its_targets(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    patched = [(owner, attr) for owner, attr, *_ in tracing._TARGETS]
    patched += [(solver, "pcg_solve"), (Reconstructor, "reconstruct")]
    originals = [owner.__dict__[attr] for owner, attr in patched]

    # Probe batches of the floor size, so that all but the first run their
    # maps from a pass > 0 on.
    monkeypatch.setattr(solver, "PROBE_BATCH_BYTES", 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(patched, originals))
        rec = Reconstructor(3, cache_dir=tmp_path)
        rng = trial_generator(0, 0)
        truth = draw_screen(rec.fractal, rng)
        slopes = simulate_measurements(truth, rec.pupil, 0.5, rng)
        config = SolverConfig("u-pcg-opt", 4, 1e-30)
        _, trace = rec.reconstruct(slopes, config, truth=truth)
        write_trace_csv(tmp_path / "trace.csv", trace, {})  # reads the derived Strehl column
        layers = tracer.layer_metrics(1, rec.n * rec.n)
        # A stack counts the iterations of each of its columns.
        rec.reconstruct([slopes] * 3, config)
        stacked_iterations = tracer.iterations - layers["solver.iterations"]
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(patched, originals))

    names = {span[0] for span in tracer.spans}
    assert {"solver.init", "solver.reconstruct", "solver.pcg_solve", "solver.normal_apply",
            "solver.operator_diagonal_stats", "metrics.residual_stats",
            "metrics.strehl_ratio"} <= names
    assert layers["solver.iterations"] == 4
    assert stacked_iterations == 12

    # Every map of the cold build is traced, below the build: each probe
    # grid goes through K and K^T.
    def in_build(span):
        while span[3] >= 0:
            span = tracer.spans[span[3]]
            if span[0] == "solver.operator_diagonal_stats":
                return True
        return False

    build_maps = [span for span in tracer.spans
                  if span[0].startswith("fractal.") and span[0] != "fractal.init" and in_build(span)]
    assert {span[0] for span in build_maps} == {"fractal.forward", "fractal.transpose"}
    assert sum(span[4] for span in build_maps) == 2 * layers["solver.precond_build_applies"] > 0
    # one residual per monitor call, iterations 0..4, and one Strehl read
    assert layers["metrics.diagnostics_calls"] == 6
    assert layers["solver.cache_builds"] == 1


def test_benchmark_imports_only_names_fracwave_has():
    # The benchmark imports the library by name, some of it inside
    # functions, so a name deleted from fracwave would show only when the
    # benchmark runs.  The files are parsed, never run.
    found = []
    for name in ("run.py", "tracing.py", "reference.py"):
        for node in ast.walk(ast.parse((BENCHMARK / name).read_text())):
            if isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found += [(node.module, alias.name) for alias in node.names]
    found = [(module, attr) for module, attr in found if module.split(".")[0] == "fracwave"]
    assert ("fracwave", "build_outer_operator") in found  # reference.py, inside a function
    for module, attr in found:
        owner = importlib.import_module(module)
        assert attr is None or hasattr(owner, attr) or importlib.util.find_spec(
            f"{module}.{attr}"), f"{module}.{attr}"


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_benchmark_reference_builds_the_package_prior(monkeypatch, p):
    # benchmark/reference.py assembles K from the closed-form law in its
    # own code, from the inputs its main() passes.  A change to the
    # package's weights shows here, not as a seed-dependent miss of the
    # benchmark's dense-estimate check.
    monkeypatch.syspath_prepend(str(BENCHMARK))
    reference = importlib.import_module("reference")
    n = (1 << p) + 1
    sf = kolmogorov(1.0, float(n - 1))
    outer = build_outer_operator(sf, float(n - 1)).forward_matrix
    want = reference.generator_matrix(sf, p, outer)
    got = dense_grid_operator(FractalOperator(sf, p).apply, n)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
