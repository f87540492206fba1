"""Trial seeding, screen draws, and the Monte-Carlo simulation driver."""

import hashlib

import numpy as np
import pytest

from fracwave import harness, solver
from fracwave.fractal import FractalOperator
from fracwave.harness import (
    ExperimentSpec,
    draw_screen,
    run_bench,
    run_sf_validation,
    run_simulation,
    trial_generator,
)
from fracwave.metrics import FlopCounter, radial_profile
from fracwave.sensor import simulate_measurements
from fracwave.solver import Reconstructor, SolverConfig
from fracwave.turbulence import kolmogorov


def test_trial_generator_reproducible_and_independent():
    a = trial_generator(5, 7).normal(size=8)
    assert np.array_equal(a, trial_generator(5, 7).normal(size=8))
    assert not np.array_equal(a, trial_generator(5, 8).normal(size=8))
    assert not np.array_equal(a, trial_generator(6, 7).normal(size=8))
    # trial streams do not depend on how many trials ran before them
    later = trial_generator(5, 1000).normal(size=8)
    assert np.array_equal(later, trial_generator(5, 1000).normal(size=8))


def test_draw_screen_shape_and_cost():
    sf = kolmogorov(1.0, 8.0)
    op = FractalOperator(sf, 3)
    counter = FlopCounter()
    scr = draw_screen(op, trial_generator(0, 0), counter=counter)
    assert scr.shape == (9, 9)
    assert np.all(np.isfinite(scr))
    assert counter.tallies() == {"fractal": 6 * 81 - 14}


def test_draw_screen_corner_variance():
    sf = kolmogorov(1.0, 4.0)
    op = FractalOperator(sf, 2)
    rng = trial_generator(12, 0)
    draws = np.array([draw_screen(op, rng)[0, 0] for _ in range(4000)])
    assert draws.var() == pytest.approx(sf.variance, rel=0.1)
    assert abs(draws.mean()) < 4.0 * np.sqrt(sf.variance / 4000)


# -- simulation driver --------------------------------------------------------


@pytest.fixture(scope="module")
def small_sim(tmp_path_factory):
    spec = ExperimentSpec(
        p=3, methods=("u-cg", "w-cg"), max_iter=6, tol=1e-2, trials=4, seed=3
    )
    cache = tmp_path_factory.mktemp("sim-cache")
    return spec, run_simulation(spec, cache_dir=cache), cache


def test_simulation_shapes_and_normalization(small_sim):
    spec, res, _ = small_sim
    for method in spec.methods:
        curves = res.resid_var[method]
        assert curves.shape == (spec.trials, spec.max_iter + 1)
        np.testing.assert_allclose(res.resid_var_norm[method][:, 0], 1.0)
        np.testing.assert_allclose(
            res.resid_var_norm[method], curves / curves[:, :1], rtol=1e-12
        )
        flops = res.iteration_flops[method]
        assert flops.shape == curves.shape
        assert np.all(np.diff(flops, axis=1) >= 0)


def test_simulation_padding_freezes_converged_trials(tmp_path):
    # a loose tolerance converges every trial well before max_iter;
    # columns past convergence must repeat the final state so medians
    # stay well defined
    spec = ExperimentSpec(
        p=3, noise_std=1.0, methods=("u-cg",), max_iter=8, tol=0.5, trials=3, seed=5
    )
    res = run_simulation(spec, cache_dir=tmp_path)
    curves = res.resid_var["u-cg"]
    flops = res.iteration_flops["u-cg"]
    assert np.array_equal(curves[:, -1], curves[:, -2])
    assert np.array_equal(flops[:, -1], flops[:, -2])


def test_simulation_is_deterministic(small_sim):
    spec, res, cache = small_sim
    again = run_simulation(spec, cache_dir=cache)
    for method in spec.methods:
        np.testing.assert_array_equal(res.resid_var[method], again.resid_var[method])
    assert res.input_digests == again.input_digests


def test_simulation_digests_identify_trials(small_sim):
    spec, res, _ = small_sim
    for method in spec.methods:
        digests = res.input_digests[method]
        assert len(digests) == spec.trials
        assert len(set(digests)) == spec.trials
    # both methods saw the same measurement sets
    assert res.input_digests["u-cg"] == res.input_digests["w-cg"]


def test_simulation_median_helpers(small_sim):
    spec, res, _ = small_sim
    m = spec.methods[0]
    np.testing.assert_array_equal(res.median_variance(m), np.median(res.resid_var[m], axis=0))
    np.testing.assert_array_equal(
        res.median_normalized(m), np.median(res.resid_var_norm[m], axis=0)
    )


def solve_trials_alone(spec, cache_dir):
    """Per-trial traces and digests from one reconstruct call per trial."""
    recon = Reconstructor(spec.p, spec.r0, cache_dir=cache_dir)
    traces = {m: [] for m in spec.methods}
    digests = []
    for t in range(spec.trials):
        rng = trial_generator(spec.seed, t)
        w_true = draw_screen(recon.fractal, rng)
        slopes = simulate_measurements(w_true, recon.pupil, spec.noise_std, rng)
        digests.append(hashlib.sha256(
            slopes.sx.tobytes() + slopes.sy.tobytes() + slopes.var.tobytes()).hexdigest())
        for m in spec.methods:
            config = SolverConfig(m, spec.max_iter, spec.tol)
            traces[m].append(recon.reconstruct(slopes, config, truth=w_true)[1])
    return traces, digests


@pytest.mark.parametrize("p, methods, tol, seed, chunk", [
    # every trial runs all iterations; chunks of 2, 2 and 1
    (4, ("u-pcg-opt", "w-cg"), 1e-30, 2, 2),
    # trials 0-2 share a chunk and stop after 1, 1 and 2 u-cg iterations
    (3, ("u-cg", "w-pcg-jac"), 0.5, 5, 3),
])
def test_chunked_trials_match_one_solve_per_trial(tmp_path, monkeypatch, p, methods, tol,
                                                  seed, chunk):
    n = (1 << p) + 1
    monkeypatch.setattr(harness, "CHUNK_BYTES", chunk * 8 * n * n)
    spec = ExperimentSpec(p=p, methods=methods, max_iter=8, tol=tol, trials=5, seed=seed)
    seen = []
    res = run_simulation(spec, cache_dir=tmp_path, progress=lambda done, total: seen.append(
        (done, total)))
    assert seen == [(t + 1, spec.trials) for t in range(spec.trials)]
    alone, digests = solve_trials_alone(spec, tmp_path)
    rows = spec.max_iter + 1
    for m in methods:
        assert res.input_digests[m] == digests
        for t, trace in enumerate(alone[m]):
            flops = np.array(harness._padded(trace.flops, rows))
            assert np.array_equal(res.iteration_flops[m][t].astype(np.int64), flops)
            np.testing.assert_allclose(res.resid_var[m][t], harness._padded(trace.resid_var, rows),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(res.resid_var_norm[m][t],
                                       harness._padded(trace.resid_var_norm, rows),
                                       rtol=1e-12, atol=0)
    if tol == 0.5:
        assert [alone["u-cg"][t].iterations[-1] for t in range(chunk)] == [1, 1, 2]


def test_default_chunk_holds_every_trial_at_p6_and_tens_at_p8():
    def chunk(p):
        return harness.CHUNK_BYTES // (8 * ((1 << p) + 1) ** 2)

    assert chunk(6) >= 100
    assert 10 <= chunk(8) < 100


def test_experiment_spec_validation():
    with pytest.raises(ValueError, match="p"):
        ExperimentSpec(p=0)
    for p, side in ((1, 3), (2, 5)):
        with pytest.raises(ValueError, match=f"grid of side {side} holds no subaperture"):
            ExperimentSpec(p=p)
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec(p=3, trials=0)
    with pytest.raises(ValueError, match="methods"):
        ExperimentSpec(p=3, methods=("newton",))
    with pytest.raises(ValueError, match="noise_std"):
        ExperimentSpec(p=3, noise_std=-0.5)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_std must be finite"):
            ExperimentSpec(p=3, noise_std=value)


@pytest.mark.parametrize("trials", [2.5, 2.0, True])
def test_experiment_spec_rejects_a_non_integer_trials(trials):
    with pytest.raises(ValueError, match="trials must be an integer"):
        ExperimentSpec(p=3, trials=trials)


@pytest.mark.parametrize("p", [3.5, 4.0, np.float64(4.0), True])
def test_experiment_spec_rejects_a_non_integer_p(p):
    with pytest.raises(ValueError, match="p must be an integer"):
        ExperimentSpec(p=p)
    assert ExperimentSpec(p=np.int64(4)).p == 4


def test_simulation_builds_preconditioner_once(tmp_path, monkeypatch):
    # noise_std**2 and noise_std * noise_std differ by one ULP here, so a
    # preconditioner keyed on the former would never serve the slopes.
    noise_std = 0.6652276103250185
    assert noise_std**2 != noise_std * noise_std
    builds = []
    build = solver.operator_diagonal_stats

    def counted(op, *args, **kwargs):
        builds.append(op.space)
        return build(op, *args, **kwargs)

    monkeypatch.setattr(solver, "operator_diagonal_stats", counted)
    spec = ExperimentSpec(p=3, noise_std=noise_std, methods=("u-pcg-opt",), max_iter=3, trials=2)
    run_simulation(spec, cache_dir=tmp_path)
    assert builds == ["u"]
    assert len(list(tmp_path.iterdir())) == 1


# -- statistics validation and benchmarks --------------------------------------


def test_sf_validation_consistent_with_profile():
    v = run_sf_validation(3, 1.0, trials=20, seed=2)
    assert v.map2d.shape == (17, 17)
    sf = kolmogorov(1.0, 8.0)
    radii, measured, expected = radial_profile(v.map2d, theory=sf.evaluate)
    np.testing.assert_array_equal(v.radii, radii)
    np.testing.assert_allclose(v.measured, measured)
    np.testing.assert_allclose(v.expected, expected)
    assert np.all(v.measured > 0) and np.all(v.expected > 0)


def test_bench_rows(tmp_path):
    rows = run_bench([3], iterations=2, cache_dir=tmp_path)
    ops = [r.op for r in rows]
    assert ops == [
        "fractal-forward",
        "fractal-transpose",
        "fractal-inverse",
        "fractal-inverse-transpose",
        "sensor-forward",
        "sensor-adjoint",
        "reconstruction-2iter",
    ]
    for row in rows:
        assert row.p == 3 and row.n == 9 and row.samples == 81
        if row.op.startswith("fractal"):
            assert row.flops == 6 * 81 - 14
        if row.op.startswith("sensor"):
            assert row.flops == 100
        if row.op.startswith("reconstruction"):
            assert row.flops > 0
