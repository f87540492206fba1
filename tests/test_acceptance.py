"""End-to-end acceptance checks at their stated tolerances and budgets.

Each criterion reports exactly one PASS/FAIL line in the terminal
summary.  Criterion 4 is a known failure and is kept at its stated
tolerance on purpose; see its docstring for the measured behavior.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fracwave.fractal import FractalOperator
from fracwave.harness import (
    ExperimentSpec,
    draw_screen,
    run_sf_validation,
    run_simulation,
    trial_generator,
)
from fracwave.metrics import FlopCounter, fractal_apply_flops
from fracwave.sensor import ShackHartmann, make_pupil, simulate_measurements
from fracwave.solver import (
    DiagonalPreconditioner,
    NormalOperator,
    Reconstructor,
    SolverConfig,
    pcg_solve,
)
from fracwave.fractal import (
    diamond_coefficients,
    square_coefficients,
    triangle_coefficients,
)
from fracwave.turbulence import kolmogorov

from conftest import record_criterion
from oracles import (corner_points, covariance_matrix, dense_grid_operator,
                     dense_sensor_matrix, solve_coefficients_numeric)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        record_criterion(num, label, False)
        raise
    record_criterion(num, label, True)


def rel_err(got, want):
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want)) / np.linalg.norm(want))


# -- 1: operator algebra -----------------------------------------------------


def test_criterion_1_operator_algebra():
    with criterion(1, "operator algebra identities, scales 1..5"):
        start = time.perf_counter()
        for p in range(1, 6):
            sf = kolmogorov(1.0, float(1 << p))
            op = FractalOperator(sf, p)
            n = op.n
            rng = np.random.default_rng(p)
            x = rng.normal(size=(n, n))
            y = rng.normal(size=(n, n))

            for fwd, inv in (
                (op.apply, op.apply_inverse),
                (op.apply_inverse, op.apply),
                (op.apply_transpose, op.apply_inverse_transpose),
                (op.apply_inverse_transpose, op.apply_transpose),
            ):
                assert rel_err(inv(fwd(x.copy())), x) <= 1e-9

            for fwd, adj in (
                (op.apply, op.apply_transpose),
                (op.apply_inverse, op.apply_inverse_transpose),
            ):
                lhs = float(np.vdot(x, fwd(y.copy())))
                rhs = float(np.vdot(adj(x.copy()), y))
                assert lhs == pytest.approx(rhs, rel=1e-12)

            pup = make_pupil(n)
            sh = ShackHartmann(pup)
            gx = rng.normal(size=pup.nsub)
            gy = rng.normal(size=pup.nsub)
            dx, dy = sh.forward(x)
            lhs = float(gx @ dx + gy @ dy)
            rhs = float(np.vdot(sh.adjoint(gx, gy), x))
            assert lhs == pytest.approx(rhs, rel=1e-12)

            M = op.outer.forward_matrix
            C = covariance_matrix(sf, corner_points(n))
            assert np.abs(M @ M.T - C).max() <= 1e-12
        assert time.perf_counter() - start < 5.0


# -- 2: closed-form weights ---------------------------------------------------


def stencil_geometry(kind, r):
    h = r / 2.0
    if kind == "square":
        return (h, h), [(0.0, 0.0), (0.0, r), (r, 0.0), (r, r)]
    if kind == "triangle":
        return (0.0, h), [(0.0, 0.0), (0.0, r), (h, h)]
    return (0.0, 0.0), [(-h, 0.0), (h, 0.0), (0.0, -h), (0.0, h)]


def test_criterion_2_coefficients():
    with criterion(2, "closed-form weights equal the generic solve, 8 scales"):
        start = time.perf_counter()
        sf = kolmogorov(1.0, 256.0)
        closed_forms = {
            "square": lambda r: square_coefficients(sf, r),
            "triangle": lambda r: triangle_coefficients(sf, r),
            "diamond": lambda r: diamond_coefficients(sf, r),
        }
        for k in range(8, 0, -1):
            r = 1 << k
            for kind, closed in closed_forms.items():
                child, parents = stencil_geometry(kind, r)
                npar = len(parents)
                parent_cov = np.empty((npar, npar))
                for i, pi in enumerate(parents):
                    for j, pj in enumerate(parents):
                        parent_cov[i, j] = sf.covariance(np.hypot(pi[0] - pj[0], pi[1] - pj[1]))
                cross = np.array(
                    [sf.covariance(np.hypot(child[0] - q[0], child[1] - q[1])) for q in parents]
                )
                alpha0, alphas = solve_coefficients_numeric(parent_cov, cross, sf.variance)
                got = closed(r)
                np.testing.assert_allclose(got[0], alpha0, rtol=1e-10, atol=1e-10)
                if kind == "triangle":
                    expect = [alphas[0], alphas[2]]
                    np.testing.assert_allclose(alphas[0], alphas[1], rtol=1e-10)
                else:
                    expect = [alphas[0]]
                    np.testing.assert_allclose(alphas, alphas[0], rtol=1e-10)
                np.testing.assert_allclose(got[1:], expect, rtol=1e-10, atol=1e-10)
        assert time.perf_counter() - start < 1.0


# -- 3: dense equivalence ------------------------------------------------------


def test_criterion_3_dense_equivalence():
    with criterion(3, "all six variants match a dense direct solve"):
        start = time.perf_counter()
        p = 3
        n = (1 << p) + 1
        sf = kolmogorov(1.0, float(1 << p))
        op = FractalOperator(sf, p)
        pup = make_pupil(n)
        rng = np.random.default_rng(7)
        w_true = op.apply(rng.standard_normal((n, n)))
        slopes = simulate_measurements(w_true, pup, 1.0, rng)

        K = dense_grid_operator(op.apply, n)
        S = dense_sensor_matrix(pup)
        w_diag = np.concatenate([1.0 / slopes.var, 1.0 / slopes.var])
        A = S.T @ (w_diag[:, None] * S) + np.linalg.inv(K @ K.T)
        b = S.T @ (w_diag * np.concatenate([slopes.sx, slopes.sy]))
        ref = np.linalg.solve(A, b).reshape(n, n)

        rec = Reconstructor(p)
        for method in ("w-cg", "w-pcg-jac", "w-pcg-opt", "u-cg", "u-pcg-jac", "u-pcg-opt"):
            cfg = SolverConfig(method, max_iter=1000, tol=1e-10)
            w_hat, trace = rec.reconstruct(slopes, cfg)
            assert trace.converged, method
            assert rel_err(w_hat, ref) <= 1e-6, method
        assert time.perf_counter() - start < 5.0


# -- 4: screen statistics ------------------------------------------------------


def test_criterion_4_structure_function():
    """Known failure, kept honest.

    The recursion matches the target statistics exactly only for pairs
    that share a stencil; every other covariance inherits the coarse
    approximation.  With 1000 screens at p = 5 the radially averaged
    structure function sits 12-17% below 6.88 r^{5/3} throughout
    r in [2, 8] (reproducible across seeds, invariant in r0, and not an
    estimator artifact: the estimator is exact on closed-form inputs).
    Tightening the outermost variance or reordering passes makes it
    worse, so the stated 10% band is not attainable with this operator
    family; the deficit is pinned at 20% in the module tests instead.
    """
    with criterion(4, "radial structure function within 10% on r in [2, 8]"):
        start = time.perf_counter()
        v = run_sf_validation(5, 1.0, trials=1000, seed=42)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        sel = (v.radii >= 2) & (v.radii <= 8)
        deviation = np.abs(v.measured[sel] - v.expected[sel]) / v.expected[sel]
        assert deviation.max() <= 0.10, (
            f"radial deviation {deviation.max():.1%} exceeds 10%; "
            "see docstring: small-separation deficit of the recursion"
        )


# -- 5, 6, 8: Monte-Carlo convergence ------------------------------------------


@pytest.fixture(scope="module")
def noise_sims():
    """100-trial 65x65 runs at three noise levels, cold cache timing."""
    results = {}
    seconds = {}
    for noise in (1.0, 0.5, 0.1):
        methods = ("u-pcg-opt", "w-cg") if noise == 1.0 else ("u-pcg-opt",)
        spec = ExperimentSpec(
            p=6,
            noise_std=noise,
            methods=methods,
            max_iter=30,
            tol=1e-30,
            trials=100,
            seed=101,
        )
        t0 = time.perf_counter()
        results[noise] = run_simulation(spec)
        seconds[noise] = time.perf_counter() - t0
    return results, seconds


def test_criterion_5_convergence(noise_sims):
    results, seconds = noise_sims
    with criterion(5, "u-space pcg converges by iteration 10 at 65x65"):
        med = results[1.0].median_normalized("u-pcg-opt")
        assert med[1] <= 1.0 / 30.0
        converged_value = med[30]
        assert abs(med[10] - converged_value) <= 0.05 * converged_value
        assert seconds[1.0] < 300.0


def test_criterion_6_preconditioning_gap(noise_sims):
    results, _ = noise_sims
    with criterion(6, "equal-flop gap to plain w-space CG is >= 10x"):
        res = results[1.0]
        flops_u = res.iteration_flops["u-pcg-opt"]
        flops_w = res.iteration_flops["w-cg"]
        var_u = res.resid_var["u-pcg-opt"]
        var_w = res.resid_var["w-cg"]
        picks = np.empty(var_w.shape[0])
        for t in range(var_w.shape[0]):
            # last w-cg iterate affordable within this trial's u budget
            k = int(np.searchsorted(flops_w[t], flops_u[t, 10], side="right")) - 1
            picks[t] = var_w[t, k]
        ratio = float(np.median(picks) / np.median(var_u[:, 10]))
        assert ratio >= 10.0


# -- 7: flop model --------------------------------------------------------------


def test_criterion_7_flop_model():
    with criterion(7, "linear cost model holds across 33..257 grids"):
        totals_per_sample = []
        for p in (5, 6, 7, 8):
            sf = kolmogorov(1.0, float(1 << p))
            op = FractalOperator(sf, p)
            n = op.n
            size = n * n

            probe = FlopCounter()
            op.apply(np.zeros((n, n)), counter=probe)
            assert probe.total == 6 * size - 14
            assert probe.total == fractal_apply_flops(size)

            pup = make_pupil(n)
            sh = ShackHartmann(pup)
            w_true = draw_screen(op, trial_generator(77, p))
            slopes = simulate_measurements(w_true, pup, 1.0, trial_generator(78, p))
            A = NormalOperator(op, sh, 1.0 / slopes.var, "u")
            # unit diagonal: flop-identical to the tuned one without its
            # one-time build, which criterion 5 already pays for
            pre = DiagonalPreconditioner(np.ones((n, n)), kind="optimal", space="u")

            counter = FlopCounter()
            b = A.rhs([slopes], counter=counter)
            marks = {}
            x, _, iters = pcg_solve(
                A.apply,
                b,
                tol=1e-30,
                max_iter=10,
                preconditioner=pre,
                counter=counter,
                monitor=lambda k, xk, rnorm, stepped, alpha: marks.__setitem__(k, counter.total),
            )
            assert iters == 10
            per_iteration = (marks[10] - marks[1]) / 9.0 / size
            assert abs(per_iteration - 34.0) <= 0.15 * 34.0

            op.apply(x, counter=counter)  # map the answer to a wavefront
            total = counter.total / size
            assert abs(total - 363.0) <= 0.15 * 363.0
            totals_per_sample.append(total)

        spread = max(totals_per_sample) / min(totals_per_sample)
        assert spread <= 1.10


# -- 8: noise sweep --------------------------------------------------------------


def test_criterion_8_noise_sweep(noise_sims):
    results, _ = noise_sims
    with criterion(8, "attenuation noise-independent, floor decreases with noise"):
        attenuation = []
        floors = []
        for noise in (1.0, 0.5, 0.1):
            med_norm = results[noise].median_normalized("u-pcg-opt")
            attenuation.append(med_norm[1])
            floors.append(results[noise].median_variance("u-pcg-opt")[30])
        assert max(attenuation) / min(attenuation) <= 1.20
        assert floors[0] > floors[1] > floors[2]
