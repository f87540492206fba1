"""Normal equations, PCG, preconditioners, and the reconstruction front end."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

import fracwave.solver as solver
from fracwave.fractal import FractalOperator, scale_count
from fracwave.metrics import FlopCounter, fractal_apply_flops
from fracwave.sensor import ShackHartmann, SlopeSet, make_pupil, simulate_measurements
from fracwave.solver import (
    PROBE_BATCH_BYTES,
    PROBE_BATCH_FLOOR,
    VARIANTS,
    DiagonalPreconditioner,
    IndefiniteOperatorError,
    NormalOperator,
    Reconstructor,
    SolverConfig,
    jacobi_preconditioner,
    operator_diagonal_stats,
    optimal_diagonal_preconditioner,
    pcg_solve,
)
from fracwave.turbulence import kolmogorov

from oracles import dense_grid_operator, dense_sensor_matrix, exhaustive_diagonal_stats

P = 3
N_SIDE = (1 << P) + 1
SIZE = N_SIDE * N_SIDE


@pytest.fixture(scope="module")
def system():
    sf = kolmogorov(1.0, float(1 << P))
    op = FractalOperator(sf, P)
    pup = make_pupil(N_SIDE)
    sh = ShackHartmann(pup)
    rng = np.random.default_rng(42)
    w_true = op.apply(rng.standard_normal((N_SIDE, N_SIDE)))
    slopes = simulate_measurements(w_true, pup, 1.0, rng)
    return sf, op, pup, sh, w_true, slopes


def dense_normal_parts(op, pup, slopes):
    K = dense_grid_operator(op.apply, N_SIDE)
    S = dense_sensor_matrix(pup)
    w_diag = np.concatenate([1.0 / slopes.var, 1.0 / slopes.var])
    StWS = S.T @ (w_diag[:, None] * S)
    prior = np.linalg.inv(K @ K.T)
    A_w = StWS + prior
    A_u = K.T @ StWS @ K + np.eye(SIZE)
    d = np.concatenate([slopes.sx, slopes.sy])
    b_w = S.T @ (w_diag * d)
    b_u = K.T @ b_w
    return K, A_w, A_u, b_w, b_u


# -- normal operator ---------------------------------------------------------


def test_normal_operator_matches_dense_both_spaces(tmp_path):
    # Non-uniform weights with exact zeros, p = 1 (no subaperture) to 5.
    for p in range(1, 6):
        rec = Reconstructor(p, cache_dir=tmp_path)
        n, nsub = rec.n, rec.pupil.nsub
        rng = np.random.default_rng(p)
        inv_var = rng.uniform(0.2, 3.0, nsub)
        inv_var[rng.random(nsub) < 0.2] = 0.0
        basis = np.eye(n * n).reshape(-1, n, n)
        K = rec.fractal.apply(basis.copy()).reshape(n * n, n * n).T
        S = dense_sensor_matrix(rec.pupil)
        StWS = S.T @ (np.concatenate([inv_var, inv_var])[:, None] * S)
        K_inv = np.linalg.inv(K)
        refs = {"w": StWS + K_inv.T @ K_inv, "u": K.T @ StWS @ K + np.eye(n * n)}
        for space, ref in refs.items():
            dense = rec.system(inv_var, space).apply(basis).reshape(n * n, n * n).T
            np.testing.assert_allclose(dense, ref, rtol=0, atol=1e-9 * np.abs(ref).max(),
                                       err_msg=f"p={p} {space}")


@pytest.mark.parametrize("space", ["u", "w"])
def test_normal_operator_stack_matches_each_grid_bit_for_bit(space, tmp_path):
    rec = Reconstructor(5, cache_dir=tmp_path)
    rng = np.random.default_rng(11)
    inv_var = rng.uniform(0.2, 3.0, rec.pupil.nsub)
    inv_var[rng.random(rec.pupil.nsub) < 0.2] = 0.0
    A = rec.system(inv_var, space)
    x = rng.standard_normal((3, rec.n, rec.n))
    before = x.copy()
    stacked = A.apply(x)
    np.testing.assert_array_equal(x, before)
    for grid, got in zip(x, stacked):
        np.testing.assert_array_equal(A.apply(grid), got)


def test_normal_operator_hands_its_screen_to_a_caller_that_asks(tmp_path):
    rec = Reconstructor(5, cache_dir=tmp_path)
    rng = np.random.default_rng(12)
    inv_var = rng.uniform(0.2, 3.0, rec.pupil.nsub)
    x = rng.standard_normal((3, rec.n, rec.n))
    A = rec.system(inv_var, "u")
    screen = np.full_like(x, np.nan)
    np.testing.assert_array_equal(A.apply(x, screen=screen), A.apply(x))
    np.testing.assert_array_equal(screen, rec.fractal.apply(x.copy()))
    with pytest.raises(ValueError, match="shape"):
        A.apply(x, screen=screen[0])
    with pytest.raises(ValueError, match="u-space"):
        rec.system(inv_var, "w").apply(x, screen=screen)


@pytest.mark.parametrize("space", ["u", "w"])
@pytest.mark.parametrize("p", [3, 6])
def test_normal_operator_charges_each_family_exactly(p, space, tmp_path):
    rec = Reconstructor(p, cache_dir=tmp_path)
    n, nsub, edges = rec.n, rec.pupil.nsub, rec.sensor.n_edges
    A = rec.system(np.ones(nsub), space)
    for batch in (1, 4):
        counter = FlopCounter()
        A.apply(np.ones((batch, n, n)), counter)
        assert counter.tallies() == {
            "fractal": batch * 2 * fractal_apply_flops(n * n),
            "sensor": batch * 2 * (2 * edges + 2 * nsub),
            "noise": batch * 2 * nsub,
            "vector": batch * n * n,
        }


def test_normal_operator_is_spd(system):
    _, op, pup, _, _, slopes = system
    _, A_w, A_u, _, _ = dense_normal_parts(op, pup, slopes)
    for ref in (A_w, A_u):
        np.testing.assert_allclose(ref, ref.T, rtol=0, atol=1e-9 * np.abs(ref).max())
        assert np.linalg.eigvalsh(ref).min() > 0


def test_rhs_matches_dense(system):
    _, op, pup, sh, _, slopes = system
    _, _, _, b_w, b_u = dense_normal_parts(op, pup, slopes)
    inv_var = 1.0 / slopes.var
    for space, ref in (("w", b_w), ("u", b_u)):
        A = NormalOperator(op, sh, inv_var, space)
        got = A.rhs([slopes])
        np.testing.assert_allclose(got.ravel(), ref, rtol=0, atol=1e-11 * np.abs(ref).max())


def test_normal_operator_rejects_unknown_space(system):
    _, op, _, sh, _, slopes = system
    with pytest.raises(ValueError):
        NormalOperator(op, sh, 1.0 / slopes.var, "q")


# -- diagonal probing --------------------------------------------------------


@pytest.mark.parametrize("batch_size", [None, 1, 7])
def test_diagonal_stats_match_dense(batch_size):
    rng = np.random.default_rng(10)
    m = rng.normal(size=(36, 36))
    m = m + m.T
    apply_fn = lambda x: (x.reshape(-1, 36) @ m).reshape(x.shape)
    diag, rowsq = exhaustive_diagonal_stats(apply_fn, 6, batch_size=batch_size)
    np.testing.assert_allclose(diag.ravel(), np.diag(m), rtol=1e-13)
    np.testing.assert_allclose(rowsq.ravel(), (m * m).sum(axis=1), rtol=1e-13)


@pytest.mark.parametrize(
    "p, space, batch_size",
    [(p, space, None) for p in (2, 3, 4, 5) for space in ("u", "w")]
    + [(4, "u", 7), (6, "u", None)],
)
def test_colored_probe_matches_exhaustive(p, space, batch_size, tmp_path):
    rec = Reconstructor(p, cache_dir=tmp_path)
    rng = np.random.default_rng(p)
    inv_var = rng.uniform(0.2, 3.0, rec.pupil.nsub)
    inv_var[rng.random(rec.pupil.nsub) < 0.2] = 0.0
    A = rec.system(inv_var, space)
    diag, rowsq = operator_diagonal_stats(A, batch_size=batch_size)
    ref_diag, ref_rowsq = exhaustive_diagonal_stats(A.apply, A.n)
    np.testing.assert_allclose(diag, ref_diag, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rowsq, ref_rowsq, rtol=1e-12, atol=0)


class GridCounter:
    """Stand-in operator that counts the grids it is applied to."""

    def __init__(self, p, space, fill=0.0):
        self.n = (1 << p) + 1
        self.space = space
        self.fill = fill
        self.grids = 0
        self.largest = 0

    def apply(self, x):
        self.grids += x.shape[0]
        self.largest = max(self.largest, x.shape[0])
        return np.full_like(x, self.fill)


# Probes for p = 4..8: the finest pass takes stride 5 in both spaces.
PROBE_COUNTS = {"u": [106, 186, 267, 348, 429], "w": [74, 99, 124, 149, 174]}


@pytest.mark.parametrize("space, stride", [("u", 9), ("w", 5)])
def test_colored_probe_count_grows_by_a_constant_per_pass(space, stride):
    counts = []
    largest = []
    for p in range(4, 9):
        op = GridCounter(p, space)
        operator_diagonal_stats(op)
        counts.append(op.grids)
        largest.append(op.largest)
        assert (op.largest * 8 * op.n * op.n <= PROBE_BATCH_BYTES
                or op.largest == PROBE_BATCH_FLOOR)
    assert counts == PROBE_COUNTS[space]
    assert np.diff(counts[1:]).tolist() == [stride * stride] * 3
    assert largest[2:] == [7, 4, 4]


@pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
def test_colored_probe_rejects_a_bad_batch_size(batch_size):
    op = GridCounter(3, "u")
    with pytest.raises(ValueError, match="batch_size"):
        operator_diagonal_stats(op, batch_size=batch_size)
    assert op.grids == 0


def test_warm_probe_build_fits_a_small_working_set(tmp_path):
    rec = Reconstructor(6, cache_dir=tmp_path)
    A = rec.system(np.ones(rec.pupil.nsub), "u")
    operator_diagonal_stats(A)  # sizes the multiscale maps' workspace
    tracemalloc.start()
    try:
        operator_diagonal_stats(A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20


@pytest.mark.parametrize("space, maps", [("u", [(False, False), (True, False)]),
                                         ("w", [(False, True), (True, True)])])
def test_probe_build_binds_each_map_at_most_twice(space, maps, tmp_path, monkeypatch, caplog):
    rec = Reconstructor(6, cache_dir=tmp_path)
    A = rec.system(np.ones(rec.pupil.nsub), space)
    bound = []
    steps = FractalOperator._steps

    def counting(self, transpose, inverse):
        bound.append((transpose, inverse))
        return steps(self, transpose, inverse)

    monkeypatch.setattr(FractalOperator, "_steps", counting)
    with caplog.at_level(logging.INFO, logger="fracwave"):
        operator_diagonal_stats(A)
    assert set(bound) == set(maps)
    assert all(bound.count(key) <= 2 for key in maps)
    *passes, build = [r.getMessage() for r in caplog.records]
    strides = [solver.PROBE_STRIDE[space]] * 6 + [solver.FINEST_PROBE_STRIDE]
    assert [f"pass {level}/6: stride {stride}, " in line
            for level, (line, stride) in enumerate(zip(passes, strides))] == [True] * 7
    # 267 or 124 probes in batches of 7 grids of 65 x 65.
    probes = PROBE_COUNTS[space][2]
    assert sum(int(line.split(", ")[1].split()[0]) for line in passes) == probes
    assert f"{probes} probes in {-(-probes // 7)} batches of at most 7 grids (231 KiB)" in build


def _coupling_radii(A):
    """Per pass, the largest Chebyshev distance, in that pass's lattice
    steps, from one of its columns to a row of that pass or finer that the
    column reaches: one operator application per column."""
    n = A.n
    p = scale_count(n)
    passes = solver._sample_passes(p)
    radii = []
    for level in range(p + 1):
        radius = 0
        every = np.argwhere(passes == level)
        for start in range(0, len(every), 256):
            cols = every[start:start + 256]
            basis = np.zeros((len(cols), n, n))
            basis[np.arange(len(cols)), cols[:, 0], cols[:, 1]] = 1.0
            b, y, x = np.nonzero((A.apply(basis) != 0) & (passes >= level))
            dist = np.maximum(np.abs(y - cols[b, 0]), np.abs(x - cols[b, 1]))
            radius = max(radius, dist.max(initial=0))
        radii.append(radius / ((n - 1) >> level))
    return radii


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("space", ["u", "w"])
def test_probe_stride_covers_the_dense_coupling_radius(p, space, tmp_path):
    rec = Reconstructor(p, cache_dir=tmp_path)
    rng = np.random.default_rng(p)
    inv_var = rng.uniform(0.2, 3.0, rec.pupil.nsub)
    inv_var[rng.random(rec.pupil.nsub) < 0.2] = 0.0
    radii = _coupling_radii(rec.system(inv_var, space))
    strides = [solver.PROBE_STRIDE[space]] * p + [solver.FINEST_PROBE_STRIDE]
    for radius, stride in zip(radii, strides):
        assert 2 * radius + 1 <= stride
    if space == "u" and p >= 3:  # p = 2 has no subaperture, so A_u = I
        assert radii[-1] == 2
        if p >= 4:
            assert max(radii[1:-1]) == 4


def test_colored_probe_rejects_coupling_beyond_its_stride():
    # A dense operator reaches rows no column of the probe owns.
    with pytest.raises(RuntimeError, match="stride"):
        operator_diagonal_stats(GridCounter(3, "u", fill=1.0))


def test_preconditioner_formulas():
    diag = np.array([[2.0, 4.0], [5.0, 10.0]])
    rowsq = np.array([[8.0, 4.0], [50.0, 10.0]])
    jac = jacobi_preconditioner(diag, "w")
    np.testing.assert_allclose(jac.values, 1.0 / diag)
    assert jac.kind == "jacobi" and jac.space == "w"
    opt = optimal_diagonal_preconditioner(diag, rowsq, "u")
    np.testing.assert_allclose(opt.values, diag / rowsq)
    assert opt.kind == "optimal" and opt.space == "u"


def test_preconditioner_validation():
    with pytest.raises(ValueError):
        jacobi_preconditioner(np.array([1.0, 0.0]), "w")
    with pytest.raises(ValueError):
        optimal_diagonal_preconditioner(np.array([1.0, -2.0]), np.array([1.0, 1.0]), "w")
    with pytest.raises(ValueError):
        optimal_diagonal_preconditioner(np.array([1.0, 1.0]), np.array([1.0, np.inf]), "w")


def test_preconditioner_apply_charges_one_multiply_per_sample():
    pre = DiagonalPreconditioner(np.full((3, 3), 0.5), kind="jacobi", space="w")
    counter = FlopCounter()
    out = pre.apply(np.ones((3, 3)), counter=counter)
    np.testing.assert_array_equal(out, np.full((3, 3), 0.5))
    assert counter.tallies() == {"precond": 9}


# -- conjugate gradients -----------------------------------------------------


def random_spd(size, seed):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(size, size))
    return root @ root.T + size * np.eye(size)


def rowwise(m):
    """apply_a of m on each row of a stack, one matvec per row."""
    def apply(v, counter=None):
        return np.stack([m @ row for row in v])
    return apply


def test_pcg_matches_direct_solve():
    m = random_spd(40, seed=1)
    b = np.random.default_rng(2).normal(size=40)
    x_ref = np.linalg.solve(m, b)
    x, converged, iters = pcg_solve(rowwise(m), b[None], tol=1e-12, max_iter=200)
    assert converged
    assert iters <= 200
    np.testing.assert_allclose(x[0], x_ref, rtol=1e-8)


def test_pcg_preconditioned_still_correct():
    m = random_spd(40, seed=3)
    b = np.random.default_rng(4).normal(size=40)
    pre = jacobi_preconditioner(np.diag(m), "w")
    x, converged, _ = pcg_solve(
        rowwise(m), b[None], tol=1e-12, max_iter=200, preconditioner=pre
    )
    assert converged
    np.testing.assert_allclose(x[0], np.linalg.solve(m, b), rtol=1e-8)


def test_pcg_monitor_sequence():
    m = random_spd(12, seed=5)
    b = np.random.default_rng(6).normal(size=12)
    seen = []
    x, converged, iters = pcg_solve(
        rowwise(m),
        b[None],
        tol=1e-10,
        max_iter=50,
        monitor=lambda k, xk, rnorm, stepped, alpha: seen.append((k, float(rnorm[0]))),
    )
    assert converged
    assert [k for k, _ in seen] == list(range(iters + 1))
    assert seen[-1][1] <= 1e-10 * np.linalg.norm(b)


def test_pcg_rejects_a_lone_vector():
    # a 1-D b would otherwise solve each element as a column of its own
    with pytest.raises(ValueError, match="stack"):
        pcg_solve(lambda v, c=None: v, np.ones(5), tol=1e-12, max_iter=10)


def test_pcg_rejects_indefinite_operator():
    b = np.ones((1, 5))
    with pytest.raises(IndefiniteOperatorError, match="curvature"):
        pcg_solve(lambda v, c=None: -v, b, tol=1e-12, max_iter=10)


def test_pcg_flop_accounting_exact():
    # From the update sequence: setup costs 2N-1, the first iteration
    # 10N-3, every later one 12N-3, and a diagonal preconditioner adds
    # N per iteration.
    size = 25
    m = random_spd(size, seed=7)
    b = np.random.default_rng(8).normal(size=size)

    counter = FlopCounter()
    pcg_solve(rowwise(m), b[None], tol=1e-30, max_iter=3, counter=counter)
    expected = (2 * size - 1) + (10 * size - 3) + 2 * (12 * size - 3)
    assert counter.tallies() == {"vector": expected}

    counter = FlopCounter()
    pre = DiagonalPreconditioner(np.ones(size), kind="jacobi", space="w")
    pcg_solve(
        rowwise(m), b[None], tol=1e-30, max_iter=3, counter=counter, preconditioner=pre
    )
    assert counter.total == expected + 3 * size
    assert counter.tallies()["precond"] == 3 * size


def test_pcg_stack_follows_each_column_alone():
    size = 25
    m = random_spd(size, seed=9)
    b = np.random.default_rng(10).normal(size=(4, size))
    b[2] = 0.0  # done at the start
    b[3] = np.linalg.eigh(m)[1][:, 0]  # an eigenvector: done after one iteration
    pre = jacobi_preconditioner(np.ones(size), "w")
    for preconditioner in (None, pre):
        rows = [[] for _ in b]
        previous = np.zeros_like(b)

        def monitor(k, x, rnorm, stepped, alpha):
            # A column that did not step has step length 0 and an unmoved x.
            assert alpha.shape == stepped.shape == (len(b),)
            assert np.all(alpha[~stepped] == 0.0)
            np.testing.assert_array_equal(x[~stepped], previous[~stepped])
            assert np.all(alpha == 0.0) if k == 0 else np.all(alpha[stepped] > 0.0)
            previous[...] = x
            for j in np.flatnonzero(stepped):
                rows[j].append((k, float(rnorm[j]), x[j].copy()))

        x, converged, iters = pcg_solve(rowwise(m), b, tol=1e-8, max_iter=60,
                                        preconditioner=preconditioner, monitor=monitor)
        alone_iters = []
        for j, col in enumerate(b):
            seen = []
            xj, cj, ij = pcg_solve(rowwise(m), col[None], tol=1e-8, max_iter=60,
                                   preconditioner=preconditioner,
                                   monitor=lambda k, xk, rn, st, al: seen.append(
                                       (k, float(rn[0]), xk[0].copy())))
            np.testing.assert_array_equal(x[j], xj[0])
            assert converged[j] == cj[0]
            assert [(k, rn) for k, rn, _ in rows[j]] == [(k, rn) for k, rn, _ in seen]
            for (_, _, got), (_, _, want) in zip(rows[j], seen):
                np.testing.assert_array_equal(got, want)
            alone_iters.append(ij)
        assert iters == max(alone_iters)
        assert alone_iters[2] == 0 and alone_iters[3] == 1 and alone_iters[0] > 1
        np.testing.assert_array_equal(x[2], 0.0)


def test_pcg_stack_raises_only_for_a_running_indefinite_column():
    signs = np.array([1.0, -1.0])[:, None]

    def apply(v, counter=None):
        return signs * v

    with pytest.raises(IndefiniteOperatorError, match="curvature"):
        pcg_solve(apply, np.ones((2, 5)), tol=1e-12, max_iter=10)
    # the negative column has a zero right-hand side, so it never runs
    b = np.ones((2, 5))
    b[1] = 0.0
    x, converged, iters = pcg_solve(apply, b, tol=1e-12, max_iter=10)
    assert converged.tolist() == [True, True] and iters == 1
    np.testing.assert_array_equal(x, b)


def test_pcg_stack_flops_are_per_column_tallies_times_stack_size():
    # test_pcg_flop_accounting_exact's single-column numbers, times B
    size, stack = 25, 3
    m = random_spd(size, seed=7)
    b = np.random.default_rng(8).normal(size=(stack, size))
    single = (2 * size - 1) + (10 * size - 3) + 2 * (12 * size - 3)

    counter = FlopCounter()
    pcg_solve(rowwise(m), b, tol=1e-30, max_iter=3, counter=counter)
    assert counter.tallies() == {"vector": stack * single}

    counter = FlopCounter()
    pre = DiagonalPreconditioner(np.ones(size), kind="jacobi", space="w")
    pcg_solve(rowwise(m), b, tol=1e-30, max_iter=3, counter=counter, preconditioner=pre)
    assert counter.total == stack * (single + 3 * size)
    assert counter.tallies()["precond"] == stack * 3 * size


# -- reconstruction front end ------------------------------------------------


def test_variant_table_is_consistent():
    assert len(VARIANTS) == 6
    for name, (space, kind) in VARIANTS.items():
        assert name.startswith(space + "-")
        assert kind in (None, "jacobi", "optimal")
        assert (kind is None) == name.endswith("-cg")


def test_solver_config_validation():
    assert SolverConfig().method == "u-pcg-opt"
    cfg = SolverConfig("w-pcg-jac")
    assert (cfg.space, cfg.preconditioner) == ("w", "jacobi")
    with pytest.raises(ValueError, match="unknown method"):
        SolverConfig("gauss-seidel")
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=0)
    assert SolverConfig(max_iter=np.int64(5)).max_iter == 5
    for tol in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3"])
def test_solver_config_rejects_a_non_integer_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolverConfig(max_iter=max_iter)


@pytest.mark.parametrize("p", [3.7, 3.0, True])
def test_reconstructor_rejects_a_non_integer_p(p, tmp_path):
    with pytest.raises(ValueError, match="p must be an integer"):
        Reconstructor(p, cache_dir=tmp_path)
    assert Reconstructor(np.int64(3), cache_dir=tmp_path).p == 3


def test_reconstruct_matches_dense_solution(system, tmp_path):
    _, op, pup, _, w_true, slopes = system
    _, A_w, _, b_w, _ = dense_normal_parts(op, pup, slopes)
    ref = np.linalg.solve(A_w, b_w).reshape(N_SIDE, N_SIDE)
    rec = Reconstructor(P, cache_dir=tmp_path)
    for method in ("w-pcg-jac", "u-pcg-opt"):
        cfg = SolverConfig(method, max_iter=400, tol=1e-12)
        w_hat, trace = rec.reconstruct(slopes, cfg, truth=w_true)
        assert trace.converged
        err = np.linalg.norm(w_hat - ref) / np.linalg.norm(ref)
        assert err <= 1e-6


def test_trace_bookkeeping(system, tmp_path):
    _, _, _, _, w_true, slopes = system
    rec = Reconstructor(P, cache_dir=tmp_path)
    counter = FlopCounter()
    w_hat, trace = rec.reconstruct(
        slopes, SolverConfig("u-cg", max_iter=8, tol=1e-12), truth=w_true, counter=counter
    )
    k = trace.iterations[-1]
    assert trace.iterations == list(range(k + 1))
    assert all(b > a for a, b in zip(trace.flops, trace.flops[1:]))
    assert trace.resid_var_norm[0] == 1.0
    assert trace.resid_var[-1] < trace.resid_var[0]
    assert all(0.0 < s <= 1.0 for s in trace.strehl)
    # the u-space answer pays one extra generator-to-screen map
    assert trace.total_flops == trace.flops[-1] + fractal_apply_flops(SIZE)
    assert counter.total == trace.total_flops
    rows = trace.rows()
    assert len(rows) == k + 1
    assert rows[0][0] == 0 and len(rows[0]) == 6


def test_reconstruct_stack_equals_single_solves(system, tmp_path):
    _, op, pup, _, w_true, slopes = system
    truths = np.stack([w_true, 0.5 * w_true, -w_true])
    rng = np.random.default_rng(17)
    stack = [simulate_measurements(w, pup, 1.0, rng) for w in truths]
    rec = Reconstructor(P, cache_dir=tmp_path)
    for method in ("u-pcg-opt", "w-cg"):
        cfg = SolverConfig(method, max_iter=6, tol=1e-30)
        counter = FlopCounter()
        w_hats, traces = rec.reconstruct(stack, cfg, truth=truths, counter=counter)
        assert w_hats.shape == (3, N_SIDE, N_SIDE) and len(traces) == 3
        for item, truth, w_hat, trace in zip(stack, truths, w_hats, traces):
            alone_counter = FlopCounter()
            w_alone, alone = rec.reconstruct(item, cfg, truth=truth, counter=alone_counter)
            np.testing.assert_array_equal(w_hat, w_alone)
            assert trace.rows() == alone.rows()
            assert trace.total_flops == alone.total_flops == alone_counter.total
            assert trace.converged == alone.converged
        assert counter.total == 3 * traces[0].total_flops


def monitored_stack(p, cache_dir):
    """A Reconstructor and three slope sets that stop at different iterations.

    Column 0 is noise only and runs longest, column 1 has zero slopes and
    stops at k = 0, column 2 measures the smooth screen of one corner
    generator and stops early (at tol 1e-2 and 60 iterations, for every
    u-space method at p = 3..6).
    """
    rec = Reconstructor(p, cache_dir=cache_dir)
    rng = np.random.default_rng(p)
    n = rec.n
    corner = np.zeros((n, n))
    corner[0, 0] = 10.0
    truths = np.stack([np.zeros((n, n)), rec.fractal.apply(rng.standard_normal((n, n))),
                       rec.fractal.apply(corner)])
    stack = [simulate_measurements(w, rec.pupil, 0.5, rng) for w in truths]
    zero = np.zeros(rec.pupil.nsub)
    stack[1] = SlopeSet(rec.pupil.subap_x, rec.pupil.subap_y, zero, zero, stack[1].var)
    return rec, stack, truths


@pytest.mark.parametrize("method", ["u-cg", "u-pcg-jac", "u-pcg-opt"])
@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_carried_screen_image_matches_direct_map_of_each_iterate(p, method, tmp_path,
                                                                 monkeypatch):
    rec, stack, truths = monitored_stack(p, tmp_path)
    cfg = SolverConfig(method, max_iter=60, tol=1e-2)
    real_stats = solver.residual_stats
    images = []

    def recording_stats(w_hat, w_true, pupil):
        images.append(np.array(w_hat))
        return real_stats(w_hat, w_true, pupil)

    monkeypatch.setattr(solver, "residual_stats", recording_stats)
    w_hats, traces = rec.reconstruct(stack, cfg, truth=truths)
    monkeypatch.undo()
    stops = [trace.iterations[-1] for trace in traces]
    assert stops[1] == 0 and 0 < stops[2] < stops[0] and traces[2].converged

    # The iterates x_k of a direct run of the same system.
    inv_var = 1.0 / stack[0].var
    op = rec.system(inv_var, "u")
    precond = None if cfg.preconditioner is None else rec.preconditioner(
        inv_var, "u", cfg.preconditioner)
    iterates = []
    pcg_solve(op.apply, op.rhs(stack), tol=cfg.tol, max_iter=cfg.max_iter,
              preconditioner=precond,
              monitor=lambda k, x, rnorm, stepped, alpha: iterates.append((x.copy(), stepped)))
    assert len(images) == len(iterates) == stops[0] + 1
    for k, (image, (x, stepped)) in enumerate(zip(images, iterates)):
        # a frozen column's image does not move
        if k:
            np.testing.assert_array_equal(image[~stepped], images[k - 1][~stepped])
        _, direct = real_stats(rec.fractal.apply(x.copy()), truths, rec.pupil)
        for j in np.flatnonzero(stepped):
            got = traces[j].resid_var[traces[j].iterations.index(k)]
            assert got == pytest.approx(direct[j], rel=1e-12, abs=0), (k, j)

    # The estimate is K x applied directly: the monitor leaves its bits alone.
    blind, _ = rec.reconstruct(stack, cfg)
    np.testing.assert_array_equal(w_hats, blind)
    for item, truth, w_hat in zip(stack, truths, w_hats):
        alone, _ = rec.reconstruct(item, cfg, truth=truth)
        np.testing.assert_array_equal(alone, w_hat)
        np.testing.assert_array_equal(rec.reconstruct(item, cfg)[0], w_hat)


@pytest.mark.parametrize("method", ["u-cg", "u-pcg-opt"])
def test_truth_monitor_makes_no_multiscale_map(system, tmp_path, monkeypatch, method):
    # k iterations of A_u take 2k maps, b_u one K^T and the estimate one K:
    # 2k + 2 in all, with the truth monitor as without it.
    _, _, _, _, w_true, slopes = system
    rec = Reconstructor(P, cache_dir=tmp_path)
    k = 7
    cfg = SolverConfig(method, max_iter=k, tol=1e-30)
    rec.reconstruct(slopes, cfg)  # builds the preconditioner statistics
    calls = []
    for name in ("apply", "apply_transpose", "apply_inverse", "apply_inverse_transpose"):
        def counted(grid, counter=None, _map=getattr(rec.fractal, name), _name=name):
            calls.append(_name)
            return _map(grid, counter)
        monkeypatch.setattr(rec.fractal, name, counted)
    for truth in (None, w_true):
        calls.clear()
        _, trace = rec.reconstruct(slopes, cfg, truth=truth)
        assert trace.iterations[-1] == k
        assert len(calls) == 2 * k + 2
        assert sorted(set(calls)) == ["apply", "apply_transpose"]


def test_reconstruct_stack_validation(system, tmp_path):
    _, _, pup, _, w_true, slopes = system
    rec = Reconstructor(P, cache_dir=tmp_path)
    cfg = SolverConfig("u-cg", max_iter=2)
    with pytest.raises(ValueError, match="at least one"):
        rec.reconstruct([], cfg)
    other = simulate_measurements(w_true, pup, 2.0, np.random.default_rng(3))
    with pytest.raises(ValueError, match="noise variances"):
        rec.reconstruct([slopes, other], cfg)
    with pytest.raises(ValueError):
        rec.reconstruct([slopes, slopes], cfg, truth=w_true)


def test_truth_free_trace_marks_quality_columns_nan(system, tmp_path):
    _, _, _, _, _, slopes = system
    rec = Reconstructor(P, cache_dir=tmp_path)
    _, trace = rec.reconstruct(slopes, SolverConfig("u-cg", max_iter=4, tol=1e-12))
    assert len(trace.resid_var) == len(trace.iterations)
    assert all(math.isnan(v) for v in trace.resid_var)
    assert all(math.isnan(v) for v in trace.strehl)
    assert trace.rnorm[0] > 0


def test_zero_slopes_give_zero_wavefront(system, tmp_path):
    _, _, pup, _, _, _ = system
    rec = Reconstructor(P, cache_dir=tmp_path)
    zero = SlopeSet(
        pup.subap_x, pup.subap_y, np.zeros(pup.nsub), np.zeros(pup.nsub), np.ones(pup.nsub)
    )
    w_hat, trace = rec.reconstruct(zero, SolverConfig("u-pcg-jac", max_iter=5))
    np.testing.assert_array_equal(w_hat, np.zeros((N_SIDE, N_SIDE)))
    assert trace.converged


def test_check_slopes_rejects_other_layout(system, tmp_path):
    rec = Reconstructor(P, cache_dir=tmp_path)
    other = make_pupil(17)
    foreign = simulate_measurements(np.zeros((17, 17)), other, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="layout"):
        rec.check_slopes(foreign)


def test_optimal_preconditioner_values_match_dense_probe(system, tmp_path):
    _, op, pup, sh, _, slopes = system
    inv_var = 1.0 / slopes.var
    A = NormalOperator(op, sh, inv_var, "u")
    dense = dense_grid_operator(A.apply, N_SIDE)
    rec = Reconstructor(P, cache_dir=tmp_path)
    pre = rec.preconditioner(inv_var, "u", "optimal")
    np.testing.assert_allclose(
        pre.values.ravel(), np.diag(dense) / (dense * dense).sum(axis=1), rtol=1e-10
    )


def test_preconditioner_cache_reuse(system, tmp_path):
    _, _, _, _, _, slopes = system
    inv_var = 1.0 / slopes.var
    first = Reconstructor(P, cache_dir=tmp_path).preconditioner(inv_var, "u", "optimal")
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 1 and files[0].endswith(".npz")
    again = Reconstructor(P, cache_dir=tmp_path).preconditioner(inv_var, "u", "optimal")
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    np.testing.assert_array_equal(first.values, again.values)
    # a different weighting must not hit the same entry
    Reconstructor(P, cache_dir=tmp_path).preconditioner(2.0 * inv_var, "u", "optimal")
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACWAVE_CACHE", str(tmp_path / "from-env"))
    rec = Reconstructor(P)
    assert str(rec.cache_dir) == str(tmp_path / "from-env")
    rec = Reconstructor(P, cache_dir=tmp_path / "explicit")
    assert str(rec.cache_dir) == str(tmp_path / "explicit")
    # None does not turn the disk cache off: without FRACWAVE_CACHE (or
    # with it empty) it falls back to ~/.cache/fracwave.
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for unset in (lambda: monkeypatch.delenv("FRACWAVE_CACHE"),
                  lambda: monkeypatch.setenv("FRACWAVE_CACHE", "")):
        unset()
        rec = Reconstructor(P, cache_dir=None)
        assert rec.cache_dir == tmp_path / "home" / ".cache" / "fracwave"


def test_cache_events_are_logged(system, tmp_path, caplog):
    inv_var = 1.0 / system[5].var
    with caplog.at_level(logging.DEBUG, logger="fracwave"):
        Reconstructor(P, cache_dir=tmp_path).preconditioner(inv_var, "u", "optimal")
        *passes, build = caplog.records
        assert [r.levelno for r in caplog.records] == [logging.INFO] * (P + 2)
        assert [f"pass {level}/{P}: stride " in r.getMessage()
                for level, r in enumerate(passes)] == [True] * (P + 1)
        assert "u-space" in build.getMessage() and f"p={P}" in build.getMessage()
        assert "49 probes" in build.getMessage()
        caplog.clear()
        Reconstructor(P, cache_dir=tmp_path).preconditioner(inv_var, "u", "optimal")
        (hit,) = caplog.records
        assert hit.levelno == logging.DEBUG and "cache hit" in hit.getMessage()


def _spoil(path, kind, arrays):
    diag, rowsq = arrays["diag"], arrays["rowsq"]

    def save(**changed):
        np.savez(path, **{name: value for name, value in dict(arrays, **changed).items()
                          if value is not None})

    if kind == "not-zip":
        path.write_bytes(b"this is not a zip archive\n")
    elif kind == "truncated-zip":
        path.write_bytes(path.read_bytes()[:200])
    elif kind == "plain-npy":
        with open(path, "wb") as fh:
            np.save(fh, diag)
    elif kind == "missing-array":
        save(rowsq=None)
    elif kind == "wrong-shape":
        save(diag=diag[:-1], rowsq=rowsq[:-1])
    elif kind == "wrong-dtype":
        save(diag=diag.astype(np.float32))
    elif kind == "non-finite":
        bad = rowsq.copy()
        bad[2, 3] = np.nan
        save(rowsq=bad)
    elif kind == "non-positive":
        bad = diag.copy()
        bad[1, 1] = -1.0
        save(diag=bad)
    elif kind == "no-key":
        save(key=None, version=None)  # the layout before keys were stored
    elif kind == "other-version":
        save(version=np.array(solver.CACHE_FORMAT + 1))
    else:
        raise AssertionError(kind)


@pytest.mark.parametrize(
    "kind",
    ["not-zip", "truncated-zip", "plain-npy", "missing-array", "wrong-shape",
     "wrong-dtype", "non-finite", "non-positive", "no-key", "other-version", "other-key"],
)
def test_unusable_cache_entry_is_rebuilt(system, tmp_path, caplog, kind):
    _, _, _, _, _, slopes = system
    config = SolverConfig("u-pcg-opt", max_iter=6, tol=1e-12)
    w_ref, _ = Reconstructor(P, cache_dir=tmp_path).reconstruct(slopes, config)
    (entry,) = tmp_path.iterdir()
    with np.load(entry) as data:
        arrays = dict(data)
    assert sorted(arrays) == ["diag", "key", "rowsq", "version"]
    if kind == "other-key":
        # A valid entry, but of another weighting: its statistics differ.
        other = tmp_path / "other"
        Reconstructor(P, cache_dir=other).preconditioner(2.0 / slopes.var, "u", "optimal")
        (source,) = other.iterdir()
        source.replace(entry)
        other.rmdir()
    else:
        _spoil(entry, kind, arrays)
    with caplog.at_level(logging.WARNING, logger="fracwave"):
        w_hat, _ = Reconstructor(P, cache_dir=tmp_path).reconstruct(slopes, config)
    np.testing.assert_array_equal(w_hat, w_ref)
    (warning,) = caplog.records
    assert warning.levelno == logging.WARNING and entry.name in warning.getMessage()
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]
    with np.load(entry) as data:
        assert sorted(data.files) == sorted(arrays)
        for name, value in arrays.items():
            np.testing.assert_array_equal(data[name], value)
