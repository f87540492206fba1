"""Generator-to-screen operator: algebra, statistics, instrumentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fracwave.fractal import FractalOperator, build_outer_operator, scale_count
from fracwave.metrics import FlopCounter, fractal_apply_flops
from fracwave.turbulence import kolmogorov

from oracles import (
    corner_points,
    covariance_matrix,
    dense_generator_matrix,
    dense_grid_operator,
    reference_map,
    stencil_schedule,
)

MAPS = ("apply", "apply_inverse", "apply_transpose", "apply_inverse_transpose")


def make_op(p, r0=1.0):
    sf = kolmogorov(r0, float(1 << p))
    return sf, FractalOperator(sf, p)


def random_grids(p, count, seed):
    n = (1 << p) + 1
    return np.random.default_rng(seed).normal(size=(count, n, n))


# -- dense recursion oracle -----------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3])
def test_forward_matches_dense_recursion(p):
    sf, op = make_op(p)
    n = op.n
    K_lib = dense_grid_operator(op.apply, n)
    K_ref = dense_generator_matrix(sf, p, op.outer.forward_matrix)
    np.testing.assert_allclose(K_lib, K_ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("p", [1, 2])
def test_transpose_and_inverses_are_consistent_dense(p):
    _, op = make_op(p)
    n = op.n
    K = dense_grid_operator(op.apply, n)
    Kt = dense_grid_operator(op.apply_transpose, n)
    Ki = dense_grid_operator(op.apply_inverse, n)
    Kit = dense_grid_operator(op.apply_inverse_transpose, n)
    np.testing.assert_allclose(Kt, K.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Ki @ K, np.eye(n * n), rtol=0, atol=1e-10)
    np.testing.assert_allclose(Kit, np.linalg.inv(K).T, rtol=0, atol=1e-9)


# -- round trips and adjoints ---------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_round_trips_recover_input(p):
    _, op = make_op(p)
    x = random_grids(p, 3, seed=p)
    for fwd, inv in (
        (op.apply, op.apply_inverse),
        (op.apply_inverse, op.apply),
        (op.apply_transpose, op.apply_inverse_transpose),
        (op.apply_inverse_transpose, op.apply_transpose),
    ):
        y = inv(fwd(x.copy()))
        err = np.linalg.norm(y - x) / np.linalg.norm(x)
        assert err <= 1e-9


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_adjoint_identities(p):
    _, op = make_op(p)
    rng = np.random.default_rng(100 + p)
    n = op.n
    for pair in ((op.apply, op.apply_transpose), (op.apply_inverse, op.apply_inverse_transpose)):
        fwd, adj = pair
        x = rng.normal(size=(n, n))
        y = rng.normal(size=(n, n))
        lhs = float(np.vdot(x, fwd(y.copy())))
        rhs = float(np.vdot(adj(x.copy()), y))
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    x=hnp.arrays(np.float64, (5, 5), elements=st.floats(-100, 100)),
    y=hnp.arrays(np.float64, (5, 5), elements=st.floats(-100, 100)),
    a=st.floats(-10, 10),
)
def test_apply_is_linear(x, y, a):
    _, op = make_op(2)
    combined = op.apply(a * x + y)
    separate = a * op.apply(x.copy()) + op.apply(y.copy())
    np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-7)


@pytest.mark.parametrize("name", MAPS)
def test_batch_matches_loop(name):
    # Each grid shape runs its own bound program on a workspace of that
    # shape, and a stack of one runs as a single grid; every shape must
    # give the same bits per grid.
    for p in range(1, 9):
        _, op = make_op(p)
        fn = getattr(op, name)
        x = random_grids(p, 4, seed=9)
        batched = fn(x.copy())
        for i in range(4):
            np.testing.assert_array_equal(batched[i], fn(x[i].copy()))
            np.testing.assert_array_equal(batched[i], fn(x[i : i + 1].copy())[0])


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("batch", [None, 1, 3])
def test_maps_match_per_target_reference_bit_for_bit(p, batch):
    # The maps scale by the alpha0 grid once (1 at the corners) instead of
    # per target; the outputs may not move by a bit, inf and NaN included.
    _, op = make_op(p)
    n = op.n
    x = random_grids(p, batch or 1, seed=p)
    planted = x.copy()
    planted[..., 0, n - 1] = np.inf
    planted[..., n // 2, 1] = np.nan
    for grids in (x, planted):
        grids = grids[0] if batch is None else grids
        for name in MAPS:
            with np.errstate(invalid="ignore", over="ignore"):
                got = getattr(op, name)(grids.copy())
                want = reference_map(op, name, grids.copy())
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


@pytest.mark.parametrize("p", range(1, 9))
def test_switching_grid_shapes_keeps_the_bits(p):
    # One operator, called on a new shape each time: every call rebinds its
    # program to a workspace of that shape and must still match the
    # reference bit for bit.
    _, op = make_op(p)
    n = op.n
    assert op._work is None and op._programs == {}
    for k, shape in enumerate([(n, n), (3, n, n), (1, n, n), (2, n, n), (n, n)]):
        x = np.random.default_rng(k).normal(size=shape)
        for name in MAPS:
            got = getattr(op, name)(x.copy())
            want = reference_map(op, name, x.copy())
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (shape, name)
    # One workspace, of the last call's shape, in flat buffers grown to
    # the largest stack seen.
    assert op._work.shape == (n, n)
    assert op._work.base.size == 3 * n * n
    assert [b.size for b in op._scratch] == [3 * ((n - 1) // 2) ** 2] * 2
    assert len(op._programs) == 4


def test_a_map_refuses_to_run_while_another_holds_the_workspace():
    # The maps share one workspace; a second caller must fail loudly
    # rather than corrupt the first.  The test holds the lock itself.
    _, op = make_op(3)
    x = random_grids(3, 2, seed=3)
    for grids in (x[0], x):
        for name in MAPS:
            y = grids.copy()
            with op._lock, pytest.raises(RuntimeError, match="already running"):
                getattr(op, name)(y)
            np.testing.assert_array_equal(y, grids)
    np.testing.assert_array_equal(op.apply(x.copy()), reference_map(op, "apply", x.copy()))


def test_operators_run_in_place():
    _, op = make_op(2)
    x = random_grids(2, 1, seed=1)[0]
    assert op.apply(x) is x
    assert op.apply_inverse(x) is x


def test_rejects_wrong_dtype_and_shape():
    _, op = make_op(2)
    with pytest.raises(ValueError):
        op.apply(np.zeros((5, 5), dtype=np.float32))
    with pytest.raises(ValueError):
        op.apply(np.zeros((7, 7)))


@pytest.mark.parametrize("p", [0, -1])
def test_rejects_nonpositive_depth(p):
    sf = kolmogorov(1.0, 4.0)
    with pytest.raises(ValueError, match="refinement pass"):
        FractalOperator(sf, p)


# -- outer 4 x 4 factor ----------------------------------------------------


@pytest.mark.parametrize("extent", [2.0, 8.0, 32.0])
def test_outer_reproduces_corner_covariance(extent):
    sf = kolmogorov(1.0, extent)
    out = build_outer_operator(sf, extent)
    M = out.forward_matrix
    n = int(extent) + 1
    C = covariance_matrix(sf, corner_points(n))
    np.testing.assert_allclose(M @ M.T, C, rtol=0, atol=1e-12 * C[0, 0])
    np.testing.assert_allclose(out.inverse_matrix @ M, np.eye(4), rtol=0, atol=1e-12)


# -- statistics ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_enforced_covariances_are_exact(p):
    # The stencil weights guarantee exactly three families: corner
    # pairs, each first-pass child against its own parents, and each
    # first-pass child's variance.  (First pass only: deeper parents
    # already carry drifted mutual covariances, see the test below.)
    sf, op = make_op(p)
    n = op.n
    K = dense_grid_operator(op.apply, n)
    G = K @ K.T

    corners = corner_points(n)
    idx = [y * n + x for y, x in corners]
    np.testing.assert_allclose(
        G[np.ix_(idx, idx)], covariance_matrix(sf, corners), rtol=0, atol=1e-10
    )

    first = [s for s in stencil_schedule(p) if s[0] == n - 1]
    assert first  # the coarsest pass must exist
    for _, _, child, parents in first:
        c = child[0] * n + child[1]
        assert G[c, c] == pytest.approx(sf.variance, abs=1e-10)
        for q in parents:
            d = np.hypot(child[0] - q[0], child[1] - q[1])
            assert G[c, q[0] * n + q[1]] == pytest.approx(sf.covariance(d), abs=1e-10)


def test_unenforced_covariances_drift_by_a_few_percent():
    # Pairs that never share a stencil (opposite edge midpoints, for
    # example) are only approximately right.  Pin the drift from both
    # sides, scaled by the screen variance so the bound tracks r0.
    sf, op = make_op(2)
    K = dense_grid_operator(op.apply, op.n)
    G = K @ K.T
    pts = [(y, x) for y in range(op.n) for x in range(op.n)]
    C = covariance_matrix(sf, pts)
    dev = np.abs(G - C).max() / sf.variance
    assert dev < 0.06
    assert dev > 0.01


def test_radial_structure_function_tracks_law_with_known_deficit():
    # The recursion is exact only within a stencil, so the ensemble
    # structure function of drawn screens runs 12-17% below the target
    # law at mid separations.  Pin the actual behaviour from both
    # sides: within 20% of the law, and strictly below it (a vanished
    # deficit would mean the statistics changed).
    from fracwave.harness import run_sf_validation

    v = run_sf_validation(5, 1.0, trials=400, seed=7)
    sel = (v.radii >= 2) & (v.radii <= 8)
    ratio = v.measured[sel] / v.expected[sel]
    assert np.all(ratio > 0.80)
    assert np.all(ratio < 1.0)


def test_screen_sample_statistics():
    sf, op = make_op(2)
    m = 50_000
    rng = np.random.default_rng(2024)
    screens = op.apply(rng.standard_normal((m, op.n, op.n)))
    corner = screens[:, 0, 0]
    centre = screens[:, 2, 2]
    assert corner.var() == pytest.approx(sf.variance, rel=0.03)
    assert centre.var() == pytest.approx(sf.variance, rel=0.03)
    sample_cov = np.mean(corner * centre) - corner.mean() * centre.mean()
    expected = sf.covariance(np.hypot(2.0, 2.0))
    assert sample_cov == pytest.approx(expected, abs=0.04 * sf.variance)


# -- structure of the inverse ---------------------------------------------


def test_constant_screen_maps_to_piston_generator_and_back():
    sf, op = make_op(3)
    u = op.apply_inverse(np.ones((9, 9)))
    assert u[0, 0] == pytest.approx(2.0 / op.outer.a, rel=1e-12)
    assert u[0, 0] == pytest.approx(0.10422028541044516, rel=1e-12)
    for corner in ((0, 8), (8, 0), (8, 8)):
        assert abs(u[corner]) <= 1e-12
    # midpoint slots still carry (1 - sum alpha) / alpha0 of the parents
    assert np.count_nonzero(np.abs(u) > 1e-9) == 81 - 3
    np.testing.assert_allclose(op.apply(u.copy()), np.ones((9, 9)), rtol=0, atol=1e-11)


# -- cost ------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_flop_charge_is_exact(p):
    _, op = make_op(p)
    size = op.n * op.n
    x = random_grids(p, 1, seed=p)[0]
    for fn in (op.apply, op.apply_inverse, op.apply_transpose, op.apply_inverse_transpose):
        counter = FlopCounter()
        fn(x, counter=counter)
        assert counter.total == 6 * size - 14
        assert counter.total == fractal_apply_flops(size)


def test_flop_charge_scales_with_batch():
    _, op = make_op(2)
    counter = FlopCounter()
    op.apply(random_grids(2, 7, seed=0), counter=counter)
    assert counter.total == 7 * fractal_apply_flops(25)


def test_scale_count_inverts_side():
    for p in range(1, 9):
        assert scale_count((1 << p) + 1) == p
