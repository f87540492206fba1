"""Annular pupil geometry and the corner finite-difference slope model."""

import numpy as np
import pytest

from fracwave.metrics import FlopCounter
from fracwave.sensor import ShackHartmann, SlopeSet, make_pupil, simulate_measurements

from oracles import dense_sensor_matrix, reference_pupil

# side: (valid subapertures, shared cell edges, active corner samples)
FROZEN_COUNTS = {9: (20, 30, 40), 33: (620, 662, 704), 65: (2680, 2764, 2848)}


def recount_subapertures(n, obscuration):
    # Independent reimplementation of the documented rule: keep a cell
    # iff all four corner samples land inside the annulus, boundaries
    # included, against outer radius (n - 1) / 2.
    def inside(x, y):
        s = (2 * x - (n - 1)) ** 2 + (2 * y - (n - 1)) ** 2
        return s <= (n - 1) ** 2 and s >= (obscuration * (n - 1)) ** 2

    kept = []
    for y in range(n - 1):
        for x in range(n - 1):
            if all(inside(x + dx, y + dy) for dx in (0, 1) for dy in (0, 1)):
                kept.append((x, y))
    return kept


@pytest.mark.parametrize("n", sorted(FROZEN_COUNTS))
def test_pupil_counts(n):
    nsub, edges, active = FROZEN_COUNTS[n]
    pup = make_pupil(n)
    sh = ShackHartmann(pup)
    assert pup.nsub == nsub
    assert sh.n_edges == edges
    assert int(pup.sample_mask.sum()) == active


@pytest.mark.parametrize("n", [9, 17, 33, 65])
def test_pupil_matches_recount(n):
    pup = make_pupil(n)
    expected = recount_subapertures(n, pup.obscuration)
    got = sorted(zip(pup.subap_x.tolist(), pup.subap_y.tolist()))
    assert got == sorted(expected)


@pytest.mark.parametrize("obscuration", [1.0 / 3.0, 0.0])
def test_pupil_matches_reference_construction(obscuration):
    for n in range(3, 258):
        pup = make_pupil(n, obscuration)
        mask, sx, sy = reference_pupil(n, obscuration)
        assert np.array_equal(pup.sample_mask, mask), n
        assert np.array_equal(pup.subap_x, sx) and np.array_equal(pup.subap_y, sy), n


def test_tiny_grids_have_no_valid_subaperture():
    # With a third of the diameter obscured nothing fits at 3 or 5
    # samples across, which is why experiments start at p = 3.
    assert make_pupil(3).nsub == 0
    assert make_pupil(5).nsub == 0


def test_full_disc_without_obscuration():
    pup = make_pupil(9, obscuration=0.0)
    assert pup.nsub > make_pupil(9).nsub


def test_pupil_validation():
    with pytest.raises(ValueError):
        make_pupil(2)
    with pytest.raises(ValueError):
        make_pupil(9, obscuration=1.0)
    with pytest.raises(ValueError):
        make_pupil(9, obscuration=-0.1)


# -- forward model ----------------------------------------------------------


def test_ramp_screens_give_unit_slopes():
    pup = make_pupil(9)
    sh = ShackHartmann(pup)
    yy, xx = np.mgrid[0:9, 0:9].astype(float)
    dx, dy = sh.forward(xx)
    np.testing.assert_allclose(dx, np.ones(pup.nsub), atol=1e-15)
    np.testing.assert_allclose(dy, np.zeros(pup.nsub), atol=1e-15)
    dx, dy = sh.forward(yy)
    np.testing.assert_allclose(dx, np.zeros(pup.nsub), atol=1e-15)
    np.testing.assert_allclose(dy, np.ones(pup.nsub), atol=1e-15)


def test_piston_and_waffle_are_invisible():
    pup = make_pupil(9)
    sh = ShackHartmann(pup)
    flat = np.full((9, 9), 3.7)
    yy, xx = np.mgrid[0:9, 0:9]
    waffle = ((-1.0) ** (xx + yy)).astype(float)
    for screen in (flat, waffle):
        dx, dy = sh.forward(screen)
        np.testing.assert_allclose(dx, 0.0, atol=1e-15)
        np.testing.assert_allclose(dy, 0.0, atol=1e-15)


def test_forward_matches_dense_matrix():
    pup = make_pupil(9)
    sh = ShackHartmann(pup)
    S = dense_sensor_matrix(pup)
    w = np.random.default_rng(3).normal(size=(9, 9))
    dx, dy = sh.forward(w)
    np.testing.assert_allclose(np.concatenate([dx, dy]), S @ w.ravel(), atol=1e-13)


@pytest.mark.parametrize("p", range(1, 7))
def test_batched_forward_and_adjoint_match_dense_matrix(p):
    n = (1 << p) + 1
    pup = make_pupil(n)
    sh = ShackHartmann(pup)
    S = dense_sensor_matrix(pup)
    rng = np.random.default_rng(p)
    w = rng.normal(size=(2, 3, n, n))
    dx, dy = sh.forward(w)
    assert dx.shape == dy.shape == (2, 3, pup.nsub)
    expected = w.reshape(6, n * n) @ S.T
    np.testing.assert_allclose(
        np.concatenate([dx, dy], axis=-1).reshape(6, -1), expected, rtol=0, atol=1e-13
    )
    g = rng.normal(size=(2, 3, 2 * pup.nsub))
    back = sh.adjoint(g[..., : pup.nsub], g[..., pup.nsub:])
    assert back.shape == (2, 3, n, n)
    np.testing.assert_allclose(back.reshape(6, n * n), g.reshape(6, -1) @ S, rtol=0, atol=1e-13)
    # each grid of the batch equals its own single-grid application
    for i in range(2):
        for j in range(3):
            single = sh.adjoint(g[i, j, : pup.nsub], g[i, j, pup.nsub:])
            np.testing.assert_array_equal(back[i, j], single)
            np.testing.assert_array_equal(sh.forward(w[i, j])[0], dx[i, j])


@pytest.mark.parametrize("p", range(1, 7))
def test_gram_matches_dense_matrix(p):
    n = (1 << p) + 1
    pup = make_pupil(n)
    sh = ShackHartmann(pup)
    S = dense_sensor_matrix(pup)
    rng = np.random.default_rng(p)
    inv_var = rng.uniform(0.2, 3.0, pup.nsub)
    inv_var[rng.random(pup.nsub) < 0.2] = 0.0
    cells = sh.cell_weights(inv_var)
    valid = np.zeros((n - 1, n - 1), dtype=bool)
    valid[pup.subap_y, pup.subap_x] = True
    assert np.all(cells[~valid] == 0.0)
    w = rng.normal(size=(2, 3, n, n))
    got = sh.gram(w, cells)
    assert got.shape == (2, 3, n, n)
    StWS = S.T @ (np.concatenate([inv_var, inv_var])[:, None] * S)
    np.testing.assert_allclose(got.reshape(6, n * n), w.reshape(6, n * n) @ StWS,
                               rtol=0, atol=1e-13)
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(sh.gram(w[i, j], cells), got[i, j])


def test_adjoint_identity():
    pup = make_pupil(17)
    sh = ShackHartmann(pup)
    rng = np.random.default_rng(4)
    w = rng.normal(size=(17, 17))
    gx = rng.normal(size=pup.nsub)
    gy = rng.normal(size=pup.nsub)
    dx, dy = sh.forward(w)
    lhs = float(gx @ dx + gy @ dy)
    rhs = float(np.vdot(sh.adjoint(gx, gy), w))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_adjoint_support_stays_inside_pupil():
    pup = make_pupil(9)
    sh = ShackHartmann(pup)
    g = sh.adjoint(np.ones(pup.nsub), np.ones(pup.nsub))
    assert g.shape == (9, 9)
    assert np.all(g[~pup.sample_mask] == 0.0)


@pytest.mark.parametrize("p", range(1, 9))
def test_edge_count_matches_set_of_edges(p):
    pup = make_pupil((1 << p) + 1)
    sx, sy = pup.subap_x.tolist(), pup.subap_y.tolist()
    edges = set(zip(sx, sy)) | {(x + 1, y) for x, y in zip(sx, sy)}
    assert ShackHartmann(pup).n_edges == len(edges)


def test_flop_charge_uses_shared_edges():
    for n in (9, 33):
        pup = make_pupil(n)
        sh = ShackHartmann(pup)
        expected = 2 * sh.n_edges + 2 * pup.nsub
        counter = FlopCounter()
        sh.forward(np.zeros((n, n)), counter=counter)
        assert counter.total == expected
        counter = FlopCounter()
        sh.adjoint(np.zeros(pup.nsub), np.zeros(pup.nsub), counter=counter)
        assert counter.total == expected
        counter = FlopCounter()
        sh.gram(np.zeros((3, n, n)), sh.cell_weights(np.ones(pup.nsub)), counter=counter)
        assert counter.tallies() == {"sensor": 3 * 2 * expected, "noise": 3 * 2 * pup.nsub}


# -- measurement simulation -------------------------------------------------


def test_noiseless_measurements_are_exact_slopes():
    pup = make_pupil(9)
    w = np.random.default_rng(5).normal(size=(9, 9))
    slopes = simulate_measurements(w, pup, 0.0, np.random.default_rng(6))
    dx, dy = ShackHartmann(pup).forward(w)
    np.testing.assert_array_equal(slopes.sx, dx)
    np.testing.assert_array_equal(slopes.sy, dy)
    # unit weights keep the normal equations defined when noise is off
    np.testing.assert_array_equal(slopes.var, np.ones(pup.nsub))


def test_noisy_measurements_record_variance_and_reproduce():
    pup = make_pupil(9)
    w = np.random.default_rng(7).normal(size=(9, 9))
    a = simulate_measurements(w, pup, 0.5, np.random.default_rng(8))
    b = simulate_measurements(w, pup, 0.5, np.random.default_rng(8))
    np.testing.assert_array_equal(a.sx, b.sx)
    np.testing.assert_array_equal(a.sy, b.sy)
    np.testing.assert_array_equal(a.var, np.full(pup.nsub, 0.25))
    dx, _ = ShackHartmann(pup).forward(w)
    assert not np.allclose(a.sx, dx)


def test_noise_perturbation_scale():
    pup = make_pupil(33)
    w = np.zeros((33, 33))
    slopes = simulate_measurements(w, pup, 0.5, np.random.default_rng(9))
    sample = np.concatenate([slopes.sx, slopes.sy])
    assert sample.std() == pytest.approx(0.5, rel=0.1)


@pytest.mark.parametrize("noise_std", [-0.5, np.nan, np.inf])
def test_measurements_reject_negative_or_non_finite_noise(noise_std):
    pup = make_pupil(9)
    with pytest.raises(ValueError, match="noise_std must be finite and nonnegative"):
        simulate_measurements(np.zeros((9, 9)), pup, noise_std, np.random.default_rng(0))


def test_slope_set_validation():
    pup = make_pupil(9)
    w = np.zeros((9, 9))
    good = simulate_measurements(w, pup, 1.0, np.random.default_rng(0))
    assert good.validate() is good

    bad = SlopeSet(good.subap_x, good.subap_y, good.sx[:-1], good.sy, good.var)
    with pytest.raises(ValueError, match="lengths"):
        bad.validate()
    with pytest.raises(ValueError, match="positive"):
        SlopeSet(good.subap_x, good.subap_y, good.sx, good.sy, 0.0 * good.var).validate()
    nan = good.sx.copy()
    nan[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SlopeSet(good.subap_x, good.subap_y, nan, good.sy, good.var).validate()
