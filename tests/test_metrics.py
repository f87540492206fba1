"""Flop bookkeeping, residual quality measures, and screen statistics."""

import numpy as np
import pytest

from fracwave.metrics import (
    FlopCounter,
    empirical_structure_function,
    fractal_apply_flops,
    radial_profile,
    residual_stats,
    strehl_ratio,
)
from fracwave.sensor import make_pupil

from oracles import reference_residual_stats


# -- counters ---------------------------------------------------------------


def test_counter_accumulates_by_family():
    c = FlopCounter()
    c.add("fractal", 10)
    c.add("fractal", 5)
    c.add("vector", 2)
    assert c.tallies() == {"fractal": 15, "vector": 2}
    assert c.total == 17


def test_tallies_returns_a_copy():
    c = FlopCounter()
    c.add("x", 1)
    c.tallies()["x"] = 999
    assert c.total == 1


# -- cost models --------------------------------------------------------------


def test_fractal_apply_model():
    assert fractal_apply_flops(25) == 6 * 25 - 14
    assert fractal_apply_flops(66049) == 6 * 66049 - 14


# -- residual quality ---------------------------------------------------------


def test_residual_stats_piston_invariant():
    pup = make_pupil(9)
    rng = np.random.default_rng(0)
    w_true = rng.normal(size=(9, 9))
    w_hat = w_true + rng.normal(size=(9, 9)) * 0.3
    rms, var = residual_stats(w_hat, w_true, pup)
    rms_off, var_off = residual_stats(w_hat + 17.0, w_true, pup)
    assert rms_off == pytest.approx(rms, rel=1e-9, abs=1e-12)
    assert var_off == pytest.approx(var, rel=1e-9, abs=1e-12)


def test_residual_stats_ignore_samples_outside_pupil():
    pup = make_pupil(9)
    w_true = np.random.default_rng(1).normal(size=(9, 9))
    w_hat = w_true.copy()
    w_hat[~pup.sample_mask] += 1e6
    rms, var = residual_stats(w_hat, w_true, pup)
    assert rms == 0.0 and var == 0.0


def test_residual_stats_match_direct_formula():
    pup = make_pupil(9)
    rng = np.random.default_rng(2)
    w_true = rng.normal(size=(9, 9))
    w_hat = rng.normal(size=(9, 9))
    e = (w_hat - w_true)[pup.sample_mask]
    e = e - e.mean()
    rms, var = residual_stats(w_hat, w_true, pup)
    assert var == pytest.approx(float(np.mean(e * e)), rel=1e-12)
    assert rms == pytest.approx(np.sqrt(var), rel=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [9, 65])
def test_residual_stats_keep_the_bits_of_the_full_difference(n):
    pup = make_pupil(n)
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(8, n, n))
    truth = rng.normal(size=(8, n, n))
    inner = np.argwhere(pup.sample_mask)
    outer = np.argwhere(~pup.sample_mask)
    for (y, x), value in zip(inner[:3], (np.inf, -np.inf, np.nan)):
        stack[1, y, x] = value  # inf and NaN inside the pupil
    for (y, x), value in zip(outer[:3], (np.inf, -np.inf, np.nan)):
        stack[2, y, x] = value  # and outside it
    truth[3, inner[5][0], inner[5][1]] = np.nan
    cases = [
        (stack, truth),
        (stack, truth[0]),          # one truth for a stack
        (stack[4], truth),          # one estimate against a stack
        (stack[0], truth[0]),
        (stack[:, None], truth[:3]),  # (8, 1) against (3,) leading axes
        (np.zeros((n, n)), truth[5]),
    ]
    for w_hat, w_true in cases:
        with np.errstate(invalid="ignore"):  # inf - inf
            got = residual_stats(w_hat, w_true, pup)
            want = reference_residual_stats(w_hat, w_true, pup)
        for a, b in zip(got, want):
            assert _same_bits(np.asarray(a), np.asarray(b))
    with np.errstate(invalid="ignore"):
        _, var = residual_stats(stack, truth, pup)
    assert np.isnan(var[[1, 3]]).all() and np.isfinite(var[[0, 2]]).all()


def test_strehl_ratio():
    assert strehl_ratio(0.0) == 1.0
    assert strehl_ratio(0.5) == pytest.approx(np.exp(-0.5))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            strehl_ratio(bad)


# -- structure-function estimation --------------------------------------------


def brute_structure_function(screens):
    count, n, _ = screens.shape
    acc = np.zeros((2 * n - 1, 2 * n - 1))
    pairs = np.zeros((2 * n - 1, 2 * n - 1))
    for s in screens:
        for y0 in range(n):
            for x0 in range(n):
                diff = s - s[y0, x0]
                acc[n - 1 - y0 : 2 * n - 1 - y0, n - 1 - x0 : 2 * n - 1 - x0] += diff * diff
                pairs[n - 1 - y0 : 2 * n - 1 - y0, n - 1 - x0 : 2 * n - 1 - x0] += 1.0
    return acc / pairs


def test_estimator_matches_brute_force():
    screens = np.random.default_rng(3).normal(size=(3, 6, 6))
    est = empirical_structure_function(screens)
    np.testing.assert_allclose(est, brute_structure_function(screens), rtol=0, atol=1e-10)


def test_estimator_on_ramp_is_exact():
    n = 7
    _, xx = np.mgrid[0:n, 0:n]
    est = empirical_structure_function(xx.astype(float)[None, :, :])
    offsets = np.arange(-(n - 1), n)
    np.testing.assert_allclose(est, np.broadcast_to(offsets**2, (2 * n - 1, 2 * n - 1)).astype(float), atol=1e-10)


def test_estimator_constant_screen_is_zero():
    est = empirical_structure_function(np.full((2, 5, 5), 3.3))
    np.testing.assert_allclose(est, 0.0, atol=1e-12)
    assert est.shape == (9, 9)


def test_estimator_symmetry_and_zero_lag():
    screens = np.random.default_rng(4).normal(size=(2, 5, 5))
    est = empirical_structure_function(screens)
    assert est[4, 4] == 0.0
    np.testing.assert_allclose(est, est[::-1, ::-1], atol=1e-12)


# -- radial pooling ------------------------------------------------------------


def test_radial_profile_pools_exact_annuli():
    n = 6
    offsets = np.arange(-(n - 1), n)
    rho = np.hypot(offsets[:, None], offsets[None, :])
    sf_map = rho**1.5
    radii, measured, expected = radial_profile(sf_map, theory=lambda r: r**1.5)
    assert list(radii) == [1, 2, 3, 4, 5]
    for i, k in enumerate(radii):
        sel = (rho >= k - 0.5) & (rho < k + 0.5)
        assert measured[i] == pytest.approx(sf_map[sel].mean(), rel=1e-13)
        # theory averaged over the same offsets: no binning bias at all
        assert expected[i] == pytest.approx(measured[i], rel=1e-13)


def test_radial_profile_respects_r_max():
    sf_map = np.ones((11, 11))
    radii, measured = radial_profile(sf_map, r_max=3)
    assert list(radii) == [1, 2, 3]
    np.testing.assert_allclose(measured, 1.0)
