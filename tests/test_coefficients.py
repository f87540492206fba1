"""Closed-form refinement weights against a generic linear-solve oracle."""

import numpy as np
import pytest

from fracwave.fractal import (
    CoefficientError,
    build_coefficients,
    diamond_coefficients,
    square_coefficients,
    triangle_coefficients,
)
from fracwave.turbulence import kolmogorov

from oracles import solve_coefficients_numeric, solve_stencil

P = 8
SF = kolmogorov(1.0, float(1 << P))


def stencil_points(kind, r):
    h = r / 2.0
    if kind == "square":
        return (h, h), [(0.0, 0.0), (0.0, r), (r, 0.0), (r, r)]
    if kind == "triangle":
        return (0.0, h), [(0.0, 0.0), (0.0, r), (h, h)]
    # diamond: child surrounded by four parents at distance r/2
    return (0.0, 0.0), [(-h, 0.0), (h, 0.0), (0.0, -h), (0.0, h)]


@pytest.mark.parametrize("level", range(P))
def test_square_matches_generic_solve(level):
    r = 1 << (P - level)
    alpha0, alpha = square_coefficients(SF, r)
    child, parents = stencil_points("square", r)
    ref0, refs = solve_stencil(SF, child, parents)
    np.testing.assert_allclose(alpha0, ref0, rtol=1e-10)
    np.testing.assert_allclose([alpha] * 4, refs, rtol=1e-10)


@pytest.mark.parametrize("level", range(P))
def test_triangle_matches_generic_solve(level):
    r = 1 << (P - level)
    alpha0, a_end, a_centre = triangle_coefficients(SF, r)
    child, parents = stencil_points("triangle", r)
    ref0, refs = solve_stencil(SF, child, parents)
    np.testing.assert_allclose(alpha0, ref0, rtol=1e-10)
    np.testing.assert_allclose([a_end, a_end, a_centre], refs, rtol=1e-10)


@pytest.mark.parametrize("level", range(P))
def test_diamond_matches_generic_solve(level):
    r = 1 << (P - level)
    alpha0, alpha = diamond_coefficients(SF, r)
    child, parents = stencil_points("diamond", r)
    ref0, refs = solve_stencil(SF, child, parents)
    np.testing.assert_allclose(alpha0, ref0, rtol=1e-10)
    np.testing.assert_allclose([alpha] * 4, refs, rtol=1e-10)


def test_diamond_is_square_at_compressed_separation():
    for r in (2, 8, 64):
        np.testing.assert_allclose(
            diamond_coefficients(SF, r),
            square_coefficients(SF, r / np.sqrt(2.0)),
            rtol=1e-14,
        )


def test_build_coefficients_layout():
    levels = build_coefficients(SF, P)
    assert [lv.cell for lv in levels] == [1 << k for k in range(P, 0, -1)]
    for lv in levels:
        assert lv.square == square_coefficients(SF, lv.cell)
        assert lv.triangle == triangle_coefficients(SF, lv.cell)
        assert lv.diamond == diamond_coefficients(SF, lv.cell)


def test_weights_positive_and_contracting():
    # Innovation must carry real variance and parents act as a weighted
    # average, or the recursion would amplify rather than interpolate.
    for lv in build_coefficients(SF, P):
        for weights in (lv.square, lv.triangle, lv.diamond):
            alpha0, rest = weights[0], weights[1:]
            assert alpha0 > 0
            assert all(0.0 < a < 1.0 for a in rest)


def test_weights_invariant_under_turbulence_strength():
    # All covariances scale by a common factor with r0, so the parent
    # weights are unchanged and only the innovation amplitude rescales.
    a = kolmogorov(0.5, 64.0)
    b = kolmogorov(2.0, 64.0)
    gain = (0.5 / 2.0) ** (-5.0 / 6.0)
    for r in (2, 16, 64):
        sa = square_coefficients(a, r)
        sb = square_coefficients(b, r)
        np.testing.assert_allclose(sa[1], sb[1], rtol=1e-12)
        np.testing.assert_allclose(sa[0], gain * sb[0], rtol=1e-12)


def test_numeric_solver_matches_direct_solve():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(2, 6)
        root = rng.normal(size=(m, m + 2))
        parent_cov = root @ root.T + m * np.eye(m)
        cross = rng.normal(size=m)
        alphas_ref = np.linalg.solve(parent_cov, cross)
        sigma2 = float(cross @ alphas_ref) + abs(rng.normal()) + 0.1
        alpha0, alphas = solve_coefficients_numeric(parent_cov, cross, sigma2)
        np.testing.assert_allclose(alphas, alphas_ref, rtol=1e-10)
        assert alpha0 == pytest.approx(np.sqrt(sigma2 - cross @ alphas_ref), rel=1e-12)


def test_numeric_solver_rejects_infeasible_variance():
    parent_cov = np.eye(2)
    cross = np.array([2.0, 2.0])
    with pytest.raises(CoefficientError) as err:
        solve_coefficients_numeric(parent_cov, cross, 1.0)
    assert err.value.radicand == pytest.approx(1.0 - 8.0)
