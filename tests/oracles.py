"""Slow reference implementations used to pin the fast operators.

Everything here trades speed for obviousness: explicit stencil
enumeration, generic linear solves for the interpolation weights, and
dense matrix assembly.  Tests compare the vectorized in-place operators
against these.
"""

from __future__ import annotations

import math

import numpy as np

from fracwave.fractal import CoefficientError


def solve_coefficients_numeric(parent_cov, cross_cov, sigma2):
    """Solve the interpolation-weight system by generic linear algebra.

    Solves  parent_cov @ alphas = cross_cov  and completes alpha0 from
    the variance budget  alpha0^2 = sigma2 - cross_cov @ alphas.  The
    reference oracle for the closed forms in ``fracwave.fractal``.
    """
    parent_cov = np.asarray(parent_cov, dtype=float)
    cross_cov = np.asarray(cross_cov, dtype=float)
    try:
        alphas = np.linalg.solve(parent_cov, cross_cov)
    except np.linalg.LinAlgError as exc:
        raise CoefficientError(f"singular parent covariance: {exc}") from exc
    radicand = float(sigma2 - cross_cov @ alphas)
    if radicand <= 0:
        raise CoefficientError(
            f"nonpositive generator variance {radicand}", radicand=radicand
        )
    return math.sqrt(radicand), alphas


def corner_points(n):
    """Support corners in cyclic order (consecutive corners share a side)."""
    return [(0, 0), (0, n - 1), (n - 1, n - 1), (n - 1, 0)]


def stencil_schedule(p):
    """Every refinement stencil in forward (coarse to fine) order.

    Yields (level, kind, child, parents) with grid coordinates as (y, x)
    tuples.  level is the parent cell size in grid steps; kind is one of
    "square", "triangle", "diamond".  Within a pass all cell centres
    come first, then the edge midpoints, which may read those centres.
    """
    n = (1 << p) + 1
    out = []
    for k in range(p, 0, -1):
        r = 1 << k
        h = r // 2
        for i in range(0, n - 1, r):
            for j in range(0, n - 1, r):
                out.append(
                    (
                        r,
                        "square",
                        (i + h, j + h),
                        [(i, j), (i, j + r), (i + r, j), (i + r, j + r)],
                    )
                )
        for gy in range(0, n, r):
            for j in range(0, n - 1, r):
                child = (gy, j + h)
                ends = [(gy, j), (gy, j + r)]
                if gy == 0:
                    out.append((r, "triangle", child, ends + [(h, j + h)]))
                elif gy == n - 1:
                    out.append((r, "triangle", child, ends + [(gy - h, j + h)]))
                else:
                    out.append(
                        (r, "diamond", child, ends + [(gy - h, j + h), (gy + h, j + h)])
                    )
        for gx in range(0, n, r):
            for i in range(0, n - 1, r):
                child = (i + h, gx)
                ends = [(i, gx), (i + r, gx)]
                if gx == 0:
                    out.append((r, "triangle", child, ends + [(i + h, h)]))
                elif gx == n - 1:
                    out.append((r, "triangle", child, ends + [(i + h, gx - h)]))
                else:
                    out.append(
                        (r, "diamond", child, ends + [(i + h, gx - h), (i + h, gx + h)])
                    )
    return out


def solve_stencil(sf, child, parents):
    """Interpolation weights for one stencil by a generic linear solve."""
    npar = len(parents)
    cov = np.empty((npar, npar))
    for i, pi in enumerate(parents):
        for j, pj in enumerate(parents):
            cov[i, j] = sf.covariance(math.dist(pi, pj))
    cross = np.array([sf.covariance(math.dist(child, q)) for q in parents])
    alphas = np.linalg.solve(cov, cross)
    alpha0 = math.sqrt(sf.variance - float(cross @ alphas))
    return alpha0, alphas


def dense_generator_matrix(sf, p, outer_matrix):
    """Dense K built row by row from the recursion definition.

    Row y*n+x of the result expresses grid point (y, x) as a linear
    combination of the generators, which live one per grid slot.
    """
    n = (1 << p) + 1
    big = n * n
    K = np.zeros((big, big))

    def flat(pt):
        return pt[0] * n + pt[1]

    corners = corner_points(n)
    for i, ci in enumerate(corners):
        for j, cj in enumerate(corners):
            K[flat(ci), flat(cj)] = outer_matrix[i, j]
    for _, _, child, parents in stencil_schedule(p):
        alpha0, alphas = solve_stencil(sf, child, parents)
        row = np.zeros(big)
        row[flat(child)] = alpha0
        for a, q in zip(alphas, parents):
            row += a * K[flat(q)]
        K[flat(child)] = row
    return K


def reference_map(op, name, grid):
    """One multiscale map of ``op`` on ``grid`` (in place), target by target.

    Walks ``op.stages`` the way the maps were first written: every target
    scales itself by its own alpha0 inside the gather or scatter (K and
    K^T after the parents are summed in or the target spread out, K^-1
    and K^-T around it), and every sum is a fresh temporary.  The fast
    maps scale the whole grid once instead; they must match this bit for
    bit, non-finite samples included.
    """
    n = op.n
    corners = (Ellipsis, np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]))

    def corner_step(M):
        C = grid[..., :: n - 1, :: n - 1]
        T = C[corners][..., None, :] * M
        C[corners] = T[..., 0] + T[..., 1] + T[..., 2] + T[..., 3]

    def gather(inverse):
        for stage in reversed(op.stages) if inverse else op.stages:
            for index, alpha0, groups in stage:
                t = grid[index]
                s = None
                for w, qs in groups:
                    term = grid[qs[0]]
                    for q in qs[1:]:
                        term = term + grid[q]
                    s = w * term if s is None else s + w * term
                if inverse:
                    t -= s
                    t /= alpha0
                else:
                    t *= alpha0
                    t += s

    def scatter(inverse):
        for stage in op.stages if inverse else reversed(op.stages):
            for index, alpha0, groups in stage:
                t = grid[index]
                if inverse:
                    t /= alpha0
                for w, qs in groups:
                    wt = (-w if inverse else w) * t
                    for q in qs:
                        parent = grid[q]
                        parent += wt
                if not inverse:
                    t *= alpha0

    K, K_inv = op.outer.forward_matrix, op.outer.inverse_matrix
    if name == "apply":
        corner_step(K)
        gather(inverse=False)
    elif name == "apply_inverse":
        gather(inverse=True)
        corner_step(K_inv)
    elif name == "apply_transpose":
        scatter(inverse=False)
        corner_step(K.T)
    elif name == "apply_inverse_transpose":
        corner_step(K_inv.T)
        scatter(inverse=True)
    else:
        raise ValueError(f"unknown map {name!r}")
    return grid


def dense_from_apply(apply_fn, size):
    """Assemble the matrix of a linear map by probing basis vectors."""
    cols = np.eye(size)
    for j in range(size):
        col = apply_fn(cols[j].copy())
        cols[j] = np.asarray(col).ravel()
    return cols.T


def dense_grid_operator(op, n):
    """Dense matrix of an in-place grid operator (n x n grids)."""
    return dense_from_apply(lambda v: op(v.reshape(n, n)), n * n)


def covariance_matrix(sf, points):
    """Model covariance of the listed (y, x) points."""
    npts = len(points)
    cov = np.empty((npts, npts))
    for i, pi in enumerate(points):
        for j, pj in enumerate(points):
            cov[i, j] = sf.covariance(math.dist(pi, pj))
    return cov


def dense_sensor_matrix(pupil):
    """Dense [Sx; Sy] built subaperture by subaperture."""
    n = pupil.n
    nsub = pupil.nsub
    S = np.zeros((2 * nsub, n * n))
    for k in range(nsub):
        y = int(pupil.subap_y[k])
        x = int(pupil.subap_x[k])
        c00 = y * n + x
        c01 = y * n + (x + 1)
        c10 = (y + 1) * n + x
        c11 = (y + 1) * n + (x + 1)
        S[k, c01] += 0.5
        S[k, c11] += 0.5
        S[k, c00] -= 0.5
        S[k, c10] -= 0.5
        S[nsub + k, c10] += 0.5
        S[nsub + k, c11] += 0.5
        S[nsub + k, c00] -= 0.5
        S[nsub + k, c01] -= 0.5
    return S


def exhaustive_diagonal_stats(apply_fn, n, batch_size=None):
    """diag(A) and row square-sums of a symmetric operator on n x n grids.

    Applies A to every basis vector (in batches): the i-th application
    yields A e_i, whose i-th entry is the diagonal and whose squared norm
    is the i-th row square-sum.  O(N^2) work; the reference for the
    colored probe.
    """
    size = n * n
    if batch_size is None:
        batch_size = max(1, min(512, (1 << 23) // size))
    diag = np.empty(size)
    rowsq = np.empty(size)
    for start in range(0, size, batch_size):
        idx = np.arange(start, min(start + batch_size, size))
        basis = np.zeros((idx.size, size))
        basis[np.arange(idx.size), idx] = 1.0
        out = apply_fn(basis.reshape(idx.size, n, n)).reshape(idx.size, size)
        diag[idx] = out[np.arange(idx.size), idx]
        rowsq[idx] = np.einsum("ij,ij->i", out, out)
    return diag.reshape(n, n), rowsq.reshape(n, n)


def reference_pupil(n, obscuration=1.0 / 3.0):
    """(sample_mask, subap_x, subap_y) of ``make_pupil``, built from a full
    coordinate grid and one fancy-indexed write per corner."""
    yy, xx = np.mgrid[0:n, 0:n]
    s = (2 * xx - (n - 1)) ** 2 + (2 * yy - (n - 1)) ** 2
    inside = (s <= (n - 1) ** 2) & (s >= (obscuration * (n - 1)) ** 2)
    valid = inside[:-1, :-1] & inside[:-1, 1:] & inside[1:, :-1] & inside[1:, 1:]
    sy, sx = np.nonzero(valid)
    mask = np.zeros((n, n), dtype=bool)
    for dy in (0, 1):
        for dx in (0, 1):
            mask[sy + dy, sx + dx] = True
    return mask, sx, sy


def reference_residual_stats(w_hat, w_true, pupil):
    """``residual_stats`` with the whole difference formed before the
    pupil samples are gathered."""
    d = np.asarray(w_hat, dtype=float) - w_true
    e = d.reshape(d.shape[:-2] + (-1,)).take(pupil.sample_index, axis=-1)
    count = e.shape[-1]
    e -= np.add.reduce(e, axis=-1, keepdims=True) / count
    var = np.add.reduce(e * e, axis=-1) / count
    return np.sqrt(var), var
