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
from fracwave.sensor import Pupil


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


# The law's covariance sigma^2 - f/2 is indefinite on a whole grid (sigma^2
# pins the covariance of the two most remote corners to 0); this many
# sigma^2 make it positive definite.  The added piston is invisible to the
# slopes and to piston-removed residuals.
LAW_PISTON = 100.0


def law_covariance(sf, index, n):
    """LAW_PISTON * sigma^2 - f(r) / 2 between the flat samples ``index`` of
    an n x n grid."""
    y, x = np.divmod(np.asarray(index), n)
    r = np.hypot(y[:, None] - y, x[:, None] - x)
    return LAW_PISTON * sf.variance - 0.5 * sf.evaluate(r)


def exact_law_screens(sf, n, rngs):
    """One n x n screen per generator, drawn exactly from the law: L z with
    L the Cholesky factor of ``law_covariance`` over all n**2 samples and z
    the generator's next n**2 standard normals."""
    L = np.linalg.cholesky(law_covariance(sf, np.arange(n * n), n))
    return np.stack([(L @ rng.standard_normal(n * n)).reshape(n, n) for rng in rngs])


def dense_mmse(sf, pupil, noise_var):
    """Expected piston-removed residual variance, over the pupil, of the dense
    minimum-variance estimate C S^T (S C S^T + N)^-1 d of a screen drawn from
    the law, with C its covariance and N = noise_var I.

    That is the mean diagonal of M P M, with P = C - C S^T (S C S^T + N)^-1 S C
    the posterior covariance and M the piston removal.  The slopes read
    only pupil samples, so C and S are restricted to them.
    """
    index = pupil.sample_index
    S = dense_sensor_matrix(pupil)
    assert not S[:, np.setdiff1d(np.arange(pupil.n ** 2), index)].any()
    S = S[:, index]
    C = law_covariance(sf, index, pupil.n)
    CSt = C @ S.T
    G = S @ CSt + noise_var * np.eye(len(S))
    P = C - CSt @ np.linalg.solve(G, CSt.T)
    m = len(index)
    return (np.trace(P) - P.sum() / m) / m


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


def sample_passes(n):
    """Refinement pass that places each sample of an n x n grid, n = 2**p + 1:
    0 for the four corners, and L for the samples of the lattice of step
    2**(p - L) that no coarser lattice holds."""
    p = (n - 1).bit_length() - 1
    # The pass of each coordinate alone; a sample waits for the later one.
    first = [0 if i % (n - 1) == 0 else p - ((i & -i).bit_length() - 1) for i in range(n)]
    return np.maximum.outer(first, first)


def exact_structure_function(op):
    """The structure-function map an infinite ensemble of screens K u
    would give, split by the pass that places each generator.

    Returns a (p + 1, 2n - 1, 2n - 1) stack in the layout of
    ``empirical_structure_function``, pass 0 (the corners) first; the sum
    over passes is the map.  With c_j = K e_j, each generator j adds

        sum over in-grid pairs (r, r + d) of (c_j(r) - c_j(r + d))**2,

    over the pair count, at each offset d; so scaling the alpha0 of pass
    l by f scales entry l by f**2.  A pass's columns are formed a colour
    at a time: every member of one colour set to 1 and K applied once.
    After its own pass a generator of half-cell h reaches 3h - 2 samples
    per axis: an edge midpoint reads a same-pass centre h away, and each
    finer pass, of half-cell g, spreads it 2g further.  Members of one
    colour sit far enough apart that each one's window of that reach
    holds its column alone; windows that miss any of a colour's energy
    raise AssertionError.  The squares are pooled over the grid and the
    cross terms from the windows' power spectra.
    """
    n, p = op.n, op.p
    passes = sample_passes(n)
    offsets = np.arange(-(n - 1), n)
    counts = np.outer(n - np.abs(offsets), n - np.abs(offsets))
    ones = np.zeros((2 * n, 2 * n))
    ones[:n, :n] = 1.0
    ones_spec = np.fft.rfft2(ones)
    maps = np.empty((p + 1, 2 * n - 1, 2 * n - 1))
    for level in range(p + 1):
        h = (n - 1) >> level
        reach = min(3 * h - 2, n - 1) if level else n - 1
        width = 2 * reach + 1
        stride = 2 * h * -(-width // (2 * h))  # a multiple of 2h, so one type per colour
        y, x = np.nonzero(passes == level)
        colour = np.unique((y % stride) * stride + x % stride, return_inverse=True)[1]
        columns = np.zeros((colour.max() + 1, n, n))
        columns[colour, y, x] = 1.0
        op.apply(columns)
        pad = np.pad(columns, ((0, 0), (reach, reach), (reach, reach)))
        span = np.arange(width)
        windows = pad[colour[:, None, None], y[:, None, None] + span[:, None],
                      x[:, None, None] + span]
        squares = columns * columns
        if not np.isclose((windows * windows).sum(), squares.sum(), rtol=1e-12, atol=0.0):
            raise AssertionError(f"a column of pass {level} reaches past its window")
        size = 2 * width
        spec = np.fft.rfft2(windows, s=(size, size))
        autocorr = np.fft.irfft2((spec.real ** 2 + spec.imag ** 2).sum(axis=0), s=(size, size))
        lag = min(2 * reach, n - 1)
        cross = np.zeros((2 * n - 1, 2 * n - 1))
        cross[n - 1 - lag: n + lag, n - 1 - lag: n + lag] = np.roll(
            autocorr, (lag, lag), axis=(0, 1))[: 2 * lag + 1, : 2 * lag + 1]
        pad = np.zeros((2 * n, 2 * n))
        pad[:n, :n] = squares.sum(axis=0)
        pairs = np.fft.irfft2(np.fft.rfft2(pad) * ones_spec.conj(), s=(2 * n, 2 * n))
        pairs = np.roll(pairs, (n - 1, n - 1), axis=(0, 1))[: 2 * n - 1, : 2 * n - 1]
        maps[level] = (pairs + pairs[::-1, ::-1] - 2.0 * cross) / counts
    return maps


def probe_reach(A):
    """Per pass 1..p of the operator A, the reach of each sample type.

    Returns {pass: {type: (dy, dx)}} with types "C" (cell centres, odd
    lattice coordinates on both axes), "R" (even row, odd column) and "V"
    (odd row, even column).  (dy, dx) is the largest |dy| and the largest
    |dx|, in lattice steps of the pass, from a column of that type to a
    row of that pass or finer that A couples it to.  One operator
    application per column.
    """
    n = A.n
    passes = sample_passes(n)
    types = {"C": (1, 1), "R": (0, 1), "V": (1, 0)}
    reach = {}
    for level in range(1, passes.max() + 1):
        step = (n - 1) >> level
        found = dict.fromkeys(types, (0.0, 0.0))
        every = np.argwhere(passes == level)
        for start in range(0, len(every), 256):
            cols = every[start:start + 256]
            basis = np.zeros((len(cols), n, n))
            basis[np.arange(len(cols)), cols[:, 0], cols[:, 1]] = 1.0
            b, y, x = np.nonzero((A.apply(basis) != 0) & (passes >= level))
            dy = np.abs(y - cols[b, 0]) / step
            dx = np.abs(x - cols[b, 1]) / step
            parity = (cols[b] // step) % 2
            for kind, (py, px) in types.items():
                hit = (parity[:, 0] == py) & (parity[:, 1] == px)
                ry, rx = found[kind]
                found[kind] = (max(ry, dy[hit].max(initial=0)), max(rx, dx[hit].max(initial=0)))
        reach[level] = found
    return reach


def nearest_member_colours(n, origin, count, spacing, stride):
    """``solver._axis_colours`` from the nearest member of each grid index:
    the index k goes to member floor((2 (k - first) + span) / (2 span)) of
    its colour's lattice extended past the grid, a tie to the later one,
    and each member's run starts at the first index it gets."""
    span = spacing * stride
    k = np.arange(n)
    for c in range(min(stride, count)):
        first = origin + spacing * c
        members = len(range(c, count, stride))
        nearest = (2 * (k - first) + span) // (2 * span)
        bounds = np.searchsorted(nearest, np.arange(members + 1))
        yield (slice(first, first + span * (members - 1) + 1, span),
               slice(bounds[0], bounds[-1]), bounds[:-1] - bounds[0])


def full_support_pupil(n):
    """A ``Pupil`` with a subaperture on every cell of an n x n grid."""
    sy, sx = np.divmod(np.arange((n - 1) ** 2), n - 1)
    return Pupil(n=n, obscuration=0.0, sample_mask=np.ones((n, n), dtype=bool),
                 subap_x=sx, subap_y=sy)


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
