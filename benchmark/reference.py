"""Dense reference for the u-space normal equations, built apart from the fast operators.

K is assembled row by row from the mid-point recursion, with each
stencil's weights taken from a generic linear solve of the covariance
system; S is assembled from the Fried slope formulas.  The estimate then
comes from one direct solve of

    (K^T S^T W S K + I) u = K^T S^T W d,        w = K u.

Only the structure function, the pupil geometry and the 4 x 4 corner
factor come from the package; the in-place maps and the sensor kernels
are never called.

    python3 benchmark/reference.py SLOPES.csv OUT.npy

reads a slope file written by the benchmark (or by ``fracwave sense``)
and saves the dense estimate.  About 0.5 GB and a few seconds at p=6.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np


def _stencils(p):
    """(child, parents) in forward order, (y, x) coordinates.

    Per pass: cell centres from their 4 corners first, then edge
    midpoints from the 2 edge ends and the flanking same-pass centres
    (one centre on the boundary, two inside).
    """
    n = (1 << p) + 1
    for k in range(p, 0, -1):
        r = 1 << k
        h = r // 2
        for y in range(0, n - 1, r):
            for x in range(0, n - 1, r):
                yield (y + h, x + h), [(y, x), (y, x + r), (y + r, x), (y + r, x + r)]
        for y in range(0, n, r):
            for x in range(0, n - 1, r):
                centres = [(c, x + h) for c in (y - h, y + h) if 0 <= c < n]
                yield (y, x + h), [(y, x), (y, x + r)] + centres
        for x in range(0, n, r):
            for y in range(0, n - 1, r):
                centres = [(y + h, c) for c in (x - h, x + h) if 0 <= c < n]
                yield (y + h, x), [(y, x), (y + r, x)] + centres


def _weights(sf, offsets):
    """alpha0 and parent weights for parents at ``offsets`` from the child."""
    pts = np.asarray(offsets, dtype=float)
    dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    cov = np.vectorize(sf.covariance)(dist)
    cross = np.array([sf.covariance(math.hypot(*pt)) for pt in pts])
    alphas = np.linalg.solve(cov, cross)
    return math.sqrt(sf.variance - float(cross @ alphas)), alphas


def generator_matrix(sf, p, outer_matrix):
    """Dense K: row y*n+x expresses sample (y, x) in the generators."""
    n = (1 << p) + 1
    K = np.zeros((n * n, n * n))
    corners = [0, n - 1, n * n - 1, (n - 1) * n]  # cyclic order round the support
    K[np.ix_(corners, corners)] = outer_matrix
    cache = {}
    for (cy, cx), parents in _stencils(p):
        key = tuple((py - cy, px - cx) for py, px in parents)
        if key not in cache:
            cache[key] = _weights(sf, key)
        alpha0, alphas = cache[key]
        child = cy * n + cx
        for a, (py, px) in zip(alphas, parents):
            K[child] += a * K[py * n + px]
        K[child, child] += alpha0
    return K


def slope_rows(K, pupil):
    """S K as one (2 * nsub, n * n) array: x slopes, then y slopes."""
    n, nsub = pupil.n, pupil.nsub
    i00 = pupil.subap_y * n + pupil.subap_x
    ie, inn, ine = i00 + 1, i00 + n, i00 + n + 1
    rows = np.empty((2 * nsub, K.shape[1]))
    # dx = (ne + e - n - 00) / 2,  dy = (ne - e + n - 00) / 2; one gathered
    # row block alive at a time keeps the peak near K + rows.
    for out, plus, minus in ((rows[:nsub], ie, inn), (rows[nsub:], inn, ie)):
        np.subtract(K[ine], K[i00], out=out)
        out += K[plus]
        out -= K[minus]
        out *= 0.5
    return rows


def dense_estimate(sf, p, outer_matrix, pupil, slopes):
    """Minimum-variance estimate w = K u from one dense direct solve."""
    K = generator_matrix(sf, p, outer_matrix)
    rows = slope_rows(K, pupil)
    sqrt_w = np.sqrt(np.concatenate([1.0 / slopes.var] * 2))
    rows *= sqrt_w[:, None]
    rhs = rows.T @ (sqrt_w * np.concatenate([slopes.sx, slopes.sy]))
    M = rows.T @ rows
    del rows
    M[np.diag_indices_from(M)] += 1.0
    u = np.linalg.solve(M, rhs)
    return (K @ u).reshape(pupil.n, pupil.n)


def main(argv) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fracwave import build_outer_operator, fileio, kolmogorov, make_pupil

    slopes_csv, out = argv
    slopes, meta = fileio.read_slopes_csv(slopes_csv)
    p = int(meta["p"])
    n = (1 << p) + 1
    sf = kolmogorov(float(meta.get("r0", 1.0)), float(n - 1))
    outer = build_outer_operator(sf, float(n - 1)).forward_matrix
    np.save(out, dense_estimate(sf, p, outer, make_pupil(n), slopes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
