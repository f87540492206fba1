"""Multiscale mid-point operators between white generators and screens.

A screen on an (2**p + 1) x (2**p + 1) grid is built from the four
support corners inward.  Each refinement pass halves the cell size and
overwrites every new sample with a perturbed interpolation of already
placed neighbours,

    w0 = alpha0 * u0 + sum_j alpha_j * w_j,

where u0 is the unit-variance generator previously stored in the same
slot.  The weights are chosen per scale so that the new sample keeps the
stationary variance sigma^2 and the prescribed structure function
against each of its parents.  Three parent configurations occur:

* square   - cell centre from the 4 cell corners,
* triangle - boundary edge midpoint from the 2 edge ends and the
             nearest same-pass cell centre,
* diamond  - interior edge midpoint from the 2 edge ends and the 2
             flanking same-pass cell centres.

The same pass structure gives the transpose, the inverse and the inverse
transpose at identical cost.  All four run in place: the buffer holds
generators on one side of the map and wavefront samples on the other.

One table orders the work: the corner step, then per pass, coarse to
fine, a centre stage and an edge stage (the edge midpoints read the
same-pass centres).  Each stage only reads samples that earlier stages
have finished.  K walks the table in order, gathering each target from
its parents; K^-1 walks it backwards and undoes each gather.  The
transposes scatter each target into its parents instead: K^T walks the
table backwards, K^-T in order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

SQRT2 = math.sqrt(2.0)


class CoefficientError(ValueError):
    """Interpolation weights not constructible from the requested statistics."""

    def __init__(self, message, radicand=None):
        super().__init__(message)
        self.radicand = radicand


@dataclasses.dataclass(frozen=True)
class ScaleCoefficients:
    """Interpolation weights for one refinement pass.

    ``cell`` is the parent cell size r in grid steps.  Weight tuples put
    alpha0 first; parent weights are equal within the square and diamond
    configurations by symmetry.
    """

    cell: int
    square: tuple[float, float]            # (alpha0, alpha_parent)
    triangle: tuple[float, float, float]   # (alpha0, alpha_end, alpha_centre)
    diamond: tuple[float, float]           # (alpha0, alpha_parent)


@dataclasses.dataclass(frozen=True)
class OuterOperator:
    """4 x 4 factor seeding the support corners from four generators.

    The generators map to piston, waffle and the two tip/tilt corner
    modes; a, b, c are fixed by the corner covariances so that the
    seeded corners already have the target statistics.
    """

    a: float
    b: float
    c: float

    @property
    def forward_matrix(self) -> np.ndarray:
        a, b, c = self.a, self.b, self.c
        return 0.5 * np.array(
            [
                [a, -b, -c, 0.0],
                [a, b, 0.0, -c],
                [a, -b, c, 0.0],
                [a, b, 0.0, c],
            ]
        )

    @property
    def inverse_matrix(self) -> np.ndarray:
        a, b, c = self.a, self.b, self.c
        return 0.5 * np.array(
            [
                [1 / a, 1 / a, 1 / a, 1 / a],
                [-1 / b, 1 / b, -1 / b, 1 / b],
                [-2 / c, 0.0, 2 / c, 0.0],
                [0.0, -2 / c, 0.0, 2 / c],
            ]
        )


def solve_coefficients_numeric(parent_cov, cross_cov, sigma2):
    """Solve the interpolation-weight system by generic linear algebra.

    Solves  parent_cov @ alphas = cross_cov  and completes alpha0 from
    the variance budget  alpha0^2 = sigma2 - cross_cov @ alphas.  Kept as
    the reference oracle for the closed forms below.
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


def square_coefficients(sf, r) -> tuple[float, float]:
    """Weights for a cell centre interpolated from the 4 cell corners.

    The innovation variance is evaluated in structure-function
    differences; the plain covariance expression cancels sigma^2-scale
    terms and sheds digits on large supports where sigma^2 >> f(r).
    """
    s2 = sf.covariance(0.0)
    f2 = sf.evaluate(r / SQRT2)
    f3 = sf.evaluate(float(r))
    f4 = sf.evaluate(SQRT2 * r)
    den = 4.0 * s2 - f3 - 0.5 * f4
    if den <= 0:
        raise CoefficientError(f"degenerate parent covariance sum {den} at cell {r}")
    alpha = (s2 - 0.5 * f2) / den
    radicand = (s2 * (4.0 * f2 - f3 - 0.5 * f4) - f2 * f2) / den
    if radicand <= 0:
        raise CoefficientError(
            f"nonpositive generator variance {radicand} at cell {r}", radicand=radicand
        )
    return math.sqrt(radicand), alpha


def triangle_coefficients(sf, r) -> tuple[float, float, float]:
    """Weights for a boundary edge midpoint: 2 edge ends + 1 centre.

    Same rearrangement as the square: the covariance form of this
    system multiplies sigma^4-scale products before differencing and
    loses ~8 digits of the innovation variance at the finest cells of a
    large support, so every intermediate here stays at sigma^2 scale.
    """
    s2 = sf.covariance(0.0)
    f1 = sf.evaluate(0.5 * r)
    f2 = sf.evaluate(r / SQRT2)
    f3 = sf.evaluate(float(r))
    c1 = s2 - 0.5 * f1
    d = 2.0 * f2 - 0.5 * f3
    den = s2 * d - 0.5 * f2 * f2
    if den == 0:
        raise CoefficientError(f"singular parent covariance at cell {r}")
    alpha_end = c1 * (0.5 * f2) / den
    alpha_ctr = c1 * (f2 - 0.5 * f3) / den
    radicand = (s2 * (f1 * d - 0.5 * f2 * f2) - 0.25 * f1 * f1 * d) / den
    if radicand <= 0:
        raise CoefficientError(
            f"nonpositive generator variance {radicand} at cell {r}", radicand=radicand
        )
    return math.sqrt(radicand), alpha_end, alpha_ctr


def diamond_coefficients(sf, r) -> tuple[float, float]:
    # Interior edge midpoint: 4 parents at r/2 on a diagonal square, which
    # is the square configuration shrunk by sqrt(2).
    return square_coefficients(sf, r / SQRT2)


def build_coefficients(sf, p: int) -> list[ScaleCoefficients]:
    """Per-pass weights, coarsest first (cell = 2**p down to 2)."""
    if p < 1:
        raise ValueError(f"need at least one refinement pass, got p={p}")
    levels = []
    for k in range(p, 0, -1):
        r = 1 << k
        levels.append(
            ScaleCoefficients(
                cell=r,
                square=square_coefficients(sf, r),
                triangle=triangle_coefficients(sf, r),
                diamond=diamond_coefficients(sf, r),
            )
        )
    return levels


def build_outer_operator(sf, extent) -> OuterOperator:
    """Corner factor for a square support of side ``extent`` grid steps."""
    sigma2 = sf.variance
    f_side = sf.evaluate(float(extent))
    f_diag = sf.evaluate(SQRT2 * extent)
    a2 = 4.0 * sigma2 - f_side - 0.5 * f_diag
    b2 = f_side - 0.5 * f_diag
    c2 = f_diag
    for name, value in (("a", a2), ("b", b2), ("c", c2)):
        if value <= 0:
            raise CoefficientError(
                f"nonpositive corner mode variance {name}^2 = {value}", radicand=value
            )
    return OuterOperator(a=math.sqrt(a2), b=math.sqrt(b2), c=math.sqrt(c2))


def scale_count(side: int) -> int:
    """Number of refinement passes p for a grid side 2**p + 1."""
    m = side - 1
    if side < 3 or m & (m - 1):
        raise ValueError(f"grid side must be 2**p + 1 with p >= 1, got {side}")
    return m.bit_length() - 1


# Support corners in the cyclic order OuterOperator numbers them
# (consecutive corners share a side), as the index (..., rows, cols) into
# W[..., ::n-1, ::n-1].
_CORNERS = (Ellipsis, np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]))


def _pass_stages(lev: ScaleCoefficients, n: int):
    """(centre stage, edge stage) of one refinement pass on an n x n grid.

    A stage is a tuple of targets ``(index, alpha0, ((weight, parents),
    ...))``; ``index`` and each parent are ``(..., rows, cols)`` tuples of
    ints and slices, so they select views.  The edge stage lists the
    midpoints on rows, then the same targets with each index pair swapped
    for the midpoints on columns.
    """
    r = lev.cell
    h = r >> 1
    mid = slice(h, None, r)                          # cell centres along an axis
    lo, hi = slice(0, n - 1, r), slice(r, None, r)   # the two ends of each cell side
    a0, ap = lev.square
    t0, te, tc = lev.triangle
    d0, dp = lev.diamond
    centre = [((mid, mid), a0, ((ap, ((lo, lo), (lo, hi), (hi, lo), (hi, hi))),))]
    if r == n - 1:
        # First pass: both boundary rows read the one centre row h.
        rows = [
            ((0, mid), t0, ((te, ((0, lo), (0, hi))), (tc, ((h, mid),)))),
            ((n - 1, mid), t0, ((te, ((n - 1, lo), (n - 1, hi))), (tc, ((n - 1 - h, mid),)))),
        ]
    else:
        # Rows 0 and n - 1 as one strided target; their centre rows are h
        # and n - 1 - h.
        edge, near = slice(0, None, n - 1), slice(h, n - h, n - 1 - r)
        inner = slice(r, n - 1, r)
        above, below = slice(h, n - 1 - h, r), slice(h + r, None, r)
        rows = [
            ((edge, mid), t0, ((te, ((edge, lo), (edge, hi))), (tc, ((near, mid),)))),
            ((inner, mid), d0, ((dp, ((inner, lo), (inner, hi), (above, mid), (below, mid))),)),
        ]

    def stage(targets, swap=False):
        def at(pair):
            return (Ellipsis,) + (pair[::-1] if swap else pair)

        return tuple(
            (at(index), alpha0, tuple((w, tuple(map(at, parents))) for w, parents in groups))
            for index, alpha0, groups in targets
        )

    return stage(centre), stage(rows) + stage(rows, swap=True)


# Single grids up to this depth run each map's passes as a program bound
# once per operator to a private workspace.  Binding saves the per-call
# view and temporary building that sets the wall clock of small grids; at
# p=8 it saves no time and its workspace and scratch cost ~2 MB.
_BIND_MAX_P = 7


def _fresh_scratch(t):
    # *_like keeps the caller's array type, so a subclass sees every step.
    return np.empty_like(t), np.empty_like(t)


def _run(steps):
    for ufunc, a, b, out in steps:
        ufunc(a, b, out)


class FractalOperator:
    """In-place multiscale maps between generator and screen grids.

    Grids are float64 arrays whose last two axes are (2**p + 1) square;
    leading axes are treated as a batch.  Each of the four maps costs
    exactly 6 * n**2 - 14 flops per grid and mutates its argument.  All
    four walk ``stages``, the refinement table in forward order, and
    scale by the alpha0 grid (1 at the four corners, uncharged) once.

    A single grid at p <= 7 runs programs bound to a private workspace:
    one operator must not be called from two threads at once.
    """

    def __init__(self, sf, p: int):
        self.p = int(p)
        if self.p < 1:
            raise ValueError(f"need at least one refinement pass, got p={self.p}")
        self.n = (1 << self.p) + 1
        self.levels = build_coefficients(sf, self.p)
        self.outer = build_outer_operator(sf, float(self.n - 1))
        self.stages = tuple(s for lev in self.levels for s in _pass_stages(lev, self.n))
        K, K_inv = self.outer.forward_matrix, self.outer.inverse_matrix
        self._k, self._k_inv, self._k_t, self._k_inv_t = K, K_inv, K.T, K_inv.T
        self._alpha0 = np.ones((self.n, self.n))
        for stage in self.stages:
            for index, alpha0, _ in stage:
                self._alpha0[index] = alpha0
        self._programs = {}
        if self.p <= _BIND_MAX_P:
            self._work = np.empty((self.n, self.n))
            buffers = {}  # two per target shape, shared by the four programs

            def scratch(t):
                if t.shape not in buffers:
                    buffers[t.shape] = (np.empty(t.shape), np.empty(t.shape))
                return buffers[t.shape]

            self._programs = {
                (transpose, inverse): tuple(self._steps(self._work, transpose, inverse, scratch))
                for transpose in (False, True) for inverse in (False, True)
            }

    # -- plumbing ---------------------------------------------------------

    def _grid(self, grid) -> np.ndarray:
        if not isinstance(grid, np.ndarray) or grid.dtype != np.float64:
            raise ValueError("expected a float64 ndarray (operators run in place)")
        if grid.shape[-2:] != (self.n, self.n):
            raise ValueError(
                f"grid side must be {self.n} (= 2**{self.p} + 1), got {grid.shape[-2:]}"
            )
        if grid.ndim > 2 and grid.size == self.n * self.n:
            # A stack of one runs on its 2-D view, as a single grid: every
            # slice update costs per axis, and (1, n, n) is ~20% slower
            # than (n, n) at p=6 without the bound program.
            return grid[(0,) * (grid.ndim - 2)]
        return grid

    def _charge(self, grid, counter):
        if counter is not None:
            batch = grid.size // (self.n * self.n)
            counter.add("fractal", batch * (6 * self.n * self.n - 14))

    # -- the steps --------------------------------------------------------

    def _corners(self, W, M):
        # Elementwise rather than a matmul: BLAS sums a batch in another
        # order than a single grid, which breaks batch/loop bit equality.
        # One gather, one broadcast multiply, three adds left to right and
        # one scatter.  The zero entries of M are multiplied and added
        # too; that changes only non-finite corners (0 * inf is NaN) and
        # the sign of an exactly zero corner.
        C = W[..., :: self.n - 1, :: self.n - 1]
        T = C[_CORNERS][..., None, :] * M
        C[_CORNERS] = T[..., 0] + T[..., 1] + T[..., 2] + T[..., 3]

    def _steps(self, W, transpose, inverse, scratch):
        """The refinement passes of one map as ``(ufunc, a, b, out)`` steps on W.

        K gathers target += sum(weight * parents) in table order and K^-1
        undoes it (target -= ...) in reverse.  K^T scatters each target,
        weighted, into its parents in reverse order, and K^-T scatters
        with negated weights in order.  ``scratch(t)`` gives two buffers
        shaped like the target t.  The alpha0 scale is no step: no target
        is read again after it, so each map scales the whole grid once.
        Weights are 0-d arrays, which a ufunc takes faster than a float.
        """
        for stage in self.stages if transpose == inverse else reversed(self.stages):
            for index, _, groups in stage:
                t = W[index]
                s, u = scratch(t)
                if transpose:
                    for w, qs in groups:
                        yield np.multiply, np.array(-w if inverse else w), t, s
                        for q in qs:
                            parent = W[q]
                            yield np.add, parent, s, parent
                    continue
                for k, (w, qs) in enumerate(groups):
                    term = u if k else s
                    if len(qs) == 1:
                        yield np.multiply, np.array(w), W[qs[0]], term
                    else:
                        yield np.add, W[qs[0]], W[qs[1]], term
                        for q in qs[2:]:
                            yield np.add, term, W[q], term
                        yield np.multiply, np.array(w), term, term
                    if k:
                        yield np.add, s, u, s
                yield np.subtract if inverse else np.add, t, s, t

    def _passes(self, W, transpose, inverse):
        program = self._programs.get((transpose, inverse)) if W.ndim == 2 else None
        if program is None:
            _run(self._steps(W, transpose, inverse, _fresh_scratch))
        else:
            self._work[...] = W
            _run(program)
            W[...] = self._work

    # -- the four maps ----------------------------------------------------

    def apply(self, grid, counter=None):
        """Overwrite generators with the correlated screen (w = K u)."""
        W = self._grid(grid)
        self._corners(W, self._k)
        W *= self._alpha0
        self._passes(W, transpose=False, inverse=False)
        self._charge(W, counter)
        return grid

    def apply_inverse(self, grid, counter=None):
        """Overwrite a screen with its generators (u = K^-1 w)."""
        W = self._grid(grid)
        self._passes(W, transpose=False, inverse=True)
        W /= self._alpha0
        self._corners(W, self._k_inv)
        self._charge(W, counter)
        return grid

    def apply_transpose(self, grid, counter=None):
        """Apply the transpose of the forward map (z = K^T z), in place."""
        W = self._grid(grid)
        self._passes(W, transpose=True, inverse=False)
        W *= self._alpha0
        self._corners(W, self._k_t)
        self._charge(W, counter)
        return grid

    def apply_inverse_transpose(self, grid, counter=None):
        """Apply the inverse transpose (z = K^-T z), in place."""
        W = self._grid(grid)
        self._corners(W, self._k_inv_t)
        W /= self._alpha0
        self._passes(W, transpose=True, inverse=True)
        self._charge(W, counter)
        return grid
