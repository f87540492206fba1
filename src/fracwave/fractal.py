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
import threading

import numpy as np

from .metrics import fractal_apply_flops

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

    The passes run on one workspace, of the last grid shape seen, and two
    scratch buffers.  A call with a new shape reshapes the workspace
    (the buffers grow to the largest stack seen and never shrink) and
    drops the bound programs; each map binds its steps on first use, and
    every call copies the grid in and the result out.  Binding saves the
    per-call view and temporary building that sets the wall clock of
    small grids.  One operator serves one thread at a time; a map called
    while another runs raises RuntimeError.
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
        self._corner_matrix = {(False, False): K, (False, True): K_inv,
                               (True, False): K.T, (True, True): K_inv.T}
        self._alpha0 = np.ones((self.n, self.n))
        for stage in self.stages:
            for index, alpha0, _ in stage:
                self._alpha0[index] = alpha0
        self._work = None     # workspace of the last grid shape, a view of a flat buffer
        self._scratch = None  # two flat buffers, each one finest centre stage
        self._programs = {}   # (transpose, inverse) -> steps bound to _work
        self._lock = threading.Lock()

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
            # slice update costs per axis, and a bound (1, n, n) program
            # runs 2-5% slower than the (n, n) one at p = 5..8.
            return grid[(0,) * (grid.ndim - 2)]
        return grid

    def _charge(self, grid, counter):
        if counter is not None:
            batch = grid.size // (self.n * self.n)
            counter.add("fractal", batch * fractal_apply_flops(self.n * self.n))

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

    def _steps(self, transpose, inverse):
        """The refinement passes of one map as ``(ufunc, a, b, out)`` steps.

        K gathers target += sum(weight * parents) in table order and K^-1
        undoes it (target -= ...) in reverse.  K^T scatters each target,
        weighted, into its parents in reverse order, and K^-T scatters
        with negated weights in order.  Every step acts on the workspace;
        each target's two scratch terms are views of a prefix of the two
        scratch buffers.  The alpha0 scale is no step: no target is read
        again after it, so each map scales the whole grid once.  Weights
        are 0-d arrays, which a ufunc takes faster than a float.
        """
        W = self._work
        for stage in self.stages if transpose == inverse else reversed(self.stages):
            for index, _, groups in stage:
                t = W[index]
                s, u = (b[: t.size].reshape(t.shape) for b in self._scratch)
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
        if self._work is None or self._work.shape != W.shape:
            # The flat buffers only grow: fresh memory for each new stack
            # size costs a page fault per 4 KiB, more than binding does.
            if self._work is None or self._work.base.size < W.size:
                # The finest pass's centre stage is the largest target.
                size = W.size // (self.n * self.n) * ((self.n - 1) // 2) ** 2
                self._scratch = np.empty(size), np.empty(size)
                flat = np.empty(W.size)
            else:
                flat = self._work.base
            self._work = flat[: W.size].reshape(W.shape)
            self._programs = {}
        program = self._programs.get((transpose, inverse))
        if program is None:
            program = self._programs[transpose, inverse] = tuple(self._steps(transpose, inverse))
        self._work[...] = W
        _run(program)
        W[...] = self._work

    def _map(self, grid, counter, transpose, inverse):
        # K and K^-T run the corner step first, K^-1 and K^T last; the
        # alpha0 scale always sits between it and the passes.
        W = self._grid(grid)
        scale = np.divide if inverse else np.multiply
        M = self._corner_matrix[transpose, inverse]
        if not self._lock.acquire(blocking=False):
            raise RuntimeError("FractalOperator is already running a map in another thread")
        try:
            if transpose == inverse:
                self._corners(W, M)
                scale(W, self._alpha0, out=W)
                self._passes(W, transpose, inverse)
            else:
                self._passes(W, transpose, inverse)
                scale(W, self._alpha0, out=W)
                self._corners(W, M)
        finally:
            self._lock.release()
        self._charge(W, counter)
        return grid

    # -- the four maps ----------------------------------------------------

    def apply(self, grid, counter=None):
        """Overwrite generators with the correlated screen (w = K u)."""
        return self._map(grid, counter, transpose=False, inverse=False)

    def apply_inverse(self, grid, counter=None):
        """Overwrite a screen with its generators (u = K^-1 w)."""
        return self._map(grid, counter, transpose=False, inverse=True)

    def apply_transpose(self, grid, counter=None):
        """Apply the transpose of the forward map (z = K^T z), in place."""
        return self._map(grid, counter, transpose=True, inverse=False)

    def apply_inverse_transpose(self, grid, counter=None):
        """Apply the inverse transpose (z = K^-T z), in place."""
        return self._map(grid, counter, transpose=True, inverse=True)
