"""Fried-geometry Shack-Hartmann forward model on an annular pupil.

A subaperture sits on each unit cell of the sample grid; its two slopes
are corner finite differences of the wavefront,

    dx = (w(x+1,y+1) + w(x+1,y) - w(x,y+1) - w(x,y)) / 2
    dy = (w(x+1,y+1) - w(x+1,y) + w(x,y+1) - w(x,y)) / 2

in radians per grid step.  Only subapertures whose four corner samples
all fall inside the annular pupil contribute measurements.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class Pupil:
    """Annular aperture on an n x n sample grid.

    ``sample_mask`` marks the union of corners of valid subapertures;
    ``subap_x``/``subap_y`` hold the lower-left corner of each valid
    subaperture in row-major order.
    """

    n: int
    obscuration: float
    sample_mask: np.ndarray
    subap_x: np.ndarray
    subap_y: np.ndarray

    @functools.cached_property
    def sample_index(self) -> np.ndarray:
        """Flat indices of the ``sample_mask`` samples, row-major."""
        return np.flatnonzero(self.sample_mask)

    @property
    def nsub(self) -> int:
        return int(self.subap_x.size)


def make_pupil(n: int) -> Pupil:
    """Pupil of outer diameter n - 1 samples with a central obscuration.

    The outer radius is (n - 1) / 2 around the grid centre and the
    obscuration diameter is fixed at 1/3 of the outer diameter, the layout
    that ``pupil_side`` inverts.  Boundary samples count as inside.
    """
    if n < 3:
        raise ValueError(f"grid side must be at least 3, got {n}")
    obscuration = 1.0 / 3.0
    # 4 * squared distance from the centre, exact in integers.
    c2 = (2 * np.arange(n) - (n - 1)) ** 2
    s = c2[:, None] + c2
    inside = (s <= (n - 1) ** 2) & (s >= (obscuration * (n - 1)) ** 2)
    valid = inside[:-1, :-1] & inside[:-1, 1:] & inside[1:, :-1] & inside[1:, 1:]
    sy, sx = np.nonzero(valid)
    # Every corner of a valid subaperture: four shifted copies of valid.
    mask = np.zeros((n, n), dtype=bool)
    mask[:-1, :-1] |= valid
    mask[:-1, 1:] |= valid
    mask[1:, :-1] |= valid
    mask[1:, 1:] |= valid
    return Pupil(n=n, obscuration=obscuration, sample_mask=mask, subap_x=sx, subap_y=sy)


def pupil_side(subap_x, subap_y) -> int:
    """Grid side n of the ``make_pupil`` layout that these subaperture
    indices would come from.  For every p = 3..10, ``make_pupil(2**p + 1)``
    places its subapertures at indices 1..n - 3 on both axes, so n is the
    largest index plus 3.  Any other layout still fails the exact
    comparison of ``Reconstructor.check_slopes``."""
    return int(max(np.max(subap_x), np.max(subap_y))) + 3


@dataclasses.dataclass
class SlopeSet:
    """Measured slopes and their noise variances, one row per subaperture.

    ``var`` applies to both slope components of its subaperture and must
    stay positive so that inverse-variance weighting is finite.
    """

    subap_x: np.ndarray
    subap_y: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    var: np.ndarray

    @property
    def nsub(self) -> int:
        return int(self.sx.size)

    def validate(self):
        sizes = {a.size for a in (self.subap_x, self.subap_y, self.sx, self.sy, self.var)}
        if len(sizes) != 1:
            raise ValueError(f"inconsistent slope array lengths {sizes}")
        for name, a in (("sx", self.sx), ("sy", self.sy), ("var", self.var)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite values in {name}")
        if np.any(self.var <= 0):
            raise ValueError("noise variances must be positive")
        return self


def _spread(total, diff) -> np.ndarray:
    """D^T, the corner scatter that S^T ends with, from (..., m, m) cell
    grids to (..., m + 1, m + 1) sample grids: ``total`` adds to each
    cell's ne corner and subtracts from its origin, ``diff`` adds to its e
    corner and subtracts from its n corner.

    One slice update per corner, in the order ne, e, n, origin; the first
    sets every sample but row 0 and column 0 instead of adding to zeros,
    which can change only the sign of an exactly zero sample.  The output
    keeps the array type of ``total``.
    """
    side = total.shape[-1] + 1
    out = np.empty_like(total, shape=total.shape[:-2] + (side, side))
    out[..., 1:, 1:] = total
    out[..., 0, :] = 0.0
    out[..., 1:, 0] = 0.0
    out[..., :-1, 1:] += diff
    out[..., 1:, :-1] -= diff
    out[..., :-1, :-1] -= total
    return out


class ShackHartmann:
    """Slope extraction over a pupil, its adjoint and S^T W S, batch friendly.

    S = 1/2 R P D, every factor on the (n - 1)-side cell grid.  Per cell,
    with corners w00, we, wn, wne:

    - D (``_differences``) forms total = wne - w00 and diff = we - wn;
    - P (one ``take`` at ``_cell``) keeps the cells of valid subapertures;
    - R turns (total, diff) into (total + diff, total - diff), so that
      dx = (total + diff) / 2 and dy = (total - diff) / 2.

    S^T = D^T P^T R^T / 2 with P^T = ``_place``, a write onto a zero cell
    grid, and D^T = ``_spread``.  ``gram`` applies S^T W S as D^T M D, M
    being the weights of ``cell_weights``: half of each inverse variance
    on its cell, as R^T R = 2 I.  Cells outside the pupil carry weight 0
    and do arithmetic that the flop charge does not count: 65,536 cells
    against 45,028 subapertures at p=8.

    The flop charge per application of S or S^T is 2 * edges + 2 * nsub:
    vertical cell-edge sums and differences are shared between the two
    slope components and between adjacent subapertures.  ``gram`` is
    charged as ``forward``, the weighting of both slopes and ``adjoint``
    in turn.
    """

    def __init__(self, pupil: Pupil):
        self.pupil = pupil
        self._cell = pupil.subap_y * (pupil.n - 1) + pupil.subap_x
        # Each subaperture has a left and a right vertical edge; a
        # horizontally adjacent pair shares one.
        valid = self._place(np.ones(pupil.nsub)) > 0
        self.n_edges = 2 * pupil.nsub - int(np.count_nonzero(valid[:, :-1] & valid[:, 1:]))
        self._flops = 2 * self.n_edges + 2 * pupil.nsub

    def _differences(self, w):
        """D: (total, diff) on the (..., n - 1, n - 1) cell grid of (..., n, n) wavefronts."""
        n = self.pupil.n
        if w.shape[-2:] != (n, n):
            raise ValueError(f"wavefront side must be {n}, got {w.shape[-2:]}")
        return w[..., 1:, 1:] - w[..., :-1, :-1], w[..., :-1, 1:] - w[..., 1:, :-1]

    def _place(self, values) -> np.ndarray:
        """P^T: per-subaperture values (..., nsub) onto a zero (..., n - 1, n - 1) cell grid."""
        m = self.pupil.n - 1
        lead = values.shape[:-1]
        cells = np.zeros(lead + (m * m,))
        cells[..., self._cell] = values
        return cells.reshape(lead + (m, m))

    def _charge(self, counter, lead, weighted=False):
        """Charge one S or S^T per grid of a ``lead`` stack, or with ``weighted``
        one S^T W S: S, the weighting of both slopes and S^T."""
        if counter is None:
            return
        grids = math.prod(lead)
        if weighted:
            counter.add("sensor", 2 * grids * self._flops)
            counter.add("noise", 2 * grids * self.pupil.nsub)
        else:
            counter.add("sensor", grids * self._flops)

    def forward(self, w, counter=None):
        """Slopes (dx, dy) of shape (..., nsub) for wavefront (..., n, n)."""
        total, diff = self._differences(np.asarray(w, dtype=float))
        lead, m = total.shape[:-2], self.pupil.n - 1
        total, diff = (c.reshape(lead + (m * m,)).take(self._cell, axis=-1) for c in (total, diff))
        self._charge(counter, lead)
        return 0.5 * (total + diff), 0.5 * (total - diff)

    def adjoint(self, dx, dy, counter=None) -> np.ndarray:
        """Scatter slopes back onto a wavefront grid (the transpose map)."""
        hx = 0.5 * np.asarray(dx, dtype=float)
        hy = 0.5 * np.asarray(dy, dtype=float)
        self._charge(counter, hx.shape[:-1])
        return _spread(self._place(hx + hy), self._place(hx - hy))

    def cell_weights(self, inv_var) -> np.ndarray:
        """Weights of ``gram``: half of each subaperture's inverse variance on
        its cell of the (n - 1)-side cell grid, 0 on every other cell."""
        return self._place(0.5 * np.asarray(inv_var, dtype=float))

    def gram(self, w, cells, counter=None) -> np.ndarray:
        """S^T W S w for wavefronts (..., n, n), W given as ``cell_weights``."""
        total, diff = self._differences(w)
        total *= cells
        diff *= cells
        self._charge(counter, w.shape[:-2], weighted=True)
        return _spread(total, diff)


def simulate_measurements(w_true, pupil: Pupil, noise_std: float, rng) -> SlopeSet:
    """Noisy slopes d = forward(w_true) + noise, noise i.i.d. N(0, noise_std^2).

    With noise_std = 0 the data are exact and the variance column falls
    back to 1.0 so that inverse-variance weighting stays finite.
    """
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    rng = np.random.default_rng(rng)
    shs = ShackHartmann(pupil)
    dx, dy = shs.forward(np.asarray(w_true, dtype=float))
    nsub = pupil.nsub
    if noise_std > 0:
        dx = dx + rng.normal(0.0, noise_std, nsub)
        dy = dy + rng.normal(0.0, noise_std, nsub)
        var = np.full(nsub, noise_std * noise_std)
    else:
        var = np.ones(nsub)
    return SlopeSet(
        subap_x=pupil.subap_x.copy(),
        subap_y=pupil.subap_y.copy(),
        sx=np.asarray(dx, dtype=float),
        sy=np.asarray(dy, dtype=float),
        var=var,
    ).validate()
