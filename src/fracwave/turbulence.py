"""Turbulence statistics: structure functions and wavefront covariances.

Lengths are measured in grid steps (one Shack-Hartmann subaperture per
step) and phases in radians.  A structure function f(r) gives the
expected squared phase difference between two points a distance r apart;
together with a stationary per-sample variance sigma^2 it fixes the
covariance  c(r) = sigma^2 - f(r) / 2  used everywhere downstream.

Turbulent phase has unbounded outer-scale variance, so sigma^2 is a
convention rather than a physical constant.  The default policy pins it
to f(sqrt(2) * extent) / 2, which makes the covariance between the two
most remote corners of the square support exactly zero.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

KOLMOGOROV_SCALE = 6.88


@dataclasses.dataclass(frozen=True)
class KolmogorovStructureFunction:
    """f(r) = 6.88 (r / r0)^(5/3) with Fried parameter r0 in grid steps."""

    r0: float
    variance: float

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if not math.isfinite(self.r0):
            raise ValueError("r0 must be finite")
        if self.variance < 0 or not math.isfinite(self.variance):
            raise ValueError(f"variance must be finite and nonnegative, got {self.variance}")

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("separation must be nonnegative")
        out = KOLMOGOROV_SCALE * (r / self.r0) ** (5.0 / 3.0)
        return float(out) if out.ndim == 0 else out

    def covariance(self, r):
        """Phase covariance  sigma^2 - f(r) / 2  at separation r."""
        return self.variance - 0.5 * self.evaluate(r)


def kolmogorov(r0: float, extent: float) -> KolmogorovStructureFunction:
    """Kolmogorov law over a square support of side ``extent`` grid steps.

    The variance is pinned so that the covariance between the two most
    remote points of the support (separation sqrt(2) * extent) vanishes.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    law = KolmogorovStructureFunction(r0=r0, variance=0.0)
    return dataclasses.replace(law, variance=0.5 * law.evaluate(math.sqrt(2.0) * extent))
