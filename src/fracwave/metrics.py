"""Reconstruction quality metrics, screen statistics, operation counting.

The flop convention counts every floating add, subtract, multiply and
divide as one operation (a multiply-add is two), after factoring shared
subexpressions the way the operators actually evaluate them.  Square
roots and other scalar bookkeeping are not counted.
"""

from __future__ import annotations

import numpy as np


class FlopCounter:
    """Tallies floating-point operations by operator family."""

    def __init__(self):
        self._tallies: dict[str, int] = {}

    def add(self, family: str, count):
        self._tallies[family] = self._tallies.get(family, 0) + int(count)

    @property
    def total(self) -> int:
        return sum(self._tallies.values())

    def tallies(self) -> dict[str, int]:
        return dict(self._tallies)


def fractal_apply_flops(n_samples: int) -> int:
    """Exact cost of one multiscale map application."""
    return 6 * n_samples - 14


def residual_stats(w_hat, w_true, pupil):
    """Piston-removed RMS and variance of w_hat - w_true over the pupil.

    Leading axes of the (..., n, n) arguments index separate residuals
    and broadcast against each other; both statistics come back with
    those axes.  Only the pupil samples are gathered and subtracted.
    """
    n = pupil.n

    def samples(w):
        w = np.asarray(w, dtype=float)
        return w.reshape(w.shape[:-2] + (n * n,)).take(pupil.sample_index, axis=-1)

    # Contiguous rows, so each residual sums in the order of a lone one.
    e, t = samples(w_hat), samples(w_true)
    e = np.subtract(e, t, out=e if e.shape == t.shape else None)
    count = e.shape[-1]
    e -= np.add.reduce(e, axis=-1, keepdims=True) / count
    var = np.add.reduce(e * e, axis=-1) / count
    return np.sqrt(var), var


def normalized_variance(variance):
    """Each row (last axis) over its first, iteration-0 entry; NaN throughout
    a row whose first entry is not positive."""
    variance = np.asarray(variance, dtype=float)
    base = variance[..., :1]
    return np.divide(variance, base, out=np.full(variance.shape, np.nan), where=base > 0)


def strehl_ratio(variance):
    """Marechal estimate exp(-variance) for residual phase variances."""
    variance = np.asarray(variance, dtype=float)
    if not ((variance >= 0.0) & (variance < np.inf)).all():
        raise ValueError(f"variance must be finite and nonnegative, got {variance}")
    return np.exp(-variance)


def empirical_structure_function(screens) -> np.ndarray:
    """Mean squared sample difference for every 2-D offset, pooled over screens.

    Returns a (2n-1) x (2n-1) map with the zero offset at the centre.
    Each entry averages (w(r + offset) - w(r))^2 over all in-grid sample
    pairs of all screens, evaluated with padded FFT correlations.
    """
    count = 0
    for w in screens:
        w = np.asarray(w, dtype=float)
        if not count:
            n = w.shape[0]
            if w.shape != (n, n):
                raise ValueError(f"screens must be square, got {w.shape}")
            size = 2 * n
            power = np.zeros((size, size // 2 + 1))
            squares = np.zeros((size, size // 2 + 1), dtype=complex)
        elif w.shape != (n, n):
            raise ValueError(f"screen shape {w.shape} does not match {(n, n)}")
        pad = np.zeros((size, size))
        pad[:n, :n] = w
        spec = np.fft.rfft2(pad)
        power += spec.real * spec.real + spec.imag * spec.imag
        pad[:n, :n] = w * w
        squares += np.fft.rfft2(pad)
        count += 1
    if not count:
        raise ValueError("need at least one screen")

    ones = np.zeros((size, size))
    ones[:n, :n] = 1.0
    ones_spec = np.fft.rfft2(ones)
    cross = np.fft.irfft2(power, s=(size, size))
    sq_pairs = np.fft.irfft2(squares * ones_spec.conj(), s=(size, size))
    cross = _centered(cross, n)
    sq_pairs = _centered(sq_pairs, n)
    offsets = np.arange(-(n - 1), n)
    counts = np.outer(n - np.abs(offsets), n - np.abs(offsets)).astype(float)
    d = (sq_pairs + sq_pairs[::-1, ::-1] - 2.0 * cross) / (counts * count)
    # Roundoff can leave tiny negatives where the true value is ~0.
    np.maximum(d, 0.0, out=d)
    return d


def _centered(circular, n):
    return np.roll(circular, (n - 1, n - 1), axis=(0, 1))[: 2 * n - 1, : 2 * n - 1]


def radial_profile(sf_map, theory):
    """Annulus averages of a structure-function map at integer radii.

    Returns (radii, measured, expected); the expected column averages the
    ``theory`` callable over exactly the offsets pooled into each annulus,
    so the comparison carries no binning bias.
    """
    sf_map = np.asarray(sf_map, dtype=float)
    n = (sf_map.shape[0] + 1) // 2
    offsets = np.arange(-(n - 1), n)
    rho = np.hypot(offsets[:, None], offsets[None, :])
    radii = np.arange(1, n)
    measured = np.empty(radii.size)
    expected = np.empty(radii.size)
    for i, k in enumerate(radii):
        sel = (rho >= k - 0.5) & (rho < k + 0.5)
        measured[i] = sf_map[sel].mean()
        expected[i] = float(np.mean(theory(rho[sel])))
    return radii, measured, expected
