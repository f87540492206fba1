"""End-to-end experiment drivers used by the CLI.

Trials are seeded independently: trial t of a run with master seed s
draws from a generator keyed by (s, t), so results do not depend on
execution order and any subset of trials can be reproduced.  Within a
trial the same screen and the same noisy slopes are fed to every
requested solver variant.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from .fractal import FractalOperator, is_integer
from .metrics import empirical_structure_function, normalized_variance, radial_profile
from .sensor import simulate_measurements
from .solver import Reconstructor, SolverConfig
from .turbulence import kolmogorov

# Bytes of one (batch, n, n) float64 grid stack, for trial chunks in
# run_simulation; one operator application holds several such stacks, a
# stacked PCG solve about a dozen.  That is 496 grids at p=6 and 31 at
# p=8.
CHUNK_BYTES = 16 << 20


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, keyed by (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def draw_screen(fractal: FractalOperator, rng):
    """One correlated screen from white generators."""
    u = rng.standard_normal((fractal.n, fractal.n))
    fractal.apply(u)
    return u


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one Monte-Carlo reconstruction experiment."""

    p: int
    r0: float = 1.0
    noise_std: float = 1.0
    methods: tuple[str, ...] = (SolverConfig.method,)
    max_iter: int = SolverConfig.max_iter
    tol: float = SolverConfig.tol
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if not is_integer(self.p):
            raise ValueError(f"p must be an integer, got {self.p!r}")
        if self.p < 3:
            raise ValueError(f"p must be at least 3, got {self.p}: the pupil of a grid "
                             f"of side {2 ** self.p + 1:g} holds no subaperture")
        if self.r0 <= 0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std}")
        if not is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer of at least 1, got {self.trials!r}")
        if not self.methods:
            raise ValueError("need at least one method")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {list(self.methods)}")
        self.configs()  # SolverConfig checks each method, max_iter and tol

    def configs(self) -> tuple[SolverConfig, ...]:
        """One solver configuration per method, in order."""
        return tuple(SolverConfig(m, self.max_iter, self.tol) for m in self.methods)


@dataclasses.dataclass
class SimulationResult:
    """Per-trial convergence histories, one (trials, max_iter + 1) block per method;
    ``resid_var_norm`` is derived from ``resid_var`` on read, as in the trace."""

    spec: ExperimentSpec
    iteration_flops: dict[str, np.ndarray]
    resid_var: dict[str, np.ndarray]
    input_digests: dict[str, list[str]]

    @property
    def resid_var_norm(self) -> dict[str, np.ndarray]:
        return {method: normalized_variance(var) for method, var in self.resid_var.items()}

    def median_variance(self, method: str) -> np.ndarray:
        return np.median(self.resid_var[method], axis=0)

    def median_normalized(self, method: str) -> np.ndarray:
        return np.median(normalized_variance(self.resid_var[method]), axis=0)


def _padded(values, length):
    out = list(values)
    out.extend([out[-1]] * (length - len(out)))
    return out


def run_simulation(spec: ExperimentSpec, cache_dir=None) -> SimulationResult:
    """Monte-Carlo reconstruction study over independent trials.

    Every variant of a trial consumes the identical slope set; the
    returned digests certify that.  Each variant solves a chunk of trials
    in one stacked PCG call (``CHUNK_BYTES`` per grid stack) whose traces
    equal those of one solve per trial.  Traces that stop early are padded
    with their final row so medians stay elementwise comparable.
    """
    recon = Reconstructor(spec.p, spec.r0, cache_dir=cache_dir)
    rows = spec.max_iter + 1
    flops = {m: np.zeros((spec.trials, rows)) for m in spec.methods}
    var = {m: np.zeros((spec.trials, rows)) for m in spec.methods}
    digests: dict[str, list[str]] = {m: [] for m in spec.methods}

    chunk = max(1, CHUNK_BYTES // (8 * recon.n * recon.n))
    for first in range(0, spec.trials, chunk):
        trials = range(first, min(first + chunk, spec.trials))
        truths, slope_sets = [], []
        for t in trials:
            rng = trial_generator(spec.seed, t)
            w_true = draw_screen(recon.fractal, rng)
            slopes = simulate_measurements(w_true, recon.pupil, spec.noise_std, rng)
            truths.append(w_true)
            slope_sets.append(slopes)
            digest = hashlib.sha256(
                slopes.sx.tobytes() + slopes.sy.tobytes() + slopes.var.tobytes()
            ).hexdigest()
            for method in spec.methods:
                digests[method].append(digest)
        for config in spec.configs():
            method = config.method
            _, traces = recon.reconstruct(slope_sets, config, truth=np.stack(truths))
            for t, trace in zip(trials, traces):
                flops[method][t] = _padded(trace.flops, rows)
                var[method][t] = _padded(trace.resid_var, rows)

    return SimulationResult(spec, flops, var, digests)


@dataclasses.dataclass
class SfValidation:
    radii: np.ndarray
    measured: np.ndarray
    expected: np.ndarray
    map2d: np.ndarray


def run_sf_validation(p: int, r0: float, trials: int, seed: int) -> SfValidation:
    """Empirical structure function of generated screens vs. the target law."""
    sf = kolmogorov(r0, float(1 << p))
    fractal = FractalOperator(sf, p)
    screens = (draw_screen(fractal, trial_generator(seed, t)) for t in range(trials))
    map2d = empirical_structure_function(screens)
    radii, measured, expected = radial_profile(map2d, theory=sf.evaluate)
    return SfValidation(radii=radii, measured=measured, expected=expected, map2d=map2d)
