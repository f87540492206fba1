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

from .fractal import FractalOperator
from .metrics import FlopCounter, empirical_structure_function, radial_profile
from .sensor import simulate_measurements
from .solver import CHUNK_BYTES, VARIANTS, Reconstructor, SolverConfig, is_integer
from .turbulence import kolmogorov


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial, keyed by (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def draw_screen(fractal: FractalOperator, rng, counter: FlopCounter | None = None):
    """One correlated screen from white generators."""
    u = rng.standard_normal((fractal.n, fractal.n))
    fractal.apply(u, counter)
    return u


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one Monte-Carlo reconstruction experiment."""

    p: int
    r0: float = 1.0
    noise_std: float = 1.0
    methods: tuple[str, ...] = ("u-pcg-opt",)
    max_iter: int = 30
    tol: float = 1e-3
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
        unknown = [m for m in self.methods if m not in VARIANTS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}, pick from {sorted(VARIANTS)}")
        SolverConfig(self.methods[0], self.max_iter, self.tol)  # validates the rest


@dataclasses.dataclass
class SimulationResult:
    """Per-trial convergence histories, one (trials, max_iter + 1) block per method."""

    spec: ExperimentSpec
    iteration_flops: dict[str, np.ndarray]
    resid_var: dict[str, np.ndarray]
    resid_var_norm: dict[str, np.ndarray]
    input_digests: dict[str, list[str]]

    def median_variance(self, method: str) -> np.ndarray:
        return np.median(self.resid_var[method], axis=0)

    def median_normalized(self, method: str) -> np.ndarray:
        return np.median(self.resid_var_norm[method], axis=0)


def _padded(values, length):
    out = list(values)
    out.extend([out[-1]] * (length - len(out)))
    return out


def run_simulation(spec: ExperimentSpec, cache_dir=None, progress=None) -> SimulationResult:
    """Monte-Carlo reconstruction study over independent trials.

    Every variant of a trial consumes the identical slope set; the
    returned digests certify that.  Each variant solves a chunk of trials
    in one stacked PCG call (``CHUNK_BYTES`` per grid stack) whose traces
    equal those of one solve per trial.  Traces that stop early are padded
    with their final row so medians stay elementwise comparable.
    ``progress(done, total)`` is called once per trial, in trial order.
    """
    recon = Reconstructor(spec.p, spec.r0, cache_dir=cache_dir)
    rows = spec.max_iter + 1
    flops = {m: np.zeros((spec.trials, rows)) for m in spec.methods}
    var = {m: np.zeros((spec.trials, rows)) for m in spec.methods}
    var_norm = {m: np.zeros((spec.trials, rows)) for m in spec.methods}
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
        for method in spec.methods:
            config = SolverConfig(method, spec.max_iter, spec.tol)
            _, traces = recon.reconstruct(slope_sets, config, truth=np.stack(truths))
            for t, trace in zip(trials, traces):
                flops[method][t] = _padded(trace.flops, rows)
                var[method][t] = _padded(trace.resid_var, rows)
                var_norm[method][t] = _padded(trace.resid_var_norm, rows)
        if progress is not None:
            for t in trials:
                progress(t + 1, spec.trials)

    return SimulationResult(
        spec=spec, iteration_flops=flops, resid_var=var,
        resid_var_norm=var_norm, input_digests=digests,
    )


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


@dataclasses.dataclass(frozen=True)
class BenchRow:
    p: int
    n: int
    samples: int
    op: str
    flops: int


def run_bench(ps, r0: float = 1.0, noise_std: float = 1.0, iterations: int = 10,
              seed: int = 0, method: str = "u-pcg-opt", cache_dir=None) -> list[BenchRow]:
    """Operation counts per operator and for a full reconstruction."""
    rows = []
    for p in ps:
        recon = Reconstructor(p, r0, cache_dir=cache_dir)
        n = recon.n
        samples = n * n
        rng = trial_generator(seed, p)
        w = draw_screen(recon.fractal, rng)
        ops = [
            ("fractal-forward", recon.fractal.apply),
            ("fractal-transpose", recon.fractal.apply_transpose),
            ("fractal-inverse", recon.fractal.apply_inverse),
            ("fractal-inverse-transpose", recon.fractal.apply_inverse_transpose),
        ]
        for name, fn in ops:
            counter = FlopCounter()
            fn(w.copy(), counter)
            rows.append(BenchRow(p, n, samples, name, counter.total))
        counter = FlopCounter()
        dx, dy = recon.sensor.forward(w, counter)
        rows.append(BenchRow(p, n, samples, "sensor-forward", counter.total))
        counter = FlopCounter()
        recon.sensor.adjoint(dx, dy, counter)
        rows.append(BenchRow(p, n, samples, "sensor-adjoint", counter.total))

        slopes = simulate_measurements(w, recon.pupil, noise_std, rng)
        config = SolverConfig(method, max_iter=iterations, tol=1e-30)
        counter = FlopCounter()
        recon.reconstruct(slopes, config, counter=counter)
        rows.append(
            BenchRow(p, n, samples, f"reconstruction-{iterations}iter", counter.total)
        )
    return rows
