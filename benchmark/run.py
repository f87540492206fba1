#!/usr/bin/env python3
"""Benchmark for fracwave: cold start, large-grid solve, Monte-Carlo throughput.

Run from the repository root:

    python3 benchmark/run.py --workload small-grid-p6 --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the same checkout and driven
only through its public functions.  Each run sets up ``SETUP_REPEATS``
times, then repeats whole rounds of its workload's operations for
``--seconds``, checks every output, and prints a fingerprint line and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs half the rounds untraced and half under the span tracer and
reports the per-layer metrics.  Workloads, metrics and reference figures
are described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# One BLAS thread, set before numpy loads.  With two, each np.vdot in
# PCG waits on the second core, so anything running there (6 us idle
# against 82 us per dot at N = 16,641) moves the timings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = str(SRC)  # for the import-time probe only
os.environ["FRACWAVE_CACHE"] = str(WORK / "default-cache")  # never ~/.cache

sys.path.insert(0, str(SRC))
try:
    import fracwave
except ImportError as exc:
    sys.exit(f"error: cannot import fracwave from {SRC}: {exc}")
if Path(fracwave.__file__).resolve().parent != (SRC / "fracwave").resolve():
    sys.exit(f"error: fracwave resolved to {fracwave.__file__}, not to {SRC}")

import numpy as np  # noqa: E402

import fracwave.cli  # noqa: E402
import fracwave.harness  # noqa: E402
from fracwave import (ExperimentSpec, FlopCounter, Reconstructor,  # noqa: E402
                      SolverConfig, draw_screen, fileio, simulate_measurements)

sys.path.insert(0, str(BENCH))
from tracing import Tracer  # noqa: E402

R0 = 1.0
NOISE_STD = 1.0
SETUP_REPEATS = 3
RSS_ROUNDS = 3  # peak_rss_mb covers set-up and this many rounds, whatever the speed
MC_TRIALS_PER_OP = 8
TRIM = 0.1  # share of calls cut from each end before averaging a timing

# Output-check limits (README.md gives the measured values behind them).
ROUNDOFF = 1e-9             # relative max-abs gap for "equal to roundoff"
DENSE_REL_ERROR = 0.01      # piston-removed, default 30-iteration solve at p=6
TRIAL_FLOOR = 1.0 / 30.0    # p=6: median normalised residual at the last iteration
LARGE_RESIDUAL = 0.15       # p=8, 10 u-cg iterations: residual / zero-estimate residual
MC_PLATEAU = 0.05           # median over trials of |r[10] - r[30]| / r[30], u-pcg-opt
MC_GAP = 10.0               # equal-flop w-cg / u-pcg-opt residual ratio


class Checks:
    """Output checks of one run; every failure is printed when it happens."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        return bool(ok)

    def close(self, a, b, what, rtol=ROUNDOFF):
        gap = float(np.max(np.abs(a - b)))
        return self.require(gap <= rtol * float(np.max(np.abs(b))),
                            f"{what}: max gap {gap:.3e} beyond {rtol:g} relative")


def trimmed_mean(values) -> float:
    """Mean of the calls left after cutting ``TRIM`` of them from each end.

    The host's speed for Python-bound work drifts between levels 1.3-1.8x
    apart, in spells of seconds to minutes.  A median jumps to whichever
    level held for most of a run; this mean follows the share of the run
    spent at each, and the cut still drops lone stalls.
    """
    v = sorted(values)
    k = int(len(v) * TRIM)
    return statistics.fmean(v[k:len(v) - k])


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def derived_seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_reconstruct(slopes_csv, out, cache, *options):
    """In-process ``fracwave reconstruct``; returns (exit code, seconds, stderr)."""
    os.environ["FRACWAVE_CACHE"] = str(cache)
    err = io.StringIO()
    argv = ["reconstruct", str(slopes_csv), "--out", str(out), *options]
    with contextlib.redirect_stderr(err):
        seconds, code = timed(lambda: fracwave.cli.main(argv))
    return code, seconds, err.getvalue()


def import_seconds() -> float:
    """Fresh interpreter start plus the package import, as a CLI user pays it."""
    seconds, _ = timed(lambda: subprocess.run(
        [sys.executable, "-c", "import fracwave.cli, fracwave.harness"], check=True, timeout=60))
    return seconds


def piston_removed(x, mask):
    e = x[mask]
    return e - e.mean()


def sensor_flops(pupil) -> int:
    """2 * edges + 2 * nsub, edges counted from the subaperture layout."""
    codes = np.concatenate([pupil.subap_y * (pupil.n + 1) + pupil.subap_x,
                            pupil.subap_y * (pupil.n + 1) + pupil.subap_x + 1])
    return 2 * np.unique(codes).size + 2 * pupil.nsub


class Inputs:
    """One screen, its noisy slopes and the slope file, all from the seed."""

    def __init__(self, p, seed, directory: Path):
        self.rec = Reconstructor(p, R0, cache_dir=directory / "cache-inputs")
        rng = np.random.default_rng(derived_seed(seed, p))
        self.truth = draw_screen(self.rec.fractal, rng)
        self.slopes = simulate_measurements(self.truth, self.rec.pupil, NOISE_STD, rng)
        self.csv = directory / "slopes.csv"
        meta = {"cmd": "benchmark", "p": p, "r0": R0, "noise_std": NOISE_STD, "seed": seed,
                "nsub": self.slopes.nsub}
        fileio.write_slopes_csv(self.csv, self.slopes, meta)
        fileio.write_grid(directory / "truth.grid", self.truth)
        self.inv_var = 1.0 / self.slopes.var
        self.mask = self.rec.pupil.sample_mask
        self.samples = self.rec.n * self.rec.n

    def check_flops(self, checks, counter, trace, what):
        """Tallies against 6N - 14 per map and 2*edges + 2*nsub per sensor pass."""
        # u space from a zero start: K^T for the right-hand side, K and K^T
        # per iteration, K at the end; S^T once, then S and S^T per iteration.
        iterations = trace.iterations[-1]
        maps = 2 * iterations + 2
        passes = 2 * iterations + 1
        tallies = counter.tallies()
        checks.require(tallies.get("fractal", 0) == maps * (6 * self.samples - 14),
                       f"{what}: fractal flops {tallies.get('fractal')} != {maps} x (6N - 14)")
        checks.require(tallies.get("sensor", 0) == passes * sensor_flops(self.rec.pupil),
                       f"{what}: sensor flops {tallies.get('sensor')} != {passes} passes")

    def residual_share(self, estimate) -> float:
        e = piston_removed(estimate - self.truth, self.mask)
        t = piston_removed(self.truth, self.mask)
        return float(np.dot(e, e) / np.dot(t, t))


class Workload:
    """Set-up, one round of timed operations, and the end-of-run checks.

    Every operation reconstructs the same slope file with ``config``, so
    every estimate must agree with the first one to roundoff.  The
    tolerance is off (1e-30): each solve runs exactly ``max_iter``
    iterations whatever the seed, so the work per operation does not
    depend on the inputs.
    """

    name = ""
    p = 0
    config = SolverConfig()
    per_round: dict[str, int] = {}  # operation -> count, in round order
    trial_methods: tuple[str, ...] = ()
    trials_per_op = 1
    solve_with_truth = False
    residual_limit = TRIAL_FLOOR

    def __init__(self, seed: int, checks: Checks):
        self.seed = seed
        self.checks = checks
        self.dir = WORK / self.name
        self.times: dict[str, list[float]] = {k: [] for k in ("cold", "warm", "solve", "trial")}
        self.trials = []
        self.anchor = None
        self.ops_per_round = sum(self.per_round.values())
        c = self.config
        self.options = ("--method", c.method, "--max-iter", str(c.max_iter), "--tol", repr(c.tol))

    def setup(self):
        self.inputs = Inputs(self.p, self.seed, self.dir)
        self.rec = self.inputs.rec

    def round(self, i) -> int:
        """One round; returns the number of operations that failed."""
        failed = 0
        for op, count in self.per_round.items():
            for j in range(count):
                failed += bool(getattr(self, op)(i, j))
        return failed

    def agree(self, estimate, what):
        if self.anchor is None:
            self.anchor = estimate
        else:
            self.checks.close(estimate, self.anchor, f"{what} vs the first estimate")

    def reconstruct_file(self, kind, i):
        """``fracwave reconstruct`` into ``self.cache``; returns (code, seconds, stderr)."""
        out = self.dir / f"{kind}.grid"
        code, seconds, err = cli_reconstruct(self.inputs.csv, out, self.cache, *self.options)
        if code == 0:
            self.agree(fileio.read_grid(out), f"round {i} {kind}")
        return code, seconds, err

    # -- operations ---------------------------------------------------------------

    def cold(self, i, j):
        """CLI reconstruct on a fresh, empty cache directory."""
        self.cache = fresh_dir(self.dir / "cache")
        code, seconds, err = self.reconstruct_file("cold", i)
        self.checks.require(code == 0, f"round {i}: cold reconstruct exited {code}: {err}")
        self.times["cold"].append(seconds)
        if self.config.preconditioner is not None:
            # The in-memory solver reads that cache; its load is not timed.
            self.rec = Reconstructor(self.p, R0, cache_dir=self.cache)
            self.rec.preconditioner(self.inputs.inv_var, self.config.space, self.config.preconditioner)

    def warm(self, i, j):
        """CLI reconstruct that finds everything it needs in the cache."""
        code, seconds, err = self.reconstruct_file("warm", i)
        self.checks.require(code == 0, f"round {i}: warm reconstruct exited {code}: {err}")
        self.times["warm"].append(seconds)

    def solve(self, i, j):
        """In-memory reconstruct on a prepared Reconstructor."""
        inp = self.inputs
        counter = FlopCounter()
        truth = inp.truth if self.solve_with_truth else None
        seconds, (estimate, trace) = timed(
            lambda: self.rec.reconstruct(inp.slopes, self.config, truth=truth, counter=counter))
        self.times["solve"].append(seconds)
        self.checks.require(trace.iterations[-1] == self.config.max_iter,
                            f"round {i}: solve stopped after {trace.iterations[-1]} iterations")
        inp.check_flops(self.checks, counter, trace, f"round {i} solve")
        self.agree(estimate, f"round {i} in-memory solve")

    def trial(self, i, j):
        """``run_simulation`` over fresh trials, methods sharing each slope set."""
        c = self.config
        spec = ExperimentSpec(p=self.p, r0=R0, noise_std=NOISE_STD, methods=self.trial_methods,
                              max_iter=c.max_iter, tol=c.tol, trials=self.trials_per_op,
                              seed=derived_seed(self.seed, 1, i, j))
        seconds, result = timed(lambda: fracwave.harness.run_simulation(spec, cache_dir=self.cache))
        self.times["trial"].append(seconds)
        self.trials.append(result)
        digests = result.input_digests
        self.checks.require(all(digests[m] == digests[self.trial_methods[0]] for m in digests),
                            f"round {i}: methods saw different slope sets")

    # -- end-of-run checks -----------------------------------------------------------

    def final_checks(self) -> dict:
        method = self.trial_methods[0]
        last = np.concatenate([r.resid_var_norm[method][:, -1] for r in self.trials])
        floor = float(np.median(last))
        self.checks.require(np.isfinite(floor) and floor <= self.residual_limit,
                            f"{method} trials: median final normalised residual {floor:.4g}")
        return {"trial_floor": floor}


class SmallGrid(Workload):
    """p=6: CLI reconstruct on an empty cache, cache hits, solves and trials.

    Each round builds the preconditioner once (the O(N^2) diagonal probe),
    reuses it in four CLI calls, nine in-memory solves with the truth
    monitor and two 8-trial ``run_simulation`` batches of ``u-pcg-opt``
    against ``w-cg``, then corrupts the cache entry.
    """

    name = "small-grid-p6"
    p = 6
    config = SolverConfig("u-pcg-opt", 30, 1e-30)
    per_round = {"cold": 1, "warm": 4, "solve": 9, "trial": 2, "corrupt": 1}
    trial_methods = ("u-pcg-opt", "w-cg")
    trials_per_op = MC_TRIALS_PER_OP
    solve_with_truth = True

    def corrupt(self, i, j):
        """Known fault: a non-zip cache entry reaches np.load.

        The load raises "pickled (object) data" and the CLI exits 2 on
        every call until the entry is deleted by hand.  Counted as failed
        while the fault stands; its time enters no metric.
        """
        for entry in self.cache.glob("diag-*.npz"):
            entry.write_bytes(b"this is not a zip archive\n")
        code, _, err = self.reconstruct_file("corrupt", i)
        if code == 2 and "pickled" in err:
            return True
        self.checks.require(code == 0, f"round {i}: corrupt-cache reconstruct exited {code}: {err}")
        return False

    def final_checks(self):
        return dict(super().final_checks(), **self.dense_check(), **self.trial_checks())

    def dense_check(self) -> dict:
        out = self.dir / "reference.npy"
        # Own process: its ~0.5 GB of dense matrices stay out of peak_rss_mb,
        # and BLAS may use every core there.
        env = dict(os.environ, **{var: str(NPROC) for var in THREAD_VARS})
        subprocess.run([sys.executable, str(BENCH / "reference.py"), str(self.inputs.csv), str(out)],
                       env=env, check=True, timeout=150)
        reference = np.load(out)
        mask = self.inputs.mask
        e = piston_removed(self.anchor - reference, mask)
        rel = float(np.linalg.norm(e) / np.linalg.norm(piston_removed(reference, mask)))
        self.checks.require(rel <= DENSE_REL_ERROR,
                            f"estimate vs dense solve: piston-removed error {rel:.4g}")
        return {"dense_rel_error": rel}

    def trial_checks(self) -> dict:
        def stack(table, method):
            return np.concatenate([getattr(r, table)[method] for r in self.trials])

        # Per trial, then the median: the ratio of the two medians scatters
        # past 5% on 1.5-3% of 40-160-trial samples although the typical
        # trial sits 2.4% off (bootstrap over 800 trials).
        norm = stack("resid_var_norm", "u-pcg-opt")
        plateau = float(np.median(np.abs(norm[:, 10] - norm[:, 30]) / norm[:, 30]))
        self.checks.require(plateau <= MC_PLATEAU,
                            f"u-pcg-opt iteration 10 is {plateau:.3%} off iteration 30")
        flops_u, flops_w = stack("iteration_flops", "u-pcg-opt"), stack("iteration_flops", "w-cg")
        var_u, var_w = stack("resid_var", "u-pcg-opt"), stack("resid_var", "w-cg")
        # Last w-cg iterate affordable within each trial's 10-iteration u budget.
        picks = [var_w[t, np.searchsorted(flops_w[t], flops_u[t, 10], side="right") - 1]
                 for t in range(var_w.shape[0])]
        gap = float(np.median(picks) / np.median(var_u[:, 10]))
        self.checks.require(gap >= MC_GAP, f"equal-flop gap to w-cg only {gap:.3g}x")
        return {"plateau": plateau, "equal_flop_gap": gap, "trials": int(var_u.shape[0])}


class LargeGrid(Workload):
    """File-to-file u-cg at p=8 plus an in-memory solve of the same slopes.

    u-cg builds nothing, so a "cold" call on an empty cache and a "warm"
    call reusing it are predicted to cost the same.
    """

    name = "large-grid-p8"
    p = 8
    config = SolverConfig("u-cg", 10, 1e-30)
    per_round = {"cold": 1, "warm": 1, "solve": 3, "trial": 2}
    trial_methods = ("u-cg",)
    residual_limit = LARGE_RESIDUAL

    def final_checks(self):
        found = super().final_checks()
        checks = self.checks
        fractal, sensor = self.rec.fractal, self.rec.sensor
        rng = np.random.default_rng(derived_seed(self.seed, 2))
        u = rng.standard_normal((fractal.n, fractal.n))
        y = rng.standard_normal((2, sensor.pupil.nsub))
        ku = u.copy()
        fractal.apply(ku)
        dx, dy = sensor.forward(ku)
        lhs = float(dx @ y[0] + dy @ y[1])
        back = sensor.adjoint(y[0], y[1])
        fractal.apply_transpose(back)
        rhs = float(np.vdot(u, back))
        scale = float(np.linalg.norm(np.concatenate([dx, dy])) * np.linalg.norm(y))
        adjoint_gap = abs(lhs - rhs) / scale
        checks.require(adjoint_gap <= 1e-12, f"<SKu, y> vs <u, K^T S^T y>: gap {adjoint_gap:.3e}")
        fractal.apply_inverse(ku)
        checks.close(ku, u, "K^-1 K u vs u")
        share = self.inputs.residual_share(self.anchor)
        checks.require(share <= LARGE_RESIDUAL,
                       f"10-iteration residual share {share:.4g} above {LARGE_RESIDUAL}")
        return dict(found, adjoint_gap=adjoint_gap, residual_share=share)


WORKLOADS = {w.name: w for w in (SmallGrid, LargeGrid)}


# -- environment -----------------------------------------------------------------


def other_running() -> int:
    """Runnable tasks on the machine that are not threads of this process."""
    with open("/proc/stat") as fh:
        total = next(int(line.split()[1]) for line in fh if line.startswith("procs_running"))
    own = 0
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/stat") as fh:
                own += fh.read().rsplit(")", 1)[1].split()[0] == "R"
        except FileNotFoundError:  # thread ended meanwhile
            pass
    return total - own


def speed_probe_ms() -> float:
    """Median time of a fixed memory-bound numpy loop: machine speed, run to run."""
    a = np.ones(1 << 20)
    times = []
    for _ in range(5):
        seconds, _ = timed(lambda: [np.multiply(a, 1.0001, out=a) for _ in range(20)])
        times.append(1e3 * seconds)
    return statistics.median(times)


def python_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: it follows the host's drift."""
    def loop():
        total = 0
        for k in range(100_000):
            total += k * k
        return total
    return statistics.median(1e3 * timed(loop)[0] for _ in range(5))


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# -- main loop -------------------------------------------------------------------


class Loop:
    """Whole rounds of one workload, sampling contention before each."""

    def __init__(self, workload):
        self.workload = workload
        self.rounds = 0
        self.failed = 0
        self.running: list[int] = []
        self.peak_rss_mb = None

    def warm_up(self):
        """One whole round whose operations count, but whose timings do not."""
        self.run(0)
        for op in self.workload.per_round:
            self.workload.times.get(op, []).clear()

    def run(self, seconds, min_rounds=1) -> list[float]:
        """Rounds until ``seconds`` have passed; returns each round's seconds."""
        durations = []
        start = time.perf_counter()
        while len(durations) < min_rounds or time.perf_counter() - start < seconds:
            self.running.append(other_running())
            t0 = time.perf_counter()
            self.failed += self.workload.round(self.rounds)
            durations.append(time.perf_counter() - t0)
            self.rounds += 1
            if self.rounds == RSS_ROUNDS:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return durations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    load_before = os.getloadavg()
    probe_before = speed_probe_ms()
    python_before = python_probe_ms()
    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, checks)
    fresh_dir(workload.dir)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        seconds, _ = timed(workload.setup)
        setup_times.append(imports + seconds)

    loop = Loop(workload)
    loop.warm_up()
    if args.trace:
        plain = loop.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.run(args.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(workload.dir / "spans.json")
        metrics = tracer.layer_metrics(len(traced), workload.inputs.samples)
        metrics["tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    else:
        loop.run(args.seconds, min_rounds=RSS_ROUNDS)
        t = workload.times
        metrics = {
            "setup_s": statistics.median(setup_times),
            "cold_reconstruct_s": trimmed_mean(t["cold"]),
            "cli_reconstruct_s": trimmed_mean(t["warm"]),
            "solve_s": trimmed_mean(t["solve"]),
            "trials_per_s": workload.trials_per_op / trimmed_mean(t["trial"]),
            "peak_rss_mb": loop.peak_rss_mb,
        }
    found = workload.final_checks()

    others = statistics.median(loop.running)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": loop.rounds, "setup_runs_s": setup_times, "checks": found,
        "calls": {kind: len(v) for kind, v in workload.times.items()},
        "median_s": {kind: statistics.median(v) for kind, v in workload.times.items() if v},
        "fingerprint": fingerprint(),
        "contention": {"loadavg_before": load_before, "loadavg_after": os.getloadavg(),
                       "speed_probe_ms_before": probe_before, "speed_probe_ms_after": speed_probe_ms(),
                       "python_probe_ms_before": python_before, "python_probe_ms_after": python_probe_ms(),
                       "other_running_median": others, "under_load": others >= 1},
    }))
    missing = set(metrics) ^ {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": loop.rounds * workload.ops_per_round,
        "failed": loop.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
