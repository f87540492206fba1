"""Run-time timing wrappers around fracwave's public functions and methods.

``Tracer.install`` swaps each target for a wrapper that records one span
(name, start, end, parent) per call and restores the originals on
``uninstall``.  Nothing in the package changes: module globals are
patched where the caller looks them up (``fracwave.solver`` for the
names ``Reconstructor`` calls, ``fracwave.harness`` for the trial loop,
``fracwave.fileio`` and ``fracwave.cli`` for the command line), class
methods on the class itself.

Spans stay in memory; ``write`` dumps them when the run ends and
``layer_metrics`` turns them into per-layer figures.  A span's self time
is its duration minus the durations of its direct children (one thread,
so children never overlap).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import fracwave.cli
import fracwave.fileio
import fracwave.harness
import fracwave.solver
from fracwave import (DiagonalPreconditioner, FlopCounter, FractalOperator,
                      NormalOperator, Reconstructor, ShackHartmann)


def _grid_size(args):
    """(grids, samples) of a (..., n, n) grid argument of a fractal/solver method."""
    grid = args[1]
    n = args[0].n
    return grid.size // (n * n), grid.size


def _sensor_forward_size(args):
    n = args[0].pupil.n
    return args[1].size // (n * n), args[1].size


def _sensor_adjoint_size(args):
    pupil = args[0].pupil
    grids = args[1].size // max(pupil.nsub, 1)
    return grids, grids * pupil.n * pupil.n


def _charged(args, kwargs, position):
    counter = kwargs.get("counter", args[position] if len(args) > position else None)
    return counter is not None


# (owner, attribute, span name, size function, position of the counter argument)
_TARGETS = [
    (fracwave.cli, "main", "cli.main", None, None),
    (fracwave.fileio, "read_slopes_csv", "fileio.read_slopes_csv", None, None),
    (fracwave.fileio, "write_grid", "fileio.write_grid", None, None),
    (fracwave.harness, "run_simulation", "harness.run_simulation", None, None),
    (fracwave.harness, "draw_screen", "harness.draw_screen", None, None),
    (fracwave.harness, "simulate_measurements", "sensor.simulate_measurements", None, None),
    (fracwave.solver, "make_pupil", "sensor.make_pupil", None, None),
    (fracwave.solver, "operator_diagonal_stats", "solver.operator_diagonal_stats", None, None),
    (fracwave.solver, "residual_stats", "metrics.residual_stats", None, None),
    (fracwave.solver, "strehl_ratio", "metrics.strehl_ratio", None, None),
    (FractalOperator, "__init__", "fractal.init", None, None),
    (FractalOperator, "apply", "fractal.forward", _grid_size, 2),
    (FractalOperator, "apply_transpose", "fractal.transpose", _grid_size, 2),
    (FractalOperator, "apply_inverse", "fractal.inverse", _grid_size, 2),
    (FractalOperator, "apply_inverse_transpose", "fractal.inverse_transpose", _grid_size, 2),
    (ShackHartmann, "__init__", "sensor.init", None, None),
    (ShackHartmann, "forward", "sensor.forward", _sensor_forward_size, 2),
    (ShackHartmann, "adjoint", "sensor.adjoint", _sensor_adjoint_size, 3),
    (NormalOperator, "apply", "solver.normal_apply", _grid_size, 2),
    (DiagonalPreconditioner, "apply", "solver.precond_apply", None, None),
    (Reconstructor, "__init__", "solver.init", None, None),
    (Reconstructor, "preconditioner", "solver.preconditioner", None, None),
]

FRACTAL_MAPS = ("forward", "transpose", "inverse", "inverse_transpose")


class Tracer:
    """Span recorder plus the flop tallies of every traced reconstruct."""

    def __init__(self):
        # [name, start, end, parent index, grids, samples, charged]
        self.spans: list[list] = []
        self.flops: Counter = Counter()
        self.iterations = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, size=None, counter_pos=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grids, samples = size(args) if size is not None else (0, 0)
            charged = counter_pos is not None and _charged(args, kwargs, counter_pos)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, grids, samples, charged]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, size, pos in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, size, pos))

        tracer = self
        pcg = self._wrap("solver.pcg_solve", fracwave.solver.pcg_solve)

        def pcg_solve(*args, **kwargs):
            result = pcg(*args, **kwargs)
            tracer.iterations += result[2]
            return result

        reconstruct = self._wrap("solver.reconstruct", Reconstructor.reconstruct)

        def traced_reconstruct(self, slopes, config, truth=None, counter=None):
            # Every solve gets a FlopCounter so the program's own tallies
            # cover the CLI and the trial loop too.
            if counter is None:
                counter = FlopCounter()
            before = counter.tallies()
            out = reconstruct(self, slopes, config, truth=truth, counter=counter)
            for family, count in counter.tallies().items():
                tracer.flops[family] += count - before.get(family, 0)
            return out

        for owner, attr, replacement in (
            (fracwave.solver, "pcg_solve", pcg_solve),
            (Reconstructor, "reconstruct", traced_reconstruct),
        ):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([rec[:4] for rec in self.spans], fh, separators=(",", ":"))

    # -- derived figures -------------------------------------------------------

    def layer_metrics(self, rounds: int, samples_per_grid: int) -> dict:
        """Per-layer figures per traced round: self seconds, counts, rates."""
        spans = self.spans
        count = len(spans)
        duration = [rec[2] - rec[1] for rec in spans]
        child_time = [0.0] * count
        in_build = [False] * count
        for i, rec in enumerate(spans):
            parent = rec[3]
            if parent >= 0:
                child_time[parent] += duration[i]
                in_build[i] = in_build[parent] or spans[parent][0] == "solver.operator_diagonal_stats"
        builds_below = [False] * count
        for i in range(count - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0 and (builds_below[i] or spans[i][0] == "solver.operator_diagonal_stats"):
                builds_below[parent] = True

        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        grids: Counter = Counter()
        samples: Counter = Counter()
        charged: Counter = Counter()
        build_applies = 0
        cache_hits = 0
        for i, (name, _, _, _, g, s, is_charged) in enumerate(spans):
            self_s[name] += duration[i] - child_time[i]
            calls[name] += 1
            grids[name] += g
            samples[name] += s
            if is_charged:
                charged[name] += s
            if name == "solver.normal_apply" and in_build[i]:
                build_applies += g
            if name == "solver.preconditioner" and not builds_below[i]:
                cache_hits += 1

        def family(prefix, names):
            keys = [f"{prefix}.{n}" for n in names]
            return (sum(self_s[k] for k in keys), sum(grids[k] for k in keys),
                    sum(samples[k] for k in keys), sum(charged[k] for k in keys))

        fr_s, fr_grids, fr_samples, fr_charged = family("fractal", FRACTAL_MAPS)
        se_s, _, se_samples, se_charged = family("sensor", ("forward", "adjoint"))
        solve_samples = self.iterations * samples_per_grid

        def ratio(num, den):
            return num / den if den else 0.0

        per_round = {
            "cli.self_s": self_s["cli.main"],
            "fileio.read_slopes_s": self_s["fileio.read_slopes_csv"],
            "fileio.write_grid_s": self_s["fileio.write_grid"],
            "solver.init_s": self_s["solver.init"],
            "sensor.init_s": self_s["sensor.init"],
            "sensor.pupil_s": self_s["sensor.make_pupil"],
            "fractal.init_s": self_s["fractal.init"],
            "solver.precond_build_s": self_s["solver.operator_diagonal_stats"],
            "solver.precond_build_applies": build_applies,
            "solver.cache_builds": calls["solver.operator_diagonal_stats"],
            "solver.cache_hits": cache_hits,
            "fractal.grids": fr_grids,
            "solver.normal_apply_s": self_s["solver.normal_apply"],
            "solver.normal_applies": grids["solver.normal_apply"],
            "solver.pcg_vector_s": self_s["solver.pcg_solve"],
            "solver.precond_apply_s": self_s["solver.precond_apply"],
            "solver.iterations": self.iterations,
            "metrics.diagnostics_s": self_s["metrics.residual_stats"] + self_s["metrics.strehl_ratio"],
            "metrics.diagnostics_calls": calls["metrics.residual_stats"] + calls["metrics.strehl_ratio"],
            "sensor.simulate_s": self_s["sensor.simulate_measurements"],
            "harness.draw_screen_s": self_s["harness.draw_screen"],
            "harness.self_s": self_s["harness.run_simulation"],
        }
        for op in FRACTAL_MAPS:
            per_round[f"fractal.{op}_s"] = self_s[f"fractal.{op}"]
        for op in ("forward", "adjoint"):
            per_round[f"sensor.{op}_s"] = self_s[f"sensor.{op}"]
        out = {name: value / rounds for name, value in per_round.items()}
        out.update({
            "fractal.ns_per_sample": 1e9 * ratio(fr_s, fr_samples),
            "fractal.flops_per_sample": ratio(self.flops["fractal"], fr_charged),
            "sensor.ns_per_sample": 1e9 * ratio(se_s, se_samples),
            "sensor.flops_per_sample": ratio(self.flops["sensor"], se_charged),
            "solver.flops_per_sample": ratio(sum(self.flops.values()), solve_samples),
        })
        return out
