"""Command-line driver.

Subcommands cover the full loop: ``generate`` a screen, ``sense`` it
into noisy slopes, ``reconstruct`` a wavefront from slopes, and the
batch drivers ``simulate`` (Monte-Carlo convergence curves),
``validate-sf`` (screen statistics) and ``bench`` (operation counts).
Exit codes: 0 success, 2 invalid inputs, 1 runtime failure.  ``-v``
before the subcommand prints the ``fracwave`` logger's INFO records, such
as a preconditioner build's progress per probe pass, on stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import fileio
from .fractal import FractalOperator, scale_count
from .harness import (ExperimentSpec, draw_screen, run_bench, run_simulation,
                      run_sf_validation, trial_generator)
from .sensor import make_pupil, simulate_measurements
from .solver import VARIANTS, Reconstructor, SolverConfig
from .turbulence import kolmogorov


def _parse_scales(text: str) -> list[int]:
    """Scale counts from '5:8' (inclusive range) or '5,6,7' (list)."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        scales = [int(tok) for tok in text.split(",") if tok]
        if not scales:
            raise ValueError
        return scales
    except ValueError:
        raise ValueError(f"cannot parse scale list {text!r}; use e.g. '5:8' or '5,6,7'") from None


def _parse_methods(text: str) -> tuple[str, ...]:
    if text == "all":
        return tuple(sorted(VARIANTS))
    methods = tuple(tok for tok in text.split(",") if tok)
    unknown = [m for m in methods if m not in VARIANTS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}, pick from {sorted(VARIANTS)} or 'all'")
    return methods


def cmd_generate(args) -> int:
    fileio.ensure_parent(args.out)
    sf = kolmogorov(args.r0, float(1 << args.p))
    fractal = FractalOperator(sf, args.p)
    screen = draw_screen(fractal, trial_generator(args.seed, 0))
    fileio.write_grid(args.out, screen)
    print(f"wrote {args.out}: side {fractal.n}, r0 {args.r0}, seed {args.seed}", file=sys.stderr)
    return 0


def cmd_sense(args) -> int:
    fileio.ensure_parent(args.out)
    screen = fileio.read_grid(args.screen)
    n = screen.shape[0]
    p = scale_count(n)
    if p < 3:
        raise ValueError(f"sense needs p >= 3, got {p}: the pupil of a grid "
                         f"of side {n} holds no subaperture")
    pupil = make_pupil(n)
    slopes = simulate_measurements(screen, pupil, args.noise_std, trial_generator(args.seed, 0))
    meta = {"cmd": "sense", "n": n, "p": p,
            "noise_std": args.noise_std, "seed": args.seed, "nsub": slopes.nsub}
    fileio.write_slopes_csv(args.out, slopes, meta)
    print(f"wrote {args.out}: {slopes.nsub} subapertures", file=sys.stderr)
    return 0


def cmd_reconstruct(args) -> int:
    fileio.ensure_parent(args.out)
    slopes, meta = fileio.read_slopes_csv(args.slopes)
    if args.p is not None:
        p = args.p
    elif "p" in meta:
        p = int(meta["p"])
    else:
        raise ValueError("grid size unknown: pass --p or use a slope file written by 'sense'")
    recon = Reconstructor(p, args.r0)
    config = SolverConfig(args.method, args.max_iter, args.tol)
    w_hat, trace = recon.reconstruct(slopes, config)
    fileio.write_grid(args.out, w_hat)
    run_meta = {"cmd": "reconstruct", "p": p, "r0": args.r0, "method": args.method,
                "max_iter": args.max_iter, "tol": args.tol}
    if args.trace:
        fileio.write_trace_csv(args.trace, trace, run_meta)
    status = "converged" if trace.converged else "iteration limit"
    print(
        f"wrote {args.out}: {trace.iterations[-1]} iterations ({status}), "
        f"{trace.total_flops} flops", file=sys.stderr,
    )
    return 0


def cmd_simulate(args) -> int:
    fileio.ensure_parent(args.out)
    spec = ExperimentSpec(
        p=args.p, r0=args.r0, noise_std=args.noise_std,
        methods=_parse_methods(args.method), max_iter=args.max_iter,
        tol=args.tol, trials=args.trials, seed=args.seed,
    )
    result = run_simulation(spec)
    meta = {"cmd": "simulate", "p": spec.p, "r0": spec.r0, "noise_std": spec.noise_std,
            "method": ",".join(spec.methods), "max_iter": spec.max_iter, "tol": spec.tol,
            "trials": spec.trials, "seed": spec.seed}
    fileio.write_curves_csv(args.out, result, meta)
    print(f"wrote {args.out}: {len(spec.methods)} methods x {spec.trials} trials", file=sys.stderr)
    print("median normalized residual variance at the last iteration:", file=sys.stderr)
    for method in spec.methods:
        print(f"  {method:<10} {result.median_normalized(method)[-1]:.3e}", file=sys.stderr)
    return 0


def cmd_validate_sf(args) -> int:
    if args.p < 2:
        raise ValueError(f"validate-sf needs p >= 2 to report radii 2 and up, got {args.p}")
    fileio.ensure_parent(args.out)
    result = run_sf_validation(args.p, args.r0, args.trials, args.seed)
    meta = {"cmd": "validate-sf", "p": args.p, "r0": args.r0,
            "trials": args.trials, "seed": args.seed}
    fileio.write_sf_csv(args.out, result.radii, result.measured, result.expected, meta)
    if args.map:
        fileio.write_grid(args.map, result.map2d)
    width = min(8, (1 << args.p) - 1)
    sel = slice(1, width)  # radii start at 1
    worst = float(np.max(np.abs(result.measured[sel] / result.expected[sel] - 1.0)))
    print(f"wrote {args.out}: worst relative deviation {worst:.3%} for r in 2..{width}",
          file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    fileio.ensure_parent(args.out)
    ps = _parse_scales(args.p)
    rows = run_bench(ps, r0=args.r0, noise_std=args.noise_std,
                     iterations=args.max_iter, seed=args.seed)
    meta = {"cmd": "bench", "p": args.p, "r0": args.r0, "noise_std": args.noise_std,
            "max_iter": args.max_iter, "seed": args.seed}
    fileio.write_bench_csv(args.out, rows, meta)
    print(f"wrote {args.out}: {len(rows)} rows over p={ps}", file=sys.stderr)
    per_sample: dict[str, list[float]] = {}
    for row in rows:
        per_sample.setdefault(row.op, []).append(row.flops / row.samples)
    print("flops per sample, min..max over p (flat means linear cost):", file=sys.stderr)
    for op, values in per_sample.items():
        print(f"  {op:<26} {min(values):.2f}..{max(values):.2f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="Matrix-free minimum-variance wavefront reconstruction.",
    )
    parser.add_argument("-v", dest="verbose", action="store_true",
                        help="log preconditioner build progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, r0=True, seed=True):
        if r0:
            sp.add_argument("--r0", type=float, default=1.0,
                            help="Fried parameter in grid steps (default 1.0)")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    sp = sub.add_parser("generate", help="draw one turbulent screen")
    sp.add_argument("--p", type=int, required=True, help="refinement passes; grid side 2**p + 1")
    common(sp)
    sp.add_argument("--out", required=True, help="output grid file")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("sense", help="measure noisy slopes of a screen")
    sp.add_argument("screen", help="input grid file")
    sp.add_argument("--noise-std", type=float, default=1.0,
                    help="slope noise standard deviation in rad (default 1.0)")
    common(sp, r0=False)
    sp.add_argument("--out", required=True, help="output slope CSV")
    sp.set_defaults(func=cmd_sense)

    sp = sub.add_parser("reconstruct", help="estimate a wavefront from slopes")
    sp.add_argument("slopes", help="input slope CSV")
    sp.add_argument("--method", default="u-pcg-opt", choices=sorted(VARIANTS))
    sp.add_argument("--max-iter", type=int, default=30)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--p", type=int, default=None,
                    help="refinement passes (default: from the slope file comment)")
    common(sp, seed=False)
    sp.add_argument("--out", required=True, help="output grid file")
    sp.add_argument("--trace", default=None, help="optional per-iteration trace CSV")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("simulate", help="Monte-Carlo convergence curves")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--noise-std", type=float, default=1.0)
    sp.add_argument("--method", default="u-pcg-opt",
                    help="comma-separated solver variants, or 'all'")
    sp.add_argument("--max-iter", type=int, default=30)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--trials", type=int, default=100)
    common(sp)
    sp.add_argument("--out", required=True, help="output curves CSV")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("validate-sf", help="screen statistics vs. the target law")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--trials", type=int, default=1000)
    common(sp)
    sp.add_argument("--out", required=True, help="output CSV of radial averages")
    sp.add_argument("--map", default=None, help="optional 2-D map output (grid format)")
    sp.set_defaults(func=cmd_validate_sf)

    sp = sub.add_parser("bench", help="operation counts per operator")
    sp.add_argument("--p", default="5:8", help="scale counts, e.g. '5:8' or '5,6,7' (default 5:8)")
    sp.add_argument("--noise-std", type=float, default=1.0)
    sp.add_argument("--max-iter", type=int, default=10,
                    help="iterations of the benchmarked reconstruction (default 10)")
    common(sp)
    sp.add_argument("--out", required=True, help="output CSV")
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("fracwave")
    handler = level = None
    if args.verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
