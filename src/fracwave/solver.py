"""Matrix-free normal equations and the preconditioned CG driver.

The minimum-variance estimate solves A x = b where, in the wavefront
space,

    A_w = S^T W S + Kinv^T Kinv,        b_w = S^T W d,

with S the slope operator, W the inverse noise covariance and Kinv the
inverse multiscale map (so Kinv^T Kinv is the inverse prior covariance).
The change of variables w = K u whitens the prior and gives

    A_u = K^T S^T W S K + I,            b_u = K^T b_w.

Every product is evaluated by composing the component operators; no
matrix is ever formed.  Two diagonal preconditioners are available:
Jacobi (the operator diagonal) and a diagonal that weights each slot by
diag(A) over the squared row norm, which minimises the Frobenius
distance between the preconditioned operator and the identity.  Both
statistics come exactly from a colored probe of a few hundred operator
applications, a one-time cost that is cached on disk.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import logging
import math
import numbers
import os
import tempfile
import time
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .fractal import FractalOperator, scale_count
from .metrics import FlopCounter, residual_stats, strehl_ratio
from .sensor import Pupil, ShackHartmann, SlopeSet, make_pupil
from .turbulence import kolmogorov

log = logging.getLogger(__name__)

# method string -> (unknown space, preconditioner kind)
VARIANTS = {
    "w-cg": ("w", None),
    "w-pcg-jac": ("w", "jacobi"),
    "w-pcg-opt": ("w", "optimal"),
    "u-cg": ("u", None),
    "u-pcg-jac": ("u", "jacobi"),
    "u-pcg-opt": ("u", "optimal"),
}


def is_integer(value) -> bool:
    """Whether ``value`` is an int or numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class IndefiniteOperatorError(RuntimeError):
    """The operator handed to CG is not positive definite."""


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    method: str = "u-pcg-opt"
    max_iter: int = 30
    tol: float = 1e-3

    def __post_init__(self):
        if self.method not in VARIANTS:
            raise ValueError(f"unknown method {self.method!r}, pick one of {sorted(VARIANTS)}")
        if not is_integer(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    @property
    def space(self) -> str:
        return VARIANTS[self.method][0]

    @property
    def preconditioner(self) -> str | None:
        return VARIANTS[self.method][1]


class NormalOperator:
    """Left-hand side A x of the normal equations, applied matrix-free.

    ``inv_var`` holds one inverse noise variance per subaperture, applied
    to both slope components.  The data term S^T W S runs as one stencil
    on the sensor's cell grid (``ShackHartmann.gram``), with the weights
    laid out once here.  Inputs of shape (..., n, n) are treated as a
    batch; ``apply`` never mutates its argument.
    """

    def __init__(self, fractal: FractalOperator, sensor: ShackHartmann, inv_var, space: str):
        if space not in ("w", "u"):
            raise ValueError(f"space must be 'w' or 'u', got {space!r}")
        inv_var = np.asarray(inv_var, dtype=float)
        if inv_var.shape != (sensor.pupil.nsub,):
            raise ValueError(
                f"need one inverse variance per subaperture ({sensor.pupil.nsub}), got {inv_var.shape}"
            )
        if np.any(inv_var < 0) or not np.all(np.isfinite(inv_var)):
            raise ValueError("inverse variances must be finite and nonnegative")
        self.fractal = fractal
        self.sensor = sensor
        self.inv_var = inv_var
        self.space = space
        self.n = fractal.n
        self._cells = sensor.cell_weights(inv_var)

    def apply(self, x, counter=None, screen=None) -> np.ndarray:
        """A x.  In u-space, ``screen`` may name a float64 array of x's
        shape to hold the screen K x that A_u forms on the way: it serves
        as that working buffer in place of a fresh copy of x, so the
        caller reads K x there afterwards with no copy and no second map.
        A x is the same either way.
        """
        x = np.asanyarray(x, dtype=float)
        if self.space == "w":
            if screen is not None:
                raise ValueError("only a u-space operator forms a screen K x")
            out = x.copy()
            self.fractal.apply_inverse(out, counter)
            self.fractal.apply_inverse_transpose(out, counter)
            out += self.sensor.gram(x, self._cells, counter)
        else:
            if screen is None:
                screen = x.copy()
            elif screen.shape != x.shape:
                raise ValueError(f"screen buffer has shape {screen.shape}, expected {x.shape}")
            else:
                screen[...] = x
            self.fractal.apply(screen, counter)
            out = self.sensor.gram(screen, self._cells, counter)
            self.fractal.apply_transpose(out, counter)
            out += x
        if counter is not None:
            counter.add("vector", x.size)
        return out

    def rhs(self, slopes, counter=None) -> np.ndarray:
        """Stack of right-hand sides b, one per slope set of a sequence."""
        sx = np.array([item.sx for item in slopes])
        sy = np.array([item.sy for item in slopes])
        dx = sx * self.inv_var
        dy = sy * self.inv_var
        if counter is not None:
            counter.add("noise", dx.size + dy.size)
        b = self.sensor.adjoint(dx, dy, counter)
        if self.space == "u":
            self.fractal.apply_transpose(b, counter)
        return b


@dataclasses.dataclass(frozen=True)
class DiagonalPreconditioner:
    """Diagonal preconditioner applied multiplicatively, z = values * r."""

    values: np.ndarray
    kind: str
    space: str

    def apply(self, r, counter=None) -> np.ndarray:
        if counter is not None:
            counter.add("precond", r.size)
        return self.values * r


# Colour stride of a probe pass, in lattice steps h of that pass.  A
# column placed at a pass couples to rows placed at that pass or any finer
# one within some Chebyshev radius r; same-colour columns sit stride steps
# apart, so each such row sees at most one of them when 2 * r + 1 <=
# stride.  An even stride fails: a row exactly at the radius ties between
# two columns.
#
# At the finest pass (h = 1) r = 2 in both spaces.  K moves a centre
# generator only onto its four adjacent edge midpoints and an edge
# generator nowhere, so K e_j lies within 1 of j and is j alone for an
# edge; S^T W S couples only samples that share a cell, within 1.  Two
# finest columns thus couple within 1 + 1 + 1 = 3 steps when both are
# centres and within 2 otherwise, and centre-centre offsets are even, so
# within 2.  Interior u-space passes reach r = 4 on the dense operator at
# every pass whose lattice is wide enough (tested for p = 2..6), so they
# keep stride 9, and stride 7 is unsound there; w-space passes reach 2.
PROBE_STRIDE = {"u": 9, "w": 5}
FINEST_PROBE_STRIDE = 5

# Bytes of one (batch, n, n) float64 grid stack, for trial chunks in
# run_simulation; one operator application holds several such stacks, a
# stacked PCG solve about a dozen.  That is 496 grids at p=6 and 31 at
# p=8.
CHUNK_BYTES = 16 << 20

# Probe batches are smaller: about this many bytes per grid stack, which
# keeps a probe's working stacks in cache and a cold build's resident
# growth near one such stack per operator temporary, but never fewer grids
# than the floor, below which per-call overhead dominates (7 grids at
# p=6, 4 from p=7 on).
PROBE_BATCH_BYTES = 1 << 18
PROBE_BATCH_FLOOR = 4


def _sample_passes(p: int) -> np.ndarray:
    """Refinement pass that places each sample of a (2**p + 1)-side grid.

    The four corners are pass 0; pass L places the samples of the lattice
    with step 2**(p - L) that no coarser lattice holds.
    """
    n = (1 << p) + 1
    valuation = np.array([p if i == 0 else (i & -i).bit_length() - 1 for i in range(n)])
    return p - np.minimum.outer(valuation, valuation)


def _pass_colours(passes, level: int, stride: int):
    """Colour classes of one pass as (member, owned, owners, stray).

    Colour (cy, cx) holds the pass's samples at lattice coordinates
    congruent to (cy, cx) modulo ``stride``.  A row is owned when it sits
    at this pass or finer and its nearest same-colour lattice point, taken
    per axis, is a sample of this pass; that point is its owner.
    ``member`` holds the flat indices of the colour's own samples,
    ``owned`` marks the owned rows and ``owners`` holds the flat index of
    each one's owner, in row-major order; ``stray`` marks the rows at this
    pass or finer that are not owned.  Empty colours are skipped.
    """
    n = passes.shape[0]
    step = (n - 1) >> level
    span = stride * step
    k = np.arange(n)
    # A lattice point is placed at the later of the passes that place its
    # two coordinates on an axis; row 0 holds those per-coordinate passes.
    first = passes[0]
    axes = []
    for c in range(min(stride, (1 << level) + 1)):
        near = c * step + span * ((2 * (k - c * step) + span) // (2 * span))
        inside = (near >= 0) & (near < n)
        near = np.where(inside, near, 0)
        axes.append((near, inside, first[near] == level, np.flatnonzero(near == k)))
    reached = passes >= level
    for oy, in_y, new_y, on_y in axes:
        for ox, in_x, new_x, on_x in axes:
            owned = (in_y[:, None] & in_x[None, :]) & (new_y[:, None] | new_x[None, :]) & reached
            member = (on_y[:, None] * n + on_x)[owned[np.ix_(on_y, on_x)]]
            if member.size:
                yield member, owned, (oy[:, None] * n + ox)[owned], reached & ~owned


def _probe_colours(passes, space: str):
    """(level, stride, *colour) for every colour of every pass, coarse to fine."""
    p = scale_count(passes.shape[0])
    for level in range(p + 1):
        stride = FINEST_PROBE_STRIDE if level == p else PROBE_STRIDE[space]
        for colour in _pass_colours(passes, level, stride):
            yield level, stride, *colour


def operator_diagonal_stats(op: NormalOperator, batch_size: int | None = None):
    """diag(A) and row square-sums of a normal operator by colored probing.

    Column-partition probing (Curtis, Powell & Reid 1974), with colours
    taken from the refinement passes.  Each probe applies A to the sum of
    one colour's columns.  A row placed at that pass or finer meets at
    most one of them, its owner, so it reads the entry A[row, owner]
    exactly.  Rows from coarser passes are skipped: A is symmetric, so
    their entries are read from the coarser probe instead.  The owner
    gets the square of every entry it is read from.  A row from a strictly
    finer pass also gets that square, as its entry against the owner.
    That takes about stride**2 probes per pass (``PROBE_STRIDE``, and
    ``FINEST_PROBE_STRIDE`` at the finest pass), O(N log N) work in all.

    The colours of all passes go through A as one stream of ``batch_size``
    grids at a time (by default as many as fit ``PROBE_BATCH_BYTES``, and
    at least ``PROBE_BATCH_FLOOR``); only the last batch may be smaller,
    so the multiscale maps bind at most two programs per build.  One basis
    stack, sized by the first batch, is refilled in place, and a u-space
    ``NormalOperator`` gets one screen buffer of the same size.  Colours
    are formed lazily, one batch at a time.  Each pass logs one INFO
    progress line when its last probe is read, timed from the previous
    pass's line (a batch that spans two passes counts toward the first),
    and the build one summary with its batch count and largest stack.

    A row with no owner must read exactly zero; a nonzero there means
    the operator couples farther than the pass's stride allows, and
    raises RuntimeError.
    """
    n = op.n
    p = scale_count(n)
    size = n * n
    if batch_size is None:
        batch_size = max(PROBE_BATCH_FLOOR, PROBE_BATCH_BYTES // (8 * size))
    elif not is_integer(batch_size) or batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
    start = pass_start = time.perf_counter()
    passes = _sample_passes(p)
    diag = np.zeros(size)
    rowsq = np.zeros(size)
    finer = np.zeros((n, n))  # squares read at the current pass, for its finer rows
    sq = np.empty((n, n))
    level = stride = None
    pass_probes = probes = batches = 0
    basis = screen = None

    def finish_pass():
        # A row from a strictly finer pass gets every square it read.
        rowsq[...] += np.where(passes > level, finer, 0.0).ravel()
        finer[...] = 0.0
        log.info("%s-space probe pass %d/%d: stride %d, %d probes in %.3f s",
                 op.space, level, p, stride, pass_probes, time.perf_counter() - pass_start)

    stream = _probe_colours(passes, op.space)
    while batch := list(itertools.islice(stream, batch_size)):
        if basis is None:
            # The first batch is the largest: every later one is as large
            # or is the stream's last.
            basis = np.zeros((len(batch), n, n))
            if isinstance(op, NormalOperator) and op.space == "u":
                screen = np.empty_like(basis)
        grids = basis[: len(batch)]
        flat = grids.reshape(len(batch), size)
        for row, (_, _, member, *_) in zip(flat, batch):
            row[member] = 1.0
        if screen is None:
            ys = op.apply(grids)
        else:
            ys = op.apply(grids, screen=screen[: len(batch)])
        for row, y, (colour_level, colour_stride, member, owned, owners, stray) in zip(
                flat, ys, batch):
            if colour_level != level:
                if level is not None:
                    finish_pass()
                    pass_start = time.perf_counter()
                level, stride, pass_probes = colour_level, colour_stride, 0
            if np.any(y[stray]):
                raise RuntimeError(
                    f"pass {level} probe reached a row outside the probe stride {stride}"
                )
            np.multiply(y, y, out=sq)
            diag[member] = y.reshape(size)[member]
            rowsq += np.bincount(owners, sq[owned], minlength=size)
            finer += sq
            row[member] = 0.0
            pass_probes += 1
        probes += len(batch)
        batches += 1
    finish_pass()
    log.info("built %s-space preconditioner statistics at p=%d: %d probes in %d batches "
             "of at most %d grids (%d KiB) in %.3f s", op.space, p, probes, batches,
             basis.shape[0], basis.nbytes >> 10, time.perf_counter() - start)
    return diag.reshape(n, n), rowsq.reshape(n, n)


def jacobi_preconditioner(diag, space: str) -> DiagonalPreconditioner:
    diag = np.asarray(diag, dtype=float)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise ValueError("operator diagonal must be finite and positive")
    return DiagonalPreconditioner(values=1.0 / diag, kind="jacobi", space=space)


def optimal_diagonal_preconditioner(diag, rowsq, space: str) -> DiagonalPreconditioner:
    diag = np.asarray(diag, dtype=float)
    rowsq = np.asarray(rowsq, dtype=float)
    if np.any(rowsq <= 0) or not np.all(np.isfinite(rowsq)):
        raise ValueError("row square-sums must be finite and positive")
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise ValueError("operator diagonal must be finite and positive")
    return DiagonalPreconditioner(values=diag / rowsq, kind="optimal", space=space)


def pcg_solve(apply_a, b, *, tol: float = 1e-3, max_iter: int = 30,
              preconditioner: DiagonalPreconditioner | None = None,
              counter: FlopCounter | None = None, monitor=None):
    """Preconditioned conjugate gradients for an SPD matrix-free operator.

    Axis 0 of ``b`` indexes independent systems (columns); a lone system
    is a stack of one, and a ``b`` of fewer than two axes raises
    ValueError.  Each column runs its own CG recurrence, not block
    CG: a column stops when ||r|| <= tol * ||b|| or when r . z is exactly
    zero, and its x and r then stay frozen while the others go on, so it
    follows exactly the iterates of a solve on its own.  Every column is
    charged for every operation, frozen ones included.  The solve starts
    from x = 0.

    ``monitor(k, x, rnorm, stepped, alpha)`` is called after
    initialisation (k = 0) and after every iteration, with ``rnorm``, the
    boolean mask ``stepped`` (the columns that took iteration k, all at
    k = 0) and ``alpha`` of shape (columns,).  ``alpha`` is each column's
    step length, x_k = x_{k-1} + alpha * p_k with p_k the direction
    ``apply_a`` was last called on; it is 0 at k = 0 and in the columns
    that did not step, whose x stays as it was.  So a monitor can carry
    any linear image of x, such as L x_k = L x_{k-1} + alpha * L p_k, from
    the L p_k that ``apply_a`` forms.  Returns (x, converged, iterations):
    ``converged`` per column, ``iterations`` the number run, the longest
    column's.  A nonpositive curvature p . A p in a running column aborts
    with IndefiniteOperatorError.
    """

    def add(family, count):
        if counter is not None:
            counter.add(family, count)

    b = np.asarray(b, dtype=float)
    if b.ndim < 2:
        raise ValueError(f"need a stack of right-hand sides (columns, ...), got shape {b.shape}")
    columns = b.shape[0]
    size = b.size
    dot_flops = 2 * size - columns  # 2N - 1 per column
    expand = (columns,) + (1,) * (b.ndim - 1)

    def dot(u, v):
        return np.vecdot(u.reshape(columns, -1), v.reshape(columns, -1))

    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.sqrt(dot(b, b))
    add("vector", dot_flops)
    rnorm = bnorm
    live = ~(rnorm <= tol * bnorm)
    if monitor is not None:
        monitor(0, x, rnorm, np.ones(columns, dtype=bool), np.zeros(columns))
    iterations = 0
    rho_prev = None
    p = None
    # count_nonzero: a third of the call overhead of .any() on small masks
    while iterations < max_iter and np.count_nonzero(live):
        z = r if preconditioner is None else preconditioner.apply(r, counter)
        rho = dot(r, z)
        add("vector", dot_flops)
        live = live & (rho != 0.0)
        if not np.count_nonzero(live):
            break
        if p is None:
            p = z.copy()
        else:
            # Stopped columns restart from z, so p stays finite there.
            beta = np.divide(rho, rho_prev, out=np.zeros(columns), where=live)
            p = z + beta.reshape(expand) * p
            add("vector", 2 * size)
        q = apply_a(p, counter)
        curvature = dot(p, q)
        add("vector", dot_flops)
        indefinite = live & (curvature <= 0.0)
        if np.count_nonzero(indefinite):
            raise IndefiniteOperatorError(
                f"nonpositive curvature p.Ap = {np.extract(indefinite, curvature)[0]} "
                f"at iteration {iterations + 1}"
            )
        alpha = np.divide(rho, curvature, out=np.zeros(columns), where=live)
        step = alpha.reshape(expand)
        x += step * p
        add("vector", 2 * size)
        r -= step * q
        add("vector", 2 * size)
        rho_prev = rho
        iterations += 1
        rnorm = np.sqrt(dot(r, r))
        add("vector", dot_flops)
        stepped = live
        live = stepped & ~(rnorm <= tol * bnorm)
        if monitor is not None:
            monitor(iterations, x, rnorm, stepped, alpha)
    return x, ~live, iterations


@dataclasses.dataclass
class ConvergenceTrace:
    """Per-iteration record of one solve; row 0 is the initial state.

    Residual-to-truth columns are NaN when no truth was supplied.
    ``flops`` is cumulative; ``total_flops`` additionally includes work
    done after the last iteration (e.g. mapping generators to a screen).
    """

    method: str
    iterations: list[int]
    flops: list[int]
    rnorm: list[float]
    resid_var: list[float]
    resid_var_norm: list[float]
    strehl: list[float]
    converged: bool = False
    total_flops: int = 0

    def rows(self):
        return list(
            zip(self.iterations, self.flops, self.rnorm, self.resid_var,
                self.resid_var_norm, self.strehl)
        )


class CacheEntryError(ValueError):
    """A preconditioner cache entry that cannot be used as it stands."""


# Layout of a cache entry: the arrays diag and rowsq, the full key they
# were built for and this number.  Bump it when the layout changes.
CACHE_FORMAT = 1


def _read_stats_entry(path: Path, n: int, key: str):
    """(diag, rowsq) from a cache entry, checked like any outside input.

    Raises CacheEntryError unless the file is an npz archive of format
    ``CACHE_FORMAT`` built for ``key``, holding both arrays as finite,
    positive float64 grids of side n.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CacheEntryError(f"not an npz archive ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CacheEntryError("not an npz archive")
    with data:
        if not {"key", "version"} <= set(data.files):
            raise CacheEntryError("no key or format version stored")
        try:
            version, stored_key = data["version"], data["key"]
            stats = (data["diag"], data["rowsq"])
        except (KeyError, OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            raise CacheEntryError(f"unreadable arrays ({exc})") from exc
    if version.shape != () or version.dtype.kind not in "iu" or version != CACHE_FORMAT:
        raise CacheEntryError(f"format {version}, expected {CACHE_FORMAT}")
    if stored_key.shape != () or stored_key.dtype.kind != "U" or str(stored_key) != key:
        raise CacheEntryError("built for another key")
    for name, values in zip(("diag", "rowsq"), stats):
        if values.shape != (n, n) or values.dtype != np.float64:
            raise CacheEntryError(
                f"{name} is {values.dtype} of shape {values.shape}, expected float64 of shape {(n, n)}"
            )
        if not np.all(np.isfinite(values) & (values > 0)):
            raise CacheEntryError(f"{name} has non-finite or non-positive values")
    return stats


def _resolve_cache_dir(cache_dir):
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("FRACWAVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "fracwave"


class Reconstructor:
    """Operators and solver plumbing for one geometry and prior.

    Construct once per (p, r0) and reuse across trials: the diagonal
    preconditioner statistics are cached in memory and on disk, keyed by
    the operator coefficients, the pupil and the noise weights.  Each
    file stores its full key and is rebuilt when it does not match.
    The disk cache lives in ``cache_dir``; None does not turn it off but
    picks ``$FRACWAVE_CACHE``, or ``~/.cache/fracwave`` when that is
    unset or empty.
    """

    def __init__(self, p: int, r0: float = 1.0, cache_dir=None):
        if not is_integer(p):
            raise ValueError(f"p must be an integer, got {p!r}")
        self.p = int(p)
        self.n = (1 << self.p) + 1
        self.r0 = float(r0)
        self.sf = kolmogorov(self.r0, float(self.n - 1))
        self.fractal = FractalOperator(self.sf, self.p)
        self.pupil: Pupil = make_pupil(self.n)
        self.sensor = ShackHartmann(self.pupil)
        self.cache_dir = _resolve_cache_dir(cache_dir)
        self._stats_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def system(self, inv_var, space: str) -> NormalOperator:
        return NormalOperator(self.fractal, self.sensor, inv_var, space)

    def check_slopes(self, slopes: SlopeSet):
        slopes.validate()
        if not (
            np.array_equal(slopes.subap_x, self.pupil.subap_x)
            and np.array_equal(slopes.subap_y, self.pupil.subap_y)
        ):
            raise ValueError("slope set does not match the pupil subaperture layout")

    def _stats_key(self, space: str, inv_var) -> str:
        h = hashlib.sha256()
        h.update(space.encode())
        h.update(np.int64(self.n).tobytes())
        o = self.fractal.outer
        coeffs = [o.a, o.b, o.c]
        for lev in self.fractal.levels:
            coeffs.extend(lev.square + lev.triangle + lev.diamond)
        h.update(np.asarray(coeffs, dtype=float).tobytes())
        h.update(self.pupil.subap_x.astype(np.int64).tobytes())
        h.update(self.pupil.subap_y.astype(np.int64).tobytes())
        h.update(np.asarray(inv_var, dtype=float).tobytes())
        return h.hexdigest()

    def _diagonal_stats(self, space: str, inv_var):
        key = self._stats_key(space, inv_var)
        if key in self._stats_cache:
            return self._stats_cache[key]
        path = self.cache_dir / f"diag-{key[:32]}.npz"
        stats = None
        if path.exists():
            try:
                stats = _read_stats_entry(path, self.n, key)
            except CacheEntryError as exc:
                log.warning("rebuilding unusable preconditioner cache entry %s: %s", path, exc)
            else:
                log.debug("preconditioner cache hit %s", path)
        if stats is None:
            stats = operator_diagonal_stats(self.system(inv_var, space))
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz")
            os.close(fd)
            try:
                np.savez(tmp, diag=stats[0], rowsq=stats[1], key=np.array(key),
                         version=np.array(CACHE_FORMAT))
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        self._stats_cache[key] = stats
        return stats

    def preconditioner(self, inv_var, space: str, kind: str) -> DiagonalPreconditioner:
        diag, rowsq = self._diagonal_stats(space, inv_var)
        if kind == "jacobi":
            return jacobi_preconditioner(diag, space)
        if kind == "optimal":
            return optimal_diagonal_preconditioner(diag, rowsq, space)
        raise ValueError(f"unknown preconditioner kind {kind!r}")

    def reconstruct(self, slopes, config: SolverConfig, truth=None,
                    counter: FlopCounter | None = None):
        """Estimate the wavefront from slopes; returns (w_hat, trace).

        ``slopes`` is one SlopeSet, or a sequence of slope sets that share
        their noise variances; a sequence returns a (B, n, n) stack of
        estimates and one trace per slope set, and takes ``truth`` as a
        matching stack.  All of them go through one PCG call, each slope
        set along its own recurrence (see ``pcg_solve``), so each trace is
        the one a solve on its own would record.

        The estimate keeps its piston component; piston-blind comparison
        is the metrics' job.  With ``truth`` given, the trace records
        piston-removed residual variance (absolute and normalised by the
        iteration-0 value) and the Strehl estimate per iteration.  In
        u-space those need the screen K x_k of each iterate; it is carried
        by linearity, w_0 = 0 and w_k = w_{k-1} + alpha_k K p_k, from the
        screen K p_k that A_u forms anyway, so a monitored iteration costs
        the same two maps as an unmonitored one plus one axpy.  That image
        is diagnostic work and not charged; it agrees with a direct K x_k
        to roundoff.  The returned estimate is K x applied directly, and
        charged.  Flops are the counter's growth divided by the stack
        size: every charged operation runs on every slope set, so this is
        exact, and a slope set that converged early is charged for the
        iterations it sat out in ``total_flops`` only.
        """
        single = isinstance(slopes, SlopeSet)
        stack = [slopes] if single else list(slopes)
        if not stack:
            raise ValueError("need at least one slope set")
        for item in stack:
            self.check_slopes(item)
        if any(not np.array_equal(item.var, stack[0].var) for item in stack[1:]):
            raise ValueError("slope sets solved together must share their noise variances")
        columns = len(stack)
        if truth is not None:
            truth = np.asarray(truth, dtype=float)
            if single:
                truth = truth[None]
            if truth.shape != (columns, self.n, self.n):
                raise ValueError(f"need one {self.n} x {self.n} truth per slope set, "
                                 f"got shape {truth.shape}")
        if counter is None:
            counter = FlopCounter()
        start = counter.total
        space = config.space
        inv_var = 1.0 / stack[0].var
        op = self.system(inv_var, space)
        precond = None
        if config.preconditioner is not None:
            precond = self.preconditioner(inv_var, space, config.preconditioner)
        b = op.rhs(stack, counter)

        traces = [
            ConvergenceTrace(method=config.method, iterations=[], flops=[], rnorm=[],
                             resid_var=[], resid_var_norm=[], strehl=[])
            for _ in stack
        ]
        base_var = None
        apply_a = op.apply
        image = None
        if truth is not None and space == "u":
            # image is w_k = K x_k, 0 for the solve's start at x = 0; kp
            # receives K p_k from each A_u call.
            image = np.zeros_like(b)
            kp = np.zeros_like(b)
            apply_a = functools.partial(op.apply, screen=kp)

        def column_flops():
            return start + (counter.total - start) // columns

        def monitor(k, x, rnorm, stepped, alpha):
            nonlocal base_var, image
            (cols,) = np.nonzero(stepped)
            flops = column_flops()
            var = norm = strehl = np.full(cols.size, math.nan)
            if truth is not None:
                if image is not None:
                    image += alpha[:, None, None] * kp  # diagnostic, not charged
                # The whole stack, frozen columns too, takes no fancy copy;
                # each row still sums in the order of a lone one.
                _, var = residual_stats(x if image is None else image, truth, self.pupil)
                if base_var is None:
                    base_var = var
                var, base = var[cols], base_var[cols]
                norm = np.divide(var, base, out=np.full(cols.size, math.nan), where=base > 0)
                strehl = strehl_ratio(var)
            rows = zip(cols.tolist(), rnorm[cols].tolist(), var.tolist(), norm.tolist(),
                       strehl.tolist())
            for col, rnorm_k, var_k, norm_k, strehl_k in rows:
                trace = traces[col]
                trace.iterations.append(k)
                trace.flops.append(flops)
                trace.rnorm.append(rnorm_k)
                trace.resid_var.append(var_k)
                trace.resid_var_norm.append(norm_k)
                trace.strehl.append(strehl_k)

        x, converged, _ = pcg_solve(
            apply_a, b, tol=config.tol, max_iter=config.max_iter,
            preconditioner=precond, counter=counter, monitor=monitor,
        )
        if space == "u":
            w_hat = x.copy()
            self.fractal.apply(w_hat, counter)
        else:
            w_hat = x
        for trace, done in zip(traces, converged):
            trace.converged = bool(done)
            trace.total_flops = column_flops()
        if single:
            return w_hat[0], traces[0]
        return w_hat, traces
