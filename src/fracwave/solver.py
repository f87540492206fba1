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

import collections
import dataclasses
import functools
import hashlib
import itertools
import logging
import math
import os
import tempfile
import time
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .fractal import FractalOperator, is_integer, scale_count
from .metrics import FlopCounter, normalized_variance, residual_stats, strehl_ratio
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


class IndefiniteOperatorError(RuntimeError):
    """The operator handed to CG is not positive definite."""


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Solver variant and stopping rule, with the CLI's and ExperimentSpec's defaults."""

    method: str = "u-pcg-opt"
    max_iter: int = 30
    tol: float = 1e-3

    def __post_init__(self):
        if self.method not in VARIANTS:
            raise ValueError(f"unknown method {self.method!r}; known methods: {sorted(VARIANTS)}")
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

    def apply(self, x, counter=None, screen=None, *, first=0) -> np.ndarray:
        """A x.  In u-space, ``screen`` may name a float64 array of x's
        shape to hold the screen K x that A_u forms on the way: it serves
        as that working buffer in place of a fresh copy of x, so the
        caller reads K x there afterwards with no copy and no second map.
        A x is the same either way.

        ``first`` goes to both multiscale maps (see ``FractalOperator``):
        for an x that is zero below that pass, A x is then exact on the
        samples of that pass or finer only.  The preconditioner probe
        uses it; every solve runs the whole maps.
        """
        x = np.asanyarray(x, dtype=float)
        f = self.fractal
        if self.space == "w":
            if screen is not None:
                raise ValueError("only a u-space operator forms a screen K x")
            out = x.copy()
            f.apply_inverse(out, counter, first=first)
            f.apply_inverse_transpose(out, counter, first=first)
            out += self.sensor.gram(x, self._cells, counter)
        else:
            if screen is None:
                screen = x.copy()
            elif screen.shape != x.shape:
                raise ValueError(f"screen buffer has shape {screen.shape}, expected {x.shape}")
            else:
                screen[...] = x
            f.apply(screen, counter, first=first)
            out = self.sensor.gram(screen, self._cells, counter)
            f.apply_transpose(out, counter, first=first)
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

    def apply(self, r, counter=None) -> np.ndarray:
        if counter is not None:
            counter.add("precond", r.size)
        return self.values * r


# Probe colours.  Pass L >= 1 places samples of three types on the
# lattice of step h = (n - 1) / 2**L, told apart by the parity of their
# lattice coordinates (y / h, x / h): cell centres C are odd on both axes,
# row-edge midpoints R even then odd, column-edge midpoints V odd then
# even.  Each type sits on its own sub-lattice of step 2h.  A column
# couples to rows of its pass or finer within a reach of (|dy|, |dx|)
# lattice steps, which depends on its type and pass.  Each type is
# coloured on its own sub-lattice with per-axis strides of floor(reach) + 1
# sub-lattice steps: same-colour columns then sit more than twice the reach
# apart on that axis, so a row that one of them reaches is nearer to it
# than to any other, per axis, and no other reaches it.
#
# At the finest pass (h = 1) the reach is derived.  K and K^-1 move a
# centre column only onto its four adjacent edge midpoints and an edge
# column nowhere; K^T and K^-T bring a finest row only its own sample and,
# for a centre, its four adjacent edges; S^T W S couples samples that
# share a cell, within 1 on each axis.  In u-space a centre column thus
# spreads within 2 on each axis (K, then S^T W S), which edge rows read
# directly and centre rows, at even offsets, read through an adjacent edge:
# reach (2, 2).  An R column spreads within 1; centre rows sit at odd dy
# and even dx, so only dy = 1 and dx <= 2 read an edge within it: reach
# (1, 2), and (2, 1) for V.  In w-space the prior term K^-T K^-1 takes a
# centre column 2 steps along one axis and an edge column only onto its
# two adjacent centres, so C reaches (2, 2) and R and V (1, 1).  The other
# passes' reaches are measured on the dense operator (``probe_reach`` in
# tests/oracles.py), on the annular pupil and with every cell weighted;
# the tests check them for p = 2..6.  Rows: passes 1 .. p - 2, pass p - 1,
# pass p.
PROBE_REACH = {
    "u": ({"C": (4, 4), "R": (3, 4), "V": (4, 3)},
          {"C": (4, 4), "R": (3, 2), "V": (2, 3)},
          {"C": (2, 2), "R": (1, 2), "V": (2, 1)}),
    "w": ({"C": (2, 2), "R": (1, 1), "V": (1, 1)},) * 3,
}

# Parities of each type's lattice coordinates (y, x); 1 is odd.
_TYPES = {"C": (1, 1), "R": (0, 1), "V": (1, 0)}


def probe_strides(space: str, level: int, p: int) -> dict[str, tuple[int, int]]:
    """Colour strides (rows, columns) of each sample type at pass
    ``level`` >= 1 of a 2**p + 1 grid, in sub-lattice steps."""
    reach = PROBE_REACH[space][max(0, level - p + 2)]
    return {kind: (math.floor(dy) + 1, math.floor(dx) + 1) for kind, (dy, dx) in reach.items()}

# Probe batches hold about this many bytes per (batch, n, n) float64 grid
# stack, which keeps a probe's working stacks in cache and a cold build's
# resident growth near one such stack per operator temporary, but never
# fewer grids than the floor, below which per-call overhead dominates (7
# grids at p=6, 4 from p=7 on).
PROBE_BATCH_BYTES = 1 << 18
PROBE_BATCH_FLOOR = 4


def _axis_colours(n: int, origin: int, count: int, spacing: int, stride: int):
    """Colours along one axis of the points origin + spacing * i, i < count.

    Colour c holds the points with i = c modulo ``stride``, span =
    spacing * stride apart.  Every grid index 0..n-1 goes to the colour's
    nearest point, on its lattice extended past the grid, a tie to the
    later one: span is even, so member m's run starts at first + span * m
    - span / 2, clipped to the grid.  The members' runs form the colour's
    owned range.  Yields (members, owned, starts): the members and the
    owned range as slices, and the offsets in the owned range where the
    members' runs start.
    """
    span = spacing * stride
    for c in range(min(stride, count)):
        first = origin + spacing * c
        members = len(range(c, count, stride))
        bounds = np.clip(first - span // 2 + span * np.arange(members + 1), 0, n)
        yield (slice(first, first + span * (members - 1) + 1, span),
               slice(bounds[0], bounds[-1]), bounds[:-1] - bounds[0])


def _probe_colours(n: int, space: str):
    """(level, y colour, x colour) for every colour of every pass, coarse
    to fine, each axis colour as ``_axis_colours`` yields it.  Pass 0 is
    four single-corner colours, each owning the whole grid."""
    p = scale_count(n)
    corners = [(slice(k, k + 1), slice(0, n), np.zeros(1, dtype=np.intp)) for k in (0, n - 1)]
    for y, x in itertools.product(corners, corners):
        yield 0, y, x
    for level in range(1, p + 1):
        step = (n - 1) >> level
        centres = 1 << (level - 1)  # per axis; edge lines are one more
        for kind, strides in probe_strides(space, level, p).items():
            y, x = (_axis_colours(n, odd * step, centres + 1 - odd, 2 * step, stride)
                    for odd, stride in zip(_TYPES[kind], strides))
            for y_colour, x_colour in itertools.product(y, x):
                yield level, y_colour, x_colour


def _outside(y, rows: slice, cols: slice) -> int:
    """Nonzero entries of the grid y outside the block rows x cols."""
    return (np.count_nonzero(y[: rows.start]) + np.count_nonzero(y[rows.stop:])
            + np.count_nonzero(y[rows, : cols.start]) + np.count_nonzero(y[rows, cols.stop:]))


def operator_diagonal_stats(op: NormalOperator):
    """diag(A) and row square-sums of a normal operator by colored probing.

    Column-partition probing (Curtis, Powell & Reid 1974), with colours
    taken from the refinement passes and, within a pass, from each sample
    type's sub-lattice (see ``PROBE_REACH``).  Each probe applies A to the
    sum of one colour's columns.  A row placed at that pass or finer meets
    at most one of them, its owner, so it reads the entry A[row, owner]
    exactly.  Rows from coarser passes are skipped: A is symmetric, so
    their entries are read from the coarser probe instead.  The owner
    gets the square of every entry it is read from, summed block by block
    over its run of rows and columns.  A row from a strictly finer pass
    also gets that square, as its entry against the owner.  That takes
    65 probes per interior u-space pass (colours C 5x5, R 4x5, V 5x4), 49
    at pass p - 1 and 21 at pass p, and 17 per w-space pass: 208 u-space
    probes at p=6, O(N log N) work in all.

    The colours of all passes are listed up front and go through A as
    consecutive batches of as many grids as fit ``PROBE_BATCH_BYTES``,
    and at least ``PROBE_BATCH_FLOOR``; only the last batch may be
    smaller, so the multiscale maps bind at most two programs per build.
    One basis stack of the batch size is refilled in place, and a u-space
    operator gets one screen buffer of the same size.  Each batch's maps
    run only over the passes from its coarsest colour's on.  Each pass
    logs one INFO progress line, with its strides, when its last probe is
    read, timed from the previous pass's line (a batch that spans two
    passes counts toward the first), and the build one summary with its
    batch count and largest stack.

    A row of the probe's pass or finer outside its colour's owned block
    must read exactly zero; a nonzero there means the operator couples
    farther than the colour stride allows, and raises RuntimeError.
    """
    n = op.n
    p = scale_count(n)
    colours = list(_probe_colours(n, op.space))
    batch = min(len(colours), max(PROBE_BATCH_FLOOR, PROBE_BATCH_BYTES // (8 * n * n)))
    start = pass_start = time.perf_counter()
    diag = np.zeros((n, n))
    rowsq = np.zeros((n, n))
    finer = np.zeros((n, n))  # squares read at the current pass, for its finer rows
    sq = np.empty((n, n))
    basis = np.zeros((batch, n, n))
    screen = np.empty_like(basis) if op.space == "u" else None
    probes = collections.Counter(level for level, _, _ in colours)
    unread = probes.copy()
    for at in range(0, len(colours), batch):
        chunk = colours[at:at + batch]
        grids = basis[: len(chunk)]
        for grid, (_, (y_members, *_), (x_members, *_)) in zip(grids, chunk):
            grid[y_members, x_members] = 1.0
        ys = op.apply(grids, screen=None if screen is None else screen[: len(chunk)],
                      first=chunk[0][0])
        for grid, y, (level, y_colour, x_colour) in zip(grids, ys, chunk):
            y_members, rows, y_starts = y_colour
            x_members, cols, x_starts = x_colour
            if level:
                coarse = (n - 1) >> (level - 1)
                y[::coarse, ::coarse] = 0.0  # rows of coarser passes
            if _outside(y, rows, cols):
                raise RuntimeError(
                    f"pass {level} probe reached a row outside its colour stride"
                )
            np.multiply(y, y, out=sq)
            diag[y_members, x_members] = y[y_members, x_members]
            block = np.add.reduceat(sq[rows, cols], y_starts, axis=0)
            rowsq[y_members, x_members] += np.add.reduceat(block, x_starts, axis=1)
            finer += sq
            grid[y_members, x_members] = 0.0
            unread[level] -= 1
            if unread[level]:
                continue
            # The pass's last probe: a row from a strictly finer pass gets
            # every square it read; the lattice of this pass holds the others.
            step = (n - 1) >> level
            finer[::step, ::step] = 0.0
            rowsq += finer
            finer[...] = 0.0
            strides = "corners"
            if level:
                strides = "strides " + ", ".join(f"{kind} {sy}x{sx}" for kind, (sy, sx)
                                                 in probe_strides(op.space, level, p).items())
            log.info("%s-space probe pass %d/%d: %s; %d probes in %.3f s",
                     op.space, level, p, strides, probes[level], time.perf_counter() - pass_start)
            pass_start = time.perf_counter()
    log.info("built %s-space preconditioner statistics at p=%d: %d probes in %d batches "
             "of at most %d grids (%d KiB) in %.3f s", op.space, p, len(colours),
             -(-len(colours) // batch), batch, basis.nbytes >> 10, time.perf_counter() - start)
    return diag, rowsq


def pcg_solve(apply_a, b, *, tol: float, max_iter: int,
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
    the L p_k that ``apply_a`` forms.  A monitor may keep ``rnorm`` and
    ``stepped``: the solve never writes to them.  Returns (x, converged,
    column_iterations): ``converged`` per column, ``column_iterations``
    the sum over columns of the iterations each column stepped (a lone
    system's iteration count).  A nonpositive curvature p . A p in a
    running column aborts with IndefiniteOperatorError.
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
    iterations = column_iterations = 0
    rho_prev = None
    p = None
    # count_nonzero: a third of the call overhead of .any() on small masks
    while iterations < max_iter and np.count_nonzero(live):
        z = r if preconditioner is None else preconditioner.apply(r, counter)
        rho = dot(r, z)
        add("vector", dot_flops)
        live = live & (rho != 0.0)
        running = np.count_nonzero(live)
        if not running:
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
        column_iterations += running
        rnorm = np.sqrt(dot(r, r))
        add("vector", dot_flops)
        stepped = live
        live = stepped & ~(rnorm <= tol * bnorm)
        if monitor is not None:
            monitor(iterations, x, rnorm, stepped, alpha)
    return x, ~live, column_iterations


@dataclasses.dataclass
class ConvergenceTrace:
    """What one solve measured per iteration; row 0 is the initial state.

    ``flops`` is cumulative, ``total_flops`` adds work done after the last
    iteration (e.g. mapping generators to a screen), and ``resid_var`` is
    NaN without a truth.  Derived from it on read: ``resid_var_norm``, each
    value over the iteration-0 one (``normalized_variance``), and the
    Marechal ``strehl``, exp(-resid_var) (``strehl_ratio``).
    """

    flops: list[int]
    rnorm: list[float]
    resid_var: list[float]
    converged: bool = False
    total_flops: int = 0

    @property
    def iterations(self) -> list[int]:
        return list(range(len(self.flops)))

    @property
    def resid_var_norm(self) -> list[float]:
        return normalized_variance(self.resid_var).tolist()

    @property
    def strehl(self) -> list[float]:
        var = np.asarray(self.resid_var, dtype=float)
        return (var if np.isnan(var).all() else strehl_ratio(var)).tolist()


class CacheEntryError(ValueError):
    """A preconditioner cache entry that cannot be used as it stands."""


# Layout of a cache entry: the key it was built for and one float64
# array, stats = (diag, rowsq).  The key hashes this number, so bumping
# it when the layout changes turns every older entry into a key mismatch.
CACHE_FORMAT = 2


def _read_stats_entry(path: Path, n: int, key: str):
    """(diag, rowsq) from a cache entry, checked like any outside input.

    Raises CacheEntryError unless the file is an npz archive built for
    ``key`` whose ``stats`` holds diag and rowsq as finite, positive
    float64 grids of side n.  Each member's npy header is checked before
    its data is read, since np.load allocates whatever it declares.
    """
    expected = {"key": ((), np.array(key).dtype), "stats": ((2, n, n), np.dtype(np.float64))}
    # The entry's own handle: np.load stops owning a path's file once it
    # sees the zip magic, and would leave it open if the archive is cut.
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise CacheEntryError("not an npz archive")
            with data:
                if not {"key.npy", "stats.npy"} <= set(data.zip.namelist()):
                    raise CacheEntryError("no key.npy or stats.npy member")
                for name, want in expected.items():
                    with data.zip.open(f"{name}.npy") as member:
                        version = np.lib.format.read_magic(member)
                        header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                                  else np.lib.format.read_array_header_2_0)
                        shape, _, dtype = header(member)
                    if (shape, dtype) != want:
                        raise CacheEntryError(f"{name} is {dtype} of shape {shape}, "
                                              f"expected {want[1]} of shape {want[0]}")
                stored_key, stats = data["key"], data["stats"]
    except CacheEntryError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise CacheEntryError(f"unreadable npz archive ({exc})") from exc
    if str(stored_key) != key:
        raise CacheEntryError("built for another key")
    if not np.all(np.isfinite(stats) & (stats > 0)):
        raise CacheEntryError("stats has non-finite or non-positive values")
    return stats[0], stats[1]


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
    ``CACHE_FORMAT``, the space, ``FractalOperator.coefficients``, the
    pupil and the noise weights.  The disk holds one file per space and
    p, ``diag-{space}-p{p}.npz``; it stores its full key and is rebuilt
    and overwritten when that key does not match.
    The disk cache lives in ``cache_dir``; None does not turn it off but
    picks ``$FRACWAVE_CACHE``, or ``~/.cache/fracwave`` when that is
    unset or empty.  A cache that cannot be written costs a warning, not
    the solve.
    """

    def __init__(self, p: int, r0: float = 1.0, cache_dir=None):
        if not is_integer(p):
            raise ValueError(f"p must be an integer, got {p!r}")
        self.p = int(p)
        self.n = (1 << self.p) + 1
        self.fractal = FractalOperator(kolmogorov(float(r0), float(self.n - 1)), self.p)
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

    def _stats_key(self, op: NormalOperator) -> str:
        h = hashlib.sha256()
        h.update(f"{CACHE_FORMAT} {op.space}".encode())
        for values in op.fractal.coefficients:
            h.update(values.tobytes())
        h.update(op.sensor.pupil.subap_x.astype(np.int64).tobytes())
        h.update(op.sensor.pupil.subap_y.astype(np.int64).tobytes())
        h.update(op.inv_var.tobytes())
        return h.hexdigest()

    def _diagonal_stats(self, op: NormalOperator):
        key = self._stats_key(op)
        if key in self._stats_cache:
            return self._stats_cache[key]
        path = self.cache_dir / f"diag-{op.space}-p{self.p}.npz"
        stats = None
        if path.exists():
            try:
                stats = _read_stats_entry(path, self.n, key)
            except CacheEntryError as exc:
                log.warning("rebuilding unusable preconditioner cache entry %s: %s", path, exc)
            else:
                log.debug("preconditioner cache hit %s", path)
        if stats is None:
            stats = operator_diagonal_stats(op)
            tmp = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz")
                os.close(fd)
                np.savez(tmp, key=np.array(key), stats=np.stack(stats))
                os.replace(tmp, path)
            except OSError as exc:
                # An unusable cache location costs the next process a rebuild, not this solve.
                log.warning("cannot write preconditioner cache entry %s, keeping the "
                            "statistics in memory: %s", path, exc)
            finally:
                if tmp is not None and os.path.exists(tmp):
                    os.unlink(tmp)
        self._stats_cache[key] = stats
        return stats

    def preconditioner(self, inv_var, space: str, kind: str) -> DiagonalPreconditioner:
        """Jacobi values 1 / diag(A), or optimal values diag(A) / rowsq(A).

        Both statistics are positive: diag(A_u) >= 1 from the identity
        term, diag(A_w) >= ||Kinv e_j||^2 > 0 as the invertible Kinv has
        no zero column, and rowsq >= diag^2.  Entries read from disk are
        checked for it.  The kind, space and weights are checked before
        the cache is read or written.
        """
        if kind not in ("jacobi", "optimal"):
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        diag, rowsq = self._diagonal_stats(self.system(inv_var, space))
        values = 1.0 / diag if kind == "jacobi" else diag / rowsq
        return DiagonalPreconditioner(values)

    def reconstruct(self, slopes, config: SolverConfig, truth=None,
                    counter: FlopCounter | None = None):
        """Estimate the wavefront from slopes; returns (w_hat, trace).

        ``slopes`` is one SlopeSet, or a sequence of slope sets that share
        their noise variances; a sequence returns a (B, n, n) stack of
        estimates and one trace per slope set, and takes ``truth`` as a
        matching stack.  All of them go through one PCG call, each slope
        set along its own recurrence (see ``pcg_solve``), so each trace is
        the one a solve on its own would record.

        The estimate keeps its piston component; piston-blind comparison is
        the metrics' job.  With a finite ``truth`` the trace records the
        piston-removed residual variance per iteration.  In u-space that needs
        the screen K x_k of each iterate; it is carried by linearity, w_0 = 0
        and w_k = w_{k-1} + alpha_k K p_k, from the screen K p_k that A_u
        forms anyway, so a monitored iteration costs the same two maps as an
        unmonitored one plus one axpy.  That image is diagnostic work and not
        charged; it agrees with a direct K x_k to roundoff.  The returned
        estimate is K x applied directly, and charged.  Flops are the
        counter's growth in this call, whatever it held before, divided by
        the stack size: every charged operation runs on every slope set, so
        this is exact, and a slope set that converged early is charged for
        the iterations it sat out in ``total_flops`` only.
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
            if not np.all(np.isfinite(truth)):
                raise ValueError("truth holds non-finite samples")
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

        apply_a = op.apply
        image = None
        if truth is not None and space == "u":
            # image is w_k = K x_k, 0 for the solve's start at x = 0; kp
            # receives K p_k from each A_u call.
            image = np.zeros_like(b)
            kp = np.zeros_like(b)
            apply_a = functools.partial(op.apply, screen=kp)

        def column_flops():
            return (counter.total - start) // columns

        # One stack-wide (flops, rnorm, resid_var, stepped) per monitor call;
        # a column's trace is the prefix where it stepped: it never restarts.
        records = []

        def monitor(k, x, rnorm, stepped, alpha):
            nonlocal image
            var = np.full(columns, math.nan)
            if truth is not None:
                if image is not None:
                    image += alpha[:, None, None] * kp  # diagnostic, not charged
                # The whole stack, frozen columns too, takes no fancy copy;
                # each row still sums in the order of a lone one.
                _, var = residual_stats(x if image is None else image, truth, self.pupil)
            records.append((column_flops(), rnorm, var, stepped))

        x, converged, _ = pcg_solve(
            apply_a, b, tol=config.tol, max_iter=config.max_iter,
            preconditioner=precond, counter=counter, monitor=monitor,
        )
        if space == "u":
            w_hat = x.copy()
            self.fractal.apply(w_hat, counter)
        else:
            w_hat = x
        flops, rnorm, var, stepped = zip(*records)
        rnorm, var = np.array(rnorm).T.tolist(), np.array(var).T.tolist()
        rows = np.count_nonzero(stepped, axis=0).tolist()
        traces = [ConvergenceTrace(list(flops[:m]), rnorm[c][:m], var[c][:m],
                                   bool(converged[c]), column_flops()) for c, m in enumerate(rows)]
        if single:
            return w_hat[0], traces[0]
        return w_hat, traces
