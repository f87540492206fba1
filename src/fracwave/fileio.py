"""Persistent file formats.

Grid binary: magic b"FRIM", uint32 version (= 1), uint32 side n, then
n * n float64 samples, row major, all little endian.

CSV tables: a ``# fracwave key=value ...`` comment line ending in \n
records the parameters that produced the file, then a header row and the
data rows follow, each ending in \r\n.  Fields are unquoted and split by
commas: integers in decimal, floats as ``format(x, ".17g")`` (exact on
reading back), method names as they are.  These are csv.writer's bytes.
"""

from __future__ import annotations

import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .sensor import SlopeSet

GRID_MAGIC = b"FRIM"
GRID_VERSION = 1
_HEADER = struct.Struct("<4sII")
SLOPE_COLUMNS = ["isub", "ix", "iy", "dx", "dy", "var"]
_ROWS_PER_WRITE = 1024


def write_grid(path, values):
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"grid must be square, got shape {values.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(GRID_MAGIC, GRID_VERSION, values.shape[0]))
        fh.write(values.tobytes())


def read_grid(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated grid header")
        magic, version, side = _HEADER.unpack(header)
        if magic != GRID_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {GRID_MAGIC!r}")
        if version != GRID_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = side * side * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f8").reshape(side, side).astype(float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: grid contains non-finite samples")
    return values


def _comment(meta: dict) -> str:
    parts = " ".join(f"{k}={v}" for k, v in meta.items())
    return f"# fracwave {parts}".rstrip()


def parse_comment(line: str) -> dict:
    """Key=value pairs from a ``# fracwave ...`` comment line."""
    meta = {}
    body = line.lstrip("#").strip()
    for token in body.split():
        if "=" in token:
            key, value = token.split("=", 1)
            meta[key] = value
    return meta


def _write_table(path, meta: dict, header, columns, lines):
    """Write ``columns``, one sequence per field; ``lines`` renders row tuples.

    Rows are listed and joined a block at a time: one join over all 45,028
    rows of a p=8 slope file holds ~13 MB of strings at once.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(_comment(meta) + "\n")
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
            rows = zip(*(c[start:start + _ROWS_PER_WRITE].tolist() for c in columns))
            fh.write("\r\n".join(lines(rows)) + "\r\n")


def write_slopes_csv(path, slopes: SlopeSet, meta: dict):
    columns = (np.arange(slopes.nsub), slopes.subap_x.astype(int), slopes.subap_y.astype(int),
               slopes.sx, slopes.sy, slopes.var)
    _write_table(path, meta, SLOPE_COLUMNS, columns, lambda rows: (
        f"{i},{ix},{iy},{dx:.17g},{dy:.17g},{var:.17g}" for i, ix, iy, dx, dy, var in rows))


def read_slopes_csv(path) -> tuple[SlopeSet, dict]:
    """Slopes and comment metadata of a slope file, checked as untrusted input.

    The comment line is optional.  Every malformed file raises ValueError
    naming the path.
    """
    try:
        return _parse_slopes(path)
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ValueError(f"{path}: {exc}") from exc


def _parse_slopes(path):
    meta: dict = {}
    with open(path) as fh:
        line = fh.readline()
        skip = 1
        if line.startswith("#"):
            meta = parse_comment(line)
            line = fh.readline()
            skip = 2
    if not line.strip():
        raise ValueError("missing slope header row")
    header = line.strip().split(",")
    if header != SLOPE_COLUMNS:
        raise ValueError(f"unexpected slope columns {header}")
    # By path, not by handle: numpy then reads the body in chunks, not line
    # by line, which takes ~12% less time on a p=8 file's 45,028 rows.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body warns
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except ValueError as exc:
        raise ValueError(f"malformed slope row: {exc}") from exc
    if data.size == 0:
        raise ValueError("no slope rows")
    if data.shape[1] != 6:
        raise ValueError(f"expected 6 columns, got {data.shape[1]}")
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"isub must number the rows 0..{len(data) - 1} in order")
    index = data[:, 1:3]
    if not np.all(np.isfinite(index) & (index == np.trunc(index))):
        raise ValueError("subaperture indices ix, iy must be integers")
    slopes = SlopeSet(
        subap_x=data[:, 1].astype(int),
        subap_y=data[:, 2].astype(int),
        sx=data[:, 3],
        sy=data[:, 4],
        var=data[:, 5],
    )
    return slopes.validate(), meta


def write_trace_csv(path, trace, meta: dict):
    header = ["iter", "flops", "rnorm", "resid_var", "resid_var_norm", "strehl"]
    columns = [getattr(trace, name) for name in ("iterations", *header[1:])]
    _write_table(path, meta, header, columns, lambda rows: (
        f"{k},{flops},{rnorm:.17g},{var:.17g},{norm:.17g},{strehl:.17g}"
        for k, flops, rnorm, var, norm, strehl in rows))


def write_curves_csv(path, result, meta: dict):
    """Median convergence curves of a Monte-Carlo simulation."""
    methods, steps = result.spec.methods, result.spec.max_iter + 1
    columns = (np.repeat(methods, steps), np.tile(np.arange(steps), len(methods)),
               np.concatenate([np.median(result.iteration_flops[m], axis=0) for m in methods]),
               np.concatenate([result.median_variance(m) for m in methods]),
               np.concatenate([result.median_normalized(m) for m in methods]))
    header = ["method", "iter", "flops", "resid_var_median", "resid_var_norm_median"]
    _write_table(path, meta, header, columns, lambda rows: (
        f"{method},{k},{int(flops)},{var:.17g},{norm:.17g}"
        for method, k, flops, var, norm in rows))


def write_sf_csv(path, radii, measured, expected, meta: dict):
    _write_table(path, meta, ["r", "D_measured", "D_theory"], (radii, measured, expected),
                 lambda rows: (f"{r:.17g},{m:.17g},{t:.17g}" for r, m, t in rows))


def check_output(path):
    """Refuse an output path that names a directory or whose directory is missing."""
    if Path(path).is_dir() or str(path).endswith(("/", os.sep)):
        raise ValueError(f"output path names a directory: {path}")
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"output directory does not exist: {parent}")
