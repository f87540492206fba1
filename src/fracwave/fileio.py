"""Persistent file formats.

Grid binary: magic b"FRIM", uint32 version (= 1), uint32 side n, then
n * n float64 samples, row major, all little endian.

CSV files carry one leading comment line of the form
``# fracwave key=value ...`` recording the parameters that produced
them, then a header row.  Slope files use the columns
``isub,ix,iy,dx,dy,var``.
"""

from __future__ import annotations

import csv
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


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _open_csv(path, meta):
    fh = open(path, "w", newline="")
    fh.write(_comment(meta) + "\n")
    return fh, csv.writer(fh)


def write_slopes_csv(path, slopes: SlopeSet, meta: dict):
    # The bytes csv.writer would write (no field needs quoting, lines end
    # in \r\n), joined a block of rows at a time: one join over all 45,028
    # rows of a p=8 file holds ~13 MB of strings at once.
    columns = (slopes.subap_x.astype(int), slopes.subap_y.astype(int),
               slopes.sx, slopes.sy, slopes.var)
    with open(path, "w", newline="") as fh:
        fh.write(_comment(meta) + "\n")
        fh.write(",".join(SLOPE_COLUMNS) + "\r\n")
        for start in range(0, slopes.nsub, _ROWS_PER_WRITE):
            rows = zip(*(c[start:start + _ROWS_PER_WRITE].tolist() for c in columns))
            fh.write("".join(f"{i},{ix},{iy},{dx:.17g},{dy:.17g},{var:.17g}\r\n"
                             for i, (ix, iy, dx, dy, var) in enumerate(rows, start)))


def read_slopes_csv(path) -> tuple[SlopeSet, dict]:
    """Slopes and comment metadata of a slope file, checked as untrusted input.

    The comment line is optional.  Every malformed file raises ValueError
    naming the path.
    """
    meta: dict = {}
    with open(path) as fh:
        line = fh.readline()
        if line.startswith("#"):
            meta = parse_comment(line)
            line = fh.readline()
        if not line.strip():
            raise ValueError(f"{path}: missing slope header row")
        header = line.strip().split(",")
        if header != SLOPE_COLUMNS:
            raise ValueError(f"{path}: unexpected slope columns {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body warns
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed slope row: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"{path}: no slope rows")
    if data.shape[1] != 6:
        raise ValueError(f"{path}: expected 6 columns, got {data.shape[1]}")
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{path}: isub must number the rows 0..{len(data) - 1} in order")
    index = data[:, 1:3]
    if not np.all(np.isfinite(index) & (index == np.trunc(index))):
        raise ValueError(f"{path}: subaperture indices ix, iy must be integers")
    slopes = SlopeSet(
        subap_x=data[:, 1].astype(int),
        subap_y=data[:, 2].astype(int),
        sx=data[:, 3],
        sy=data[:, 4],
        var=data[:, 5],
    )
    return slopes.validate(), meta


def write_trace_csv(path, trace, meta: dict):
    fh, writer = _open_csv(path, meta)
    with fh:
        writer.writerow(["iter", "flops", "rnorm", "resid_var", "resid_var_norm", "strehl"])
        for it, flops, rnorm, var, var_norm, strehl in trace.rows():
            writer.writerow([it, flops, _fmt(rnorm), _fmt(var), _fmt(var_norm), _fmt(strehl)])


def write_curves_csv(path, result, meta: dict):
    """Median convergence curves of a Monte-Carlo simulation."""
    fh, writer = _open_csv(path, meta)
    with fh:
        writer.writerow(["method", "iter", "flops", "resid_var_median", "resid_var_norm_median"])
        for method in result.spec.methods:
            flops = np.median(result.iteration_flops[method], axis=0)
            med_var = np.median(result.resid_var[method], axis=0)
            med_norm = np.median(result.resid_var_norm[method], axis=0)
            for k in range(med_var.size):
                writer.writerow([method, k, int(flops[k]), _fmt(med_var[k]), _fmt(med_norm[k])])


def write_sf_csv(path, radii, measured, expected, meta: dict):
    fh, writer = _open_csv(path, meta)
    with fh:
        writer.writerow(["r", "D_measured", "D_theory"])
        for r, m, t in zip(radii, measured, expected):
            writer.writerow([_fmt(r), _fmt(m), _fmt(t)])


def write_bench_csv(path, rows, meta: dict):
    fh, writer = _open_csv(path, meta)
    with fh:
        writer.writerow(["p", "n", "samples", "op", "flops", "flops_per_sample"])
        for row in rows:
            writer.writerow([row.p, row.n, row.samples, row.op, row.flops,
                             _fmt(row.flops / row.samples)])


def ensure_parent(path):
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"output directory does not exist: {parent}")
