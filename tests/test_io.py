"""On-disk formats: binary grids and commented CSV tables."""

import csv
import io
import math
import re

import numpy as np
import pytest

from fracwave.fileio import (
    check_output,
    parse_comment,
    read_grid,
    read_slopes_csv,
    write_curves_csv,
    write_grid,
    write_sf_csv,
    write_slopes_csv,
    write_trace_csv,
)
from fracwave.harness import ExperimentSpec, SimulationResult, run_simulation
from fracwave.sensor import SlopeSet, make_pupil, simulate_measurements
from fracwave.solver import ConvergenceTrace, Reconstructor, SolverConfig


@pytest.fixture()
def grid():
    return np.random.default_rng(0).normal(size=(9, 9))


def test_grid_round_trip_is_exact(tmp_path, grid):
    path = tmp_path / "w.bin"
    write_grid(path, grid)
    assert path.read_bytes()[:4] == b"FRIM"
    assert path.stat().st_size == 4 + 4 + 4 + 81 * 8
    np.testing.assert_array_equal(read_grid(path), grid)


def test_grid_rejects_non_square(tmp_path):
    with pytest.raises(ValueError, match="square"):
        write_grid(tmp_path / "w.bin", np.zeros((3, 4)))


# Each corruption and the refusal it must meet.
GRID_CORRUPTIONS = {
    "magic": "bad magic",
    "version": "unsupported version",
    "truncate": "payload bytes",
    "short-header": "truncated grid header",
    "nan-sample": "non-finite",
}


@pytest.mark.parametrize("mangle", sorted(GRID_CORRUPTIONS))
def test_grid_read_rejects_corruption(tmp_path, grid, mangle):
    path = tmp_path / "w.bin"
    write_grid(path, grid)
    raw = bytearray(path.read_bytes())
    if mangle == "magic":
        raw[:4] = b"JUNK"
    elif mangle == "version":
        raw[4] = 9
    elif mangle == "truncate":
        raw = raw[:100]
    elif mangle == "short-header":
        raw = raw[:11]
    else:
        raw[12 + 8 * 40:12 + 8 * 41] = np.array(np.nan, dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=GRID_CORRUPTIONS[mangle]):
        read_grid(path)


def test_grid_read_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_grid(tmp_path / "absent.bin")


# -- slope tables -------------------------------------------------------------


def test_slopes_round_trip(tmp_path, grid):
    pup = make_pupil(9)
    slopes = simulate_measurements(grid, pup, 0.7, np.random.default_rng(1))
    path = tmp_path / "slopes.csv"
    write_slopes_csv(path, slopes, {"p": 3, "noise_std": 0.7})
    loaded, meta = read_slopes_csv(path)
    for field in ("subap_x", "subap_y", "sx", "sy", "var"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(slopes, field))
    assert meta == {"p": "3", "noise_std": "0.7"}
    assert path.read_text().splitlines()[1] == "isub,ix,iy,dx,dy,var"


# Floats whose .17g forms differ in kind: signed zero, subnormals, long
# mantissas, exponents, and (for the derived tables) nan.
EXTREMES = [-0.0, 0.0, 1.0, -3.0, 5e-324, 2.2250738585072009e-308,
            0.1, 1 / 3, -2.7182818284590451, 1e300, 123456789012345678.0]


def _csv_writer_bytes(meta_line, header, rows):
    expected = io.StringIO(newline="")
    expected.write(meta_line + "\n")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    return expected.getvalue().encode()


def _g(x):
    return format(float(x), ".17g")


def test_slopes_write_matches_csv_writer(tmp_path):
    # The four table writers join f-strings in blocks of rows; their bytes
    # must stay those csv.writer writes for the same rows, extreme values
    # included, over enough rows to span several blocks.
    count = 5000
    values = np.resize(EXTREMES, count)
    slopes = SlopeSet(
        subap_x=np.arange(count), subap_y=np.arange(count)[::-1].copy(),
        sx=values, sy=values[::-1].copy(), var=np.abs(values) + 5e-324,
    )
    path = tmp_path / "slopes.csv"
    write_slopes_csv(path, slopes, {"p": 3})
    rows = [[i, int(slopes.subap_x[i]), int(slopes.subap_y[i])]
            + [_g(a[i]) for a in (slopes.sx, slopes.sy, slopes.var)] for i in range(count)]
    data = path.read_bytes()
    header = ["isub", "ix", "iy", "dx", "dy", "var"]
    assert data == _csv_writer_bytes("# fracwave p=3", header, rows)
    for rendered in (b",-0,", b",1,", b",4.9406564584124654e-324", b",1.2345678901234568e+17"):
        assert rendered in data

    # The derived columns: resid_var over its first value, and exp(-resid_var)
    # where the variances are those of a truth, or nan throughout without one.
    flops = [7 * k + 2**62 for k in range(count)]
    floats = np.resize(EXTREMES + [math.nan], count).tolist()
    header = ["iter", "flops", "rnorm", "resid_var", "resid_var_norm", "strehl"]
    truth_var = np.abs(np.resize(EXTREMES[::-1], count))
    for var, norm, strehl in ((truth_var, truth_var / truth_var[0], np.exp(-truth_var)),
                              ([math.nan] * count,) * 3):
        write_trace_csv(path, ConvergenceTrace(flops, floats, list(var)), {"method": "u-cg"})
        rows = [[k, flops[k]] + [_g(c[k]) for c in (floats, var, norm, strehl)]
                for k in range(count)]
        assert path.read_bytes() == _csv_writer_bytes("# fracwave method=u-cg", header, rows)
    assert b",nan,nan,nan\r\n" in path.read_bytes()

    methods, steps = ("w-cg", "u-pcg-opt"), 3000
    spec = ExperimentSpec(p=3, methods=methods, max_iter=steps - 1, trials=3)
    block = np.resize(np.roll(EXTREMES, -2), (3, steps))  # rows start positive
    result = SimulationResult(spec, {m: 1e6 * np.abs(block) + 0.75 for m in methods},
                              {m: block for m in methods}, {})
    write_curves_csv(path, result, {"p": 3})
    header = ["method", "iter", "flops", "resid_var_median", "resid_var_norm_median"]
    rows = []
    for m in methods:
        flops = np.median(result.iteration_flops[m], axis=0)
        var, norm = result.median_variance(m), result.median_normalized(m)
        rows += [[m, k, int(flops[k]), _g(var[k]), _g(norm[k])] for k in range(steps)]
    assert path.read_bytes() == _csv_writer_bytes("# fracwave p=3", header, rows)

    radii = np.arange(1, count + 1) / 7
    write_sf_csv(path, radii, values, values[::-1], {"trials": 10})
    rows = [[_g(r), _g(m), _g(t)] for r, m, t in zip(radii, values, values[::-1])]
    expected = _csv_writer_bytes("# fracwave trials=10", ["r", "D_measured", "D_theory"], rows)
    assert path.read_bytes() == expected


def _slope_file(tmp_path, grid, edit=None):
    """A valid p=3 slope file, its lines passed through ``edit`` first."""
    pup = make_pupil(9)
    slopes = simulate_measurements(grid, pup, 0.7, np.random.default_rng(1))
    path = tmp_path / "slopes.csv"
    write_slopes_csv(path, slopes, {"p": 3, "noise_std": 0.7})
    if edit is not None:
        lines = path.read_text().splitlines()
        # A lone surrogate such as "\udce9" is written as the raw byte 0xe9.
        path.write_text("\n".join(edit(lines)) + "\n", errors="surrogateescape")
    return path


def _set_field(lines, row, column, value):
    fields = lines[row].split(",")
    fields[column] = value
    return lines[:row] + [",".join(fields)] + lines[row + 1:]


# Each edit turns a valid file into one read_slopes_csv must refuse.
BAD_SLOPE_FILES = {
    "missing-header": lambda lines: lines[:1] + lines[2:],
    "header-only-comment": lambda lines: lines[:1],
    "wrong-header": lambda lines: [lines[0], "isub,ix,iy,dx,dy,variance"] + lines[2:],
    "non-numeric-field": lambda lines: _set_field(lines, 4, 3, "abc"),
    "short-row": lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:],
    "long-row": lambda lines: lines[:4] + [lines[4] + ",1.0"] + lines[5:],
    "short-first-row": lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
    "five-field-rows": lambda lines: lines[:2] + [line.rsplit(",", 1)[0] for line in lines[2:]],
    "seven-field-rows": lambda lines: lines[:2] + [line + ",1.0" for line in lines[2:]],
    "empty-body": lambda lines: lines[:2],
    "nan-dx": lambda lines: _set_field(lines, 3, 3, "nan"),
    "inf-var": lambda lines: _set_field(lines, 3, 5, "inf"),
    "zero-var": lambda lines: _set_field(lines, 3, 5, "0"),
    "negative-var": lambda lines: _set_field(lines, 3, 5, "-0.49"),
    "fractional-ix": lambda lines: _set_field(lines, 3, 1, "3.7"),
    "fractional-iy": lambda lines: _set_field(lines, 3, 2, "2.5"),
    "nan-isub": lambda lines: _set_field(lines, 3, 0, "nan"),
    "out-of-range-isub": lambda lines: _set_field(lines, 3, 0, "99999"),
    "non-utf8-comment": lambda lines: [lines[0] + " note=caf\udce9"] + lines[1:],
    "non-utf8-header": lambda lines: [lines[0], lines[1] + "\udce9"] + lines[2:],
    "non-utf8-body": lambda lines: _set_field(lines, 3, 3, "\udce9"),
}


@pytest.mark.parametrize("kind", sorted(BAD_SLOPE_FILES))
def test_slopes_read_rejects_malformed_file(tmp_path, grid, kind):
    path = _slope_file(tmp_path, grid, BAD_SLOPE_FILES[kind])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_slopes_csv(path)


def test_slopes_read_accepts_integral_float_indices(tmp_path, grid):
    reference, _ = read_slopes_csv(_slope_file(tmp_path, grid))
    path = _slope_file(tmp_path, grid, lambda lines: _set_field(lines, 2, 1, "3.0"))
    loaded, _ = read_slopes_csv(path)
    assert int(loaded.subap_x[0]) == 3
    np.testing.assert_array_equal(loaded.subap_x[1:], reference.subap_x[1:])


def test_comment_line_parsing():
    assert parse_comment("# fracwave a=1 b=x") == {"a": "1", "b": "x"}
    # anything else is simply data with no metadata attached
    assert parse_comment("not a comment") == {}
    assert parse_comment("# fracwave") == {}


# -- derived tables -----------------------------------------------------------


def test_trace_csv_layout(tmp_path, grid):
    pup = make_pupil(9)
    slopes = simulate_measurements(grid, pup, 1.0, np.random.default_rng(2))
    rec = Reconstructor(3, cache_dir=tmp_path / "cache")
    _, trace = rec.reconstruct(slopes, SolverConfig("u-cg", max_iter=4, tol=1e-12), truth=grid)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace, {"method": "u-cg"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# fracwave method=u-cg"
    assert lines[1] == "iter,flops,rnorm,resid_var,resid_var_norm,strehl"
    assert len(lines) == 2 + len(trace.iterations)


def test_curves_csv_layout(tmp_path):
    spec = ExperimentSpec(p=3, methods=("u-cg",), max_iter=3, tol=1e-6, trials=2, seed=1)
    res = run_simulation(spec, cache_dir=tmp_path / "cache")
    path = tmp_path / "curves.csv"
    write_curves_csv(path, res, {"p": 3})
    lines = path.read_text().splitlines()
    assert lines[1] == "method,iter,flops,resid_var_median,resid_var_norm_median"
    # one row per method and iteration, including iteration zero
    assert len(lines) == 2 + len(spec.methods) * (spec.max_iter + 1)
    assert all(line.startswith("u-cg,") for line in lines[2:])


def test_sf_csv_layout(tmp_path):
    radii = np.array([1, 2, 3])
    measured = np.array([6.0, 20.0, 40.0])
    expected = np.array([6.9, 21.8, 43.0])
    path = tmp_path / "sf.csv"
    write_sf_csv(path, radii, measured, expected, {"trials": 10})
    lines = path.read_text().splitlines()
    assert lines[0] == "# fracwave trials=10"
    assert lines[1] == "r,D_measured,D_theory"
    assert len(lines) == 5


def test_check_output_refuses_missing_parent_and_directory(tmp_path):
    # fails fast with a clear message instead of surprising the caller
    # with freshly created directory trees
    with pytest.raises(ValueError, match="does not exist"):
        check_output(tmp_path / "a" / "b" / "c.csv")
    for directory in (tmp_path, str(tmp_path / "new") + "/"):
        with pytest.raises(ValueError, match="names a directory"):
            check_output(directory)
    check_output(tmp_path / "c.csv")  # existing parent passes silently
    assert list(tmp_path.iterdir()) == []
