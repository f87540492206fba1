"""On-disk formats: binary grids and commented CSV tables."""

import csv
import io

import numpy as np
import pytest

from fracwave.fileio import (
    ensure_parent,
    parse_comment,
    read_grid,
    read_slopes_csv,
    write_bench_csv,
    write_curves_csv,
    write_grid,
    write_sf_csv,
    write_slopes_csv,
    write_trace_csv,
)
from fracwave.harness import BenchRow, ExperimentSpec, run_simulation
from fracwave.sensor import SlopeSet, make_pupil, simulate_measurements
from fracwave.solver import Reconstructor, SolverConfig


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


@pytest.mark.parametrize("mangle", ["magic", "version", "truncate"])
def test_grid_read_rejects_corruption(tmp_path, grid, mangle):
    path = tmp_path / "w.bin"
    write_grid(path, grid)
    raw = bytearray(path.read_bytes())
    if mangle == "magic":
        raw[:4] = b"JUNK"
    elif mangle == "version":
        raw[4] = 9
    else:
        raw = raw[:100]
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
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


def test_slopes_write_matches_csv_writer(tmp_path):
    # The writer joins f-strings in blocks of rows; its bytes must stay
    # those csv.writer writes for the same rows, extreme values included,
    # over enough rows to span several blocks.
    values = [-0.0, 0.0, 1.0, -3.0, 5e-324, 2.2250738585072009e-308,
              0.1, 1 / 3, -2.7182818284590451, 1e300, 123456789012345678.0]
    count = 5000
    values = np.resize(values, count)
    slopes = SlopeSet(
        subap_x=np.arange(count), subap_y=np.arange(count)[::-1].copy(),
        sx=values, sy=values[::-1].copy(), var=np.abs(values) + 5e-324,
    )
    path = tmp_path / "slopes.csv"
    write_slopes_csv(path, slopes, {"p": 3})
    expected = io.StringIO(newline="")
    expected.write("# fracwave p=3\n")
    writer = csv.writer(expected)
    writer.writerow(["isub", "ix", "iy", "dx", "dy", "var"])
    for i in range(count):
        writer.writerow([i, int(slopes.subap_x[i]), int(slopes.subap_y[i])]
                        + [format(float(a[i]), ".17g") for a in (slopes.sx, slopes.sy, slopes.var)])
    data = path.read_bytes()
    assert data == expected.getvalue().encode()
    for rendered in (b",-0,", b",1,", b",4.9406564584124654e-324", b",1.2345678901234568e+17"):
        assert rendered in data


def _slope_file(tmp_path, grid, edit=None):
    """A valid p=3 slope file, its lines passed through ``edit`` first."""
    pup = make_pupil(9)
    slopes = simulate_measurements(grid, pup, 0.7, np.random.default_rng(1))
    path = tmp_path / "slopes.csv"
    write_slopes_csv(path, slopes, {"p": 3, "noise_std": 0.7})
    if edit is not None:
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
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
    "empty-body": lambda lines: lines[:2],
    "nan-dx": lambda lines: _set_field(lines, 3, 3, "nan"),
    "inf-var": lambda lines: _set_field(lines, 3, 5, "inf"),
    "zero-var": lambda lines: _set_field(lines, 3, 5, "0"),
    "negative-var": lambda lines: _set_field(lines, 3, 5, "-0.49"),
    "fractional-ix": lambda lines: _set_field(lines, 3, 1, "3.7"),
    "fractional-iy": lambda lines: _set_field(lines, 3, 2, "2.5"),
    "nan-isub": lambda lines: _set_field(lines, 3, 0, "nan"),
    "out-of-range-isub": lambda lines: _set_field(lines, 3, 0, "99999"),
}


@pytest.mark.parametrize("kind", sorted(BAD_SLOPE_FILES))
def test_slopes_read_rejects_malformed_file(tmp_path, grid, kind):
    path = _slope_file(tmp_path, grid, BAD_SLOPE_FILES[kind])
    with pytest.raises(ValueError):
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


def test_bench_csv_layout(tmp_path):
    rows = [
        BenchRow(p=3, n=9, samples=81, op="fractal-forward", flops=472),
        BenchRow(p=3, n=9, samples=81, op="sensor-forward", flops=100),
    ]
    path = tmp_path / "bench.csv"
    write_bench_csv(path, rows, {"seed": 0})
    lines = path.read_text().splitlines()
    assert lines[1] == "p,n,samples,op,flops,flops_per_sample"
    assert lines[2].startswith("3,9,81,fractal-forward,472,")
    assert len(lines) == 4


def test_ensure_parent_validates_output_directory(tmp_path):
    # fails fast with a clear message instead of surprising the caller
    # with freshly created directory trees
    with pytest.raises(ValueError, match="does not exist"):
        ensure_parent(tmp_path / "a" / "b" / "c.csv")
    ensure_parent(tmp_path / "c.csv")  # existing parent passes silently
