"""Command-line pipeline: generate, sense, reconstruct, and friends."""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracwave
import fracwave.solver as solver
from fracwave import cli
from fracwave.cli import main
from fracwave.fileio import read_grid, read_slopes_csv
from fracwave.harness import ExperimentSpec
from fracwave.metrics import FlopCounter, residual_stats
from fracwave.sensor import make_pupil
from fracwave.solver import VARIANTS, Reconstructor, SolverConfig


@pytest.fixture()
def pipeline(tmp_path):
    screen = tmp_path / "screen.bin"
    slopes = tmp_path / "slopes.csv"
    assert main(["generate", "--p", "3", "--seed", "4", "--out", str(screen)]) == 0
    assert (
        main(
            [
                "sense",
                str(screen),
                "--noise-std",
                "0.5",
                "--seed",
                "5",
                "--out",
                str(slopes),
            ]
        )
        == 0
    )
    return tmp_path, screen, slopes


def test_generate_writes_valid_grid(pipeline):
    _, screen, _ = pipeline
    w = read_grid(screen)
    assert w.shape == (9, 9)
    assert np.all(np.isfinite(w))


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    assert main(["generate", "--p", "3", "--seed", "11", "--out", str(a)]) == 0
    assert main(["generate", "--p", "3", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.bin"
    assert main(["generate", "--p", "3", "--seed", "12", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_sense_records_layout_and_noise(pipeline):
    _, _, slopes = pipeline
    loaded, meta = read_slopes_csv(slopes)
    assert loaded.nsub == make_pupil(9).nsub
    assert meta["p"] == "3"
    assert meta["noise_std"] == "0.5"
    np.testing.assert_allclose(loaded.var, 0.25)


def test_reconstruct_recovers_wavefront(pipeline):
    tmp_path, screen, slopes = pipeline
    out = tmp_path / "estimate.bin"
    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "reconstruct",
            str(slopes),
            "--method",
            "u-pcg-opt",
            "--max-iter",
            "20",
            "--tol",
            "1e-8",
            "--out",
            str(out),
            "--trace",
            str(trace),
        ]
    )
    assert rc == 0
    w_true = read_grid(screen)
    w_hat = read_grid(out)
    pup = make_pupil(9)
    _, var_in = residual_stats(np.zeros((9, 9)), w_true, pup)
    _, var_out = residual_stats(w_hat, w_true, pup)
    assert var_out < var_in  # estimate beats doing nothing
    lines = trace.read_text().splitlines()
    assert lines[1].startswith("iter,")
    assert len(lines) >= 4


def test_reconstruct_rebuilds_corrupt_cache_entry(pipeline, monkeypatch):
    tmp_path, _, slopes = pipeline
    cache = tmp_path / "cache"
    monkeypatch.setenv("FRACWAVE_CACHE", str(cache))
    out = tmp_path / "estimate.bin"
    argv = ["reconstruct", str(slopes), "--method", "u-pcg-jac", "--out", str(out)]
    assert main(argv) == 0
    (entry,) = cache.iterdir()
    good = entry.read_bytes()
    first = read_grid(out)
    entry.write_bytes(b"this is not a zip archive\n")
    assert main(argv) == 0
    np.testing.assert_array_equal(read_grid(out), first)
    assert entry.read_bytes()[:2] == good[:2] == b"PK"


def test_reconstruct_survives_an_unwritable_cache(pipeline, monkeypatch, caplog):
    tmp_path, _, slopes = pipeline
    cache = tmp_path / "not-a-directory"
    cache.write_text("")
    monkeypatch.setenv("FRACWAVE_CACHE", str(cache))
    out = tmp_path / "estimate.bin"
    assert main(["reconstruct", str(slopes), "--out", str(out)]) == 0
    assert read_grid(out).shape == (9, 9)
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert "cannot write preconditioner cache entry" in warning and str(cache) in warning


@pytest.mark.parametrize("method", ["u-pcg-opt", "w-cg"])
def test_reconstruct_reports_flops_per_sample_by_family(pipeline, capsys, method):
    tmp_path, _, slopes = pipeline
    out = tmp_path / "estimate.bin"
    argv = ["reconstruct", str(slopes), "--method", method, "--max-iter", "5",
            "--tol", "1e-30", "--out", str(out)]
    assert main(argv) == 0
    *_, line = capsys.readouterr().err.splitlines()
    prefix = "flops per sample: "
    assert line.startswith(prefix)
    fields = [field.split("=") for field in line[len(prefix):].split()]
    assert [name for name, _ in fields] == [
        "fractal", "sensor", "noise", "vector", "precond", "total"]
    reported = dict(fields)

    loaded, _ = read_slopes_csv(slopes)
    counter = FlopCounter()
    _, trace = Reconstructor(3).reconstruct(loaded, SolverConfig(method, 5, 1e-30),
                                            counter=counter)
    tallies = counter.tallies()
    for name in ("fractal", "sensor", "noise", "vector", "precond"):
        assert reported[name] == f"{tallies.get(name, 0) / 81:.2f}", name
    assert reported["total"] == f"{trace.total_flops / 81:.2f}"
    assert (reported["precond"] == "0.00") == (method == "w-cg")


def test_verbose_logs_build_progress_on_stderr(pipeline, monkeypatch, capsys):
    tmp_path, _, slopes = pipeline
    monkeypatch.setenv("FRACWAVE_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "estimate.bin"
    argv = ["reconstruct", str(slopes), "--method", "u-pcg-opt", "--out", str(out)]
    assert main(["-v", *argv]) == 0
    err = capsys.readouterr().err.splitlines()
    passes = [line for line in err if "probe pass" in line]
    assert [line.split("probe pass ")[1].split(":")[0] for line in passes] == [
        f"{level}/3" for level in range(4)
    ]
    assert all(line.startswith("INFO fracwave.solver: u-space") for line in passes)
    assert any("built u-space preconditioner statistics at p=3: 46 probes" in line
               for line in err)
    # Without -v a cold build logs nothing.
    monkeypatch.setenv("FRACWAVE_CACHE", str(tmp_path / "other-cache"))
    assert main(argv) == 0
    assert "INFO" not in capsys.readouterr().err


def test_reconstruct_infers_grid_from_slope_comment(pipeline):
    tmp_path, _, slopes = pipeline
    out = tmp_path / "estimate.bin"
    assert main(["reconstruct", str(slopes), "--method", "w-cg", "--out", str(out)]) == 0
    assert read_grid(out).shape == (9, 9)


def test_simulate_writes_all_method_curves(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    rc = main(
        [
            "simulate",
            "--p",
            "3",
            "--trials",
            "2",
            "--max-iter",
            "3",
            "--method",
            "all",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    methods = {line.split(",")[0] for line in lines[2:]}
    assert methods == {"w-cg", "w-pcg-jac", "w-pcg-opt", "u-cg", "u-pcg-jac", "u-pcg-opt"}
    summary = capsys.readouterr().err.splitlines()[-6:]
    assert {line.split()[0] for line in summary} == methods


def test_validate_sf_writes_profile_and_map(tmp_path):
    out = tmp_path / "sf.csv"
    map_path = tmp_path / "sf_map.bin"
    rc = main(
        [
            "validate-sf",
            "--p",
            "3",
            "--trials",
            "5",
            "--seed",
            "0",
            "--out",
            str(out),
            "--map",
            str(map_path),
        ]
    )
    assert rc == 0
    assert out.read_text().splitlines()[1] == "r,D_measured,D_theory"
    assert read_grid(map_path).shape == (17, 17)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_noise_std_exits_2_without_output(pipeline, capsys, value):
    tmp_path, screen, _ = pipeline
    out = tmp_path / "noisy.csv"
    assert main(["sense", str(screen), "--noise-std", value, "--out", str(out)]) == 2
    assert "noise_std must be finite" in capsys.readouterr().err
    assert not out.exists()
    curves = tmp_path / "curves.csv"
    argv = ["simulate", "--p", "3", "--trials", "1", "--noise-std", value, "--out", str(curves)]
    assert main(argv) == 2
    assert "noise_std must be finite" in capsys.readouterr().err
    assert not curves.exists()


def test_infinite_tol_exits_2_without_output(pipeline, capsys):
    tmp_path, _, slopes = pipeline
    out = tmp_path / "estimate.bin"
    assert main(["reconstruct", str(slopes), "--tol", "inf", "--out", str(out)]) == 2
    assert "tol must be finite" in capsys.readouterr().err
    assert not out.exists()
    curves = tmp_path / "curves.csv"
    argv = ["simulate", "--p", "3", "--trials", "1", "--tol", "inf", "--out", str(curves)]
    assert main(argv) == 2
    assert "tol must be finite" in capsys.readouterr().err
    assert not curves.exists()


def test_validate_sf_below_two_passes_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "sf.csv"
    assert main(["validate-sf", "--p", "1", "--trials", "2", "--out", str(out)]) == 2
    assert "p >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_sense_refuses_a_grid_without_subapertures(tmp_path, capsys):
    screen, slopes = tmp_path / "screen.bin", tmp_path / "slopes.csv"
    assert main(["generate", "--p", "2", "--out", str(screen)]) == 0
    assert main(["sense", str(screen), "--out", str(slopes)]) == 2
    assert "grid of side 5 holds no subaperture" in capsys.readouterr().err
    assert not slopes.exists()


@pytest.mark.parametrize("p, side", [(1, 3), (2, 5)])
def test_simulate_refuses_a_grid_without_subapertures(tmp_path, capsys, recwarn, p, side):
    curves = tmp_path / "curves.csv"
    argv = ["simulate", "--p", str(p), "--trials", "1", "--out", str(curves)]
    assert main(argv) == 2
    assert f"grid of side {side} holds no subaperture" in capsys.readouterr().err
    assert not curves.exists()
    assert not recwarn.list


def test_validation_failures_exit_2(tmp_path, capsys):
    assert main(["generate", "--p", "0", "--seed", "1", "--out", str(tmp_path / "x.bin")]) == 2
    missing = str(tmp_path / "missing.csv")
    assert main(["reconstruct", missing, "--out", str(tmp_path / "y.bin")]) == 2
    capsys.readouterr()
    # An unknown method is refused in-process, before the slope file is opened.
    assert main(["reconstruct", missing, "--method", "newton",
                 "--out", str(tmp_path / "y.bin")]) == 2
    err = capsys.readouterr().err
    assert "'newton'" in err and missing not in err
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--help"])
    assert exc.value.code == 0
    listed = "".join(capsys.readouterr().out.split())  # however argparse wraps it
    assert all(method in listed for method in VARIANTS)


@pytest.mark.parametrize("command", ["sense", "reconstruct"])
def test_an_input_path_that_is_no_file_exits_2(pipeline, capsys, command):
    tmp_path, screen, _ = pipeline
    before = sorted(tmp_path.rglob("*"))
    for path in (tmp_path, screen / "x"):  # a directory, then a path under a file
        assert main([command, str(path), "--out", str(tmp_path / "x.out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_malformed_slope_file_exits_2(pipeline, capsys):
    tmp_path, _, slopes = pipeline
    lines = slopes.read_text().splitlines()
    fields = lines[3].split(",")
    fields[4] = "not-a-number"
    bad = tmp_path / "bad-slopes.csv"
    bad.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
    out = tmp_path / "never.bin"
    assert main(["reconstruct", str(bad), "--out", str(out)]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


def test_an_unexpected_failure_exits_1_without_output(pipeline, capsys, monkeypatch):
    tmp_path, _, slopes = pipeline
    monkeypatch.setenv("FRACWAVE_CACHE", str(tmp_path / "cache"))

    def fail(op):
        raise RuntimeError("probe went wrong")

    monkeypatch.setattr(solver, "operator_diagonal_stats", fail)
    out = tmp_path / "never.bin"
    assert main(["reconstruct", str(slopes), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "runtime error: probe went wrong\n"
    assert not out.exists()


# Each output option of each subcommand, with every other argument valid;
# "{}" marks the output under test.
OUTPUT_ARGV = {
    "generate --out": ["generate", "--p", "3", "--out", "{}"],
    "sense --out": ["sense", "{screen}", "--out", "{}"],
    "reconstruct --out": ["reconstruct", "{slopes}", "--out", "{}"],
    "reconstruct --trace": ["reconstruct", "{slopes}", "--out", "{tmp}/w.grid", "--trace", "{}"],
    "simulate --out": ["simulate", "--p", "3", "--trials", "1", "--max-iter", "2", "--out", "{}"],
    "validate-sf --out": ["validate-sf", "--p", "3", "--trials", "2", "--out", "{}"],
    "validate-sf --map": ["validate-sf", "--p", "3", "--trials", "2", "--out", "{tmp}/sf.csv",
                          "--map", "{}"],
}
BAD_OUTPUTS = {
    "missing-parent": ("{tmp}/nodir/x.out", "output directory does not exist"),
    "directory": ("{tmp}", "names a directory"),
    "trailing-slash": ("{tmp}/new/", "names a directory"),
}


@pytest.mark.parametrize("bad", sorted(BAD_OUTPUTS))
@pytest.mark.parametrize("option", sorted(OUTPUT_ARGV))
def test_a_bad_output_path_exits_2_before_any_work(pipeline, capsys, option, bad):
    tmp_path, screen, slopes = pipeline
    before = sorted(tmp_path.rglob("*"))
    path, message = BAD_OUTPUTS[bad]
    names = {"screen": screen, "slopes": slopes, "tmp": tmp_path}
    argv = [arg.replace("{}", path).format(**names) for arg in OUTPUT_ARGV[option]]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_two_outputs_on_one_path_exit_2_before_any_work(pipeline, capsys):
    tmp_path, _, slopes = pipeline
    before = sorted(tmp_path.rglob("*"))
    same = str(tmp_path / "x.out")
    for argv in (["reconstruct", str(slopes), "--out", same, "--trace", same],
                 ["validate-sf", "--p", "3", "--trials", "2", "--out", same,
                  "--map", str(tmp_path / "." / "x.out")]):
        assert main(argv) == 2
        assert "output paths must differ" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_size_guard_refuses_a_grid_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a grid the size guard should have refused")

    for name in ("FractalOperator", "run_simulation", "run_sf_validation"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli, "physical_memory", lambda: 10**6)
    out = tmp_path / "never.out"
    for command, grids in cli.PEAK_GRIDS.items():
        need = grids * 8 * 257**2
        assert main([command, "--p", "8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{command} at p=8 needs about {need / 1e9:.3g} GB" in err
        assert "0.001 GB of physical memory" in err
    assert not out.exists()
    # Where the platform does not report its memory, nothing is refused.
    monkeypatch.setattr(cli, "physical_memory", lambda: None)
    cli.check_size("simulate", 10**6)


def test_size_guard_reads_the_machine(tmp_path, capsys):
    if cli.physical_memory() is None:
        pytest.skip("the platform does not report its physical memory")
    out = tmp_path / "never.grid"
    for p in (40, 10**6):  # the second estimate overflows a float
        assert main(["generate", "--p", str(p), "--out", str(out)]) == 2
        assert f"generate at p={p} needs about" in capsys.readouterr().err
    assert not out.exists()
    cli.check_size("simulate", 3)


def test_reconstruct_takes_its_grid_from_the_layout(pipeline):
    tmp_path, _, slopes = pipeline
    lines = slopes.read_text().splitlines()
    assert lines[0].startswith("#")
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(lines[1:]) + "\n")
    out = tmp_path / "estimate.bin"
    assert main(["reconstruct", str(bare), "--method", "w-cg", "--out", str(out)]) == 0
    assert read_grid(out).shape == (9, 9)


def test_a_layout_of_no_grid_side_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # A p=4 layout without its subapertures at index 14 implies a grid
    # side of 16, which is no 2**p + 1: refused before any operator is built.
    screen, slopes = tmp_path / "screen.bin", tmp_path / "slopes.csv"
    assert main(["generate", "--p", "4", "--out", str(screen)]) == 0
    assert main(["sense", str(screen), "--out", str(slopes)]) == 0
    comment, header, *rows = slopes.read_text().splitlines()
    kept = [row.split(",") for row in rows if "14" not in row.split(",")[1:3]]
    assert 0 < len(kept) < len(rows)
    body = [",".join([str(i), *fields[1:]]) for i, fields in enumerate(kept)]
    slopes.write_text("\n".join([comment, header, *body]) + "\n")
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("Reconstructor built for a layout of no grid side")

    monkeypatch.setattr(cli, "Reconstructor", refuse)
    out = tmp_path / "never.bin"
    assert main(["reconstruct", str(slopes), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "subaperture layout" in err and "got 16" in err
    assert not out.exists()


def test_a_layout_too_sparse_for_its_grid_exits_2_before_building(tmp_path, capsys,
                                                                 monkeypatch):
    # One row at index 16382 implies a grid of side 16385, 2**14 + 1,
    # whose n x n arrays take 2.1 GB each: refused before any is built.
    slopes = tmp_path / "slopes.csv"
    slopes.write_text("isub,ix,iy,dx,dy,var\n0,16382,1,0.5,0.5,1\n")

    def refuse(*args, **kwargs):
        raise AssertionError("Reconstructor built for a layout too sparse for its grid")

    monkeypatch.setattr(cli, "Reconstructor", refuse)
    out = tmp_path / "never.bin"
    assert main(["reconstruct", str(slopes), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(slopes) in err and "subaperture layout" in err and "16385" in err
    assert not out.exists()


def test_solver_defaults_come_from_solver_config():
    parser = cli.build_parser()
    default = SolverConfig()
    for argv in (["reconstruct", "slopes.csv", "--out", "w.bin"],
                 ["simulate", "--p", "3", "--out", "curves.csv"]):
        args = parser.parse_args(argv)
        assert SolverConfig(args.method, args.max_iter, args.tol) == default
    assert ExperimentSpec(p=3).configs() == (default,)
    # The experiment defaults come from ExperimentSpec the same way.
    spec = ExperimentSpec(p=3)
    args = parser.parse_args(["simulate", "--p", "3", "--out", "curves.csv"])
    assert (args.noise_std, args.trials) == (spec.noise_std, spec.trials)
    args = parser.parse_args(["sense", "screen.bin", "--out", "slopes.csv"])
    assert args.noise_std == spec.noise_std


def test_a_repeated_method_exits_2_without_output(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    argv = ["simulate", "--p", "3", "--trials", "1", "--method", "u-cg,u-cg",
            "--out", str(curves)]
    assert main(argv) == 2
    assert "methods must not repeat" in capsys.readouterr().err
    assert not curves.exists()


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_console_entry_point(tmp_path):
    # The child finds the package where this process found it, whether
    # that came from PYTHONPATH or from pytest's own pythonpath setting.
    src = str(Path(fracwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "cli.bin"
    proc = subprocess.run(
        [sys.executable, "-m", "fracwave.cli", "generate", "--p", "3", "--seed", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert read_grid(out).shape == (9, 9)
