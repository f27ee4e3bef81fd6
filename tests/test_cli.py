"""Tests for the command-line interface."""

import io
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from sgnspec import bs, closed
from sgnspec.cli import main, parse_complex, parse_range
from sgnspec.closed import MAX_STEP_BRACKETS
from sgnspec.errors import ConvergenceError, EigenvalueLost, SingularError
from sgnspec.field import (MAX_GRID_POINTS, GridSpec, compute_field,
                           load_field_csv)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParsers:
    def test_parse_complex(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("1,-2") == 1 - 2j

    def test_parse_complex_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("a,b")

    def test_parse_range(self):
        assert parse_range("0:1:5") == (0.0, 1.0, 5)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_range("0:1")

    def test_parsers_reject_non_finite(self):
        import argparse

        for text in ("nan", "1,inf", "-inf,0", "1e999"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_complex(text)
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range("0:inf:3")


class TestSubcommands:
    def test_kernel(self):
        code, out = run_cli(["kernel", "--z=-1,0.5", "--x", "0.3", "--y=-0.2"])
        assert code == 0
        assert out.startswith("region D_PLUS\nkernel ")

    def test_bounds_inside_strip(self):
        code, out = run_cli(["bounds", "--z", "100,0.0"])
        assert code == 0
        assert "lower " in out and "upper " in out

    def test_bounds_outside(self):
        code, out = run_cli(["bounds", "--z=-2,0.5"])
        assert code == 0
        assert "exact 0.5\n" in out

    def test_bounds_on_spectrum_exits_one(self):
        code, _ = run_cli(["bounds", "--z", "1,1"])
        assert code == 1

    @pytest.mark.parametrize("grid", [
        GridSpec(-3.0, 40.0, 6, -1.6, 1.6, 5),
        GridSpec(-1.0, 4.0, 6, -1.0, 1.0, 5),  # rows on both rays
        GridSpec(1e307, 1e308, 2, 0.5, 0.5, 1),  # the Schur bound overflows
        GridSpec(5.0, 5.0, 1, 1 + 1e-13, 1 + 1e-13, 1),
        GridSpec(-1e-13, -1e-13, 1, 1.0, 1.0, 1),
    ])
    def test_bounds_agrees_with_field(self, grid):
        # both read closed.norm_bounds; the two near-ray points lie a
        # positive distance outside the closed half-strip, where bounds
        # once printed a finite "exact" norm with exit 0
        fld = compute_field(grid)
        for idx, z in enumerate(grid.points()):
            code, out = run_cli(["bounds", f"--z={z.real!r},{z.imag!r}"])
            lo, hi = fld.lower[idx], fld.upper[idx]
            status = fld.status[idx]
            want = f"region {fld.region[idx]}\n"
            finite = status in ("ok", "numrange")
            if finite:
                want += (f"exact {hi!r}\n" if lo == hi else
                         f"lower {lo!r}\nupper {hi!r}\n")
            assert (code, out) == (0 if finite else 1, want), (z, status)

    def test_bounds_overflow_exits_one(self, capsys):
        # the Schur bound ~ 4 Re z overflows; no inf may come back with 0
        code, out = run_cli(["bounds", "--z=1e308,0.5"])
        assert code == 1
        assert out == "region W\n"
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dirichlet", "--z=-5e-324,1"],
        ["bounds", "--z=-1e-310,1"],
        ["kernel", "--z=5,0.5", "--x=1e308", "--y=-1e308"],
        ["delta", "--alpha=1e-200"],
        ["delta", "--alpha=1e200"],
        ["delta", "--alpha=1e-160"],
        ["step", "--a=1", "--b=1e300", "--lam-max=1"],
        ["step", "--a=1e-300", "--b=1", "--lam-max=2"],
        ["gamma", "--sigma=1,1,1", "--r=0:1.7e308:3"],
    ])
    def test_out_of_range_closed_forms_exit_one(self, capsys, argv):
        # each once printed inf or nan with exit 0, or ended in a traceback
        code, out = run_cli(argv)
        assert code == 1
        assert "inf" not in out and "nan" not in out
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("out", ["missing/f.csv", "missing/f.json", ""],
                             ids=["no-dir-csv", "no-dir-json", "a-dir"])
    def test_unwritable_field_path_exits_two(self, tmp_path, capsys, out):
        # a missing directory and a directory once ended in a traceback
        code, stdout = run_cli(["field", "--re=0:1:2", "--im=0:1:2",
                                "--out", str(tmp_path / out)])
        assert code == 2 and stdout == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, count, first", [
        (["--a=20", "--b=-1e4", "--lam-max=10500"], 284,
         "eigenvalue 10000.00616850"),
        (["--a=3", "--b=-1e7", "--lam-max=10002000"], 85,
         "eigenvalue 10000000.27415"),
    ], ids=["a=20,b=-1e4", "a=3,b=-1e7"])
    def test_step_barrier_well_keeps_every_root(self, argv, count, first):
        # the roots lie within 1e-9 of a bracket's end, where the bisection
        # once kept off the cotangent's poles: 283 and 0 roots came back
        code, out = run_cli(["step"] + argv)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == f"count {count}" and len(lines) == count + 1
        assert lines[1].startswith(first)

    def test_gamma_far_along_the_curve(self):
        # the s3 = +1 branch tends to 0 like 1/sqrt(r); it once gave nan
        code, out = run_cli(["gamma", "--sigma=1,1,1", "--r=0:1e300:3"])
        assert code == 0
        assert out.splitlines()[-1] == "alpha 1e-150 0.0"

    def test_step_bisection_stops_at_adjacent_floats(self):
        # at b = 1e6 the roots lie where floats are 1e-12 apart or more, so
        # the bisection once looped for ever at its tolerance of 1e-12
        code, out = run_cli(["step", "--a=1", "--b=1e6", "--lam-max=1"])
        assert code == 0
        assert out.startswith("count ")

    def test_step_bracket_ceiling_exits_two(self, capsys):
        # about 6e149 brackets lie below lam_max: this once never ended
        start = time.perf_counter()
        code, out = run_cli(["step", "--a=1", "--b=1", "--lam-max=1e300"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert str(MAX_STEP_BRACKETS) in capsys.readouterr().err

    def test_delta(self):
        code, out = run_cli(["delta", "--alpha", "2"])
        assert code == 0
        assert "eigenvalue -0.75 0.0" in out
        assert "exists True" in out

    def test_delta_repulsive_coupling(self):
        # the same candidate, but H + 2 delta has no eigenvalue
        code, out = run_cli(["delta", "--alpha=-2"])
        assert code == 0
        assert out == "eigenvalue -0.75 0.0\nexists False\n"

    def test_gamma(self):
        code, out = run_cli(["gamma", "--sigma", "1,1,1", "--r", "0:1:3"])
        assert code == 0
        assert out.count("alpha ") == 3

    def test_gamma_bad_sigma(self):
        code, _ = run_cli(["gamma", "--sigma", "1,1", "--r", "0:1:3"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["kernel", "--z=2,0.4", "--x=abc", "--y=1"],
        ["field", "--re=0:1:x", "--im=0:1:2", "--out=f.csv"],
        ["field", "--re=0:1:0", "--im=0:1:2", "--out=f.csv"],
        ["gamma", "--sigma=a,b,c", "--r=0:1:3"],
    ])
    def test_malformed_option_exits_two(self, argv):
        code, out = run_cli(argv)
        assert code == 2 and out == ""

    def test_step(self):
        code, out = run_cli(["step", "--a", "1", "--b", "3",
                             "--lam-max", "20"])
        assert code == 0
        assert out.startswith("count 3\n")

    def test_dirichlet(self):
        code, out = run_cli(["dirichlet", "--z", "5,0.5"])
        assert code == 0
        assert out == "norm 2.0\n"

    def test_field_export(self, tmp_path):
        path = str(tmp_path / "f.csv")
        code, out = run_cli(["field", "--re=-2:30:4",
                             "--im=-0.5:0.5:3", "--out", path])
        assert code == 0
        with open(path) as fh:
            text = fh.read()
        assert text.startswith("re,im,region,status,lower,upper")

    def test_field_point_ceiling_exits_two(self, tmp_path, capsys):
        # 10^12 points once ended in a NumPy MemoryError traceback (14.6 TiB)
        path = str(tmp_path / "x.csv")
        tracemalloc.start()
        start = time.perf_counter()
        code, out = run_cli(["field", "--re=0:1:1000000",
                             "--im=0:1:1000000", "--out", path])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 2 and out == ""
        assert elapsed < 1.0 and peak < 1 << 20
        assert not os.path.exists(path)
        assert str(MAX_GRID_POINTS) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gamma", "--sigma=1,1,1", "--r=0:1:100000000"],
        ["bs", "sweep", "--re=10:20:100000000"],
    ])
    def test_sweep_count_ceiling_exits_two(self, monkeypatch, capsys, argv):
        # 10^8 samples once built the whole axis, several GB, before a
        # line was printed; the axis is never built here
        def refuse(*args):
            raise AssertionError("the axis was built")

        monkeypatch.setattr(closed, "_linspace", refuse)
        assert run_cli(argv) == (2, "")
        assert f"MAX_GRID_POINTS = {MAX_GRID_POINTS}" in \
            capsys.readouterr().err

    def test_field_overflowing_span_exits_two(self, tmp_path, capsys):
        # once wrote nan and inf points marked skipped and exited 0
        path = str(tmp_path / "x.csv")
        code, out = run_cli(["field", "--re=-1e308:1e308:3", "--im=0:0:1",
                             "--out", path])
        assert code == 2 and out == ""
        assert not os.path.exists(path)
        assert "span" in capsys.readouterr().err

    def test_field_oracle_past_its_ceiling_exits_two(self, tmp_path, capsys):
        # 40 + 0.99i needs more FD nodes than MAX_ORACLE_NODES: the file
        # is still written, with NaN at that point only, and the exit
        # code is that of its ConfigError, so no NaN comes back with 0
        path = str(tmp_path / "f.csv")
        code, out = run_cli(["field", "--re=40:40:1", "--im=0.5:0.99:2",
                             "--oracle", "--out", path])
        assert code == 2 and out == f"wrote {path}\n"
        cols = load_field_csv(path)
        assert math.isfinite(cols["oracle"][0])
        assert math.isnan(cols["oracle"][1])
        assert math.isnan(cols["oracle_err"][1])
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("warning: oracle at 40.0 0.99 failed: ")
        assert "MAX_ORACLE_NODES" in err[0]
        assert err[1:] == ["error: the oracle failed at 1 of 2 points"]

    def test_bs_sweep(self):
        code, out = run_cli(["bs", "sweep", "--re", "25:100:2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "re k_hs l_hs l_hs_closed m_hs"
        assert len(lines) == 3

    def test_bs_rate(self):
        code, out = run_cli(["bs", "rate", "--potential", "delta",
                             "--alpha", "1"])
        assert code == 0
        assert "slope -2.0" in out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bs_sweep_past_the_float_range_exits_one(self, capsys):
        # every row once printed k_hs inf and m_hs nan, with exit 0
        code, out = run_cli(["bs", "sweep", "--re", "25:100:3",
                             "--amplitude", "1e200"])
        assert code == 1
        assert out == "re k_hs l_hs l_hs_closed m_hs\n"
        assert "float range" in capsys.readouterr().err

    def test_bs_sweep_past_the_float_range_writes_one_error_line(self):
        # NumPy once printed two overflow RuntimeWarnings ahead of the
        # error line; in a child process, as a user sees it
        proc = subprocess.run(
            [sys.executable, "-m", "sgnspec.cli", "bs", "sweep", "--re",
             "25:100:3", "--amplitude", "1e200"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == "re k_hs l_hs l_hs_closed m_hs\n"
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "not finite" in err[0] and "float range" in err[0]

    def test_bs_sweep_below_the_rounding_error_exits_one(self, capsys):
        # ||M||^2 cancels to a negative number at Re z = 1e9: the sweep
        # once ended in a ValueError traceback after its header
        code, out = run_cli(["bs", "sweep", "--re", "1e9:1e12:4",
                             "--potential", "delta"])
        assert code == 1
        assert out == "re k_hs l_hs l_hs_closed m_hs\n"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "below the rounding error" in err[0]

    def test_bs_rate_zero_coupling_exits_two(self, capsys):
        # it once ended in a ZeroDivisionError traceback, as bs roots
        # --eps 0 does not
        code, out = run_cli(["bs", "rate", "--potential", "delta",
                             "--eps", "0.5", "0.25", "0"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: coupling eps must be nonzero\n")

    @pytest.mark.parametrize("argv, match", [
        (["rate", "--potential", "delta", "--eps", "0.5", "0.5", "0.5"],
         "distinct"),
        (["sweep", "--re", "25:100:2", "--potential", "box",
          "--amplitude", "1e308", "--radius", "1e308"], "L1 norm"),
        (["sweep", "--re", "25:100:2", "--amplitude", "1e308",
          "--width", "10"], "L1 norm"),
    ])
    def test_bs_degenerate_setting_exits_two(self, capsys, argv, match):
        # each once exited 0: one coupling three times fitted a slope
        # of -0.99, and the potentials had an L1 norm of inf
        code, out = run_cli(["bs", *argv])
        assert code == 2 and out == ""
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("argv, stray", [
        (["roots", "--eps", "1", "--seeds=-0.3", "--potential", "box",
          "--amplitude=-3", "--radius", "1", "--width", "7", "--alpha", "9"],
         "box does not read --width, --alpha"),
        (["rate", "--alpha", "1"], "gaussian does not read --alpha"),
        (["rate", "--radius", "1e-3"], "gaussian does not read --radius"),
        (["sweep", "--re", "25:100:2", "--potential", "delta",
          "--amplitude=-2"], "delta does not read --amplitude"),
        (["rate", "--potential", "box", "--width", "2"],
         "box does not read --width"),
    ])
    def test_bs_option_the_potential_does_not_read_exits_two(
            self, capsys, argv, stray):
        # an option the chosen potential ignores is an error, not a no-op
        code, out = run_cli(["bs", *argv])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: --potential {stray}\n"

    def test_bs_box_reads_its_options(self):
        code, out = run_cli(["bs", "roots", "--eps", "1", "--seeds=-0.3",
                             "--potential", "box", "--amplitude=-3",
                             "--radius", "1"])
        assert code == 0
        assert out.startswith("count 1\nroot 0.07451005977666814 ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bs_roots_divergent_seed(self):
        code, out = run_cli(["bs", "roots", "--eps", "1", "--seeds", "5,5"])
        assert code == 0
        assert out == "count 0\n"

    def test_bs_roots_seed_past_the_grid_cap_fails_alone(self, capsys):
        # the seed 1e9 asks for a grid of 3.22e6 nodes: it once aborted
        # the whole search with exit 2
        code, out = run_cli(["bs", "roots", "--eps", "3",
                             "--seeds", "0.5", "1e9"])
        assert code == 0
        assert out.startswith("count 1\nroot 0.5912950")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: seed 1000000000.0 0.0 failed: ")
        assert "MAX_GL_NODES" in err[0]

    def test_bs_roots_reports_failed_seeds(self, capsys):
        # both searches diverge: stdout still says count 0, and stderr
        # says why, one line per seed
        code, out = run_cli(["bs", "roots", "--eps", "1",
                             "--seeds", "-0.7", "-0.8"])
        assert code == 0
        assert out == "count 0\n"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("warning: seed -0.7 0.0 failed: ")
        assert err[1].startswith("warning: seed -0.8 0.0 failed: ")
        assert all("left the finite plane" in line for line in err)

    @pytest.mark.parametrize("error", [ConvergenceError, EigenvalueLost,
                                       SingularError])
    def test_numerical_failure_exits_three(self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("numerical method failed")

        monkeypatch.setattr(bs, "weak_coupling_rate", fail)
        code, out = run_cli(["bs", "rate", "--potential", "delta",
                             "--alpha", "1"])
        assert code == 3
        assert out == ""

    def test_missing_subcommand_exits_two(self):
        code, _ = run_cli([])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--z", "nan,0"],
        ["bounds", "--z", "inf,0.5"],
        ["kernel", "--z", "nan,0", "--x", "1", "--y", "1"],
        ["delta", "--alpha", "nan"],
        ["dirichlet", "--z", "nan,0.5"],
        ["kernel", "--z", "2,0.4", "--x", "inf", "--y", "1"],
        ["gamma", "--sigma", "1,1,1", "--r", "0:nan:3"],
    ])
    def test_non_finite_input_exits_two(self, argv):
        code, out = run_cli(argv)
        assert code == 2
        assert out == ""


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cases = [
            ["bounds", "--z", "50,0.3"],
            ["kernel", "--z", "2,0.4", "--x", "0.1", "--y", "0.7"],
            ["delta", "--alpha", "0.5,0.5"],
            ["gamma", "--sigma=-1,1,-1", "--r", "0:5:7"],
            ["step", "--a", "1", "--b", "3", "--lam-max", "60"],
            ["dirichlet", "--z", "5,0.5"],
            ["bs", "sweep", "--re", "25:50:2"],
        ]
        for argv in cases:
            code1, out1 = run_cli(argv)
            code2, out2 = run_cli(argv)
            assert code1 == code2 == 0
            assert out1 == out2

    def test_field_files_byte_identical(self, tmp_path):
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        for p in (p1, p2):
            code, _ = run_cli(["field", "--re=-2:40:5",
                               "--im=-1.5:1.5:4", "--out", p])
            assert code == 0
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_oracle_field_files_byte_identical(self, tmp_path):
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        for p in paths:
            code, _ = run_cli(["field", "--re=1:40:4", "--im=-0.5:0.5:3",
                               "--oracle", "--out", p])
            assert code == 0
        with open(paths[0], "rb") as f1, open(paths[1], "rb") as f2:
            assert f1.read() == f2.read()
