"""Tests for the command-line interface."""

import io

import pytest

from sgnspec import bs
from sgnspec.cli import main, parse_complex, parse_range
from sgnspec.errors import ConvergenceError, EigenvalueLost, SingularError


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

    def test_delta(self):
        code, out = run_cli(["delta", "--alpha", "2"])
        assert code == 0
        assert "eigenvalue -0.75 0.0" in out
        assert "exists True" in out

    def test_gamma(self):
        code, out = run_cli(["gamma", "--sigma", "1,1,1", "--r", "0:1:3"])
        assert code == 0
        assert out.count("alpha ") == 3

    def test_gamma_bad_sigma(self):
        code, _ = run_cli(["gamma", "--sigma", "1,1", "--r", "0:1:3"])
        assert code == 2

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

    def test_field_dry_run(self, tmp_path):
        path = str(tmp_path / "f.csv")
        code, out = run_cli(["--dry-run", "field", "--re", "0:1:2",
                             "--im", "0:0:1", "--out", path])
        assert code == 0
        assert out == f"plan field 2x1 -> {path}\n"
        import os

        assert not os.path.exists(path)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bs_roots_divergent_seed(self):
        code, out = run_cli(["bs", "roots", "--eps", "1", "--seeds", "5,5"])
        assert code == 0
        assert out == "count 0\n"

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
