"""Command-line interface.

Subcommands mirror the library layers: kernel evaluation, pointwise
bounds, pseudospectrum field export, Birman-Schwinger diagnostics and
eigenvalue hunting, and the exactly solvable models.  All numeric output
goes through repr so that identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 domain/spectrum error, 2 bad usage
(including a NaN or infinite number on the command line), 3 a numerical
method failed (no convergence, a lost eigenvalue branch, a singular
matrix).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bounds, bs, field, models
from .errors import (ConfigError, ConvergenceError, DomainError,
                     EigenvalueLost, SgnSpecError, SingularError,
                     SpectrumError)
from .kernel import classify_region, resolvent_kernel


def _finite(x: float, text: str) -> float:
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite value, got {text!r}")
    return x


def parse_float(text: str) -> float:
    """A finite float."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    return _finite(x, text)


def parse_complex(text: str) -> complex:
    """'re' or 're,im' -> complex, both parts finite."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(
            f"expected 're' or 're,im', got {text!r}")
    for x in parts:
        _finite(x, text)
    return complex(*parts)


def parse_range(text: str) -> tuple[float, float, int]:
    """'min:max:count' -> (min, max, count), bounds finite."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 'min:max:count', got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'min:max:count', got {text!r}")
    _finite(lo, text)
    _finite(hi, text)
    if n < 1:
        raise argparse.ArgumentTypeError("count must be positive")
    return lo, hi, n


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_c(z: complex) -> str:
    return f"{_fmt(z.real)} {_fmt(z.imag)}"


def _potential_from_args(args) -> bs.PotentialSpec:
    if args.potential == "gaussian":
        return bs.gaussian(args.amplitude, args.width)
    if args.potential == "box":
        return bs.box(args.amplitude, args.radius)
    if args.potential == "delta":
        return bs.delta_bump(args.alpha, args.radius)
    if args.potential == "step":
        return bs.step_well(args.a, args.b)
    raise ConfigError(f"unknown potential {args.potential!r}")


def _add_potential_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--potential", default="gaussian",
                   choices=("gaussian", "box", "delta", "step"))
    p.add_argument("--amplitude", type=parse_float, default=-1.0)
    p.add_argument("--width", type=parse_float, default=1.0)
    p.add_argument("--radius", type=parse_float, default=2.5e-4)
    p.add_argument("--alpha", type=parse_float, default=1.0)
    p.add_argument("--a", type=parse_float, default=1.0)
    p.add_argument("--b", type=parse_float, default=3.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgnspec",
        description="Resolvent and pseudospectrum toolkit for "
                    "-d2/dx2 + i*sgn(x).")
    ap.add_argument("--dry-run", action="store_true",
                    help="validate arguments and report the plan only")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate the resolvent kernel")
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--x", type=parse_float, required=True)
    p.add_argument("--y", type=parse_float, required=True)

    p = sub.add_parser("bounds", help="two-sided norm bounds at a point")
    p.add_argument("--z", type=parse_complex, required=True)

    p = sub.add_parser("field", help="bounds over a grid, exported")
    p.add_argument("--re", type=parse_range, required=True,
                   metavar="MIN:MAX:COUNT")
    p.add_argument("--im", type=parse_range, required=True,
                   metavar="MIN:MAX:COUNT")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--oracle", action="store_true",
                   help="include the finite-difference norm estimate")
    p.add_argument("--oracle-n", type=int, default=2001)

    p = sub.add_parser("bs", help="Birman-Schwinger diagnostics")
    bs_sub = p.add_subparsers(dest="bs_command", required=True)

    q = bs_sub.add_parser("sweep", help="HS norms of K, L, M along Re z")
    q.add_argument("--re", type=parse_range, required=True,
                   metavar="MIN:MAX:COUNT")
    q.add_argument("--im", type=parse_float, default=0.5)
    _add_potential_args(q)

    q = bs_sub.add_parser("roots", help="eigenvalues via the determinant")
    q.add_argument("--eps", type=parse_float, required=True)
    q.add_argument("--seeds", type=parse_complex, nargs="+", required=True)
    _add_potential_args(q)

    q = bs_sub.add_parser("rate", help="weak-coupling divergence exponent")
    q.add_argument("--eps", type=parse_float, nargs="+",
                   default=[0.5, 0.25, 0.125])
    _add_potential_args(q)

    p = sub.add_parser("delta", help="point-interaction eigenvalue")
    p.add_argument("--alpha", type=parse_complex, required=True)

    p = sub.add_parser("gamma", help="exceptional coupling curve points")
    p.add_argument("--sigma", required=True, metavar="S1,S2,S3")
    p.add_argument("--r", type=parse_range, required=True,
                   metavar="MIN:MAX:COUNT")

    p = sub.add_parser("step", help="real eigenvalues of the step model")
    p.add_argument("--a", type=parse_float, required=True)
    p.add_argument("--b", type=parse_float, required=True)
    p.add_argument("--lam-max", type=parse_float, required=True)

    p = sub.add_parser("dirichlet", help="Dirichlet-decoupled resolvent norm")
    p.add_argument("--z", type=parse_complex, required=True)

    return ap


def _run(args, out) -> None:
    if args.command == "kernel":
        val = resolvent_kernel(args.z, args.x, args.y)
        out.write(f"region {classify_region(args.z).name}\n")
        out.write(f"kernel {_fmt_c(val)}\n")

    elif args.command == "bounds":
        z = args.z
        reg = classify_region(z)
        out.write(f"region {reg.name}\n")
        try:
            lo = bounds.pseudomode_lower_bound(z)
            hi = bounds.schur_upper_bound(z)
            out.write(f"lower {_fmt(lo)}\n")
            out.write(f"upper {_fmt(hi)}\n")
        except DomainError:
            val = bounds.numrange_bound(z)
            out.write(f"exact {_fmt(val)}\n")

    elif args.command == "field":
        re_lo, re_hi, re_n = args.re
        im_lo, im_hi, im_n = args.im
        grid = field.GridSpec(re_lo, re_hi, re_n, im_lo, im_hi, im_n)
        if args.dry_run:
            out.write(f"plan field {re_n}x{im_n} -> {args.out}\n")
            return
        fld = field.compute_field(grid, with_oracle=args.oracle,
                                  oracle_n=args.oracle_n)
        field.export_field(fld, args.out, fmt=args.format)
        out.write(f"wrote {args.out}\n")

    elif args.command == "bs":
        pot = _potential_from_args(args)
        if args.bs_command == "sweep":
            lo, hi, n = args.re
            res = np.linspace(lo, hi, n)
            out.write("re k_hs l_hs l_hs_closed m_hs\n")
            for r in res:
                d = bs.decomposition_diagnostics(r + 1j * args.im, pot)
                out.write(f"{_fmt(r)} {_fmt(d['k_hs'])} {_fmt(d['l_hs'])} "
                          f"{_fmt(d['l_hs_closed'])} {_fmt(d['m_hs'])}\n")
        elif args.bs_command == "roots":
            roots = bs.find_eigenvalues(args.eps, pot, args.seeds)
            out.write(f"count {len(roots)}\n")
            for z in roots:
                out.write(f"root {_fmt_c(z)}\n")
        else:
            res = bs.weak_coupling_rate(pot, args.eps)
            for e, z in zip(res["eps"], res["eigenvalues"]):
                out.write(f"eigenvalue {_fmt(e)} {_fmt_c(z)}\n")
            out.write(f"slope {_fmt(res['slope'])}\n")

    elif args.command == "delta":
        lam = models.delta_eigenvalue(args.alpha)
        out.write(f"eigenvalue {_fmt_c(lam)}\n")
        out.write(f"exists {models.delta_eigenvalue_exists(args.alpha)}\n")

    elif args.command == "gamma":
        try:
            sigma = tuple(int(s) for s in args.sigma.split(","))
        except ValueError:
            raise ConfigError(f"bad sigma {args.sigma!r}")
        if len(sigma) != 3:
            raise ConfigError("sigma needs three entries")
        lo, hi, n = args.r
        for r in np.linspace(lo, hi, n):
            out.write(f"alpha {_fmt_c(models.gamma_point(float(r), sigma))}\n")

    elif args.command == "step":
        roots = models.find_step_eigenvalues(args.a, args.b, args.lam_max)
        out.write(f"count {len(roots)}\n")
        for lam in roots:
            out.write(f"eigenvalue {_fmt(lam)}\n")

    elif args.command == "dirichlet":
        out.write(f"norm {_fmt(models.dirichlet_resolvent_norm(args.z))}\n")


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.dry_run and args.command != "field":
        out.write(f"plan {args.command}\n")
        return 0
    try:
        _run(args, out)
    except (SpectrumError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, EigenvalueLost, SingularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, SgnSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
