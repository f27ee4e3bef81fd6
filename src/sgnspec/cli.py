"""Command-line interface.

Subcommands mirror the library layers: kernel evaluation, pointwise
bounds, pseudospectrum field export, Birman-Schwinger diagnostics and
eigenvalue hunting, and the exactly solvable models.  All numeric output
goes through repr so that identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 domain/spectrum error (also a value
that leaves the float range), 2 bad usage (including a NaN or infinite
number on the command line), 3 a numerical method failed (no
convergence, a lost eigenvalue branch, a singular matrix).

The closed-form commands (kernel, bounds, dirichlet, delta, gamma, step)
and field use the standard-library modules closed, kernel and field
only; bs and field --oracle import their NumPy-backed modules when they
run, so the other commands start without loading NumPy.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import closed, errors
from .errors import (ConfigError, ConvergenceError, DomainError,
                     EigenvalueLost, SgnSpecError, SingularError)


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
    """'min:max:count' -> (min, max, count), bounds finite, count at most
    field.MAX_GRID_POINTS, refused before a sweep allocates its axis."""
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
    from .field import MAX_GRID_POINTS
    if n > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"count {n} exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return lo, hi, n


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_c(z: complex) -> str:
    return f"{_fmt(z.real)} {_fmt(z.imag)}"


# the options each --potential reads, with their defaults; the parser
# leaves every potential option at None, so an option given to a
# potential that does not read it is seen and refused
_POTENTIAL_OPTIONS = {
    "gaussian": {"amplitude": -1.0, "width": 1.0},
    "box": {"amplitude": -1.0, "radius": 2.5e-4},
    "delta": {"alpha": 1.0, "radius": 2.5e-4},
}
_POTENTIAL_OPTION_NAMES = ("amplitude", "width", "radius", "alpha")


def _potential_from_args(args) -> bs.PotentialSpec:
    from . import bs

    reads = _POTENTIAL_OPTIONS[args.potential]
    stray = [f"--{name}" for name in _POTENTIAL_OPTION_NAMES
             if name not in reads and getattr(args, name) is not None]
    if stray:
        raise ConfigError(f"--potential {args.potential} does not read "
                          f"{', '.join(stray)}")
    opts = {name: default if getattr(args, name) is None
            else getattr(args, name) for name, default in reads.items()}
    if args.potential == "gaussian":
        return bs.gaussian(**opts)
    if args.potential == "box":
        return bs.box(**opts)
    return bs.delta_bump(**opts)


def _add_potential_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--potential", default="gaussian",
                   choices=tuple(_POTENTIAL_OPTIONS))
    for name in _POTENTIAL_OPTION_NAMES:
        p.add_argument(f"--{name}", type=parse_float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgnspec",
        description="Resolvent and pseudospectrum toolkit for "
                    "-d2/dx2 + i*sgn(x).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate the resolvent kernel")
    p.add_argument("--z", type=parse_complex, required=True)
    p.add_argument("--x", type=parse_float, required=True)
    p.add_argument("--y", type=parse_float, required=True)

    p = sub.add_parser("bounds", help="two-sided norm bounds at a point")
    p.add_argument("--z", type=parse_complex, required=True)

    p = sub.add_parser("field", help="bounds over a grid, exported as "
                       "JSON to a .json path, as CSV to any other")
    p.add_argument("--re", type=parse_range, required=True,
                   metavar="MIN:MAX:COUNT")
    p.add_argument("--im", type=parse_range, required=True,
                   metavar="MIN:MAX:COUNT")
    p.add_argument("--out", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="include the finite-difference norm estimate")

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
        from .kernel import resolvent_kernel

        val = resolvent_kernel(args.z, args.x, args.y)
        out.write(f"region {closed.classify_region(args.z).name}\n")
        out.write(f"kernel {_fmt_c(val)}\n")

    elif args.command == "bounds":
        nb = closed.norm_bounds(args.z)
        out.write(f"region {nb.region.name}\n")
        if nb.error is not None:
            raise nb.error
        if nb.status == closed.STATUS_NUMRANGE:
            out.write(f"exact {_fmt(nb.upper)}\n")
        else:
            out.write(f"lower {_fmt(nb.lower)}\n")
            out.write(f"upper {_fmt(nb.upper)}\n")

    elif args.command == "field":
        from . import field

        re_lo, re_hi, re_n = args.re
        im_lo, im_hi, im_n = args.im
        grid = field.GridSpec(re_lo, re_hi, re_n, im_lo, im_hi, im_n)
        fld = field.compute_field(grid, with_oracle=args.oracle)
        try:
            field.export_field(fld, args.out)
        except OSError as exc:  # a missing directory, a directory, ...
            raise ConfigError(f"cannot write the field: {exc}") from None
        out.write(f"wrote {args.out}\n")
        failed = fld.meta.get("oracle_failed", [])
        for f in failed:
            print(f"warning: oracle at {f['re']} {f['im']} failed: "
                  f"{f['reason']}", file=sys.stderr)
        if failed:
            # the exit code of the first failure, so no NaN exits 0
            raise getattr(errors, failed[0]["error"])(
                f"the oracle failed at {len(failed)} of "
                f"{len(fld.lower)} points")

    elif args.command == "bs":
        from . import bs

        pot = _potential_from_args(args)
        if args.bs_command == "sweep":
            out.write("re k_hs l_hs l_hs_closed m_hs\n")
            for r in closed._linspace(*args.re):
                d = bs.decomposition_diagnostics(r + 1j * args.im, pot)
                out.write(f"{_fmt(r)} {_fmt(d['k_hs'])} {_fmt(d['l_hs'])} "
                          f"{_fmt(d['l_hs_closed'])} {_fmt(d['m_hs'])}\n")
        elif args.bs_command == "roots":
            res = bs.search_eigenvalues(args.eps, pot, args.seeds)
            for seed, reason in res.failed:
                print(f"warning: seed {_fmt_c(seed)} failed: {reason}",
                      file=sys.stderr)
            out.write(f"count {len(res.roots)}\n")
            for z in res.roots:
                out.write(f"root {_fmt_c(z)}\n")
        else:
            res = bs.weak_coupling_rate(pot, args.eps)
            for e, z in zip(res["eps"], res["eigenvalues"]):
                out.write(f"eigenvalue {_fmt(e)} {_fmt_c(z)}\n")
            out.write(f"slope {_fmt(res['slope'])}\n")

    elif args.command == "delta":
        lam = closed.delta_eigenvalue(args.alpha)
        out.write(f"eigenvalue {_fmt_c(lam)}\n")
        out.write(f"exists {closed.delta_eigenvalue_exists(args.alpha)}\n")

    elif args.command == "gamma":
        try:
            sigma = tuple(int(s) for s in args.sigma.split(","))
        except ValueError:
            raise ConfigError(f"bad sigma {args.sigma!r}")
        if len(sigma) != 3:
            raise ConfigError("sigma needs three entries")
        for r in closed._linspace(*args.r):
            out.write(f"alpha {_fmt_c(closed.gamma_point(r, sigma))}\n")

    elif args.command == "step":
        roots = closed.find_step_eigenvalues(args.a, args.b, args.lam_max)
        out.write(f"count {len(roots)}\n")
        for lam in roots:
            out.write(f"eigenvalue {_fmt(lam)}\n")

    elif args.command == "dirichlet":
        out.write(f"norm {_fmt(closed.dirichlet_resolvent_norm(args.z))}\n")


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _run(args, out)
    except DomainError as exc:  # SpectrumError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, EigenvalueLost, SingularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SgnSpecError as exc:  # ConfigError and the rest: bad usage
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
