"""Seeded inputs, operations and reference checks of the three workloads.

Every workload is a closed loop in one process: each operation starts
after the previous one returns.  Inputs come from stratified sampling,
one draw per fixed stratum, so the amount of work is nearly the same for
any seed.  Where the cost of an operation depends on where in its
stratum the point falls (dense sizes grow with Re z, the dense SVD of the
default-n oracle depends on z), the draw is taken within a few per cent
of the stratum's geometric centre; where it does not (fixed n), the draw
spans the whole stratum.

An operation's ``run`` is timed; its ``check`` compares the result with
an independent reference and returns a failure message or None.  Checks
are never timed and never raise past the operation.  An op whose
``known_defect`` is set runs a call of the program that is known to give
a wrong result at that input; its check stays as strict as any other,
and a failure it reports is counted apart from the unexpected ones (a
raise is still unexpected).
"""

from __future__ import annotations

import functools
import io
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from sgnspec import bounds, bs, cli, fdop, field, kernel, models
from sgnspec.errors import DomainError, SpectrumError


@dataclass
class Op:
    stage: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_defect: str | None = None


def _rng(seed: int, stage: str) -> random.Random:
    # one stream per stage, so editing one stage leaves the others' inputs
    return random.Random(f"{seed}:{stage}")


def centred(rng: random.Random, lo: float, hi: float,
            rel: float = 0.02) -> float:
    """Draw within +-rel (log scale) of the stratum's geometric centre."""
    return math.sqrt(lo * hi) * math.exp(rng.uniform(-rel, rel))


def loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _sandwich(z: complex) -> tuple[float, float]:
    return bounds.pseudomode_lower_bound(z), bounds.schur_upper_bound(z)


def _delta_root(alpha: float) -> float:
    # closed form of the point interaction's eigenvalue
    return 1.0 / alpha**2 - alpha**2 / 4.0


# ---------------------------------------------------------------------------
# bs_asymptotics: the Birman-Schwinger user going up in Re z.  Loads the
# dense kernel grid and BS assembly (memory and hs_sweep_s), the
# eigvals/Arnoldi spectral radius and the determinant secant.  fdop and
# field are never called.

def bs_asymptotics(seed: int, smoke: bool) -> list[Op]:
    ops: list[Op] = []
    pot = bs.gaussian()

    sweep_strata = ([(20, 30), (30, 45), (45, 70)] if smoke else
                    [(100, 200), (200, 500), (500, 1000), (1000, 2000),
                     (2000, 3200)])
    rng = _rng(seed, "sweep")
    sweep_re = [centred(rng, lo, hi) for lo, hi in sweep_strata]
    rows: dict[float, dict] = {}

    def sweep_check(re):
        def check(d):
            rows[re] = d
            if abs(d["l_hs"] - d["l_hs_closed"]) > 1e-9 * d["l_hs_closed"]:
                return (f"l_hs {d['l_hs']!r} != closed form "
                        f"{d['l_hs_closed']!r}")
            if re != sweep_re[-1]:
                return None
            # criterion 7 slopes over the whole sweep
            x = [r for r in sweep_re if r in rows]
            if len(x) < 3:
                return "sweep slopes: too few points survived"
            k, l, m = (_slope(x, [rows[r][key] for r in x])
                       for key in ("k_hs", "l_hs", "m_hs"))
            if abs(k - 0.5) > 0.05 or abs(l - 0.5) > 0.02 or abs(m) > 0.2:
                return f"sweep slopes k={k:.3f} l={l:.3f} m={m:.3f}"
            return None
        return check

    for re in sweep_re:
        z = complex(re, 0.5)
        ops.append(Op("hs_sweep", f"diag Re={re:.1f}",
                      lambda z=z: bs.decomposition_diagnostics(z, pot),
                      sweep_check(re)))

    # one Re z per decade: the low decades take the dense eigvals path,
    # the top one the Arnoldi path
    decades = [(1, 10), (10, 100)] if smoke else \
        [(1, 10), (10, 100), (100, 1000), (1000, 10000)]
    rng = _rng(seed, "escape")
    for lo, hi in decades:
        z = complex(centred(rng, lo, hi), 0.5)
        ops.append(Op(
            "escape", f"specrad Re={z.real:.2f}",
            lambda z=z: bs.spectral_radius(z, 0.125, pot),
            lambda r: None if r < 1.0 else f"spectral radius {r!r} >= 1"))

    n_roots = 4 if smoke else 40
    rng = _rng(seed, "roots")
    for i in range(n_roots):
        alpha = 1.0 + 1.5 * (i + rng.random()) / n_roots
        exact = _delta_root(alpha)
        z0 = exact + rng.choice((-1.0, 1.0)) * 0.05 * max(abs(exact), 0.25)

        def root_check(z, exact=exact):
            err = abs(z - exact)
            return None if err < 1e-3 else \
                f"root {z!r} is {err:.2e} from {exact!r}"

        ops.append(Op(
            "roots", f"root alpha={alpha:.4f}",
            lambda a=alpha, z0=z0: bs.find_eigenvalue(1.0, bs.delta_bump(a),
                                                      z0),
            root_check))
    ops.append(Op(
        "roots", "weak coupling rate",
        lambda: bs.weak_coupling_rate(bs.delta_bump(1.0)),
        lambda r: None if abs(r["slope"] + 2.0) <= 0.3 else
        f"weak-coupling slope {r['slope']:.3f}"))
    return ops


# ---------------------------------------------------------------------------
# strip_oracle: the pseudospectrum user checking the proved bounds with
# the independent oracles.  Loads fdop (dense SVD, banded Lanczos, sparse
# LU) and the O(n) scans in bounds.  No dense kernel and no field.

def strip_oracle(seed: int, smoke: bool) -> list[Op]:
    ops: list[Op] = []

    def fd_check(z):
        def check(r):
            lo, hi = _sandwich(z)
            if r.value + r.error < lo or r.value - r.error > hi:
                return (f"FD norm {r.value:.4g} +- {r.error:.3g} misses "
                        f"[{lo:.4g}, {hi:.4g}] at z={z}")
            return None
        return check

    def fd_op(z, n, known_defect=None):
        ops.append(Op("oracle", f"fd n={n} z={z:.3f}",
                      lambda: fdop.resolvent_norm_fd(z, n=n), fd_check(z),
                      known_defect))

    # the default n; the cost of its dense SVD depends on z, so both
    # coordinates are drawn near the stratum centre.  In the upper stratum
    # the default grid is too coarse: its value and error estimate miss
    # the proved sandwich (e.g. 5.42 +- 1.80 against a lower bound of 78.6
    # at z = 75 - 0.3i), while n = 20001 gives 198.3 +- 1.7 there.
    rng = _rng(seed, "fd_default")
    for lo, hi, known in [(5, 40, None),
                          (60, 100, "default-n FD oracle misses the proved "
                                    "sandwich for Re z in [60, 100]")]:
        im = rng.choice((-1.0, 1.0)) * rng.uniform(0.45, 0.5)
        fd_op(complex(centred(rng, lo, hi), im), 201 if smoke else 2001,
              known)

    # fine grid: banded Lanczos at a fixed n, so the draw spans the stratum
    rng = _rng(seed, "fd_fine")
    fine = [(5, 40), (40, 75)] if smoke else \
        [(5, 40), (40, 75), (75, 110), (110, 150)]
    for lo, hi in fine:
        fd_op(complex(loguniform(rng, lo, hi), rng.uniform(-0.5, 0.5)),
              3001 if smoke else 20001)

    rng = _rng(seed, "fd_eig")
    for lo, hi in [(1.2, 1.8), (1.8, 2.4)]:
        alpha = rng.uniform(lo, hi)
        exact = _delta_root(alpha)
        n = 20001 if smoke else 150001
        ops.append(Op(
            "fd_eig", f"eigenvalue_near alpha={alpha:.4f}",
            lambda a=alpha, e=exact, n=n: fdop.eigenvalue_near(
                e, n, 20.0, center_jump=a)[0],
            lambda v, e=exact: None if abs(v - e) < 1e-3 else
            f"FD eigenvalue {v!r} is {abs(v - e):.2e} from {e!r}"))

    def norm_check(z):
        def check(v):
            lo, hi = _sandwich(z)
            return None if lo <= v <= hi else \
                f"Nystrom norm {v:.6g} outside [{lo:.6g}, {hi:.6g}] at z={z}"
        return check

    rng = _rng(seed, "opnorm")
    for lo, hi in ([(20, 30), (50, 60)] if smoke else
                   [(200, 500), (1000, 3000)]):
        z = complex(centred(rng, lo, hi), rng.uniform(-0.3, 0.3))
        ops.append(Op(
            "opnorm", f"nystrom norm z={z:.2f}",
            lambda z=z: bounds.quadrature_operator_norm(
                z, bounds.default_strip_grid(z)),
            norm_check(z)))

    rng = _rng(seed, "ratio")
    taus = [centred(rng, lo, hi) for lo, hi in
            ([(100, 150), (300, 400)] if smoke else
             [(1e3, 3e3), (3e3, 1e4)])]
    ratios: dict[float, float] = {}

    def ratio_check(tau):
        def check(r):
            ratios[tau] = r
            if not (math.isfinite(r) and r > 1.0):
                return f"pseudomode ratio {r!r} at tau={tau:.1f}"
            if tau == taus[-1] and len(ratios) == len(taus):
                # criterion 9: the ratio grows at least like tau^0.2
                p = _slope(taus, [ratios[t] for t in taus])
                if p < 0.2:
                    return f"pseudomode ratio slope {p:.3f} < 0.2"
            return None
        return check

    for tau in taus:
        ops.append(Op(
            "opnorm", f"pseudomode ratio tau={tau:.1f}",
            lambda t=tau: bounds.regularized_pseudomode_ratio(t, 1.0),
            ratio_check(tau)))
    return ops


# ---------------------------------------------------------------------------
# cli_batch: the scripted CLI user.  Loads process start-up and import,
# the closed forms, field compute and export, and one small BS sweep.
# fdop is never reached.

def _r(x) -> str:
    return repr(float(x))


def _c(z) -> str:
    return f"{_r(z.real)} {_r(z.imag)}"


def _arg_c(z: complex) -> str:
    return f"{_r(z.real)},{_r(z.imag)}"


def _expect_bounds(z):
    out = f"region {kernel.classify_region(z).name}\n"
    try:
        lo, hi = _sandwich(z)
        return 0, out + f"lower {_r(lo)}\nupper {_r(hi)}\n"
    except DomainError:
        pass
    try:
        return 0, out + f"exact {_r(bounds.numrange_bound(z))}\n"
    except DomainError:
        return 1, out


def _expect_kernel(z, x, y):
    try:
        val = kernel.resolvent_kernel(z, x, y)
    except (SpectrumError, DomainError):
        return 1, ""
    return 0, (f"region {kernel.classify_region(z).name}\n"
               f"kernel {_c(val)}\n")


def _expect_dirichlet(z):
    try:
        return 0, f"norm {_r(models.dirichlet_resolvent_norm(z))}\n"
    except (SpectrumError, DomainError):
        return 1, ""


def _expect_delta(alpha):
    lam = models.delta_eigenvalue(alpha)
    return 0, (f"eigenvalue {_c(lam)}\n"
               f"exists {models.delta_eigenvalue_exists(alpha)}\n")


def _expect_gamma(sigma, r_max, count):
    return 0, "".join(
        f"alpha {_c(models.gamma_point(float(r), sigma))}\n"
        for r in np.linspace(0.0, r_max, count))


def _expect_step(a, b, lam_max):
    roots = models.find_step_eigenvalues(a, b, lam_max)
    return 0, f"count {len(roots)}\n" + "".join(
        f"eigenvalue {_r(lam)}\n" for lam in roots)


def _spectrum_point(rng, sign=None) -> complex:
    sign = rng.choice((-1.0, 1.0)) if sign is None else sign
    return complex(rng.uniform(0.5, 50.0), sign)


def _plane_point(rng) -> complex:
    return complex(rng.uniform(-5.0, 100.0), rng.uniform(-2.0, 2.0))


def _closed_commands(rng, smoke):
    """(argv, expected) pairs; four of twenty sit on the spectrum."""
    cmds = []

    def add(argv, expect):
        cmds.append((argv, functools.cache(expect)))

    def bounds_cmd(z):
        add(["bounds", f"--z={_arg_c(z)}"], lambda: _expect_bounds(z))

    def kernel_cmd(z):
        x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        add(["kernel", f"--z={_arg_c(z)}", f"--x={_r(x)}", f"--y={_r(y)}"],
            lambda: _expect_kernel(z, x, y))

    def dirichlet_cmd(z):
        add(["dirichlet", f"--z={_arg_c(z)}"], lambda: _expect_dirichlet(z))

    def delta_cmd():
        r, t = rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi)
        alpha = complex(r * math.cos(t), r * math.sin(t))
        add(["delta", f"--alpha={_arg_c(alpha)}"],
            lambda: _expect_delta(alpha))

    def gamma_cmd():
        sigma = rng.choice(models.all_sigma())
        r_max, count = rng.uniform(5.0, 20.0), rng.randint(20, 60)
        add(["gamma", f"--sigma={','.join(map(str, sigma))}",
             f"--r=0:{_r(r_max)}:{count}"],
            lambda: _expect_gamma(sigma, r_max, count))

    def step_cmd():
        a, b, lam = (rng.uniform(0.5, 1.5), rng.uniform(1.0, 4.0),
                     rng.uniform(20.0, 80.0))
        add(["step", f"--a={_r(a)}", f"--b={_r(b)}", f"--lam-max={_r(lam)}"],
            lambda: _expect_step(a, b, lam))

    if smoke:
        bounds_cmd(_plane_point(rng))
        bounds_cmd(_spectrum_point(rng))
        delta_cmd()
        return cmds
    for _ in range(3):
        bounds_cmd(_plane_point(rng))
    bounds_cmd(_spectrum_point(rng))
    for _ in range(3):
        kernel_cmd(_plane_point(rng))
    kernel_cmd(_spectrum_point(rng))
    for _ in range(2):
        dirichlet_cmd(_plane_point(rng))
    dirichlet_cmd(_spectrum_point(rng, 1.0))
    dirichlet_cmd(_spectrum_point(rng, -1.0))
    for _ in range(3):
        delta_cmd()
    for _ in range(3):
        gamma_cmd()
    for _ in range(2):
        step_cmd()
    return cmds


def run_cli(argv: list[str], in_process: bool) -> tuple[int, str]:
    """Exit code and stdout of the sgnspec CLI, run in a child process or
    in-process through ``sgnspec.cli.main``."""
    if in_process:
        out = io.StringIO()
        with redirect_stderr(io.StringIO()):
            code = cli.main(argv, out)
        return code, out.getvalue()
    proc = subprocess.run([sys.executable, "-m", "sgnspec.cli", *argv],
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode()


def cli_batch(seed: int, smoke: bool, workdir: Path,
              in_process: bool) -> list[Op]:
    ops: list[Op] = []

    def runner(argv):
        return run_cli(argv, in_process)

    def closed_check(expect):
        def check(res):
            code, text = res
            want_code, want = expect()
            if code != want_code:
                return f"exit {code}, expected {want_code}"
            if text != want:
                return f"stdout {text!r} != {want!r}"
            return None
        return check

    rng = _rng(seed, "closed")
    for argv, expect in _closed_commands(rng, smoke):
        ops.append(Op("closed", " ".join(argv),
                      lambda argv=argv: runner(argv), closed_check(expect)))

    rng = _rng(seed, "field")
    re_n, im_n = (20, 10) if smoke else (200, 100)
    csv_paths = []
    for i, fmt in enumerate(("csv", "json") if smoke else
                            ("csv", "json", "csv", "json")):
        spec = field.GridSpec(rng.uniform(-5.0, 0.0), rng.uniform(40.0, 80.0),
                              re_n, rng.uniform(-2.0, -1.5),
                              rng.uniform(1.5, 2.0), im_n)
        path = workdir / f"field{i}.{fmt}"
        argv = ["field",
                f"--re={_r(spec.re_min)}:{_r(spec.re_max)}:{re_n}",
                f"--im={_r(spec.im_min)}:{_r(spec.im_max)}:{im_n}",
                "--out", str(path)]
        render = field.field_to_csv if fmt == "csv" else field.field_to_json
        expect = functools.cache(
            lambda spec=spec, render=render: render(
                field.compute_field(spec)).encode())

        def field_check(res, path=path, expect=expect):
            code, _ = res
            if code != 0:
                return f"exit {code}"
            if path.read_bytes() != expect():
                return f"{path.name} differs from the in-process export"
            return None

        ops.append(Op("field", f"field {fmt} {re_n}x{im_n}",
                      lambda argv=argv: runner(argv), field_check))
        if fmt == "csv":
            csv_paths.append((path, re_n * im_n))

    def sweep_check(res):
        code, text = res
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != \
                "re k_hs l_hs l_hs_closed m_hs" or len(lines) != 4:
            return f"bs sweep exit {code}, output {text!r}"
        for line in lines[1:]:
            _, _, l_hs, closed, _ = map(float, line.split())
            if abs(l_hs - closed) > 1e-9 * closed:
                return f"bs sweep l_hs {l_hs!r} != closed form {closed!r}"
        return None

    ops.append(Op("bs_sweep", "bs sweep --re 25:100:3",
                  lambda: runner(["bs", "sweep", "--re", "25:100:3"]),
                  sweep_check))

    for path, rows in csv_paths:
        def load_check(cols, rows=rows):
            if len(cols["re"]) != rows:
                return f"read back {len(cols['re'])} rows, expected {rows}"
            ok = cols["status"] == field.STATUS_OK
            if not np.all(cols["lower"][ok] <= cols["upper"][ok]):
                return "read back lower > upper on an ok row"
            return None

        ops.append(Op("readback", f"load {path.name}",
                      lambda path=path: field.load_field_csv(str(path)),
                      load_check))
    return ops


def build(workload: str, seed: int, smoke: bool, workdir: Path,
          in_process: bool) -> list[Op]:
    if workload == "bs_asymptotics":
        return bs_asymptotics(seed, smoke)
    if workload == "strip_oracle":
        return strip_oracle(seed, smoke)
    return cli_batch(seed, smoke, workdir, in_process)


def warmup(workload: str) -> None:
    """The untimed warm-up op that set-up includes."""
    if workload == "bs_asymptotics":
        bs.decomposition_diagnostics(10 + 0.5j, bs.gaussian())
    elif workload == "strip_oracle":
        fdop.resolvent_norm_fd(5 + 0.5j, n=201)
    else:
        # one CLI call, so that bytecode caches are filled
        run_cli(["delta", "--alpha", "1"], in_process=False)
