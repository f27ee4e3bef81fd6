"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) so the gate can be audited at a glance.  Tolerances are frozen
here on purpose; loosening them is a release decision, not a test fix.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from _reference import fd_banded
from sgnspec import bounds, bs, field, models
from sgnspec.closed import ray_distances, spectrum_distance, wave_numbers
from sgnspec.fdop import (_sigma_min_banded, build_fd, eigenvalue_near,
                          resolvent_norm_fd, step_potential)
from sgnspec.quadrature import QuadratureGrid


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


def test_criterion_1_two_sided_sandwich():
    """Lower/oracle/upper ordering and predicted magnitudes at z = tau."""
    lines = []
    ok = True
    for tau in (25.0, 50.0, 100.0):
        lo = bounds.pseudomode_lower_bound(tau)
        hi = bounds.schur_upper_bound(tau)
        oracle = resolvent_norm_fd(tau, n=6001).value
        ok &= 0.75 * lo <= oracle <= 1.25 * hi
        ok &= abs(lo - tau) <= 0.10 * tau
        ok &= abs(hi - 4 * tau) <= 0.15 * 4 * tau
        lines.append(f"tau={tau:g} lo={lo:.2f} fd={oracle:.2f} hi={hi:.2f}")
    report("criterion 1 (two-sided sandwich)", ok, "; ".join(lines))


def test_criterion_2_kernel_vs_fd_solve():
    """Quadrature resolvent vs FD linear solve, plus discrete residual."""
    z = -1 + 0.5j
    errs = []
    for n in (2001, 4001):
        op = build_fd(n, 20.0)
        f = np.exp(-op.nodes**2)
        u_fd = sla.solve_banded((1, 1), fd_banded(op, z), f)
        grid = QuadratureGrid(nodes=op.nodes,
                              weights=np.full(n, op.step),
                              half_length=op.half_length)
        u_q = bounds.apply_resolvent(z, grid, f)
        errs.append(np.linalg.norm(u_q - u_fd) / np.linalg.norm(u_fd))
    # discrete differential residual of the quadrature solution
    op = build_fd(4001, 20.0)
    grid = QuadratureGrid(nodes=op.nodes, weights=np.full(4001, op.step),
                          half_length=op.half_length)
    f = np.exp(-op.nodes**2)
    u = bounds.apply_resolvent(z, grid, f)
    a = fd_banded(op, z)
    resid = (a[1] * u
             + np.concatenate(([0], a[0][1:] * u[:-1]))
             + np.concatenate((a[2][:-1] * u[1:], [0])))
    resid_rel = np.linalg.norm(resid - f) / np.linalg.norm(f)
    ok = errs[1] < 1e-3 and resid_rel < 1e-3
    report("criterion 2 (kernel vs FD solve)", ok,
           f"solve errs={errs[0]:.2e}->{errs[1]:.2e} resid={resid_rel:.2e}")


def test_criterion_3_point_interaction_triangle():
    """Closed form, FD jump condition, and BS bump root all agree."""
    exact = models.delta_eigenvalue(2.0)
    fd = eigenvalue_near(exact, 150001, 20.0, center_jump=2.0)[0]
    det_root = bs.find_eigenvalue(1.0, bs.delta_bump(2.0), -0.7)
    d1 = abs(exact - fd)
    d2 = abs(exact - det_root)
    d3 = abs(fd - det_root)
    ok = max(d1, d2, d3) < 1e-3
    report("criterion 3 (point-interaction triangle)", ok,
           f"exact={exact:.6g} fd={fd:.6g} bs={det_root:.6g} "
           f"max pairwise={max(d1, d2, d3):.2e}")


def test_criterion_4_exceptional_curve():
    """All curve points push the eigenvalue onto the rays; off-curve
    couplings obey the existence criterion: lam off the rays and the
    wave numbers at it summing to alpha, 2i / (k_plus - k_minus) =
    alpha."""
    worst = 0.0
    ok = True
    for sigma in models.all_sigma():
        for r in np.linspace(0.0, 50.0, 200):
            lam = models.delta_eigenvalue(models.gamma_point(float(r), sigma))
            worst = max(worst, abs(abs(lam.imag) - 1.0))
            ok &= lam.real > -1e-10
            ok &= abs(abs(lam.imag) - 1.0) < 1e-10
    rng = np.random.default_rng(0)
    agree = 0
    for _ in range(1000):
        alpha = complex(*rng.uniform(-4, 4, 2))
        if abs(alpha) < 1e-6:
            alpha = 1.0
        lam = models.delta_eigenvalue(alpha)
        on_ray = (abs(abs(lam.imag) - 1.0) < 1e-12
                  and lam.real > -1e-12)
        kp, km = wave_numbers(lam)
        bound = abs(2j / (kp - km) - alpha) <= 1e-9 * abs(alpha)
        agree += models.delta_eigenvalue_exists(alpha) == (
            bound and not on_ray)
    ok &= agree == 1000
    report("criterion 4 (exceptional curve)", ok,
           f"1600 curve points worst |Im lam|-1 = {worst:.2e}; "
           f"off-curve agreement {agree}/1000")


def test_criterion_5_step_model():
    """Transcendental roots match FD eigenvalues; counts grow with the
    search window."""
    a, b = 1.0, 3.0
    roots = models.find_step_eigenvalues(a, b, 60.0)
    pot = step_potential(a, b)
    worst = 0.0
    for lam in roots:
        fd = eigenvalue_near(complex(lam), 800001, 250.0, potential=pot,
                             cell_average=True)[0]
        worst = max(worst, abs(fd - lam))
    counts = [len(models.find_step_eigenvalues(a, b, m))
              for m in (60.0, 120.0, 240.0)]
    ok = worst < 1e-3 and counts[0] <= counts[1] <= counts[2]
    report("criterion 5 (step model)", ok,
           f"{len(roots)} roots, worst fd gap {worst:.2e}, counts {counts}")


def test_criterion_6_dirichlet_contrast():
    """Split operator has trivial pseudospectra; the full one does not."""
    ok = True
    worst_ratio = 0.0
    for re in np.linspace(2.0, 45.0, 10):
        for im in np.linspace(-0.8, 0.8, 10):
            z = complex(re, im)
            op = build_fd(4000, 60.0)  # even n: no node at x = 0
            # decouple the halves: cut the bond crossing the origin
            off = op.offdiag.copy()
            off[op.size // 2 - 1] = 0.0
            split = type(op)(nodes=op.nodes, diag=op.diag, offdiag=off,
                             half_length=op.half_length, step=op.step)
            norm = 1.0 / _sigma_min_banded(split, z)
            trivial = 1.0 / min(ray_distances(z))
            worst_ratio = max(worst_ratio, norm / trivial)
            ok &= norm <= 1.05 * trivial
    full = resolvent_norm_fd(50.0, n=6001).value
    dirichlet_val = models.dirichlet_resolvent_norm(50.0)
    ok &= full > 10.0 * dirichlet_val
    report("criterion 6 (Dirichlet contrast)", ok,
           f"split/trivial worst {worst_ratio:.3f}; "
           f"full {full:.1f} vs Dirichlet {dirichlet_val:.1f} at z=50")


def test_criterion_7_bs_scaling():
    """HS growth ~ sqrt(Re z); singular part carries it, remainder flat."""
    rates = bs.hs_growth_rates(bs.gaussian(),
                               [100.0, 316.0, 1000.0, 3162.0, 10000.0])
    k, l, m = (rates["k_hs_slope"], rates["l_hs_slope"],
               rates["m_hs_slope"])
    ok = abs(k - 0.5) <= 0.05 and abs(l - 0.5) <= 0.02 and abs(m) <= 0.2
    report("criterion 7 (BS scaling)", ok,
           f"slopes k={k:.3f} l={l:.3f} m={m:.3f}")


def test_criterion_8_weak_coupling():
    """Eigenvalue escapes like eps^-2; Gaussian well has no root at all."""
    res = bs.weak_coupling_rate(bs.delta_bump(1.0), (0.5, 0.25, 0.125))
    slope_ok = abs(res["slope"] - (-2.0)) <= 0.3
    scan = bs.escape_scan(bs.gaussian(), 0.125,
                          [1.0, 10.0, 100.0, 1000.0, 10000.0])
    ok = slope_ok and scan["escaped"]
    report("criterion 8 (weak coupling)", ok,
           f"slope={res['slope']:.3f}; gaussian max spectral radius "
           f"{scan['max_radius']:.3f} over Re z <= 1e4")


def test_criterion_9_smooth_regularization():
    """Pseudomode survives smoothing with a (Re z)^{1/4}-type rate."""
    taus = [100.0, 316.0, 1000.0, 3162.0, 10000.0]
    ratios = [bounds.regularized_pseudomode_ratio(t, 1.0) for t in taus]
    slope = float(np.polyfit(np.log(taus), np.log(ratios), 1)[0])
    ok = slope >= 0.2
    report("criterion 9 (smooth regularization)", ok,
           f"slope={slope:.3f} (prediction 0.25)")


def test_criterion_10_cli_determinism(tmp_path):
    """Golden CLI invocations reproduce byte-identically."""
    cases = [
        ["bounds", "--z", "100,0.3"],
        ["kernel", "--z=-1,0.5", "--x", "0.3", "--y=-0.2"],
        ["delta", "--alpha", "2"],
        ["gamma", "--sigma", "1,1,1", "--r", "0:10:50"],
        ["step", "--a", "1", "--b", "3", "--lam-max", "60"],
        ["dirichlet", "--z", "5,0.5"],
        ["bs", "sweep", "--re", "25:100:3"],
        ["bs", "rate", "--potential", "delta", "--alpha", "1"],
    ]
    ok = True
    for argv in cases:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "sgnspec.cli",
                                   *argv], capture_output=True)
            ok &= proc.returncode == 0
            outs.append(proc.stdout)
        ok &= outs[0] == outs[1]
    # field export as a file-level fixture
    paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for p in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "sgnspec.cli", "field", "--re=-2:40:6",
             "--im=-1.5:1.5:5", "--out", str(p)],
            capture_output=True)
        ok &= proc.returncode == 0
    ok &= paths[0].read_bytes() == paths[1].read_bytes()
    report("criterion 10 (CLI determinism)", ok,
           f"{len(cases)} commands + field export byte-identical")
