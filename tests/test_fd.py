"""Tests for the finite-difference oracle."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from _reference import (arpack_eigenvalue_near, arpack_sigma_min,
                        fd_banded, fd_dense, kernel_matrix)
from sgnspec import fdop, krylov, models
from sgnspec.bounds import pseudomode_lower_bound, schur_upper_bound
from sgnspec.errors import (ConfigError, ConvergenceError, SingularError,
                             SpectrumError)
from sgnspec.fdop import (_resolved_n, _sigma_min_banded, _tridiag_lu,
                          build_fd, eigenvalue_near, resolvent_norm_fd,
                          step_potential)
from sgnspec.quadrature import decay_half_length


def _free(x):
    return np.zeros_like(x, dtype=complex)


def _count_solves(monkeypatch):
    """The list that every back-substitution of fdop's LU solvers appends
    its trans flag to from now on."""
    solves = []

    def counting_lu(op, shift):
        solve = _tridiag_lu(op, shift)

        def counted(b, trans="N"):
            solves.append(trans)
            return solve(b, trans)

        return counted

    monkeypatch.setattr(fdop, "_tridiag_lu", counting_lu)
    return solves


def _split(op):
    """op with the bond across the origin cut, as in criterion 6: two
    decoupled Dirichlet halves (even n, so no node at 0)."""
    off = op.offdiag.copy()
    off[op.size // 2 - 1] = 0.0
    return type(op)(nodes=op.nodes, diag=op.diag, offdiag=off,
                    half_length=op.half_length, step=op.step)



class TestBuild:
    def test_shapes_and_symmetry(self):
        op = build_fd(101, 10.0)
        assert op.size == 101
        a = fd_dense(op)
        assert np.allclose(a, a.T)

    def test_grid_includes_origin_for_odd_n(self):
        op = build_fd(101, 10.0)
        assert np.min(np.abs(op.nodes)) < 1e-12

    def test_center_jump_requires_odd_n(self):
        with pytest.raises(ConfigError):
            build_fd(100, 10.0, center_jump=2.0)

    @pytest.mark.parametrize("jump",
                             [math.nan, math.inf, complex(2.0, math.nan)])
    def test_center_jump_must_be_finite(self, jump):
        # once a NaN on the diagonal, without a word
        with pytest.raises(ConfigError, match="center_jump must be finite"):
            build_fd(101, 10.0, center_jump=jump)

    def test_potential_must_be_callable(self):
        # a name is not a potential: a typed error, not a bare KeyError
        with pytest.raises(ConfigError):
            build_fd(5, 1.0, "sgnn")

    @pytest.mark.parametrize("n", [2001.0, 101.5, "2001", None])
    def test_non_integer_n_raises(self, n):
        # typed, not a bare TypeError from np.full
        with pytest.raises(ConfigError, match="integer"):
            build_fd(n, 10.0)

    def test_banded_matches_dense(self):
        # the tridiagonal LU solves, plain and adjoint, against dense
        # LAPACK solves of the same matrix
        op = build_fd(50, 5.0)
        z = 1 + 0.3j
        rhs = np.exp(-op.nodes**2) * (1.0 + 0.5j * op.nodes)
        a = fd_dense(op) - z * np.eye(op.size)
        solve = _tridiag_lu(op, z)
        assert np.allclose(solve(rhs), np.linalg.solve(a, rhs))
        assert np.allclose(solve(rhs, "C"), np.linalg.solve(a.conj().T, rhs))

    def test_step_potential_cancels_sign_inside(self):
        v = step_potential(1.0, 3.0)(np.array([-0.5, 0.5, 2.0]))
        assert v[0] == -3.0 and v[1] == -3.0
        assert v[2] == 1j


class TestResolventNorm:
    @pytest.mark.parametrize("z", [5 + 1j, 3 - 1j, 1j, -1j])
    def test_on_spectrum_raises(self, z):
        # the norm is infinite on the rays; no finite estimate may come back
        with pytest.raises(SpectrumError):
            resolvent_norm_fd(z, n=201)

    def test_dense_and_banded_agree(self):
        # reference: smallest singular value from a dense SVD
        z = 9 + 0.4j
        op = build_fd(1501, 40.0)
        dense = 1.0 / sla.svdvals(fd_dense(op) - z * np.eye(op.size))[-1]
        same_n = 1.0 / _sigma_min_banded(op, z)
        assert same_n == pytest.approx(dense, rel=1e-10)
        finer = 1.0 / _sigma_min_banded(build_fd(3101, 40.0), z)
        assert finer == pytest.approx(dense, rel=2e-2)

    @pytest.mark.parametrize("n, half_length, z", [
        (401, 200.0, 20 - 0.5j),
        (601, 300.0, 30 + 0.4j),
    ])
    def test_dense_reference_under_resolved(self, n, half_length, z):
        # 4/h^2 < Re z: the smallest singular values cluster, and Lanczos
        # must still find the smallest one
        op = build_fd(n, half_length)
        assert 4.0 / op.step**2 < z.real
        dense = sla.svdvals(fd_dense(op) - z * np.eye(op.size))[-1]
        assert _sigma_min_banded(op, z) == pytest.approx(dense, rel=1e-10)

    def test_resolved_grid_meets_sandwich(self):
        # n = 20001 resolves the oscillation at 76.58 - 0.486i and is
        # kept; the derived grid does too, with h * kappa <= sqrt(0.3)
        # on its coarse grid (n = 2001 there has h * kappa = 5.5 and
        # takes the derived grid, see below)
        for z, n in [(76.58 - 0.486j, 20001), (76.58 - 0.486j, None),
                     (40 + 0.75j, None)]:
            res = resolvent_norm_fd(z, n=n)
            assert (pseudomode_lower_bound(z) <= res.value
                    <= schur_upper_bound(z)), (z, n)
            if n is None:
                h = 2.0 * decay_half_length(z) / ((res.n - 1) // 2 + 1)
                kappa = math.sqrt(max(abs(z - 1j), abs(z + 1j), 1.0))
                assert h * kappa <= math.sqrt(0.3), z

    @pytest.mark.parametrize("z", [5 + 0.5j, -1 + 0.5j, 2 + 3j])
    def test_derived_grid_keeps_2001_where_it_resolves(self, z):
        assert resolvent_norm_fd(z) == resolvent_norm_fd(z, n=2001)

    def test_derived_grid_past_the_ceiling_raises(self, monkeypatch):
        # 2.69M nodes: typed, and before build_fd allocates anything; an
        # explicit n = 2001 has h * kappa >= 2 there and takes that grid
        def fail(*args):
            raise AssertionError("allocated")

        monkeypatch.setattr(fdop, "build_fd", fail)
        for n in (None, 2001):
            with pytest.raises(ConfigError, match=r"needs n = \d{7} "):
                resolvent_norm_fd(1e4 + 0.5j, n=n)

    @pytest.mark.parametrize("n", [fdop.MAX_ORACLE_NODES + 2, 10**9])
    def test_explicit_n_past_the_ceiling_raises(self, monkeypatch, n):
        # h * kappa < 2 kept an explicit n whatever its size: n = 10**9
        # went on to a ~16 GB np.arange and a MemoryError
        def fail(*args):
            raise AssertionError("allocated")

        monkeypatch.setattr(fdop, "build_fd", fail)
        with pytest.raises(ConfigError, match="MAX_ORACLE_NODES"):
            resolvent_norm_fd(5 + 0.5j, n=n)

    def test_explicit_n_at_the_ceiling_is_kept(self):
        z = 5 + 0.5j
        assert _resolved_n(z, decay_half_length(z),
                           fdop.MAX_ORACLE_NODES) == fdop.MAX_ORACLE_NODES

    def test_under_resolved_explicit_n_takes_derived_grid(self):
        # h * kappa = 5.5 >= 2: n = 2001 cannot represent z's oscillation
        # (on its own it gives 0.028 +- 0.004), so the call runs the
        # derived grid
        z = 76.58 - 0.486j
        res = resolvent_norm_fd(z, n=2001)
        assert res == resolvent_norm_fd(z)
        assert (pseudomode_lower_bound(z) <= res.value
                <= schur_upper_bound(z))

    def test_under_resolved_explicit_n_solve_count(self, monkeypatch):
        # Lanczos on the n = 2001 grid itself needs 6,562 solves, as its
        # smallest singular values cluster to ~1e-6 relative; the
        # derived grids take 8 each (ARPACK took 42 each)
        solves = _count_solves(monkeypatch)
        resolvent_norm_fd(76.58 - 0.486j, n=2001)
        assert len(solves) <= 24

    def test_strip_solve_count(self, monkeypatch):
        # sigma_2/sigma_1 is large in the strip: Lanczos stops after a few
        # steps on both grids (16 solves; ARPACK's 20-vector basis took 84)
        solves = _count_solves(monkeypatch)
        resolvent_norm_fd(25 + 0.3j, n=4001)
        assert len(solves) <= 24

    @pytest.mark.parametrize("n", [-1, 2])
    def test_explicit_n_below_three_raises(self, n):
        # typed, before the grid rule divides by n + 1
        with pytest.raises(ConfigError, match="at least 3"):
            resolvent_norm_fd(5 + 0.5j, n=n)

    @pytest.mark.parametrize("z, n", [(5 + 0.5j, 2001.0),
                                      (76.58 - 0.486j, 201.0)])
    def test_explicit_non_integer_n_raises(self, z, n):
        # typed, whether n would be kept (a bare TypeError from np.full
        # before) or replaced by the derived grid (silently, before)
        with pytest.raises(ConfigError, match="integer"):
            resolvent_norm_fd(z, n=n)

    def test_no_convergence_is_typed(self, monkeypatch):
        # the clustered n = 401 grid below needs 253 Lanczos steps, more
        # than one basis of 20 holds
        monkeypatch.setattr(krylov, "_RESTARTS", 0)
        with pytest.raises(ConvergenceError):
            _sigma_min_banded(build_fd(401, 200.0), 20 - 0.5j)

    def test_explicit_n_that_resolves_is_kept(self):
        # h * kappa = 1.23 < 2 at tau = 100, n = 6001 (criterion 1)
        assert resolvent_norm_fd(100.0, n=6001).n == 12003

    def test_singular_shift_raises(self):
        # h = 1 and V = 0: A - 2 has a zero diagonal and is singular
        with pytest.raises(SingularError):
            _sigma_min_banded(build_fd(3, 2.0, _free), 2.0)

    def test_repeated_calls_bitwise_equal(self):
        # a fixed Lanczos start vector: no run-to-run jitter in the digits
        z = 20 + 0.3j
        assert resolvent_norm_fd(z, n=201) == resolvent_norm_fd(z, n=201)

    def test_richardson_error_reported(self):
        res = resolvent_norm_fd(25.0, n=4001)
        assert res.error < 0.1 * res.value

    def test_matches_kernel_solve(self):
        # FD solve vs closed-form kernel applied on the same grid
        z = -1 + 0.5j
        op = build_fd(2001, 20.0)
        f = np.exp(-op.nodes**2)
        u_fd = sla.solve_banded((1, 1), fd_banded(op, z), f)
        u_kernel = (kernel_matrix(z, op.nodes, op.nodes) * op.step) @ f
        err = np.linalg.norm(u_fd - u_kernel) / np.linalg.norm(u_fd)
        assert err < 1e-3


class TestEigenvalues:
    def test_point_interaction_eigenvalue(self):
        vals = eigenvalue_near(-0.75, 40001, 20.0, center_jump=2.0)
        assert abs(vals[0] - (-0.75)) < 1e-3

    def test_step_ground_state(self):
        pot = step_potential(1.0, 3.0)
        vals = eigenvalue_near(-2.0166, 60001, 25.0, potential=pot,
                               cell_average=True)
        assert abs(vals[0] - (-2.016668769510181)) < 1e-4

    def test_repeated_calls_are_bitwise_equal(self):
        # ARPACK's own random start vector once moved the last digits
        a, b = (eigenvalue_near(-0.75, 4001, 20.0, center_jump=2.0)
                for _ in range(2))
        assert a.tobytes() == b.tobytes()

    def test_no_convergence_is_typed(self, monkeypatch):
        # a target amid the discretized continuum: more than 20 Arnoldi
        # steps to machine precision
        monkeypatch.setattr(krylov, "_RESTARTS", 0)
        with pytest.raises(ConvergenceError):
            eigenvalue_near(10.0, 2001, 20.0)

    def test_solve_count(self, monkeypatch):
        # criterion 3's input: 3 solves (ARPACK's 20-vector basis took 21)
        solves = _count_solves(monkeypatch)
        eigenvalue_near(models.delta_eigenvalue(2.0), 150001, 20.0,
                        center_jump=2.0)
        assert len(solves) <= 6

    def test_non_integer_n_raises(self):
        with pytest.raises(ConfigError, match="integer"):
            eigenvalue_near(-0.75, 4001.0, 20.0, center_jump=2.0)

    def test_singular_shift_raises(self):
        with pytest.raises(SingularError):
            eigenvalue_near(2.0, 3, 2.0, potential=_free)


class TestArpackReference:
    """The package's Krylov iteration against the ARPACK calls it
    replaced: sigma_min to 1e-12 relative, eigenvalues to 1e-12."""

    @pytest.mark.parametrize("z", [
        5 + 0.5j, 25 + 0.3j, 76.58 - 0.486j, 300 + 0.3j,  # the strip
        -1 + 0.5j, -0.3 + 0.2j, -0.5, -3 + 0.1j, 2 + 3j,  # left, above
    ])
    def test_sigma_min_on_the_oracle_grids(self, z):
        # the coarse and fine grids that resolvent_norm_fd(z) takes
        half_length = decay_half_length(z)
        n = _resolved_n(z, half_length, None)
        for m in (n, 2 * n + 1):
            op = build_fd(m, half_length)
            assert _sigma_min_banded(op, z) == pytest.approx(
                arpack_sigma_min(op, z), rel=1e-12, abs=0.0), m

    @pytest.mark.parametrize("n, half_length, z", [
        (401, 200.0, 20 - 0.5j),
        (601, 300.0, 30 + 0.4j),
    ])
    def test_sigma_min_on_clustered_grids(self, n, half_length, z):
        op = build_fd(n, half_length)
        assert _sigma_min_banded(op, z) == pytest.approx(
            arpack_sigma_min(op, z), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z", [2 - 0.8j, 11.56 + 0.0889j, 45 + 0.8j])
    def test_sigma_min_of_the_split_operator(self, z):
        op = _split(build_fd(4000, 60.0))
        assert _sigma_min_banded(op, z) == pytest.approx(
            arpack_sigma_min(op, z), rel=1e-12, abs=0.0)

    # the eigenvalue_near inputs of this file and of criterion 3
    @pytest.mark.parametrize("target, n, half_length, kwargs", [
        (-0.75, 40001, 20.0, {"center_jump": 2.0}),
        (-2.0166, 60001, 25.0, {"potential": step_potential(1.0, 3.0),
                                "cell_average": True}),
        (-0.75, 4001, 20.0, {"center_jump": 2.0}),
        (-0.75, 101, 20.0, {"center_jump": 2.0}),
        (models.delta_eigenvalue(2.0), 150001, 20.0, {"center_jump": 2.0}),
    ])
    def test_eigenvalue_near(self, target, n, half_length, kwargs):
        got = eigenvalue_near(target, n, half_length, **kwargs)
        want = arpack_eigenvalue_near(
            build_fd(n, half_length, **kwargs), target)
        assert got.shape == want.shape == (1,)
        assert abs(got[0] - want[0]) <= 1e-12
