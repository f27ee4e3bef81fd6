"""Tests for the finite-difference oracle."""

import numpy as np
import pytest
import scipy.linalg as sla

from sgnspec.errors import ConfigError, SpectrumError
from sgnspec.fdop import (build_fd, eigenvalue_near, resolvent_norm_fd,
                          smoothed_sign, step_potential)
from sgnspec.kernel import resolvent_kernel_grid


class TestBuild:
    def test_shapes_and_symmetry(self):
        op = build_fd(101, 10.0)
        assert op.size == 101
        a = op.dense()
        assert np.allclose(a, a.T)

    def test_grid_includes_origin_for_odd_n(self):
        op = build_fd(101, 10.0)
        assert np.min(np.abs(op.nodes)) < 1e-12

    def test_center_jump_requires_odd_n(self):
        with pytest.raises(ConfigError):
            build_fd(100, 10.0, center_jump=2.0)

    def test_banded_matches_dense(self):
        op = build_fd(50, 5.0)
        z = 1 + 0.3j
        rhs = np.exp(-op.nodes**2)
        dense = np.linalg.solve(op.dense() - z * np.eye(op.size), rhs)
        banded = sla.solve_banded((1, 1), op.banded(z), rhs)
        assert np.allclose(dense, banded)

    def test_step_potential_cancels_sign_inside(self):
        v = step_potential(1.0, 3.0)(np.array([-0.5, 0.5, 2.0]))
        assert v[0] == -3.0 and v[1] == -3.0
        assert v[2] == 1j

    def test_smoothed_sign_ramp(self):
        v = smoothed_sign(1.0)(np.array([-2.0, -0.5, 0.0, 1.0]))
        assert v[0] == -1j and v[3] == 1j
        assert v[1] == pytest.approx(0.0)
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
        dense = 1.0 / sla.svdvals(op.dense() - z * np.eye(op.size))[-1]
        same_n = resolvent_norm_fd(z, n=1501, half_length=40.0,
                                   richardson=False)
        assert same_n.value == pytest.approx(dense, rel=1e-10)
        finer = resolvent_norm_fd(z, n=3101, half_length=40.0,
                                  richardson=False)
        assert finer.value == pytest.approx(dense, rel=2e-2)

    def test_richardson_error_reported(self):
        res = resolvent_norm_fd(25.0, n=4001)
        assert res.error < 0.1 * res.value

    def test_matches_kernel_solve(self):
        # FD solve vs closed-form kernel applied on the same grid
        z = -1 + 0.5j
        op = build_fd(2001, 20.0)
        f = np.exp(-op.nodes**2)
        u_fd = sla.solve_banded((1, 1), op.banded(z), f)
        u_kernel = (resolvent_kernel_grid(z, op.nodes, op.nodes)
                    * op.step) @ f
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
