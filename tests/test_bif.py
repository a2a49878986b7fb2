"""Normal-form transform and internal dynamics against the chain-rule oracle."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funneltrack.bif import (grad_phi1, grad_phi2, internal_rhs,
                             internal_rhs_oracle, phi_forward, phi_inverse)
from funneltrack.checks import fd_gradient, random_domain_states
from funneltrack.errors import DomainError
from funneltrack.model import ManipulatorParams

P = ManipulatorParams()
P_DAMPED = ManipulatorParams(d=0.25)


class TestForward:
    def test_origin(self):
        assert phi_forward(np.zeros(4)) == (0.0, 0.0, 0.0, 0.0)

    def test_pure_alpha_offset(self):
        assert phi_forward([1.0, 0.0, 0.0, 0.0]) == (1.0, 0.0, 0.0, 0.0)

    def test_general_point(self):
        z = phi_forward([0.0, 0.5, 1.0, 2.0])
        assert z.y == pytest.approx(0.25)
        assert z.y_dot == pytest.approx(2.0)
        assert z.eta1 == pytest.approx(0.5)
        assert z.eta2 == pytest.approx((1 / 3 + math.cos(0.5) / 2) * 1.0 + 2.0 / 3.0)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            phi_forward([0.0, 1.0, 0.0, 0.0])  # cos(1) < 2/3


class TestInverse:
    def test_origin(self):
        assert_allclose(phi_inverse(np.zeros(4)), np.zeros(4), atol=0.0)

    def test_pure_y_offset(self):
        assert_allclose(phi_inverse([1.0, 0.0, 0.0, 0.0]),
                        [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            phi_inverse([0.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda: phi_forward([0.0, math.nan, 0.0, 0.0]),
    lambda: phi_inverse([0.0, 0.0, math.nan, 0.0]),
    lambda: internal_rhs(P, (math.nan, 0.0), 0.0),
    lambda: internal_rhs_oracle(P, [0.0, math.nan, 0.0, 0.0]),
], ids=["phi_forward", "phi_inverse", "internal_rhs", "internal_rhs_oracle"])
def test_nan_angle_is_outside_the_domain(call):
    # cos(nan) is nan, which is not > 2/3: a DomainError, not NaN coordinates
    with pytest.raises(DomainError):
        call()

class TestJacobianStructure:
    def test_fd_jacobian_invertible(self):
        for x in random_domain_states(200, 29):
            J = fd_gradient(lambda z: phi_forward(z), x)
            assert abs(np.linalg.det(J)) >= 1e-3

    def test_analytic_gradients_match_fd(self):
        for x in random_domain_states(100, 31):
            J = fd_gradient(lambda z: phi_forward(z), x)
            for grad, idx in ((grad_phi1(), 2), (grad_phi2(x), 3)):
                assert np.max(np.abs(grad - J[idx])) < 1e-6

class TestInternalDynamics:
    def test_origin_fixed_point(self):
        assert internal_rhs(P_DAMPED, (0.0, 0.0), 0.0) == (0.0, 0.0)

    def test_ydot_coupling_at_origin(self):
        d1, d2 = internal_rhs(P_DAMPED, (0.0, 0.0), 1.0)
        assert d1 == pytest.approx(10.0, abs=1e-12)
        assert d2 == pytest.approx(-10.0 * 0.25, abs=1e-12)

    def test_oracle_origin(self):
        assert internal_rhs_oracle(P_DAMPED, np.zeros(4)) == (0.0, 0.0)

    def test_polynomial_degree_in_ydot(self):
        # eta1_dot affine, eta2_dot exactly quadratic in the output velocity
        rng = np.random.default_rng(47)
        for _ in range(50):
            eta = (rng.uniform(-0.7, 0.7), rng.uniform(-1.0, 1.0))
            ydots = np.array([-2.0, -0.5, 1.0, 2.5])
            vals = np.array([internal_rhs(P_DAMPED, eta, yd) for yd in ydots])
            cubic1 = np.polyfit(ydots, vals[:, 0], 3)
            cubic2 = np.polyfit(ydots, vals[:, 1], 3)
            assert abs(cubic1[0]) <= 1e-10 and abs(cubic1[1]) <= 1e-10
            assert abs(cubic2[0]) <= 1e-10

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            internal_rhs(P, (1.0, 0.0), 0.0)
