"""Linearization, eigensplit and the auxiliary-output derivative ladder."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funneltrack.bif import phi_forward
from funneltrack.checks import fd_gradient, random_domain_states
from funneltrack.linid import eigensplit, linearize, psi, ynew_derivatives
from funneltrack.model import ManipulatorParams, gamma, plant_rhs

P = ManipulatorParams()  # l = m = c = 1, d = 0.25
LIN = eigensplit(P)


class TestLinearize:
    def test_printed_matrices(self):
        Q, Pv = linearize(P)
        assert_allclose(Q, [[0.0, -12.0], [-1.0, 3.0]], atol=0.0)
        assert_allclose(Pv, [10.0, -2.5], atol=0.0)

    def test_springless_limit_loses_hyperbolicity(self):
        Q, _ = linearize(ManipulatorParams(c=0.0))
        assert np.linalg.det(Q) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValueError):
            eigensplit(ManipulatorParams(c=0.0))


class TestEigensplit:
    def test_closed_form_eigenvalues(self):
        assert LIN.lambda1 == pytest.approx(1.5 - 2.0 * math.sqrt(3.5625), abs=1e-12)
        assert LIN.lambda2 == pytest.approx(1.5 + 2.0 * math.sqrt(3.5625), abs=1e-12)
        assert LIN.lambda1 == pytest.approx(-2.274917217635375, abs=1e-9)
        assert LIN.lambda2 == pytest.approx(5.274917217635375, abs=1e-9)

    def test_against_generic_eigensolver(self):
        w = np.sort(np.linalg.eigvals(LIN.Q).real)
        assert w[0] == pytest.approx(LIN.lambda1, abs=1e-10)
        assert w[1] == pytest.approx(LIN.lambda2, abs=1e-10)

    def test_hyperbolic_split_random_params(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            length = rng.uniform(0.2, 3.0)
            p = ManipulatorParams(m=rng.uniform(0.2, 4.0), l=length,
                                  c=rng.uniform(0.05, 8.0), d=rng.uniform(0.0, 2.0))
            lin = eigensplit(p)
            assert lin.lambda1 < 0 < lin.lambda2
            assert lin.p2 > 0  # det V < 0 and lambda1 < 0 make p2 positive
            assert_allclose(lin.Vinv @ lin.Q @ lin.V,
                            np.diag([lin.lambda1, lin.lambda2]), atol=1e-9)

    def test_sign_convention_yields_negative_effective_gain(self):
        # lam2 * p2 * Gamma < 0 on the admissible region, matching u = +k2 e2
        for beta in np.linspace(-0.8, 0.8, 33):
            assert LIN.lambda2 * LIN.p2 * gamma(P, beta) < 0.0


class TestPsi:
    def test_origin(self):
        assert psi(LIN, np.zeros(4)) == 0.0

    def test_definition_restated(self):
        for x in random_domain_states(1000, 59):
            z = phi_forward(x)
            eta_hat2 = LIN.Vinv[1] @ np.array([z.eta1, z.eta2])
            want = eta_hat2 - LIN.p2 * (x[0] + 0.5 * x[1])
            assert abs(psi(LIN, x) - want) < 1e-12

    def test_pure_alpha_offset(self):
        assert psi(LIN, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(-LIN.p2, abs=1e-14)


class TestDerivativeLadder:
    def test_origin(self):
        assert ynew_derivatives(LIN, np.zeros(4)) == (0.0, 0.0, 0.0)

    def test_ladder_identity(self):
        for x in random_domain_states(500, 61):
            y0, y1, y2 = ynew_derivatives(LIN, x)
            ydot = x[2] + 0.5 * x[3]
            assert y2 == pytest.approx(LIN.lambda2 * y1 + LIN.lambda2 * LIN.p2 * ydot,
                                       rel=1e-13, abs=1e-13)
            assert y1 == pytest.approx(LIN.lambda2 * (y0 + LIN.p2 * (x[0] + 0.5 * x[1])),
                                       rel=1e-13, abs=1e-13)

    def test_alpha_offset_cancels_in_first_derivative(self):
        _, y1, _ = ynew_derivatives(LIN, [1.0, 0.0, 0.0, 0.0])
        assert y1 == pytest.approx(0.0, abs=1e-12)

    def test_relative_degree_three_structure(self):
        # d/du of the ladder's second derivative along the flow is lam2*p2*Gamma
        for x in random_domain_states(100, 67, vel_scale=1.0):
            grad = fd_gradient(lambda z: ynew_derivatives(LIN, z)[2], x)
            du = (grad @ plant_rhs(P, x, 1.0) - grad @ plant_rhs(P, x, -1.0)) / 2.0
            want = LIN.lambda2 * LIN.p2 * gamma(P, x[1])
            assert du == pytest.approx(want, rel=1e-6, abs=1e-6)
            assert abs(want) > 0.0
