"""Plant model: mass matrix, forces, dynamics, output, high-frequency gain."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funneltrack.errors import ConfigError, DomainError
from funneltrack.model import (ManipulatorParams, generalized_forces, libm,
                               mass_matrix, output, plant_rhs)
from funneltrack.sim import ClosedLoop, ScenarioConfig

P = ManipulatorParams()  # l = m = c = 1, d = 0.25


class TestParams:
    @pytest.mark.parametrize("bad", [dict(m=0.0), dict(l=-1.0), dict(d=-0.1),
                                     dict(l=0.0), dict(m=float("nan")), dict(c=-1.0)])
    def test_invalid_params_rejected(self, bad):
        with pytest.raises(ConfigError):
            ManipulatorParams(**bad)

    @pytest.mark.parametrize("bad", [dict(l=1e200),  # l**2 raises OverflowError
                                     dict(l=1e-200), dict(m=1e-320, l=1e-5),  # l^2 m is 0
                                     dict(m=1e300, l=1e10)])  # l^2 m is inf
    def test_l2m_outside_the_floats_rejected(self, bad):
        with pytest.raises(ConfigError, match="l\\^2 m must be finite and > 0"):
            ManipulatorParams(**bad)


class TestMassMatrix:
    def test_beta_zero(self):
        assert_allclose(mass_matrix(P, 0.0),
                        [[8 / 3, 5 / 6], [5 / 6, 1 / 3]], atol=1e-15)

    def test_beta_half_pi(self):
        assert_allclose(mass_matrix(P, math.pi / 2),
                        [[5 / 3, 1 / 3], [1 / 3, 1 / 3]], atol=1e-15)

    def test_scaling_with_mass(self):
        p = ManipulatorParams(m=2.0)
        cb = math.cos(0.5)
        expected = 2.0 * np.array([[5 / 3 + cb, 1 / 3 + cb / 2],
                                   [1 / 3 + cb / 2, 1 / 3]])
        assert_allclose(mass_matrix(p, 0.5), expected, atol=1e-15)


class TestForcesAndDynamics:
    def test_forces_vanish_at_origin(self):
        assert generalized_forces(P, np.zeros(4)) == (0.0, 0.0)

    def test_spring_only(self):
        f1, f2 = generalized_forces(P, [0.0, 0.1, 0.0, 0.0])
        assert f1 == 0.0
        assert f2 == pytest.approx(-0.1, abs=1e-15)

    def test_forces_general_point(self):
        x = np.array([0.0, 0.5, 1.0, 1.0])
        f1, f2 = generalized_forces(P, x)
        # independent recomputation straight from the definitions
        assert f1 == pytest.approx(0.5 * 1.0 * (2 * 1.0 + 1.0) * math.sin(0.5), rel=1e-15)
        assert f2 == pytest.approx(-0.5 - 0.25 - 0.5 * math.sin(0.5), rel=1e-15)

    def test_equilibrium(self):
        assert_allclose(plant_rhs(P, np.zeros(4), 0.0), np.zeros(4), atol=0.0)

    def test_unit_torque_at_rest(self):
        assert_allclose(plant_rhs(P, np.zeros(4), 1.0),
                        [0.0, 0.0, 12 / 7, -30 / 7], atol=1e-13)


class TestLibm:
    """``libm`` gives, in the input's shape, each entry's scalar-call bits."""

    # NaN, +-inf, subnormals and signed zeros; cos raises on inf (tested below)
    SPECIAL = [math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 0.0, -0.0]
    FINITE = [math.nan, 5e-324, -2.2e-308, 0.0, -0.0]

    @pytest.mark.parametrize("shape", [(0,), (7,), (3, 10), ()])
    @pytest.mark.parametrize("fn, args, special", [
        (math.exp, (), SPECIAL), (math.cos, (), FINITE), (pow, (5,), SPECIAL),
        (pow, (2,), SPECIAL), (math.atan2, (0.5,), SPECIAL)])
    def test_bitwise_the_scalar_calls(self, shape, fn, args, special):
        rng = np.random.default_rng(len(shape))
        x = np.asarray(rng.standard_normal(shape) * 3.0)
        x.flat[: len(special)] = special[: x.size]
        out = libm(fn, x, *args)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
        expected = [fn(v, *args) for v in x.ravel().tolist()]
        assert np.array(expected, dtype=float).tobytes() == out.tobytes()

    def test_a_float_is_one_scalar_call(self):
        assert libm(pow, 1.5, 5) == 1.5**5 and libm(math.exp, -0.0) == 1.0

    @pytest.mark.parametrize("fn, x, error", [(math.exp, 1000.0, OverflowError),
                                              (math.cos, math.inf, ValueError)])
    def test_an_exception_from_fn_propagates(self, fn, x, error):
        with pytest.raises(error):
            libm(fn, np.array([0.0, x, 1.0]))


class TestOutput:
    def test_zero(self):
        assert output(np.zeros(4)) == (0.0, 0.0)

    def test_end_effector_weight(self):
        assert output([1.0, 2.0, 3.0, 4.0]) == (2.0, 5.0)


class TestDomain:
    # the closed loop meets bif's admissible-region rule cos(beta) > 2/3 through psi
    loop = ClosedLoop(ScenarioConfig())

    def test_origin_inside(self):
        self.loop.evaluate(0.0, [0.0] * 4)

    def test_half_pi_outside(self):
        with pytest.raises(DomainError):
            self.loop.evaluate(0.0, [0.0, math.pi / 2, 0.0, 0.0])

    def test_boundary_is_excluded(self):
        for sign in (1.0, -1.0):
            with pytest.raises(DomainError):
                self.loop.evaluate(0.0, [0.0, sign * math.acos(2 / 3), 0.0, 0.0])
