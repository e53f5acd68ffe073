import logging
import weakref

import numpy as np
import pytest

from focuscal.errors import FocusCalError, NonConvergence
from focuscal.solver import (
    SolverOptions,
    finite_difference_jacobian,
    levenberg_marquardt,
)


class TestLinearResidual:
    def test_converges_immediately(self):
        target = np.array([1.5, -2.0, 0.25])
        result = levenberg_marquardt(lambda x: x - target, np.zeros(3))
        np.testing.assert_allclose(result.params, target, atol=1e-10)
        assert result.iterations <= 6
        assert result.termination in ("gradient", "step")

    def test_zero_residual_start(self):
        target = np.array([3.0, 4.0])
        result = levenberg_marquardt(lambda x: x - target, target.copy())
        assert result.accepted == 0
        assert result.iterations == 0
        assert result.termination == "gradient"
        np.testing.assert_array_equal(result.params, target)


class TestRosenbrock:
    @staticmethod
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def test_reaches_minimum(self):
        result = levenberg_marquardt(self.residual, np.array([-1.2, 1.0]))
        assert result.objective < 1e-12
        np.testing.assert_allclose(result.params, [1.0, 1.0], atol=1e-6)

    def test_objective_monotone_over_accepted_steps(self):
        result = levenberg_marquardt(self.residual, np.array([-1.2, 1.0]))
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 0)

    def test_analytic_jacobian_agrees(self):
        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        with_jac = levenberg_marquardt(self.residual, np.array([-1.2, 1.0]), jacobian=jac)
        assert with_jac.objective < 1e-12

    def test_non_convergence_carries_partial_result(self):
        opts = SolverOptions(max_iterations=2)
        with pytest.raises(NonConvergence) as excinfo:
            levenberg_marquardt(self.residual, np.array([-1.2, 1.0]), opts)
        partial = excinfo.value.result
        assert partial is not None
        assert partial.termination == "max_iterations"
        assert partial.objective <= np.sum(self.residual(np.array([-1.2, 1.0])) ** 2)


class TestDiagnostics:
    def test_log_line_format(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="focuscal.solver"):
            levenberg_marquardt(lambda x: x - 1.0, np.zeros(2))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("LM ")]
        assert lines
        for line in lines:
            fields = dict(part.split("=") for part in line[3:].split())
            assert set(fields) == {"it", "obj", "lambda", "accepted"}
            assert fields["accepted"] in ("0", "1")
            float(fields["obj"])
            float(fields["lambda"])
            int(fields["it"])

    def test_non_finite_start_rejected(self):
        with pytest.raises(FocusCalError, match="residual is not finite at the starting point"):
            levenberg_marquardt(lambda x: np.array([np.nan]), np.zeros(1))

    def test_rejected_steps_do_not_move_params(self):
        # A function whose minimum is at the start: every trial is rejected.
        target = np.zeros(2)
        result = levenberg_marquardt(lambda x: x - target, target.copy())
        np.testing.assert_array_equal(result.params, target)


class TestJacobianLifetime:
    def test_previous_jacobian_released_before_next_call(self):
        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        previous = []
        still_alive = []

        def jacobian(x):
            if previous:
                still_alive.append(previous[-1]() is not None)
            jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
            previous.append(weakref.ref(jac))
            return jac

        result = levenberg_marquardt(residual, np.array([-1.2, 1.0]), jacobian=jacobian)
        assert result.objective < 1e-12
        assert len(still_alive) > 2
        assert not any(still_alive)


class TestFiniteDifferenceJacobian:
    def test_matches_analytic_on_smooth_function(self):
        def residual(x):
            return np.array([x[0] ** 2 + np.sin(x[1]), x[0] * x[1]])

        x = np.array([0.7, -0.3])
        fd = finite_difference_jacobian(residual, x)
        analytic = np.array([[2 * x[0], np.cos(x[1])], [x[1], x[0]]])
        assert np.abs(fd - analytic).max() < 1e-8

    def test_used_when_jacobian_omitted(self):
        result = levenberg_marquardt(
            lambda x: np.array([x[0] - 2.0, (x[1] + 1.0) * 3.0]), np.zeros(2)
        )
        np.testing.assert_allclose(result.params, [2.0, -1.0], atol=1e-9)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)
        with pytest.raises(ValueError):
            SolverOptions(gradient_tol=-1.0)
