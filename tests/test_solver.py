import logging
import weakref

import numpy as np
import pytest

from focuscal import solver
from focuscal.calibrate import (
    IntrinsicSet,
    _Problem,
    calibrate_baseline,
    extrinsics_from_homography,
    intrinsics_from_homographies,
)
from focuscal.core import Distortion
from focuscal.errors import FocusCalError, NonConvergence
from focuscal.homography import estimate_homography
from focuscal.solver import (
    BlockJacobian,
    SolverOptions,
    _gradient,
    _NormalEquations,
    finite_difference_jacobian,
    levenberg_marquardt,
)
from focuscal.synth import FOCUS_FIXED, TemplateSpec, generate_dataset, load_preset

from blocks import dense

ROBOTIQ = load_preset("robotiq")


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


def random_block_problem(rng, k, sizes, b=6):
    """Random block-arrow Jacobian with groups of ``sizes`` rows, its residual."""
    rows = sum(sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    jac = BlockJacobian(
        rng.normal(size=(rows, k)) * rng.uniform(0.1, 100.0, size=k),
        rng.normal(size=(rows, b)) * rng.uniform(0.1, 100.0, size=b),
        starts,
    )
    return jac, rng.normal(size=rows)


class TestBlockArrowStep:
    @pytest.mark.parametrize("k", [0, 3, 7])
    @pytest.mark.parametrize("lam", [1e-8, 1e-3, 1e3])
    def test_schur_step_matches_dense_solve(self, k, lam):
        rng = np.random.default_rng(100 + k)
        for sizes in ([9, 1, 14, 7], [30, 12, 1], [1, 40]):
            jac, r = random_block_problem(rng, k, sizes)
            full = dense(jac)
            grad = full.T @ r
            np.testing.assert_allclose(_gradient(jac, r), grad, rtol=1e-12, atol=0)
            normal = full.T @ full
            scale = np.sqrt(np.diag(normal))
            scaled = normal / np.outer(scale, scale) + lam * np.eye(len(scale))
            rhs = -grad / scale
            expected = np.linalg.solve(scaled, rhs)
            step = _NormalEquations(jac, grad).step(lam) * scale
            # the Schur step solves the dense system ...
            assert np.linalg.norm(scaled @ step - rhs) <= 1e-12 * np.linalg.norm(rhs)
            # ... and so agrees with its dense solution up to its condition
            # number (6e8 for a one-row group at lam = 1e-8) times rounding
            bound = max(1e-10, 1e-15 * np.linalg.cond(scaled))
            assert np.linalg.norm(step - expected) <= bound * np.linalg.norm(expected)

    def test_rank_deficient_group_raises_damping(self, caplog, monkeypatch):
        # A one-row group whose six pose columns are equal: its scaled V_i + lam I
        # is exactly singular in floating point until lam reaches about 1e-16.
        rng = np.random.default_rng(111)
        jac, target = random_block_problem(rng, 3, [1, 20, 15])
        jac.pose[0] = 1.0
        full = dense(jac)
        monkeypatch.setattr(solver, "_DAMPING_INIT", 1e-30)
        with caplog.at_level(logging.DEBUG, logger="focuscal.solver"):
            result = levenberg_marquardt(
                lambda x: full @ x - target, np.zeros(full.shape[1]),
                jacobian=lambda x: jac,
            )
        lambdas = [float(r.getMessage().split("lambda=")[1].split()[0])
                   for r in caplog.records if r.getMessage().startswith("LM ")]
        assert lambdas[0] >= 1e-16
        best = np.linalg.lstsq(full, target)[0]
        assert result.objective == pytest.approx(np.sum((full @ best - target) ** 2), rel=1e-9)

    def test_problem_jacobian_is_compact(self):
        template = TemplateSpec(4, 5, 20.0)
        views = generate_dataset(ROBOTIQ, template, [300.0, 420.0, 540.0], FOCUS_FIXED,
                                 0.3, 112)
        problem = _Problem(views, None, estimate_distortion=True)
        x = problem.pack(IntrinsicSet.from_single(ROBOTIQ.intrinsics), Distortion(),
                         [v.gt_pose for v in views])
        jac = problem.jacobian(x)
        rows, k = 2 * len(problem.view), problem.n_intr
        assert jac.shape == (rows, problem.n_params)
        held = {id(b): b.nbytes for b in (a if a.base is None else a.base
                                          for a in (jac.shared, jac.pose))}
        assert sum(held.values()) <= 8 * rows * (k + 6)
        assert jac.starts is problem.starts  # built once per problem, not per call


def test_baseline_agrees_with_scipy_least_squares():
    optimize = pytest.importorskip("scipy.optimize")
    template = TemplateSpec(5, 7, 12.0)
    views = generate_dataset(ROBOTIQ, template, np.linspace(300, 900, 6), FOCUS_FIXED,
                             0.3, 113)
    homs = [estimate_homography(v.world, v.image) for v in views]
    intr0 = intrinsics_from_homographies(homs)
    poses0 = [extrinsics_from_homography(h, intr0.matrix) for h in homs]
    problem = _Problem(views, None, estimate_distortion=True)
    x0 = problem.pack(IntrinsicSet.from_single(intr0), Distortion(), poses0)
    oracle = optimize.least_squares(
        problem.residual, x0, jac=lambda x: dense(problem.jacobian(x)), method="lm",
        x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    alpha, beta = calibrate_baseline(views).refined.intrinsics.scales[0]
    assert alpha == pytest.approx(oracle.x[0], rel=1e-6)
    assert beta == pytest.approx(oracle.x[1], rel=1e-6)
