import logging
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focuscal import solver
from focuscal.calibrate import (
    IntrinsicSet,
    ScaleSource,
    _Problem,
    calibrate_baseline,
    calibrate_proposed,
    extrinsics_from_homography,
    intrinsics_from_homographies,
)
from focuscal.core import Distortion
from focuscal.errors import FocusCalError
from focuscal.homography import estimate_homography
from focuscal.lens import CurveFit
from focuscal.solver import _NormalEquations, levenberg_marquardt
from focuscal.synth import (
    FOCUS_FIXED,
    FOCUS_VARYING,
    TemplateSpec,
    generate_dataset,
    generate_parallel_stack,
    load_preset,
)
from focuscal.scale import scale_factors

from blocks import blocks, dense, dense_normal, finite_difference_jacobian

ROBOTIQ = load_preset("robotiq")


def lm(residual, x0, jacobian=None, **kwargs):
    """``levenberg_marquardt`` on the dense blocks of ``jacobian``, or of central differences."""
    return levenberg_marquardt(residual, x0, dense_normal(residual, jacobian), **kwargs)


class TestLinearResidual:
    def test_converges_immediately(self):
        target = np.array([1.5, -2.0, 0.25])
        result = lm(lambda x: x - target, np.zeros(3))
        np.testing.assert_allclose(result.params, target, atol=1e-10)
        assert result.iterations <= 6
        assert result.termination in ("gradient", "step")

    def test_zero_residual_start(self):
        target = np.array([3.0, 4.0])
        result = lm(lambda x: x - target, target.copy())
        assert result.accepted == 0
        assert result.iterations == 0
        assert result.termination == "gradient"
        np.testing.assert_array_equal(result.params, target)


class TestRosenbrock:
    @staticmethod
    def residual(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def test_reaches_minimum(self):
        result = lm(self.residual, np.array([-1.2, 1.0]))
        assert result.objective < 1e-12
        np.testing.assert_allclose(result.params, [1.0, 1.0], atol=1e-6)

    def test_objective_monotone_over_accepted_steps(self):
        result = lm(self.residual, np.array([-1.2, 1.0]))
        history = np.array(result.objective_history)
        assert np.all(np.diff(history) <= 0)

    def test_analytic_jacobian_agrees(self):
        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        with_jac = lm(self.residual, np.array([-1.2, 1.0]), jacobian=jac)
        assert with_jac.objective < 1e-12

    def test_non_convergence_carries_partial_result(self):
        partial = lm(self.residual, np.array([-1.2, 1.0]), max_iterations=2)
        assert (partial.iterations, partial.termination) == (2, "max_iterations")
        assert partial.objective <= np.sum(self.residual(np.array([-1.2, 1.0])) ** 2)


class TestDiagnostics:
    def test_log_line_format(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="focuscal.solver"):
            lm(lambda x: x - 1.0, np.zeros(2))
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
            lm(lambda x: np.array([np.nan]), np.zeros(1))

    def test_rejected_steps_do_not_move_params(self):
        # A function whose minimum is at the start: every trial is rejected.
        target = np.zeros(2)
        result = lm(lambda x: x - target, target.copy())
        np.testing.assert_array_equal(result.params, target)


class TestJacobianLifetime:
    def test_previous_jacobian_released_before_next_call(self):
        # The solver keeps the scaled normal equations, not the blocks it was handed.
        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        previous = []
        still_alive = []

        def normal(x):
            if previous:
                still_alive.append(any(ref() is not None for ref in previous[-1]))
            jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
            out = blocks(jac, residual(x))
            previous.append([weakref.ref(a) for a in out])
            return out

        result = levenberg_marquardt(residual, np.array([-1.2, 1.0]), normal)
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
        result = lm(lambda x: np.array([x[0] - 2.0, (x[1] + 1.0) * 3.0]), np.zeros(2))
        np.testing.assert_allclose(result.params, [2.0, -1.0], atol=1e-9)


class TestIterationBudget:
    def test_validation(self):
        def residual(x):
            raise AssertionError("no work before the budget is checked")

        for count in (0, -3):
            for call in (
                lambda: levenberg_marquardt(residual, np.zeros(2), residual,
                                            max_iterations=count),
                lambda: calibrate_baseline(None, max_iterations=count),
                lambda: calibrate_proposed(None, None, max_iterations=count),
            ):
                with pytest.raises(ValueError, match="max_iterations must be at least 1"):
                    call()


def random_smooth_problem(seed):
    """Residual, analytic Jacobian and start of a small nonlinear least-squares
    problem: r(x) = y + c y^2 - b with y = A x, rows >= parameters."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    a = rng.normal(size=(n + int(rng.integers(0, 4)), n))
    b = rng.normal(size=len(a))
    c = rng.normal(size=len(a)) * rng.choice([0.0, 0.1, 1.0])

    def residual(x):
        y = a @ x
        return y + c * y**2 - b

    def jacobian(x):
        return (1.0 + 2.0 * c * (a @ x))[:, None] * a

    return residual, jacobian, rng.normal(size=n)


class TestTerminationProperties:
    """How a run ends, on random small problems with budgets of 1-6 iterations."""

    @settings(deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 6))
    def test_termination_says_how_the_run_ended(self, seed, budget):
        residual, jacobian, x0 = random_smooth_problem(seed)
        out = lm(residual, x0, jacobian, max_iterations=budget)
        more = lm(residual, x0, jacobian, max_iterations=budget + 20)
        assert out.termination in ("gradient", "step", "max_iterations")
        if out.termination == "max_iterations":
            # the budget, not a tolerance, ended the run: given more, it goes on
            assert out.iterations == budget
            assert more.iterations > budget
        else:
            # a tolerance ended it: the same run whatever the budget
            assert out.iterations <= budget
            assert (more.iterations, more.termination) == (out.iterations, out.termination)
            np.testing.assert_array_equal(more.params, out.params)
        if out.termination == "gradient":
            grad = jacobian(out.params).T @ residual(out.params)
            assert np.max(np.abs(grad)) < 1e-10
        history = np.array(out.objective_history)
        assert np.all(np.diff(history) < 0)
        assert history[0] == float(residual(x0) @ residual(x0))
        assert history[-1] == out.objective

    # Noise-free views: the refinements meet a tolerance after 4-6 iterations,
    # so budgets of 1-12 end both ways.
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 1000), budget=st.integers(1, 12),
           method=st.sampled_from(["baseline", "proposed"]))
    def test_calibration_converged_unless_budget_ran_out(self, seed, budget, method):
        views = generate_dataset(ROBOTIQ, TemplateSpec(5, 7, 12.0), np.linspace(300, 900, 6),
                                 FOCUS_FIXED, 0.0, seed)
        if method == "baseline":
            result = calibrate_baseline(views, max_iterations=budget)
        else:
            intr = ROBOTIQ.intrinsics
            source = ScaleSource(alpha_curve=CurveFit(k_f=0.0, value0=intr.alpha),
                                 beta_curve=CurveFit(k_f=0.0, value0=intr.beta))
            result = calibrate_proposed(views, source, max_iterations=budget)
        assert result.converged is (result.termination != "max_iterations")
        assert result.iterations <= budget
        assert result.converged or result.iterations == budget


@pytest.fixture(scope="module")
def readme_table():
    stack = generate_parallel_stack(ROBOTIQ, TemplateSpec(10, 14, 8.0),
                                    np.arange(45.0, 155.0, 5.0), 0.0, seed=73)
    return scale_factors(stack)


def quick_start(seed):
    """The README quick-start views (the calib-s geometry)."""
    return generate_dataset(ROBOTIQ, TemplateSpec(6, 9, 8.0),
                            np.r_[50.0, np.linspace(130, 145, 14)], FOCUS_VARYING, 0.25, seed)


def calibrate(method, views, table):
    if method == "baseline":
        return calibrate_baseline(views)
    return calibrate_proposed(views, table, image_size=ROBOTIQ.image_size)


class TestCalibrationRuns:
    def test_quick_start_iteration_total(self, readme_table):
        # 188 with the earlier damping start 1e-3 and step tolerance 1e-12
        results = [calibrate(method, quick_start(seed), readme_table)
                   for seed in range(8) for method in ("baseline", "proposed")]
        assert all(r.termination == "step" for r in results)
        assert sum(r.iterations for r in results) <= 140

    # The end point against six undamped Gauss-Newton steps from it. Over 96
    # calib-s and calib-m runs the worst gaps were 2.2e-9 relative (scales,
    # principal point) and 6.4e-8 absolute (gamma, k1, k2).
    @pytest.mark.parametrize("method", ["baseline", "proposed"])
    @pytest.mark.parametrize("geometry, seed", [("calib-s", s) for s in range(4)]
                             + [("calib-m", 1)])
    def test_ends_at_the_optimum(self, readme_table, method, geometry, seed):
        if geometry == "calib-s":
            views = quick_start(seed)
        else:
            views = generate_dataset(ROBOTIQ, TemplateSpec(12, 16, 3.0),
                                     np.linspace(80, 145, 60), FOCUS_VARYING, 0.25, seed)
        refined = calibrate(method, views, readme_table).refined
        intr = refined.intrinsics
        problem = _Problem(views, None if intr.shared else intr.scales, True)
        x = problem.pack(intr, refined.distortion, refined.poses)
        for _ in range(6):
            x = x + _NormalEquations(*problem.normal(x)).step(0.0)
        polished, dist, _ = problem.unpack(x)
        for name in ("u0", "v0"):
            assert getattr(intr, name) == pytest.approx(getattr(polished, name), rel=1e-8)
        np.testing.assert_allclose(intr.scales, polished.scales, rtol=1e-8, atol=0)
        assert intr.gamma == pytest.approx(polished.gamma, abs=1e-6)
        assert refined.distortion.k1 == pytest.approx(dist.k1, abs=1e-6)
        assert refined.distortion.k2 == pytest.approx(dist.k2, abs=1e-6)


def random_block_problem(rng, k, sizes, b=6):
    """Random dense block-arrow Jacobian with groups of ``sizes`` rows, its residual."""
    rows = sum(sizes)
    jac = np.zeros((rows, k + b * len(sizes)))
    jac[:, :k] = rng.normal(size=(rows, k)) * rng.uniform(0.1, 100.0, size=k)
    pose = rng.normal(size=(rows, b)) * rng.uniform(0.1, 100.0, size=b)
    for i, (start, end) in enumerate(zip(np.cumsum([0, *sizes[:-1]]), np.cumsum(sizes))):
        jac[start:end, k + b * i : k + b * (i + 1)] = pose[start:end]
    return jac, rng.normal(size=rows)


class TestBlockArrowStep:
    @pytest.mark.parametrize("k", [0, 3, 7])
    @pytest.mark.parametrize("lam", [1e-8, 1e-3, 1e3])
    def test_schur_step_matches_dense_solve(self, k, lam):
        rng = np.random.default_rng(100 + k)
        for sizes in ([9, 1, 14, 7], [30, 12, 1], [1, 40]):
            full, r = random_block_problem(rng, k, sizes)
            grad = full.T @ r
            normal = full.T @ full
            scale = np.sqrt(np.diag(normal))
            scaled = normal / np.outer(scale, scale) + lam * np.eye(len(scale))
            rhs = -grad / scale
            expected = np.linalg.solve(scaled, rhs)
            step = _NormalEquations(*blocks(full, r, k, 6)).step(lam) * scale
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
        full, target = random_block_problem(rng, 3, [1, 20, 15])
        full[0, 3:9] = 1.0

        def residual(x):
            return full @ x - target

        monkeypatch.setattr(solver, "_DAMPING_INIT", 1e-30)
        with caplog.at_level(logging.DEBUG, logger="focuscal.solver"):
            result = levenberg_marquardt(residual, np.zeros(full.shape[1]),
                                         dense_normal(residual, lambda x: full, 3, 6))
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
        assert jac.shape == (rows, k + 6)
        assert jac.base.nbytes == 8 * rows * (k + 7)  # with the residual column
        # one buffer per problem, refilled by each call
        problem.normal(x)
        x[0] += 1.0
        again = problem.jacobian(x)
        assert again.base is jac.base
        assert np.shares_memory(again, jac)
        # The quick start's 50 mm view has fewer points, and is first: the points are
        # held in view order, so no residual call permutes them.
        quick = generate_dataset(ROBOTIQ, TemplateSpec(6, 9, 8.0),
                                 np.r_[50.0, np.linspace(130, 145, 14)], FOCUS_VARYING, 0.25, 42)
        assert len({len(v) for v in quick}) == 2
        assert np.all(np.diff(_Problem(quick, None, True).view) >= 0)


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
        problem.residual, x0, jac=lambda x: dense(problem, x), method="lm",
        x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    alpha, beta = calibrate_baseline(views).refined.intrinsics.scales[0]
    assert alpha == pytest.approx(oracle.x[0], rel=1e-6)
    assert beta == pytest.approx(oracle.x[1], rel=1e-6)
