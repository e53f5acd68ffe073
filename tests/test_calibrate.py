import dataclasses
import logging

import numpy as np
import pytest

from focuscal import calibrate
from focuscal.calibrate import (
    CalibrationView,
    IntrinsicSet,
    Solution,
    _nearest_rotations,
    _Problem,
    calibrate_baseline,
    calibrate_proposed,
    extrinsics_from_homography,
    intrinsics_from_homographies,
    reprojection_stats,
    solution_residuals,
)
from focuscal.core import (
    Distortion,
    Intrinsics,
    Pose,
    project_points,
    undistort_points,
)
from focuscal.errors import FocusCalError
from focuscal.lens import CurveFit
from focuscal.scale import ScaleTable, scale_factors
from focuscal.homography import estimate_homography
from focuscal.io import calibration_to_dict, canonical_dumps
from focuscal.solver import levenberg_marquardt
from focuscal.synth import (
    FOCUS_FIXED,
    FOCUS_VARYING,
    TemplateSpec,
    generate_dataset,
    generate_parallel_stack,
    load_preset,
)

from blocks import blocks, dense, dense_normal, finite_difference_jacobian
from per_view import rodrigues, rotation

ROBOTIQ = load_preset("robotiq")


def rotation_angle(rot_a, rot_b):
    return np.linalg.norm(rodrigues(rot_a @ rot_b.T))


def nearest_rotation(q):
    rot, singular = _nearest_rotations(np.asarray(q, dtype=float)[None])
    return rot[0], singular[0]


class TestOrthogonalizeRotation:
    """The nearest-rotation kernel of the pose decomposition, one matrix at a time."""

    def test_rotation_unchanged(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            rot = rotation(rng.normal(size=3))
            np.testing.assert_allclose(nearest_rotation(rot)[0], rot, atol=1e-12)

    def test_scaling_removed(self):
        np.testing.assert_allclose(nearest_rotation(2.0 * np.eye(3))[0], np.eye(3))

    def test_nearest_rotation_beats_local_search(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rot = rotation(rng.normal(size=3))
            noisy = rot + rng.normal(scale=1e-3, size=(3, 3))
            best = nearest_rotation(noisy)[0]
            base = np.linalg.norm(best - noisy)
            # dense local search over small rotation perturbations
            for _ in range(500):
                candidate = best @ rotation(rng.normal(scale=1e-3, size=3))
                assert np.linalg.norm(candidate - noisy) >= base - 1e-12

    def test_determinant_forced_positive(self):
        flip = np.diag([1.0, 1.0, -1.0])
        out = nearest_rotation(flip)[0]
        assert np.linalg.det(out) > 0.999999

    def test_singular_input(self):
        assert nearest_rotation(np.zeros((3, 3)))[1]
        assert not nearest_rotation(np.eye(3))[1]


def homography_from_pose(intr, pose):
    rot = pose.matrix
    return intr.matrix @ np.column_stack([rot[:, 0], rot[:, 1], pose.translation])


class TestExtrinsicsFromHomography:
    intr = Intrinsics(1000.0, 990.0, 0.2, 640.0, 360.0)

    def test_fronto_parallel_construction(self):
        pose = Pose(np.zeros(3), [0.0, 0.0, 1000.0])
        h = homography_from_pose(self.intr, pose)
        got = extrinsics_from_homography(h, self.intr.matrix)
        np.testing.assert_allclose(got.matrix, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(got.translation, [0, 0, 1000.0], atol=1e-9)

    def test_random_pose_recovery(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            pose = Pose(rng.normal(scale=0.4, size=3),
                        [rng.uniform(-80, 80), rng.uniform(-80, 80), rng.uniform(400, 1500)])
            h = homography_from_pose(self.intr, pose) * rng.uniform(0.1, 10.0)
            got = extrinsics_from_homography(h, self.intr.matrix)
            assert rotation_angle(got.matrix, pose.matrix) < 1e-8
            np.testing.assert_allclose(got.translation, pose.translation, atol=1e-8)

    def test_scale_normalizes_rotation_columns(self):
        rng = np.random.default_rng(33)
        pose = Pose(rng.normal(scale=0.3, size=3), [10.0, -20.0, 800.0])
        h = homography_from_pose(self.intr, pose) * 3.7
        a_inv = np.linalg.inv(self.intr.matrix)
        b = a_inv @ h
        rho = 1.0 / np.linalg.norm(b[:, 0])
        assert np.linalg.norm(rho * b[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rho * b[:, 1]) == pytest.approx(1.0, abs=1e-3)

    def test_behind_camera(self):
        pose_t = np.array([10.0, 5.0, 0.0])  # template plane through the camera
        rot = rotation([0.1, 0.0, 0.0])
        h = self.intr.matrix @ np.column_stack([rot[:, 0], rot[:, 1], pose_t])
        with pytest.raises(FocusCalError, match="no scale sign puts the template in front of the camera"):
            extrinsics_from_homography(h, self.intr.matrix)

    def test_singular_intrinsics(self):
        with pytest.raises(FocusCalError, match="intrinsic matrix is not invertible"):
            extrinsics_from_homography(np.eye(3), np.zeros((3, 3)))


class TestClosedFormIntrinsics:
    def test_exact_recovery(self):
        rng = np.random.default_rng(34)
        intr = Intrinsics(1370.8, 1373.8, 0.5, 645.8, 359.3)
        hs = []
        for _ in range(6):
            pose = Pose(rng.normal(scale=0.35, size=3), [0.0, 0.0, 900.0])
            hs.append(homography_from_pose(intr, pose))
        got = intrinsics_from_homographies(hs)
        assert got.alpha == pytest.approx(intr.alpha, rel=1e-9)
        assert got.beta == pytest.approx(intr.beta, rel=1e-9)
        assert got.gamma == pytest.approx(intr.gamma, abs=1e-6)
        assert got.u0 == pytest.approx(intr.u0, rel=1e-9)
        assert got.v0 == pytest.approx(intr.v0, rel=1e-9)

    def test_two_views_rejected(self):
        intr = Intrinsics(1000.0, 1000.0)
        hs = [homography_from_pose(intr, Pose([0.3, 0, 0], [0, 0, 500.0])),
              homography_from_pose(intr, Pose([0, 0.3, 0], [0, 0, 500.0]))]
        with pytest.raises(FocusCalError, match="need at least three views for the closed form"):
            intrinsics_from_homographies(hs)

    def test_pure_translation_views_rejected(self):
        intr = Intrinsics(1000.0, 1000.0, 0.0, 600.0, 400.0)
        hs = [
            homography_from_pose(intr, Pose(np.zeros(3), [dx, 0.0, 700.0]))
            for dx in (0.0, 30.0, 60.0, 90.0)
        ]
        with pytest.raises(FocusCalError, match="view orientations do not constrain the intrinsics"):
            intrinsics_from_homographies(hs)


def make_views(preset, template, distances, mode, noise, seed, tilt=(5.0, 30.0)):
    return generate_dataset(preset, template, distances, mode, noise, seed,
                            tilt_range_deg=tilt)


def cut_views(seed):
    """The README quick-start geometry with view 3 cut to 4 points and view 7 to 5."""
    views = make_views(ROBOTIQ, TemplateSpec(6, 9, 8.0), np.r_[50.0, np.linspace(130, 145, 14)],
                       FOCUS_VARYING, 0.25, seed)
    for i, count in ((3, 4), (7, 5)):
        v = views[i]
        keep = [0, 8, 45, 53, 22][:count]  # the corners, then a central point
        views[i] = CalibrationView(v.view_id, v.distance_mm, v.world[keep], v.image[keep],
                                   v.gt_pose)
    return views


class TestJacobian:
    @pytest.mark.parametrize("method, estimate_distortion", [
        ("baseline", True), ("proposed", True), ("baseline", False), ("proposed", False),
    ], ids=["baseline", "proposed", "baseline-nodist", "proposed-nodist"])
    def test_normal_blocks_match_dense_products(self, method, estimate_distortion):
        views = cut_views(0)
        assert sorted({len(v) for v in views}) == [4, 5, 26, 54]
        truth = ROBOTIQ.intrinsics
        if method == "baseline":
            scales = ((1.01 * truth.alpha, 0.99 * truth.beta),)
        else:
            scales = tuple((truth.alpha * (1 + 1e-3 * i), truth.beta * (1 - 1e-3 * i))
                           for i in range(len(views)))
        intr = IntrinsicSet(645.0, 355.0, 0.3, scales, method == "baseline")
        rng = np.random.default_rng(56)
        poses = [Pose(v.gt_pose.rodrigues + rng.normal(scale=0.01, size=3),
                      v.gt_pose.translation * rng.uniform(0.98, 1.02)) for v in views]
        problem = _Problem(views, intr, estimate_distortion)
        x = problem.pack(intr, Distortion(0.01, -0.02), poses)
        k, r = problem.n_intr, problem.residual(x)
        u, w, v, grad = problem.normal(x)
        assert (u.shape, w.shape, v.shape, grad.shape) == (
            (k, k), (len(views), k, 6), (len(views), 6, 6), (problem.n_params,))
        fd = finite_difference_jacobian(problem.residual, x)
        for jac, tol in ((dense(problem, x), 1e-12), (fd, 1e-6)):
            expected = blocks(jac, r, k, 6)
            # each entry against its Cauchy-Schwarz bound sqrt(N_ii N_jj)
            norms = np.sqrt(np.sum(jac * jac, axis=0))
            su, sp = norms[:k], norms[k:].reshape(-1, 6)
            for got, want, bound in zip(
                (u, w, v, grad), expected,
                (np.outer(su, su), su[:, None] * sp[:, None, :],
                 sp[:, :, None] * sp[:, None, :], norms * np.linalg.norm(r)),
            ):
                assert np.all(np.abs(got - want) <= tol * bound)

    # Both methods are one model: proposed with the baseline's pair at every
    # view is the baseline, to the bit.
    @pytest.mark.parametrize("estimate_distortion", [True, False])
    def test_proposed_at_the_baseline_pair_is_the_baseline(self, estimate_distortion):
        views = cut_views(0)
        truth = ROBOTIQ.intrinsics
        pair = (1.01 * truth.alpha, 0.99 * truth.beta)
        starts = (IntrinsicSet(645.0, 355.0, 0.3, (pair,), True),
                  IntrinsicSet(645.0, 355.0, 0.3, (pair,) * len(views), False))
        rng = np.random.default_rng(57)
        poses = [Pose(v.gt_pose.rodrigues + rng.normal(scale=0.01, size=3),
                      v.gt_pose.translation * rng.uniform(0.98, 1.02)) for v in views]
        base, prop = (_Problem(views, start, estimate_distortion) for start in starts)
        xb, xp = (problem.pack(start, Distortion(0.01, -0.02), poses)
                  for problem, start in zip((base, prop), starts))
        assert base.residual(xb).tobytes() == prop.residual(xp).tobytes()
        jb, jp = base.jacobian(xb), prop.jacobian(xp)
        for name, j in prop.columns.items():
            assert jb[:, base.columns[name]].tobytes() == jp[:, j].tobytes(), name
        assert jb[:, -6:].tobytes() == jp[:, -6:].tobytes()
        assert prop.unpack(xp)[0].scales == (pair,) * len(views)

    def test_analytic_matches_central_differences(self):
        template = TemplateSpec(4, 5, 20.0)
        views = make_views(ROBOTIQ, template, [300.0, 420.0], FOCUS_FIXED, 0.3, 35)
        for shared in (True, False):
            rng = np.random.default_rng(36)
            for _ in range(10):
                if shared:
                    intr = IntrinsicSet(
                        rng.uniform(600, 700), rng.uniform(340, 380),
                        rng.uniform(-0.5, 0.5),
                        ((rng.uniform(1200, 1500), rng.uniform(1200, 1500)),), True,
                    )
                else:
                    intr = IntrinsicSet(
                        rng.uniform(600, 700), rng.uniform(340, 380),
                        rng.uniform(-0.5, 0.5), ((1340.0, 1345.0), (1355.0, 1350.0)), False,
                    )
                problem = _Problem(views, intr, estimate_distortion=True)
                dist = Distortion(rng.uniform(-0.02, 0.02), rng.uniform(-0.05, 0.05))
                poses = [
                    Pose(v.gt_pose.rodrigues + rng.normal(scale=0.02, size=3),
                         v.gt_pose.translation * rng.uniform(0.97, 1.03))
                    for v in views
                ]
                x = problem.pack(intr, dist, poses)
                analytic = dense(problem, x)
                fd = np.empty_like(analytic)
                for j in range(x.size):
                    step = 1e-6 * max(1.0, abs(x[j]))
                    xp = x.copy(); xp[j] += step
                    xm = x.copy(); xm[j] -= step
                    fd[:, j] = (problem.residual(xp) - problem.residual(xm)) / (2 * step)
                scale = max(1.0, np.abs(analytic).max())
                assert np.abs(analytic - fd).max() / scale < 1e-5

    def test_unequal_view_sizes(self):
        # views of different sizes expose any mix-up of point and view indices
        template = TemplateSpec(4, 5, 20.0)
        full = make_views(ROBOTIQ, template, [300.0, 420.0, 540.0], FOCUS_FIXED, 0.3, 38)
        views = [
            CalibrationView(v.view_id, v.distance_mm, v.world[:keep], v.image[:keep], v.gt_pose)
            for v, keep in zip(full, (20, 7, 13))
        ]
        assert [len(v) for v in views] == [20, 7, 13]
        rng = np.random.default_rng(39)
        poses = [
            Pose(v.gt_pose.rodrigues + rng.normal(scale=0.02, size=3), v.gt_pose.translation)
            for v in views
        ]
        dist = Distortion(0.01, -0.03)
        frozen = [(1340.0, 1345.0), (1355.0, 1350.0), (1362.0, 1366.0)]
        for intr in (
            IntrinsicSet(650.0, 360.0, 0.2, ((1380.0, 1370.0),), True),
            IntrinsicSet(650.0, 360.0, 0.2, tuple(frozen), False),
        ):
            problem = _Problem(views, intr, True)
            x = problem.pack(intr, dist, poses)
            unpacked_intr, unpacked_dist, unpacked_poses = problem.unpack(x)
            sol = Solution(unpacked_intr, unpacked_poses, unpacked_dist, None)
            per_view = solution_residuals(sol, views)
            assert [len(r) for r in per_view] == [20, 7, 13]
            for i, (view, pose) in enumerate(zip(views, poses)):
                alpha, beta = intr.scales[0 if intr.shared else i]
                single = Intrinsics(alpha, beta, intr.gamma, intr.u0, intr.v0)
                expected = undistort_points(view.image, single, dist) - project_points(
                    view.world, single, pose
                )
                np.testing.assert_array_equal(per_view[i], expected)
            np.testing.assert_array_equal(
                problem.residual(x), np.concatenate(per_view).ravel()
            )
            analytic = dense(problem, x)
            fd = finite_difference_jacobian(problem.residual, x)
            scale = max(1.0, np.abs(analytic).max())
            assert np.abs(analytic - fd).max() / scale < 1e-5


class TestCalibrationView:
    @pytest.mark.parametrize("distance", [0.0, -5.0, np.inf, np.nan])
    def test_distance_must_be_positive_and_finite(self, distance):
        # an infinite distance would match a scale table's first row
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="view distance must be positive and finite"):
            CalibrationView("v", distance, square, square)


class TestCalibrateBaseline:
    def test_exact_recovery_fixed_plateau(self):
        template = TemplateSpec(6, 8, 25.0)
        views = make_views(ROBOTIQ, template, np.linspace(350, 900, 8), FOCUS_FIXED, 0.0, 37)
        result = calibrate_baseline(views)
        assert result.converged
        intr = result.refined.intrinsics
        truth = ROBOTIQ.intrinsics
        assert intr.scales[0][0] == pytest.approx(truth.alpha, rel=1e-6)
        assert intr.scales[0][1] == pytest.approx(truth.beta, rel=1e-6)
        assert intr.u0 == pytest.approx(truth.u0, rel=1e-6)
        assert intr.v0 == pytest.approx(truth.v0, rel=1e-6)
        assert result.refined.stats.mean_abs_px < 1e-8
        for i, view in enumerate(views):
            pose = result.refined.poses[i]
            assert rotation_angle(pose.matrix, view.gt_pose.matrix) < 1e-6
            rel = np.linalg.norm(pose.translation - view.gt_pose.translation)
            rel /= np.linalg.norm(view.gt_pose.translation)
            assert rel < 1e-6

    def test_zone1_bias_one_signed_with_tiny_reprojection(self):
        # Mostly upper-zone-1 views plus one close-up: the single fitted focal
        # length is dragged below the cluster and nearly every depth reads
        # closer to the template than it really was.
        template = TemplateSpec(6, 9, 8.0)
        distances = np.concatenate([[50.0], np.linspace(130, 145, 14)])
        views = make_views(ROBOTIQ, template, distances, FOCUS_VARYING, 0.0, 38)
        result = calibrate_baseline(views)
        assert result.refined.stats.mean_abs_px < 0.1
        dz = np.array(
            [result.refined.poses[i].translation[2] - views[i].gt_pose.translation[2]
             for i in range(len(views))]
        )
        assert max((dz < 0).mean(), (dz > 0).mean()) >= 0.9
        assert np.abs(dz).max() > 0.1  # bias is real, not numerical noise

    def test_two_views_rejected(self):
        template = TemplateSpec(5, 6, 20.0)
        views = make_views(ROBOTIQ, template, [400.0, 500.0], FOCUS_FIXED, 0.0, 39)
        with pytest.raises(FocusCalError, match="need at least three views$"):
            calibrate_baseline(views)

    def test_converged_follows_termination(self):
        template = TemplateSpec(5, 6, 20.0)
        views = make_views(ROBOTIQ, template, [350.0, 500.0, 700.0], FOCUS_FIXED, 0.5, 40)
        partial = calibrate_baseline(views, max_iterations=1)
        assert not partial.converged
        assert dataclasses.replace(partial, termination="step").converged

    def test_non_finite_start_rejected_before_the_statistics(self):
        # one point far off its view puts that view behind its starting camera
        template = TemplateSpec(4, 5, 25.0)
        views = make_views(ROBOTIQ, template, np.linspace(300, 900, 6), FOCUS_FIXED, 0.2, 7)
        image = views[2].image.copy()
        image[3, 0] = 0.0
        views[2] = dataclasses.replace(views[2], image=image)
        with pytest.raises(FocusCalError, match="^residual is not finite at the starting point$"):
            calibrate_baseline(views)

    def test_non_convergence_carries_partial(self):
        template = TemplateSpec(5, 6, 20.0)
        views = make_views(ROBOTIQ, template, [350.0, 500.0, 700.0], FOCUS_FIXED, 0.5, 40)
        partial = calibrate_baseline(views, max_iterations=1)
        assert partial.converged is False
        assert (partial.iterations, partial.termination) == (1, "max_iterations")
        assert len(partial.refined.poses) == 3


class TestCalibrateProposed:
    def exact_table(self, distances):
        alpha = np.array([ROBOTIQ.intrinsics.alpha * ROBOTIQ.focus_ratio(d) for d in distances])
        beta = np.array([ROBOTIQ.intrinsics.beta * ROBOTIQ.focus_ratio(d) for d in distances])
        return ScaleTable(np.asarray(distances, dtype=float), alpha, beta)

    def test_noise_free_zone1_recovery(self):
        template = TemplateSpec(6, 9, 8.0)
        distances = np.linspace(70, 140, 8)
        views = make_views(ROBOTIQ, template, distances, FOCUS_VARYING, 0.0, 41)
        table = self.exact_table([v.distance_mm for v in views])
        result = calibrate_proposed(views, table, image_size=ROBOTIQ.image_size)
        assert result.converged
        assert result.refined.stats.mean_abs_px < 1e-6
        for i, view in enumerate(views):
            pose = result.refined.poses[i]
            assert rotation_angle(pose.matrix, view.gt_pose.matrix) < 1e-6
            rel = np.linalg.norm(pose.translation - view.gt_pose.translation)
            rel /= np.linalg.norm(view.gt_pose.translation)
            assert rel < 1e-4

    def test_scales_frozen_bit_for_bit(self):
        template = TemplateSpec(5, 7, 10.0)
        distances = np.linspace(80, 140, 5)
        views = make_views(ROBOTIQ, template, distances, FOCUS_VARYING, 0.3, 42)
        table = self.exact_table([v.distance_mm for v in views])
        result = calibrate_proposed(views, table, image_size=ROBOTIQ.image_size)
        for i, view in enumerate(views):
            idx = int(np.argmin(np.abs(table.distances - view.distance_mm)))
            assert result.refined.intrinsics.scales[i][0] == table.alpha[idx]
            assert result.refined.intrinsics.scales[i][1] == table.beta[idx]

    def test_missing_scale_for_distance(self):
        template = TemplateSpec(5, 7, 10.0)
        views = make_views(ROBOTIQ, template, [100.0], FOCUS_VARYING, 0.0, 43)
        table = ScaleTable([500.0], [1370.0], [1373.0])
        with pytest.raises(FocusCalError, match="no scale-table row within 10% of 100"):
            calibrate_proposed(views, table, image_size=ROBOTIQ.image_size)

    def test_curve_source_used_beyond_table(self):
        template = TemplateSpec(5, 7, 10.0)
        views = make_views(ROBOTIQ, template, [100.0, 120.0, 130.0], FOCUS_VARYING, 0.0, 44)
        table = ScaleTable([500.0], [1370.8], [1373.8])
        fit = CurveFit(k_f=0.0, value0=ROBOTIQ.intrinsics.alpha * ROBOTIQ.focus_ratio(120.0))
        result = calibrate_proposed(views, table, (fit, fit), image_size=ROBOTIQ.image_size)
        assert result.converged
        assert result.refined.intrinsics.scales == ((fit.value0, fit.value0),) * 3

    @pytest.mark.parametrize("source", [
        (ScaleTable([100.0], [-1370.0], [1373.0]), None),
        (ScaleTable([100.0], [1370.0], [0.0]), None),
        (None, (CurveFit(k_f=3e9, value0=1000.0),) * 2),
        (None, (CurveFit(k_f=0.0, value0=1370.0), CurveFit(k_f=3e9, value0=1000.0))),
    ])
    def test_non_positive_scale_rejected(self, source):
        # a table and a curve pair, as calibrate_proposed takes them
        template = TemplateSpec(5, 7, 10.0)
        views = make_views(ROBOTIQ, template, [100.0], FOCUS_VARYING, 0.0, 43)
        with pytest.raises(FocusCalError, match=r"scale factors at 100\.0\d* mm must be positive"):
            calibrate_proposed(views, *source, image_size=ROBOTIQ.image_size)

    def test_centre_init_perturbation_is_harmless(self):
        # moving the principal-point start does not change the converged answer
        template = TemplateSpec(6, 9, 8.0)
        distances = np.linspace(75, 140, 6)
        views = make_views(ROBOTIQ, template, distances, FOCUS_VARYING, 0.0, 45)
        table = self.exact_table([v.distance_mm for v in views])
        a = calibrate_proposed(views, table, image_size=ROBOTIQ.image_size)
        shifted = (ROBOTIQ.image_size[0] // 2 + 60, ROBOTIQ.image_size[1] // 2 - 40)
        b = calibrate_proposed(views, table, image_size=(shifted[0] * 2, shifted[1] * 2))
        assert a.refined.intrinsics.u0 == pytest.approx(b.refined.intrinsics.u0, abs=1e-4)
        assert a.refined.intrinsics.v0 == pytest.approx(b.refined.intrinsics.v0, abs=1e-4)


class TestHomographyReuse:
    """Each view object's homography is estimated once, by the first calibration."""

    DISTANCES = np.linspace(80, 140, 6)

    def views(self):
        return make_views(ROBOTIQ, TemplateSpec(5, 7, 10.0), self.DISTANCES, FOCUS_VARYING,
                          0.25, 46)

    def table(self):
        return TestCalibrateProposed().exact_table(self.DISTANCES)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The view ids of each call to ``estimate_homographies`` the pipelines make."""
        calls, estimate = [], calibrate.estimate_homographies

        def spy(worlds, images, labels=None):
            calls.append(list(labels))
            return estimate(worlds, images, labels)

        monkeypatch.setattr(calibrate, "estimate_homographies", spy)
        return calls

    def test_both_pipelines_share_one_estimate(self, calls):
        views = self.views()
        calibrate_baseline(views)
        calibrate_proposed(views, self.table(), image_size=ROBOTIQ.image_size)
        assert calls == [[v.view_id for v in views]]
        calibrate_proposed(views, self.table(), image_size=ROBOTIQ.image_size)
        assert len(calls) == 1

    def test_reused_estimate_gives_the_same_calibration(self):
        def proposed_json(views):
            result = calibrate_proposed(views, self.table(), image_size=ROBOTIQ.image_size)
            return canonical_dumps(calibration_to_dict(result, {}))

        views = self.views()
        calibrate_baseline(views)
        assert proposed_json(views) == proposed_json(self.views())

    def test_rejected_view_is_rejected_again(self):
        views = self.views()
        v = views[3]
        views[3] = CalibrationView(v.view_id, v.distance_mm,
                                   np.column_stack([v.world[:, 0], np.zeros(len(v))]), v.image)
        message = f"^view {v.view_id}: correspondences do not determine a homography$"
        for _ in range(2):
            with pytest.raises(FocusCalError, match=message):
                calibrate_baseline(views)

    def test_replaced_view_is_estimated_afresh(self, calls):
        views = self.views()
        calibrate_baseline(views)
        views[2] = dataclasses.replace(views[2], image=views[2].image + 0.5)
        calibrate_baseline(views)
        assert calls == [[v.view_id for v in views], [views[2].view_id]]


class TestRefinementBehaviour:
    def test_start_at_ground_truth_stays_put(self):
        template = TemplateSpec(5, 7, 12.0)
        views = make_views(ROBOTIQ, template, [300.0, 450.0, 600.0], FOCUS_FIXED, 0.0, 46)
        truth = IntrinsicSet.from_single(ROBOTIQ.intrinsics)
        problem = _Problem(views, truth, estimate_distortion=True)
        x0 = problem.pack(truth, ROBOTIQ.distortion, [v.gt_pose for v in views])
        result = levenberg_marquardt(problem.residual, x0, problem.normal)
        assert result.accepted == 0
        assert result.objective < 1e-18
        np.testing.assert_array_equal(result.params, x0)

    def test_gauge_consistency_in_plane(self):
        template = TemplateSpec(6, 8, 15.0)
        views = make_views(ROBOTIQ, template, np.linspace(350, 800, 6), FOCUS_FIXED, 0.0, 47)
        result = calibrate_baseline(views)
        # rigid in-plane motion of the template coordinates
        angle, shift = 0.7, np.array([40.0, -25.0, 0.0])
        gauge = rotation([0.0, 0.0, angle])
        moved = [
            CalibrationView(
                v.view_id, v.distance_mm,
                (v.world - shift) @ gauge,  # inverse transform of each point
                v.image, v.gt_pose,
            )
            for v in views
        ]
        result_moved = calibrate_baseline(moved)
        np.testing.assert_allclose(
            result_moved.refined.stats.rms_px, result.refined.stats.rms_px, atol=1e-9
        )
        for pose_a, pose_b in zip(result.refined.poses, result_moved.refined.poses):
            # moved model: R_b = R_a Rz and t_b = t_a + R_a shift
            composed_rot = pose_b.matrix @ gauge.T
            composed_t = pose_b.translation - composed_rot @ shift
            assert rotation_angle(composed_rot, pose_a.matrix) < 1e-7
            np.testing.assert_allclose(composed_t, pose_a.translation, atol=1e-6)

    def test_rotation_hygiene(self):
        template = TemplateSpec(5, 7, 12.0)
        views = make_views(ROBOTIQ, template, np.linspace(300, 900, 8), FOCUS_FIXED, 0.4, 48)
        result = calibrate_baseline(views)
        for sol in (result.algebraic, result.refined):
            for pose in sol.poses:
                rot = pose.matrix
                assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-10
                assert abs(np.linalg.det(rot) - 1.0) < 1e-10

    def test_finite_difference_jacobian_agrees(self):
        template = TemplateSpec(4, 6, 15.0)
        views = make_views(ROBOTIQ, template, [400.0, 550.0, 750.0], FOCUS_FIXED, 0.0, 49)
        homs = [estimate_homography(v.world, v.image) for v in views]
        intr0 = intrinsics_from_homographies(homs)
        poses0 = [extrinsics_from_homography(h, intr0.matrix) for h in homs]
        start = IntrinsicSet.from_single(intr0)
        problem = _Problem(views, start, estimate_distortion=True)
        x0 = problem.pack(start, Distortion(), poses0)
        a = levenberg_marquardt(problem.residual, x0, problem.normal)
        b = levenberg_marquardt(problem.residual, x0,
                                dense_normal(problem.residual, None, problem.n_intr, 6))
        assert a.params[0] == pytest.approx(b.params[0], rel=1e-6)

    def test_view_behind_camera_is_infinite(self):
        template = TemplateSpec(4, 6, 15.0)
        views = make_views(ROBOTIQ, template, [400.0, 550.0, 750.0], FOCUS_FIXED, 0.0, 54)
        views[1] = CalibrationView(
            views[1].view_id, views[1].distance_mm,
            views[1].world[:-5], views[1].image[:-5], views[1].gt_pose,
        )
        owner = np.repeat([0, 1, 2], [2 * len(v) for v in views])
        # view 1 is alone in its point-count group; view 0 shares one with view 2
        for which in (1, 0):
            pose = views[which].gt_pose
            depth = pose.transform(views[which].world)[:, 2]
            for moved in (
                Pose(pose.rodrigues, pose.translation * [1.0, 1.0, -1.0]),  # all behind
                Pose(pose.rodrigues, pose.translation - [0.0, 0.0, np.median(depth)]),  # half
            ):
                poses = [v.gt_pose for v in views]
                poses[which] = moved
                truth = IntrinsicSet.from_single(ROBOTIQ.intrinsics)
                for intr in (truth, IntrinsicSet(truth.u0, truth.v0, truth.gamma,
                                                 ((1370.8, 1373.8),) * 3, False)):
                    problem = _Problem(views, intr, estimate_distortion=True)
                    rows = problem.residual(problem.pack(intr, ROBOTIQ.distortion, poses))
                    assert np.all(np.isinf(rows[owner == which]))
                    assert np.all(np.isfinite(rows[owner != which]))

    @pytest.mark.parametrize("nearest_mm", [2.0, 3.5, 5.0])
    def test_view_a_few_millimetres_away_is_finite(self, nearest_mm):
        # view 1 slides along its optical axis until its nearest point is nearest_mm
        # in front of the camera: finite; at or just behind the camera plane: infinite
        template = TemplateSpec(4, 6, 15.0)
        views = make_views(ROBOTIQ, template, [400.0, 550.0, 750.0], FOCUS_FIXED, 0.0, 54)
        owner = np.repeat([0, 1, 2], [2 * len(v) for v in views])
        pose = views[1].gt_pose
        depth = pose.transform(views[1].world)[:, 2]
        truth = IntrinsicSet.from_single(ROBOTIQ.intrinsics)
        for intr in (truth, IntrinsicSet(truth.u0, truth.v0, truth.gamma,
                                         ((1370.8, 1373.8),) * 3, False)):
            problem = _Problem(views, intr, estimate_distortion=True)

            def residual(nearest):
                poses = [v.gt_pose for v in views]
                poses[1] = Pose(pose.rodrigues,
                                pose.translation - [0.0, 0.0, depth.min() - nearest])
                return problem.residual(problem.pack(intr, ROBOTIQ.distortion, poses))

            assert np.all(np.isfinite(residual(nearest_mm)))
            for nearest in (0.0, -1e-3):
                rows = residual(nearest)
                assert np.all(np.isinf(rows[owner == 1]))
                assert np.all(np.isfinite(rows[owner != 1]))

    @pytest.mark.parametrize("scales", [(0.0, 1373.8), (-1370.8, 1373.8), (1370.8, -1373.8)])
    def test_non_positive_baseline_scale_is_infinite(self, scales):
        template = TemplateSpec(4, 6, 15.0)
        views = make_views(ROBOTIQ, template, [400.0, 550.0, 750.0], FOCUS_FIXED, 0.0, 54)
        truth = ROBOTIQ.intrinsics
        intr = IntrinsicSet(truth.u0, truth.v0, truth.gamma, (scales,), True)
        problem = _Problem(views, intr, estimate_distortion=True)
        rows = problem.residual(problem.pack(intr, ROBOTIQ.distortion,
                                             [v.gt_pose for v in views]))
        assert np.all(np.isinf(rows))

    @pytest.mark.parametrize("pair", [(0.0, 1373.8), (-1370.8, 1373.8), (1370.8, -1373.8)])
    def test_non_positive_frozen_pair_is_infinite(self, pair):
        template = TemplateSpec(4, 6, 15.0)
        views = make_views(ROBOTIQ, template, [400.0, 550.0, 750.0], FOCUS_FIXED, 0.0, 54)
        truth = ROBOTIQ.intrinsics
        intr = IntrinsicSet(truth.u0, truth.v0, truth.gamma,
                            ((1370.8, 1373.8), pair, (1370.8, 1373.8)), False)
        problem = _Problem(views, intr, estimate_distortion=True)
        rows = problem.residual(problem.pack(intr, ROBOTIQ.distortion,
                                             [v.gt_pose for v in views]))
        owner = np.repeat([0, 1, 2], [2 * len(v) for v in views])
        assert np.all(np.isinf(rows[owner == 1]))
        assert np.all(np.isfinite(rows[owner != 1]))


class TestReprojectionStats:
    def test_exact_model_zero(self):
        template = TemplateSpec(5, 7, 12.0)
        views = make_views(ROBOTIQ, template, [350.0, 600.0, 850.0], FOCUS_FIXED, 0.0, 50)
        result = calibrate_baseline(views)
        stats = result.refined.stats
        assert abs(stats.mean_px) < 1e-9
        assert stats.rms_px < 1e-9

    def test_view_count_must_match_the_poses(self):
        template = TemplateSpec(5, 7, 12.0)
        views = make_views(ROBOTIQ, template, np.linspace(300, 900, 4), FOCUS_FIXED, 0.3, 51)
        result = calibrate_baseline(views[:3])
        for call in (solution_residuals, reprojection_stats):
            with pytest.raises(ValueError, match="view count does not match"):
                call(result.refined, views)

    def test_recompute_is_deterministic_and_matches(self):
        template = TemplateSpec(5, 7, 12.0)
        views = make_views(ROBOTIQ, template, np.linspace(300, 900, 6), FOCUS_FIXED, 0.3, 51)
        spread = np.linspace(1.0, 1.003, len(views))  # a distinct frozen pair per view
        table = ScaleTable([v.distance_mm for v in views], spread * ROBOTIQ.intrinsics.alpha,
                           spread * ROBOTIQ.intrinsics.beta)
        for result in (
            calibrate_baseline(views),
            calibrate_proposed(views, table, image_size=ROBOTIQ.image_size),
        ):
            stored = result.refined.stats
            for again in (reprojection_stats(result.refined, views),
                          reprojection_stats(result.refined, views)):
                for field in ("mean_px", "median_px", "std_px", "rms_px", "mean_abs_px",
                              "per_view"):
                    assert getattr(again, field) == getattr(stored, field), field

    @pytest.fixture(scope="class")
    def readme_table(self):
        stack = generate_parallel_stack(ROBOTIQ, TemplateSpec(10, 14, 8.0),
                                        np.arange(45.0, 155.0, 5.0), 0.0, seed=73)
        return scale_factors(stack)

    # The LM's first and last passes feed the statistics; they must be the
    # statistics a fresh pass at the stored parameters gives, to the bit.
    @pytest.mark.parametrize("budget", [200, 1])
    @pytest.mark.parametrize("method", ["baseline", "proposed"])
    @pytest.mark.parametrize("cut", [False, True])
    def test_statistics_as_a_fresh_pass(self, readme_table, cut, method, budget):
        views = cut_views(3) if cut else generate_dataset(
            ROBOTIQ, TemplateSpec(6, 9, 8.0), np.r_[50.0, np.linspace(130, 145, 14)],
            FOCUS_VARYING, 0.25, 3)
        if method == "baseline":
            result = calibrate_baseline(views, max_iterations=budget)
        else:
            result = calibrate_proposed(views, readme_table, image_size=ROBOTIQ.image_size,
                                        max_iterations=budget)
        assert (result.termination == "max_iterations") is (budget == 1)
        assert result.refined.stats.rms_px < result.algebraic.stats.rms_px
        for solution in (result.algebraic, result.refined):
            again = reprojection_stats(solution, views)
            for field in dataclasses.fields(again):
                assert getattr(again, field.name) == getattr(solution.stats, field.name), field

    def test_per_view_breakdown_shape(self):
        template = TemplateSpec(5, 7, 12.0)
        views = make_views(ROBOTIQ, template, np.linspace(300, 900, 6), FOCUS_FIXED, 0.2, 52)
        result = calibrate_baseline(views)
        stats = result.refined.stats
        assert [pv.view_id for pv in stats.per_view] == [v.view_id for v in views]
        assert all(pv.n_points == len(v) for pv, v in zip(stats.per_view, views))


class TestSolverLogIntegration:
    def test_lm_lines_emitted_during_calibration(self, caplog):
        template = TemplateSpec(4, 6, 15.0)
        views = make_views(ROBOTIQ, template, np.linspace(350, 850, 6), FOCUS_FIXED, 0.2, 53)
        with caplog.at_level(logging.DEBUG, logger="focuscal.solver"):
            calibrate_baseline(views)
        assert any(r.getMessage().startswith("LM it=") for r in caplog.records)
