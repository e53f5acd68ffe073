import numpy as np
import pytest

from focuscal.calibrate import calibrate_baseline
from focuscal.core import Pose
from focuscal.errors import FocusCalError, FormatError
from focuscal.scale import scale_factors, segment_zones
from focuscal.synth import (
    FOCUS_FIXED,
    FOCUS_VARYING,
    CameraPreset,
    TemplateSpec,
    bias_report,
    bundled_preset_names,
    generate_dataset,
    generate_parallel_stack,
    generate_template,
    generate_view,
    load_preset,
    parallel_stack_dataset,
    sample_pose,
)

ROBOTIQ = load_preset("robotiq")


class TestGenerateTemplate:
    def test_two_by_two(self):
        pts = generate_template(TemplateSpec(2, 2, 25.0))
        want = {(0.0, 0.0, 0.0), (25.0, 0.0, 0.0), (0.0, 25.0, 0.0), (25.0, 25.0, 0.0)}
        assert {tuple(p) for p in pts} == want

    def test_count_and_plane(self):
        spec = TemplateSpec(4, 7, 10.0)
        pts = generate_template(spec)
        assert pts.shape == (28, 3)
        assert np.all(pts[:, 2] == 0.0)

    def test_adjacent_spacing(self):
        spec = TemplateSpec(3, 5, 12.5)
        grid = generate_template(spec).reshape(3, 5, 3)
        np.testing.assert_allclose(np.diff(grid[:, :, 0], axis=1), 12.5)
        np.testing.assert_allclose(np.diff(grid[:, :, 1], axis=0), 12.5)


class TestPresets:
    def test_bundled_names(self):
        assert set(bundled_preset_names()) >= {"robotiq", "eosens12cxp"}

    def test_round_trip_dict(self):
        preset = load_preset("eosens12cxp")
        again = CameraPreset.from_dict(preset.to_dict())
        assert again == preset

    def test_unknown_preset(self):
        with pytest.raises(FormatError):
            load_preset("nonexistent")

    def test_plateau_matches_published_values(self):
        assert ROBOTIQ.intrinsics.alpha == 1370.8
        assert ROBOTIQ.intrinsics.beta == 1373.8
        assert ROBOTIQ.hyperfocal_mm == 150.0

    def test_focus_ratio_clamps_at_hyperfocal(self):
        assert ROBOTIQ.focus_ratio(150.0) == 1.0
        assert ROBOTIQ.focus_ratio(5000.0) == 1.0
        assert ROBOTIQ.focus_ratio(75.0) < 1.0


class TestGenerateView:
    def pose_at(self, d):
        centre = generate_template(TemplateSpec(6, 9, 8.0)).mean(axis=0)
        return Pose(np.zeros(3), np.array([0.0, 0.0, d]) - centre)

    def test_fixed_plateau_self_consistency(self):
        from focuscal.calibrate import IntrinsicSet, Solution, solution_residuals

        template = TemplateSpec(6, 9, 8.0)
        pose = self.pose_at(400.0)
        view = generate_view(ROBOTIQ, template, pose, FOCUS_FIXED, 0.0, seed=0)
        sol = Solution(
            IntrinsicSet.from_single(ROBOTIQ.intrinsics),
            (pose,),
            ROBOTIQ.distortion,
            None,
        )
        residuals = solution_residuals(sol, [view])[0]
        assert np.abs(residuals).max() < 1e-9

    def test_far_beyond_hyperfocal_matches_plateau(self):
        template = TemplateSpec(6, 9, 8.0)
        pose = self.pose_at(2000.0)
        a = generate_view(ROBOTIQ, template, pose, FOCUS_VARYING, 0.0, seed=1)
        b = generate_view(ROBOTIQ, template, pose, FOCUS_FIXED, 0.0, seed=1)
        assert np.abs(a.image - b.image).max() < 1e-6

    def test_same_seed_bit_identical(self):
        template = TemplateSpec(6, 9, 8.0)
        pose = sample_pose(np.random.default_rng(9), template, 300.0)
        a = generate_view(ROBOTIQ, template, pose, FOCUS_VARYING, 0.6, seed=77)
        b = generate_view(ROBOTIQ, template, pose, FOCUS_VARYING, 0.6, seed=77)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.world, b.world)

    def test_behind_camera(self):
        template = TemplateSpec(6, 9, 8.0)
        centre = generate_template(template).mean(axis=0)
        pose = Pose(np.zeros(3), np.array([0.0, 0.0, -400.0]) - centre)
        with pytest.raises(FocusCalError, match="template centre is behind the camera"):
            generate_view(ROBOTIQ, template, pose, FOCUS_FIXED, 0.0, seed=0)

    def test_distance_is_centre_depth(self):
        template = TemplateSpec(6, 9, 8.0)
        view = generate_view(ROBOTIQ, template, self.pose_at(412.5), FOCUS_FIXED, 0.0, seed=0)
        assert view.distance_mm == pytest.approx(412.5, abs=1e-9)


class TestParallelStack:
    def test_single_distance_single_row(self):
        stack = generate_parallel_stack(ROBOTIQ, TemplateSpec(8, 10, 8.0), [400.0])
        table = scale_factors(stack)
        assert len(table) == 1

    def test_recovers_generating_curve(self):
        template = TemplateSpec(10, 14, 8.0)
        distances = np.arange(60.0, 155.0, 5.0)
        stack = generate_parallel_stack(ROBOTIQ, template, distances, 0.0, seed=2)
        table = scale_factors(stack)
        truth = np.array(
            [ROBOTIQ.intrinsics.alpha * ROBOTIQ.focus_ratio(d) for d in distances]
        )
        assert np.max(np.abs(table.alpha - truth) / truth) < 1e-3

    def test_zone_boundary_near_hyperfocal(self):
        template = TemplateSpec(10, 14, 8.0)
        distances = np.arange(60.0, 405.0, 5.0)
        stack = generate_parallel_stack(ROBOTIQ, template, distances, 0.0, seed=3)
        table = scale_factors(stack)
        seg = segment_zones(table, noise_band=1.0)
        assert abs(seg.zone1_end_mm - ROBOTIQ.hyperfocal_mm) <= 5.0
        assert seg.plateau_alpha_px == pytest.approx(ROBOTIQ.intrinsics.alpha, rel=5e-4)

    def test_determinism(self):
        template = TemplateSpec(8, 10, 8.0)
        a = generate_parallel_stack(ROBOTIQ, template, [100.0, 200.0], 0.5, seed=4)
        b = generate_parallel_stack(ROBOTIQ, template, [100.0, 200.0], 0.5, seed=4)
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va.points, vb.points)

    def test_stack_dataset_round_trip_grid(self):
        template = TemplateSpec(8, 10, 8.0)
        views = parallel_stack_dataset(ROBOTIQ, template, [120.0, 300.0], 0.0, seed=5)
        assert all(v.gt_pose is not None for v in views)
        assert views[0].distance_mm == 120.0
        # world points are exact pitch multiples, so grids can be rebuilt
        assert np.all(np.abs(views[0].world[:, 0] / 8.0 - np.rint(views[0].world[:, 0] / 8.0)) < 1e-12)


class TestBiasReport:
    def small_problem(self):
        template = TemplateSpec(6, 8, 20.0)
        views = generate_dataset(
            ROBOTIQ, template, np.linspace(300, 800, 6), FOCUS_FIXED, 0.0, seed=6
        )
        return views, calibrate_baseline(views)

    def test_exact_result_zero_bias(self):
        views, result = self.small_problem()
        report = bias_report(result, views)
        assert np.abs(report.translation_errors_mm).max() < 1e-6
        assert report.rotation_errors_rad.max() < 1e-8
        assert report.mean_mm.shape == (3,)

    def test_constructed_z_shift(self):
        import dataclasses

        views, result = self.small_problem()
        shifted_poses = tuple(
            Pose(p.rodrigues, p.translation + np.array([0.0, 0.0, -100.0]))
            for p in result.refined.poses
        )
        shifted = dataclasses.replace(
            result, refined=dataclasses.replace(result.refined, poses=shifted_poses)
        )
        report = bias_report(shifted, views)
        np.testing.assert_allclose(report.translation_errors_mm[:, 2], -100.0, atol=1e-6)
        assert report.mean_mm[2] == pytest.approx(-100.0, abs=1e-6)

    def test_missing_ground_truth(self):
        views, result = self.small_problem()
        from focuscal.calibrate import CalibrationView

        stripped = [
            CalibrationView(v.view_id, v.distance_mm, v.world, v.image, None)
            for v in views
        ]
        with pytest.raises(FocusCalError, match="every view needs a ground-truth pose"):
            bias_report(result, stripped)


class TestNoiseScaling:
    def test_rms_grows_proportionally(self):
        template = TemplateSpec(6, 8, 15.0)
        sigmas = (0.1, 0.2, 0.5, 1.0)
        ratios = []
        for sigma in sigmas:
            rms = []
            for trial in range(10):
                views = generate_dataset(
                    ROBOTIQ, template, np.linspace(300, 900, 6), FOCUS_FIXED,
                    sigma, seed=100 + trial,
                )
                rms.append(calibrate_baseline(views).refined.stats.rms_px)
            ratios.append(np.mean(rms) / sigma)
        centre = np.mean(ratios)
        assert np.all(np.abs(np.array(ratios) - centre) < 0.25 * centre)


class TestSelfConsistency:
    def test_fixed_plateau_recovers_preset(self):
        template = TemplateSpec(6, 8, 20.0)
        views = generate_dataset(
            ROBOTIQ, template, np.linspace(300, 900, 8), FOCUS_FIXED, 0.0, seed=8
        )
        result = calibrate_baseline(views)
        intr = result.refined.intrinsics
        assert intr.scales[0][0] == pytest.approx(ROBOTIQ.intrinsics.alpha, rel=1e-6)
        assert intr.scales[0][1] == pytest.approx(ROBOTIQ.intrinsics.beta, rel=1e-6)
        for i, view in enumerate(views):
            rel = np.linalg.norm(
                result.refined.poses[i].translation - view.gt_pose.translation
            ) / np.linalg.norm(view.gt_pose.translation)
            assert rel < 1e-6
