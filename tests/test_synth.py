import json
from importlib import resources

import numpy as np
import per_view
import pytest

from focuscal.calibrate import calibrate_baseline
from focuscal.core import (
    Distortion,
    Intrinsics,
    Pose,
    distort_points,
    project_points,
    undistort_points,
)
from focuscal.errors import FocusCalError, FormatError
from focuscal.lens import focal_sweep
from focuscal.scale import scale_factors, segment_zones
from focuscal.synth import (
    FOCUS_FIXED,
    FOCUS_VARYING,
    TemplateSpec,
    bias_report,
    bundled_preset_names,
    generate_dataset,
    generate_parallel_stack,
    generate_template,
    load_preset,
    parallel_stack_dataset,
)
from per_view import rodrigues, rotation

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

    def test_unknown_preset(self):
        with pytest.raises(FormatError):
            load_preset("nonexistent")

    def test_preset_file_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes("{}".encode("utf-16"))  # starts with the BOM \xff\xfe
        with pytest.raises(FormatError, match="invalid camera preset"):
            load_preset(str(path))

    def test_preset_file_with_infinite_width(self, tmp_path):
        path = tmp_path / "infinite.json"
        doc = json.loads((resources.files("focuscal") / "presets/robotiq.json").read_text())
        path.write_text(json.dumps({**doc, "image_size_px": [float("inf"), 480]}))
        with pytest.raises(FormatError, match=r"^invalid camera preset: image_size_px must be "
                                              r"a list of 2 values, each an integer, not \[Inf"):
            load_preset(str(path))

    @pytest.mark.parametrize("schema", [2, 10**30, None], ids=["2", "huge", "missing"])
    def test_preset_without_schema_1_is_rejected(self, tmp_path, schema):
        doc = json.loads((resources.files("focuscal") / "presets/robotiq.json").read_text())
        if schema is None:
            del doc["schema"]
        else:
            doc["schema"] = schema
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"^invalid camera preset: unsupported or "
                                              r"missing schema version$"):
            load_preset(str(path))

    def test_plateau_matches_published_values(self):
        assert ROBOTIQ.intrinsics.alpha == 1370.8
        assert ROBOTIQ.intrinsics.beta == 1373.8
        assert ROBOTIQ.hyperfocal_mm == 150.0

    def test_focus_ratio_clamps_at_hyperfocal(self):
        assert ROBOTIQ.focus_ratio(150.0) == 1.0
        assert ROBOTIQ.focus_ratio(5000.0) == 1.0
        assert ROBOTIQ.focus_ratio(75.0) < 1.0


class TestGenerateView:
    """One view at a time, through ``generate_dataset``."""

    template = TemplateSpec(6, 9, 8.0)

    def test_fixed_plateau_self_consistency(self):
        from focuscal.calibrate import IntrinsicSet, Solution, solution_residuals

        (view,) = generate_dataset(ROBOTIQ, self.template, [400.0], FOCUS_FIXED, 0.0, seed=0)
        sol = Solution(
            IntrinsicSet.from_single(ROBOTIQ.intrinsics),
            (view.gt_pose,),
            ROBOTIQ.distortion,
            None,
        )
        residuals = solution_residuals(sol, [view])[0]
        assert np.abs(residuals).max() < 1e-9

    def test_far_beyond_hyperfocal_matches_plateau(self):
        # the same seed gives the same pose in both focus modes
        (a,) = generate_dataset(ROBOTIQ, self.template, [2000.0], FOCUS_VARYING, 0.0, seed=1)
        (b,) = generate_dataset(ROBOTIQ, self.template, [2000.0], FOCUS_FIXED, 0.0, seed=1)
        np.testing.assert_array_equal(a.gt_pose.rodrigues, b.gt_pose.rodrigues)
        np.testing.assert_array_equal(a.gt_pose.translation, b.gt_pose.translation)
        assert np.abs(a.image - b.image).max() < 1e-6

    def test_same_seed_bit_identical(self):
        a, b = (generate_dataset(ROBOTIQ, self.template, [300.0], FOCUS_VARYING, 0.6, seed=77)[0]
                for _ in range(2))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.world, b.world)

    def test_behind_camera(self):
        with pytest.raises(FocusCalError, match="template centre is behind the camera"):
            generate_dataset(ROBOTIQ, self.template, [-400.0], FOCUS_FIXED, 0.0, seed=0)

    @pytest.mark.parametrize("tilt", [(5.0, np.nan), (5.0, np.inf), (30.0, 5.0), (-1e308, 1e308)])
    def test_tilt_range_must_be_finite_and_ordered(self, tilt):
        with pytest.raises(ValueError, match="tilt range needs finite low <= high"):
            generate_dataset(ROBOTIQ, self.template, [300.0, 400.0], tilt_range_deg=tilt)

    def test_distance_is_centre_depth(self):
        (view,) = generate_dataset(ROBOTIQ, self.template, [412.5], FOCUS_FIXED, 0.0, seed=0)
        centre = generate_template(self.template).mean(axis=0)
        assert view.distance_mm == pytest.approx(412.5, abs=1e-9)
        assert view.gt_pose.transform(centre)[0, 2] == pytest.approx(view.distance_mm, abs=1e-9)

    def test_hyperfocal_focal_length_computed_once(self, monkeypatch):
        from focuscal import synth

        calls = []
        monkeypatch.setattr(synth, "focal_sweep",
                            lambda lens, ds: calls.extend(ds) or focal_sweep(lens, ds))
        preset = load_preset("robotiq")
        distances = [100.0, 140.0, 400.0]  # the last is past hyperfocal
        generate_dataset(preset, self.template, distances, FOCUS_VARYING, 0.0, seed=0)
        assert len(calls) == len(distances) + 1
        assert calls.count(preset.hyperfocal_mm) == 2


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

    def test_negative_noise_rejected(self):
        # both simulators observe through one step, which checks the noise
        template = TemplateSpec(8, 10, 8.0)
        with pytest.raises(ValueError, match="noise must be non-negative"):
            generate_parallel_stack(ROBOTIQ, template, [100.0, 200.0], -1.0)
        with pytest.raises(ValueError, match="noise must be non-negative"):
            generate_dataset(ROBOTIQ, template, [400.0], FOCUS_VARYING, -0.5)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, noise):
        template = TemplateSpec(8, 10, 8.0)
        with pytest.raises(ValueError, match="noise must be non-negative and finite"):
            generate_parallel_stack(ROBOTIQ, template, [100.0, 200.0], noise)
        with pytest.raises(ValueError, match="noise must be non-negative and finite"):
            generate_dataset(ROBOTIQ, template, [400.0], FOCUS_VARYING, noise)

    @pytest.mark.parametrize("name, distances", [
        ("eosens12cxp", np.arange(18.0, 28.0)),  # steep correction near the margin
        ("robotiq", [3.0, 4.0, 5.0]),  # k2 < 0 caps the corrected radius
    ])
    def test_only_points_without_an_inverse_in_the_image_are_dropped(self, name, distances):
        preset = load_preset(name)
        template = TemplateSpec(10, 14, 8.0)
        (w, h), dist = preset.image_size, preset.distortion
        world = generate_template(template)
        stack = generate_parallel_stack(preset, template, distances, 0.0, seed=6)
        for view in stack:
            intr = preset.effective_intrinsics(view.distance_mm, FOCUS_VARYING)
            shift = np.array([0.0, 0.0, view.distance_mm]) - world.mean(axis=0)
            ideal = project_points(world, intr, Pose(np.zeros(3), shift))
            points = view.points.reshape(-1, 2)
            kept = np.isfinite(points[:, 0])
            np.testing.assert_allclose(
                undistort_points(points[kept], intr, dist), ideal[kept], atol=1e-9
            )
            # The exact inverse keeps the offset's direction from the principal
            # point and takes the first normalized radius at which the radial
            # map r (1 + k1 r^2 + k2 r^4) reaches the ideal one; scan for it.
            # Up to its first maximum the map stays above r / 2 for both
            # presets, so a radius that exists is below twice the ideal one.
            offset = ideal - (intr.u0, intr.v0)
            radius = np.hypot(offset[:, 0] / intr.alpha, offset[:, 1] / intr.beta)
            grid = np.linspace(0.0, 2.0 * radius.max(), 200_001)
            mapped = grid * (1.0 + dist.k1 * grid**2 + dist.k2 * grid**4)
            for i in np.flatnonzero(~kept):
                reached = np.flatnonzero(mapped >= radius[i])
                if reached.size:
                    pixel = (intr.u0, intr.v0) + offset[i] * (grid[reached[0]] / radius[i])
                    assert not np.all((pixel >= 0.0) & (pixel <= (w, h)))
        if name == "robotiq":
            assert all(np.isnan(view.points).all() for view in stack)


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

    # rotation errors at both ends of each series switch and near pi
    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-5, 0.4, np.pi - 1e-6, np.pi])
    def test_matches_per_view_loop(self, angle):
        import dataclasses

        views, result = self.small_problem()
        axes = np.random.default_rng(8).normal(size=(len(views), 3))
        turned = tuple(
            Pose(rodrigues(rotation(angle * a / np.linalg.norm(a)) @ v.gt_pose.matrix),
                 p.translation)
            for a, v, p in zip(axes, views, result.refined.poses)
        )
        result = dataclasses.replace(
            result, refined=dataclasses.replace(result.refined, poses=turned)
        )
        report = bias_report(result, views)
        dt = [p.translation - v.gt_pose.translation for p, v in zip(turned, views)]
        rot = [np.linalg.norm(rodrigues(p.matrix @ v.gt_pose.matrix.T))
               for p, v in zip(turned, views)]
        assert report.translation_errors_mm.tobytes() == np.array(dt).tobytes()
        assert report.rotation_errors_rad.tobytes() == np.array(rot).tobytes()
        np.testing.assert_allclose(report.rotation_errors_rad, angle, atol=1e-7)

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


GEOMETRIES = {
    "quick-start": (TemplateSpec(6, 9, 8.0), np.concatenate([[50.0], np.linspace(130, 145, 14)])),
    "calib-m": (TemplateSpec(12, 16, 3.0), np.linspace(80, 145, 60)),
    "six-view": (TemplateSpec(5, 7, 12.0), np.linspace(300, 900, 6)),
}


def view_bytes(views):
    """Everything a list of calibration views holds, as bytes."""
    return [(v.view_id, v.distance_mm, v.world.tobytes(), v.image.tobytes(),
             v.gt_pose.rodrigues.tobytes(), v.gt_pose.translation.tobytes()) for v in views]


def outcome(make):
    """What ``make()`` returns, or the type and message of what it raises."""
    try:
        return make()
    except (ValueError, FocusCalError) as exc:
        return type(exc), str(exc)


class TestMatchesPerViewReference:
    """The batched simulator against the per-view loop of ``per_view``, bit for bit."""

    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    @pytest.mark.parametrize("mode", [FOCUS_FIXED, FOCUS_VARYING])
    @pytest.mark.parametrize("name", ["robotiq", "eosens12cxp"])
    def test_datasets(self, name, mode, geometry):
        template, distances = GEOMETRIES[geometry]
        for noise in (0.0, 0.25, 0.5):
            for seed in range(6):
                args = (load_preset(name), template, distances, mode, noise, seed)
                assert view_bytes(generate_dataset(*args)) == view_bytes(
                    per_view.generate_dataset(*args))

    @pytest.mark.parametrize("name, distances", [
        ("robotiq", np.arange(45.0, 155.25, 0.5)),
        ("eosens12cxp", np.arange(18.0, 28.0)),  # these two reach the root solve
        ("eosens12cxp", np.arange(1.0, 14.0)),
    ])
    def test_stacks(self, monkeypatch, name, distances):
        solved, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(len(a)) or eigvals(a))
        args = (load_preset(name), TemplateSpec(10, 14, 8.0), distances)
        for noise in (0.0, 0.3):
            ours = generate_parallel_stack(*args, noise, seed=5)
            ref = per_view.generate_parallel_stack(*args, noise, seed=5)
            assert [(v.distance_mm, v.points.tobytes()) for v in ours] == [
                (v.distance_mm, v.points.tobytes()) for v in ref]
        assert bool(solved) == (name == "eosens12cxp")

    # the first polynomial loses its leading coefficient, the second its k1 term
    @pytest.mark.parametrize("dist", [Distortion(5.0, 0.0), Distortion(0.0, -5.0),
                                      Distortion(0.03, -0.1), Distortion()])
    def test_distort_points(self, dist):
        intr = Intrinsics(1000.0, 1010.0, 0.5, 640.0, 480.0)
        ideal = np.random.default_rng(0).uniform(-2000.0, 3000.0, size=(400, 2))
        for points in (ideal, ideal[7], ideal.reshape(20, 20, 2), np.empty((0, 2))):
            ours = distort_points(points, intr, dist)
            ref = per_view.distort_points(points, intr, dist)
            assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()

    def test_one_view_cases(self):
        template = TemplateSpec(6, 9, 8.0)
        for seed in range(6):
            args = (ROBOTIQ, template, [300.0], FOCUS_VARYING, 0.5, seed, (0.0, 40.0))
            ours, ref = generate_dataset(*args), per_view.generate_dataset(*args)
            assert view_bytes(ours) == view_bytes(ref)

    # each list's first failing view raises what a loop over the views raises
    @pytest.mark.parametrize("distances", [
        [2.0, -400.0],  # no point in the image, then behind the camera
        [-400.0, 2.0], [400.0, -400.0], [400.0, np.nan], [2.0, np.nan], [5.0, 2.0], [],
    ])
    def test_errors_in_view_order(self, distances):
        args = (ROBOTIQ, TemplateSpec(6, 9, 8.0), distances)
        ours = outcome(lambda: view_bytes(generate_dataset(*args)))
        assert ours == outcome(lambda: view_bytes(per_view.generate_dataset(*args)))
        if distances[:1] == [2.0]:
            assert ours == (FocusCalError, "no template point projects inside the image")

    @pytest.mark.parametrize("distances", [[np.inf, np.nan], [1.0, np.nan], [1e-300, 400.0]])
    def test_stack_errors_in_view_order(self, distances):
        args = (ROBOTIQ, TemplateSpec(6, 9, 8.0), distances)
        assert outcome(lambda: generate_parallel_stack(*args)) == outcome(
            lambda: per_view.generate_parallel_stack(*args))
