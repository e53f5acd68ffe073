import numpy as np
import pytest

from focuscal.errors import FocusCalError
from focuscal.lens import (
    CurveFit,
    FocalCurve,
    LensSpec,
    eval_focal_curve,
    fit_focal_curve,
    focal_length_limit,
    focal_sweep,
    incoming_angle,
    sharp_focal_length,
)


def intersect_lines(slope_a, offset_a, slope_b, offset_b):
    """Independent 2-line intersection: y = slope*x + offset for both."""
    x = (offset_b - offset_a) / (slope_a - slope_b)
    return x, slope_a * x + offset_a


class TestIncomingAngle:
    def test_unit_ratio_gives_quarter_pi(self):
        lens = LensSpec(radius_mm=9.0, angle_ratio=0.5, axis_offset_mm=0.0)
        assert incoming_angle(lens, 9.0) == pytest.approx(np.pi / 4, abs=1e-15)

    def test_far_asymptote(self):
        lens = LensSpec(radius_mm=9.0, angle_ratio=0.5, axis_offset_mm=0.0)
        assert abs(incoming_angle(lens, 9.0e9) - np.pi / 2) < 1e-8

    def test_scalar_oracle(self):
        lens = LensSpec(radius_mm=9.0, angle_ratio=0.5, axis_offset_mm=3.0)
        assert incoming_angle(lens, 12.0) == pytest.approx(np.arctan(2.0), abs=1e-15)

    def test_degenerate_offset(self):
        lens = LensSpec(radius_mm=3.0, angle_ratio=0.5, axis_offset_mm=3.0)
        with pytest.raises(FocusCalError, match="probe point at the lens edge"):
            incoming_angle(lens, 10.0)


class TestSharpFocalLength:
    def test_on_axis_closed_form(self):
        lens = LensSpec(radius_mm=7.0, angle_ratio=0.6, axis_offset_mm=0.0)
        for d in (10.0, 50.0, 400.0):
            want = 7.0 / np.tan(np.pi / 2 - 0.6 * np.arctan(d / 7.0))
            assert sharp_focal_length(lens, d) == pytest.approx(want, rel=1e-14)

    def test_line_intersection_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lens = LensSpec(
                radius_mm=rng.uniform(2, 20),
                angle_ratio=rng.uniform(0.2, 0.9),
                axis_offset_mm=rng.uniform(0, 1.5),
            )
            d = rng.uniform(5 * lens.radius_mm, 500 * lens.radius_mm)
            phi = np.arctan(d / (lens.radius_mm - lens.axis_offset_mm))
            outgoing = lens.angle_ratio * phi
            x, _ = intersect_lines(
                -lens.axis_offset_mm / d, 0.0,
                -np.tan(np.pi / 2 - outgoing), lens.radius_mm,
            )
            assert sharp_focal_length(lens, d) == pytest.approx(x, rel=1e-10)

    def test_flattens_toward_limit(self):
        lens = LensSpec(radius_mm=5.0, angle_ratio=0.8, axis_offset_mm=1.0)
        limit = focal_length_limit(lens)
        gaps = [
            abs(sharp_focal_length(lens, scale * lens.radius_mm) - limit)
            for scale in (10.0, 100.0, 1e3, 1e4, 1e5, 1e6)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_cauchy_convergence(self):
        # The tail decays like 1/d, so doubling the distance roughly halves
        # the remaining gap; the 2**15 to 2**20 gap is bounded accordingly.
        rng = np.random.default_rng(10)
        for _ in range(20):
            lens = LensSpec(
                radius_mm=rng.uniform(2, 15),
                angle_ratio=rng.uniform(0.1, 0.9),
                axis_offset_mm=rng.uniform(0, 1.0),
            )
            f_seq = [
                sharp_focal_length(lens, 2.0**n * lens.radius_mm)
                for n in range(10, 21)
            ]
            gaps = np.abs(np.diff(f_seq))
            assert np.all(gaps[1:] < 0.6 * gaps[:-1] + 1e-15)
            assert abs(f_seq[5] - f_seq[-1]) < 2.5e-4 * f_seq[-1]

    def test_degenerate_sensor_plane(self):
        # Large off-axis offset at short distance pushes the denominator negative.
        lens = LensSpec(radius_mm=51.0, angle_ratio=0.9, axis_offset_mm=50.0)
        with pytest.raises(FocusCalError, match="sensor plane at infinity or behind the lens"):
            sharp_focal_length(lens, 5.0)

    def test_sweep_matches_scalar(self):
        lens = LensSpec(radius_mm=5.0, angle_ratio=0.8, axis_offset_mm=1.0)
        curve = focal_sweep(lens, [100.0, 50.0, 200.0])
        np.testing.assert_array_equal(curve.distances, [50.0, 100.0, 200.0])
        for d, f in zip(curve.distances, curve.values):
            assert f == pytest.approx(sharp_focal_length(lens, d), rel=1e-14)


class TestFitFocalCurve:
    def test_exact_model_recovery(self):
        k_f, value0 = 3.5e6, 1370.0
        d = np.linspace(100, 1500, 10)
        samples = np.column_stack([d, -k_f / d**2 + value0])
        fit = fit_focal_curve(samples).fit
        assert fit.k_f == pytest.approx(k_f, rel=1e-9)
        assert fit.value0 == pytest.approx(value0, rel=1e-9)

    def test_constant_data(self):
        d = np.linspace(100, 1000, 8)
        fit = fit_focal_curve(np.column_stack([d, np.full(8, 41.5)])).fit
        assert fit.value0 == pytest.approx(41.5, rel=1e-12)
        assert abs(fit.k_f) < 1e-6

    def test_monte_carlo_noise_band(self):
        rng = np.random.default_rng(11)
        k_f, value0, sigma, n = 2.0e6, 1370.0, 0.5, 50
        d = np.linspace(80, 800, n)
        clean = -k_f / d**2 + value0
        hits = 0
        for _ in range(100):
            fit = fit_focal_curve(
                np.column_stack([d, clean + rng.normal(0, sigma, n)])
            ).fit
            if abs(fit.value0 - value0) <= 3 * sigma / np.sqrt(n):
                hits += 1
        assert hits >= 95

    def test_order_invariance(self):
        rng = np.random.default_rng(12)
        d = np.linspace(50, 900, 12)
        v = -1e6 / d**2 + 500.0 + rng.normal(0, 0.1, 12)
        samples = np.column_stack([d, v])
        fit_a = fit_focal_curve(samples).fit
        perm = rng.permutation(12)
        fit_b = fit_focal_curve(samples[perm]).fit
        assert fit_a.k_f == pytest.approx(fit_b.k_f, rel=1e-12)
        assert fit_a.value0 == pytest.approx(fit_b.value0, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(FocusCalError, match="need at least two samples"):
            fit_focal_curve(np.array([[100.0, 5.0]]))

    def test_singular_system(self):
        with pytest.raises(FocusCalError, match="all sample distances are equal"):
            fit_focal_curve(np.array([[100.0, 5.0], [100.0, 6.0], [100.0, 7.0]]))


class TestEvalFocalCurve:
    def test_asymptote(self):
        fit = CurveFit(k_f=5e5, value0=1370.0)
        assert abs(eval_focal_curve(fit, 1e9) - 1370.0) < 1e-6 * 1370.0

    def test_flat_curve(self):
        fit = CurveFit(k_f=0.0, value0=77.0)
        for d in (1.0, 10.0, 1e4):
            assert eval_focal_curve(fit, d) == 77.0

    def test_fit_eval_round_trip(self):
        d = np.linspace(120, 900, 9)
        values = -2.5e6 / d**2 + 1400.0
        curve = fit_focal_curve(np.column_stack([d, values]))
        for dd, vv in zip(d, values):
            assert eval_focal_curve(curve.fit, dd) == pytest.approx(vv, rel=1e-9)

    def test_strictly_increasing_when_kf_positive(self):
        fit = CurveFit(k_f=1e6, value0=1000.0)
        d = np.linspace(50, 2000, 100)
        assert np.all(np.diff(eval_focal_curve(fit, d)) > 0)


class TestFocalCurveType:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FocalCurve(np.array([10.0, 5.0]), np.array([1.0, 2.0]))

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            FocalCurve(np.array([0.0, 5.0]), np.array([1.0, 2.0]))

    def test_rejects_non_positive_asymptote(self):
        with pytest.raises(ValueError):
            FocalCurve(
                np.array([1.0, 2.0]), np.array([1.0, 2.0]), CurveFit(1.0, -3.0)
            )
