import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focuscal.core import (
    Distortion,
    Intrinsics,
    Pose,
    distort_points,
    project_points,
    undistort_points,
)
from focuscal import core
from focuscal.errors import FocusCalError
from per_view import rodrigues, rotation


def oracle_project(wp, intr, rot, t):
    """Independent full 3x4 matrix-product projection."""
    p34 = intr.matrix @ np.column_stack([rot, t])
    h = p34 @ np.append(np.asarray(wp, float), 1.0)
    return h[:2] / h[2]


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation(axis * rng.uniform(0, np.pi))


class TestIntrinsicMatrix:
    def test_identity_case(self):
        m = Intrinsics(1.0, 1.0, 0.0, 0.0, 0.0).matrix
        np.testing.assert_array_equal(m, np.eye(3))

    def test_published_values_placed(self):
        intr = Intrinsics(1370.8, 1373.8, 0.0001, 645.8, 359.3)
        m = intr.matrix
        expected = np.array(
            [[1370.8, 0.0001, 645.8], [0.0, 1373.8, 359.3], [0.0, 0.0, 1.0]]
        )
        np.testing.assert_array_equal(m, expected)

    def test_bottom_row_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            intr = Intrinsics(*rng.uniform(100, 2000, 2), *rng.uniform(-5, 5, 3))
            np.testing.assert_array_equal(intr.matrix[2], [0.0, 0.0, 1.0])

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            Intrinsics(-1.0, 1.0)


class TestProject:
    def test_optical_axis_maps_to_principal_point(self):
        intr = Intrinsics(800.0, 820.0, 0.3, 640.0, 360.0)
        pose = Pose(np.zeros(3), [0.0, 0.0, 1000.0])
        pixel = project_points(np.zeros((1, 3)), intr, pose)[0]
        np.testing.assert_allclose(pixel, [640.0, 360.0])

    def test_direct_evaluation(self):
        intr = Intrinsics(1000.0, 1000.0, 0.0, 0.0, 0.0)
        pose = Pose(np.zeros(3), [0.0, 0.0, 1000.0])
        pixel = project_points(np.array([[100.0, 0.0, 0.0]]), intr, pose)[0]
        np.testing.assert_allclose(pixel, [100.0, 0.0])

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            intr = Intrinsics(
                rng.uniform(500, 2000),
                rng.uniform(500, 2000),
                rng.uniform(-1, 1),
                rng.uniform(0, 1000),
                rng.uniform(0, 1000),
            )
            rot = random_rotation(rng)
            t = np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(500, 2000)])
            wp = rng.uniform(-100, 100, 3)
            if (rot @ wp + t)[2] <= 1.0:
                continue
            got = project_points(wp[None], intr, Pose(rodrigues(rot), t))[0]
            want = oracle_project(wp, intr, rot, t)
            np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_projective_scale_free(self):
        # Scaling the homogeneous world vector cannot change the pixel.
        rng = np.random.default_rng(2)
        intr = Intrinsics(900.0, 910.0, 0.1, 320.0, 240.0)
        rot = random_rotation(rng)
        t = np.array([5.0, -3.0, 800.0])
        p34 = intr.matrix @ np.column_stack([rot, t])
        wp_h = np.append(rng.uniform(-50, 50, 3), 1.0)
        for s in (0.5, -2.0, 1e6):
            a = p34 @ wp_h
            b = p34 @ (s * wp_h)
            np.testing.assert_allclose(a[:2] / a[2], b[:2] / b[2], rtol=1e-12)

    def test_non_positive_depth(self):
        intr = Intrinsics(1000.0, 1000.0)
        pose = Pose(np.zeros(3), [0.0, 0.0, -10.0])
        with pytest.raises(FocusCalError, match="point at or behind the camera plane"):
            project_points(np.zeros((1, 3)), intr, pose)
        with pytest.raises(FocusCalError, match="point at or behind the camera plane"):
            project_points([[0, 0, 10], [0, 0, 20]], intr, pose)


class TestRodrigues:
    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            rot = random_rotation(rng)
            back = rotation(rodrigues(rot))
            assert np.linalg.norm(back - rot) < 1e-10

    @pytest.mark.parametrize(
        "angle",
        [0.0, 1e-12, 1e-9, 1e-7, 1e-5, 0.5, np.pi / 2, np.pi - 1e-4, np.pi - 1e-8, np.pi],
    )
    def test_round_trip_extreme_angles(self, angle):
        rng = np.random.default_rng(4)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rot = rotation(axis * angle)
            back = rotation(rodrigues(rot))
            assert np.linalg.norm(back - rot) < 1e-10

    @settings(deadline=None, max_examples=300)
    @given(
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
        exponent=st.one_of(st.just(-np.inf), st.floats(-16.0, -1.0)),
        near_pi=st.booleans(),
    )
    def test_round_trip_near_0_and_pi(self, axis, exponent, near_pi):
        axis = np.array(axis) / np.linalg.norm(axis)
        offset = 10.0**exponent  # 0 for an exponent of -inf
        rvec = axis * (np.pi - offset if near_pi else offset)
        rot = rotation(rvec)
        back = rodrigues(rot)
        assert np.linalg.norm(rotation(back) - rot) < 1e-10
        if near_pi:
            # r and -r give the same rotation at pi: the angle is what is fixed
            assert np.linalg.norm(back) == pytest.approx(np.pi - offset, abs=1e-7)
        else:
            np.testing.assert_allclose(back, rvec, rtol=1e-9, atol=1e-18)

    def test_orthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rot = rotation(rng.normal(size=3))
            assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(rot) - 1.0) < 1e-12

    # 0 and 1e-9 take every series branch, 1e-5 the left Jacobian's only;
    # 9.99e-5 and 1.001e-4 straddle its switch; pi - 1e-6 ends the angle range.
    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-5, 9.99e-5, 1.001e-4, 0.5, np.pi - 1e-6])
    def test_derivatives_match_finite_differences(self, angle):
        rng = np.random.default_rng(6)
        for _ in range(50):
            axis = rng.normal(size=3)
            r = angle * axis / np.linalg.norm(axis)
            rot, jl = core._rodrigues(r, derivatives=True)
            dr = core._skew(jl[0].T) @ rot[0]  # d(R)/d(r_i) = [J_l e_i]x R
            for i in range(3):
                step = 1e-7
                forward = r.copy()
                forward[i] += step
                backward = r.copy()
                backward[i] -= step
                fd = (
                    rotation(forward) - rotation(backward)
                ) / (2 * step)
                assert np.abs(dr[i] - fd).max() < 1e-6

    def test_pose_matrix_invariants(self):
        pose = Pose([0.1, -0.2, 0.3], [1.0, 2.0, 3.0])
        rot = pose.matrix
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-10
        assert abs(np.linalg.det(rot) - 1.0) < 1e-10
        again = Pose(rodrigues(rot), pose.translation)
        assert np.linalg.norm(again.matrix - rot) < 1e-10


class TestDistortion:
    intr = Intrinsics(1370.8, 1373.8, 0.0, 645.8, 359.3)

    def test_zero_distortion_is_identity(self):
        d = Distortion()
        p = np.array([100.0, 50.0])
        np.testing.assert_array_equal(undistort_points(p, self.intr, d), p)
        np.testing.assert_array_equal(distort_points(p, self.intr, d), p)

    def test_principal_point_fixed(self):
        d = Distortion(0.03, -0.1)
        pp = np.array([self.intr.u0, self.intr.v0])
        np.testing.assert_allclose(undistort_points(pp, self.intr, d), pp)
        np.testing.assert_allclose(distort_points(pp, self.intr, d), pp)

    def test_inversion_budget_exhausted(self, monkeypatch):
        # Five fixed-point steps leave every point unconverged: each is solved
        # along its ray instead, or is NaN where the correction reaches no
        # pixel onto it (k2 < 0 caps the corrected radius).
        monkeypatch.setattr(core, "_DISTORT_ITERATIONS", 5)
        ideal = np.array([[1500.0, 900.0], [700.0, 400.0]])
        there = distort_points(ideal, self.intr, Distortion(5.0, 0.0))
        np.testing.assert_allclose(undistort_points(there, self.intr, Distortion(5.0, 0.0)),
                                   ideal, atol=1e-9)
        capped = distort_points(ideal, self.intr, Distortion(0.0, -5.0))
        assert np.isnan(capped[0]).all() and np.isfinite(capped[1]).all()

    def test_coefficient_that_overflows_the_root_solve_gives_nan(self):
        # -k1 / k2 overflows, so no companion matrix is finite: NaN, not a raise
        ideal = np.array([[100.0, 200.0], [1000.0, 700.0]])
        out = distort_points(ideal, self.intr, Distortion(-1e308, -0.072))
        assert out.shape == (2, 2) and np.isnan(out).all()

    def test_only_the_points_whose_matrix_overflows_are_nan(self, monkeypatch):
        # one step leaves both points moving; the far point's radius / k1 overflows
        monkeypatch.setattr(core, "_DISTORT_ITERATIONS", 1)
        ideal = np.array([[1500.0, 900.0], [1e308, 0.0]])
        d = Distortion(1e-10, 0.0)
        out = distort_points(ideal, self.intr, d)
        np.testing.assert_allclose(undistort_points(out[0], self.intr, d), ideal[0], atol=1e-9)
        assert np.isnan(out[1]).all()

    def test_no_points_gives_no_points(self):
        out = distort_points(np.empty((0, 2)), self.intr, Distortion(0.03, -0.1))
        assert out.shape == (0, 2)

    def test_published_coefficients_round_trip(self):
        d = Distortion(0.0087, -0.072)
        ideal = np.array([self.intr.u0 + 200.0 / np.sqrt(2), self.intr.v0 + 200.0 / np.sqrt(2)])
        distorted = distort_points(ideal, self.intr, d)
        np.testing.assert_allclose(undistort_points(distorted, self.intr, d), ideal, atol=1e-9)

    def test_undistort_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = Distortion(rng.uniform(-0.05, 0.05), rng.uniform(-0.2, 0.2))
            p = np.array(
                [rng.uniform(0, 1279), rng.uniform(0, 724)]
            )
            # term-by-term evaluation of the correction
            du = p[0] - self.intr.u0
            dv = p[1] - self.intr.v0
            r2 = (du / self.intr.alpha) ** 2 + (dv / self.intr.beta) ** 2
            gain = d.k1 * r2 + d.k2 * r2 * r2
            want = np.array([p[0] + du * gain, p[1] + dv * gain])
            np.testing.assert_allclose(undistort_points(p, self.intr, d), want, atol=1e-12)

    def test_round_trip_identities_over_range(self):
        # radii up to half the image diagonal of a 1279x724 sensor
        half_diag = 0.5 * np.hypot(1279.0, 724.0)
        rng = np.random.default_rng(8)
        for k1 in (-0.05, -0.01, 0.0, 0.01, 0.05):
            for k2 in (-0.2, -0.05, 0.0, 0.05, 0.2):
                d = Distortion(k1, k2)
                for _ in range(10):
                    angle = rng.uniform(0, 2 * np.pi)
                    radius = rng.uniform(0, half_diag)
                    p = np.array(
                        [
                            self.intr.u0 + radius * np.cos(angle),
                            self.intr.v0 + radius * np.sin(angle),
                        ]
                    )
                    there = distort_points(p, self.intr, d)
                    np.testing.assert_allclose(
                        undistort_points(there, self.intr, d), p, atol=1e-9
                    )
                    back = undistort_points(p, self.intr, d)
                    np.testing.assert_allclose(
                        distort_points(back, self.intr, d), p, atol=1e-9
                    )

    def test_vectorized_matches_scalar(self):
        d = Distortion(0.01, -0.04)
        pts = np.array([[100.0, 200.0], [700.0, 650.0], [645.8, 359.3]])
        vec = undistort_points(pts, self.intr, d)
        for i, p in enumerate(pts):
            np.testing.assert_array_equal(vec[i], undistort_points(p, self.intr, d))
        vec2 = distort_points(pts, self.intr, d)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(vec2[i], distort_points(p, self.intr, d), atol=1e-12)
