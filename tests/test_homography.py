import numpy as np
import pytest

from focuscal.errors import FocusCalError
from focuscal.homography import (
    Homography,
    canonicalize,
    estimate_homography,
    homography_residuals,
    normalize_points,
)


def apply_h(matrix, world_xy):
    h = np.column_stack([world_xy, np.ones(len(world_xy))]) @ matrix.T
    return h[:, :2] / h[:, 2:3]


def grid(n=5, spacing=20.0):
    xx, yy = np.meshgrid(np.arange(n) * spacing, np.arange(n) * spacing)
    return np.column_stack([xx.ravel(), yy.ravel()])


def random_well_conditioned_h(rng, extent=150.0, cond_limit=1e4):
    corners = np.array([[0.0, 0.0], [extent, 0.0], [0.0, extent], [extent, extent]])
    while True:
        m = np.eye(3)
        m[:2, :2] += rng.uniform(-0.4, 0.4, (2, 2))
        m[:2, 2] = rng.uniform(-50.0, 50.0, 2)
        m[2, :2] = rng.uniform(-0.3, 0.3, 2) / extent
        w = np.column_stack([corners, np.ones(4)]) @ m[2]
        if np.linalg.cond(m) < cond_limit and np.all(w > 0.3):
            return canonicalize(m)


class TestNormalizePoints:
    def test_forced_statistics_two_points(self):
        normed, transform = normalize_points([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-12)
        assert np.mean(np.linalg.norm(normed, axis=1)) == pytest.approx(
            np.sqrt(2), abs=1e-12
        )
        assert transform.shape == (3, 3)

    def test_already_normalized_gives_identity(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(40, 2))
        normed, _ = normalize_points(pts)
        _, transform = normalize_points(normed)
        np.testing.assert_allclose(transform, np.eye(3), atol=1e-12)

    def test_random_cloud_statistics(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            pts = rng.uniform(-500, 500, size=(rng.integers(2, 60), 2))
            normed, transform = normalize_points(pts)
            assert np.linalg.norm(normed.mean(axis=0)) < 1e-12
            assert abs(np.mean(np.linalg.norm(normed, axis=1)) - np.sqrt(2)) < 1e-12
            # transform actually maps the originals onto the normalized set
            mapped = (
                np.column_stack([pts, np.ones(len(pts))]) @ transform.T
            )[:, :2]
            np.testing.assert_allclose(mapped, normed, atol=1e-9)

    def test_identical_points_rejected(self):
        with pytest.raises(FocusCalError, match="all points identical"):
            normalize_points([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])


class TestEstimateHomography:
    def test_identity_on_grid(self):
        world = grid(5)
        est = estimate_homography(world, world)
        np.testing.assert_allclose(
            est.matrix, canonicalize(np.eye(3)), atol=1e-10
        )

    def test_exact_recovery_random(self):
        rng = np.random.default_rng(15)
        world = grid(6, 15.0)
        for _ in range(100):
            truth = random_well_conditioned_h(rng)
            est = estimate_homography(world, apply_h(truth, world))
            assert np.linalg.norm(est.matrix - truth) < 1e-9

    def test_minimal_four_points(self):
        rng = np.random.default_rng(16)
        world = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 80.0], [0.0, 80.0]])
        for _ in range(50):
            truth = random_well_conditioned_h(rng)
            est = estimate_homography(world, apply_h(truth, world))
            assert np.linalg.norm(est.matrix - truth) < 1e-8

    def test_collinear_world_points_rejected(self):
        world = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        image = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, 2.0], [6.0, 3.0]])
        with pytest.raises(FocusCalError, match="correspondences do not determine a homography"):
            estimate_homography(world, image)

    def test_too_few_points(self):
        with pytest.raises(FocusCalError, match="need at least 4 correspondences, got 3"):
            estimate_homography(grid(5)[:3], grid(5)[:3])

    def test_z_column_accepted_when_zero(self):
        world = np.column_stack([grid(4), np.zeros(16)])
        est = estimate_homography(world, grid(4))
        np.testing.assert_allclose(est.matrix, canonicalize(np.eye(3)), atol=1e-10)
        with pytest.raises(ValueError):
            estimate_homography(world + [0, 0, 1], grid(4))

    def test_shift_invariance_through_normalization(self):
        rng = np.random.default_rng(17)
        world = grid(5, 25.0)
        truth = random_well_conditioned_h(rng)
        image = apply_h(truth, world)
        base = estimate_homography(world, image).matrix
        shift = np.array([137.0, -42.0])
        shifted = estimate_homography(world, image + shift).matrix
        unshift = np.array([[1.0, 0.0, -shift[0]], [0.0, 1.0, -shift[1]], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(canonicalize(unshift @ shifted), base, atol=1e-9)

    def test_condition_estimate_reported(self):
        world = grid(5)
        est = estimate_homography(world, world)
        assert np.isfinite(est.condition) and est.condition >= 1.0


class TestCanonicalize:
    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            h = canonicalize(rng.normal(size=(3, 3)))
            again = canonicalize(h)
            np.testing.assert_array_equal(again, h)

    def test_sign_convention(self):
        h = canonicalize(-np.eye(3))
        assert h[2, 2] > 0

    def test_sign_fallback_first_nonzero(self):
        m = np.array([[-2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        h = canonicalize(m)
        assert h[0, 0] > 0


class TestResiduals:
    def test_exact_data_near_zero(self):
        rng = np.random.default_rng(19)
        world = grid(6)
        truth = random_well_conditioned_h(rng)
        image = apply_h(truth, world)
        est = estimate_homography(world, image)
        res = homography_residuals(est, world, image)
        assert res.errors.max() < 1e-9
        assert res.mean < 1e-9

    def test_identity_single_point_zero(self):
        world = grid(3)
        res = homography_residuals(np.eye(3), world, world)
        np.testing.assert_allclose(res.errors, 0.0, atol=1e-12)

    def test_noise_band_monte_carlo(self):
        rng = np.random.default_rng(20)
        world = grid(10, 10.0)
        truth = random_well_conditioned_h(rng)
        means = []
        for _ in range(20):
            image = apply_h(truth, world) + rng.normal(0, 0.5, (100, 2))
            est = estimate_homography(world, image)
            means.append(homography_residuals(est, world, image).mean)
        assert 0.2 < np.mean(means) < 1.0

    def test_point_at_infinity(self):
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        with pytest.raises(FocusCalError, match="plane point maps to zero third coordinate"):
            Homography(canonicalize(h)).apply([[0.0, 1.0]])
