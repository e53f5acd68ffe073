import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focuscal.errors import FocusCalError
from focuscal.homography import _canonical, _normalize, estimate_homographies, estimate_homography
from per_view import canonical


def apply_h(matrix, world_xy):
    h = np.column_stack([world_xy, np.ones(len(world_xy))]) @ matrix.T
    return h[:, :2] / h[:, 2:3]


def transfer_errors(h, world_xy, image):
    """Pixel distance between observed points and the mapped plane points."""
    return np.linalg.norm(image - apply_h(h.matrix, world_xy), axis=1)


def normalize_one(points):
    """The DLT's point normalization of one point set, and the reasons it rejects the set."""
    normed, transform, checks = _normalize(np.asarray(points, dtype=float)[None])
    return normed[0], transform[0], [reason for bad, reason in checks if bad[0]]


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
            return canonical(m)


class TestNormalizePoints:
    def test_forced_statistics_two_points(self):
        normed, transform, _ = normalize_one([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(normed.mean(axis=0), 0.0, atol=1e-12)
        assert np.mean(np.linalg.norm(normed, axis=1)) == pytest.approx(
            np.sqrt(2), abs=1e-12
        )
        assert transform.shape == (3, 3)

    def test_already_normalized_gives_identity(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(40, 2))
        normed, _, _ = normalize_one(pts)
        _, transform, _ = normalize_one(normed)
        np.testing.assert_allclose(transform, np.eye(3), atol=1e-12)

    def test_random_cloud_statistics(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            pts = rng.uniform(-500, 500, size=(rng.integers(2, 60), 2))
            normed, transform, rejected = normalize_one(pts)
            assert not rejected
            assert np.linalg.norm(normed.mean(axis=0)) < 1e-12
            assert abs(np.mean(np.linalg.norm(normed, axis=1)) - np.sqrt(2)) < 1e-12
            # transform actually maps the originals onto the normalized set
            mapped = (
                np.column_stack([pts, np.ones(len(pts))]) @ transform.T
            )[:, :2]
            np.testing.assert_allclose(mapped, normed, atol=1e-9)

    def test_identical_points_rejected(self):
        assert normalize_one([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])[2] == ["all points identical"]
        with pytest.raises(FocusCalError, match="all points identical"):
            estimate_homography(grid(3), [[3.0, 4.0]] * 9)

    @pytest.mark.parametrize("side", ["world", "image"])
    @pytest.mark.parametrize("value", [1e308, -1e308, 1e160])
    def test_coordinates_whose_spread_overflows_rejected(self, side, value):
        huge = grid(3)
        huge[4, 0] = value
        assert normalize_one(huge)[2] == ["point coordinates too large"]
        worlds, images = [grid(3), grid(3)], [grid(3), grid(3)]
        (worlds if side == "world" else images)[1] = huge
        # an overflow warning would fail this test: pytest turns warnings into errors
        with pytest.raises(FocusCalError, match="^view b: point coordinates too large$"):
            estimate_homographies(worlds, images, labels=["a", "b"])


class TestEstimateHomography:
    def test_identity_on_grid(self):
        world = grid(5)
        est = estimate_homography(world, world)
        np.testing.assert_allclose(
            est.matrix, canonical(np.eye(3)), atol=1e-10
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
        np.testing.assert_allclose(est.matrix, canonical(np.eye(3)), atol=1e-10)
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
        np.testing.assert_allclose(canonical(unshift @ shifted), base, atol=1e-9)

    def test_condition_estimate_reported(self):
        world = grid(5)
        est = estimate_homography(world, world)
        assert np.isfinite(est.condition) and est.condition >= 1.0


class TestInvariance:
    """Normalized DLT does not depend on point order or on a similarity of the image."""

    @staticmethod
    def noisy_correspondences(seed):
        rng = np.random.default_rng(seed)
        truth = random_well_conditioned_h(rng)
        world = rng.uniform(0.0, 150.0, size=(int(rng.integers(4, 30)), 2))
        image = apply_h(truth, world) + rng.normal(0.0, 0.5, size=(len(world), 2))
        return rng, world, image

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_point_permutation(self, seed):
        rng, world, image = self.noisy_correspondences(seed)
        order = rng.permutation(len(world))
        h = estimate_homography(world, image).matrix
        permuted = estimate_homography(world[order], image[order]).matrix
        np.testing.assert_allclose(permuted, h, rtol=0, atol=1e-9)

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), angle=st.floats(-np.pi, np.pi),
           scale=st.floats(0.01, 100.0), shift=st.tuples(st.floats(-1e3, 1e3),
                                                         st.floats(-1e3, 1e3)))
    def test_image_similarity(self, seed, angle, scale, shift):
        _, world, image = self.noisy_correspondences(seed)
        similarity = np.array([
            [scale * np.cos(angle), -scale * np.sin(angle), shift[0]],
            [scale * np.sin(angle), scale * np.cos(angle), shift[1]],
            [0.0, 0.0, 1.0],
        ])
        h = estimate_homography(world, image).matrix
        moved = estimate_homography(world, apply_h(similarity, image)).matrix
        np.testing.assert_allclose(moved, canonical(similarity @ h), rtol=0, atol=1e-9)


class TestCanonicalize:
    """Every estimate is scaled to unit Frobenius norm with a deterministic sign."""

    def test_idempotent_bitwise(self):
        m = np.random.default_rng(18).normal(size=(100, 3, 3))
        h = _canonical(m, np.linalg.norm(m, axis=(1, 2)))
        again = _canonical(h, np.linalg.norm(h, axis=(1, 2)))
        np.testing.assert_array_equal(again, h)

    def test_sign_convention(self):
        world = grid(5)
        flipped = -np.eye(3)
        flipped[:2, 2] = (3.0, -7.0)
        for h in estimate_homographies([world, world], [world, apply_h(flipped, world)]):
            assert np.linalg.norm(h.matrix) == pytest.approx(1.0, abs=1e-15)
            assert h.matrix[2, 2] > 0

    def test_sign_fallback_first_nonzero(self):
        # The template origin maps to infinity, so h[2, 2] vanishes and the
        # first entry above the threshold, h[0, 2], takes the sign.
        world = grid(5) + 10.0
        for sign in (1.0, -1.0):
            m = sign * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
            h = estimate_homographies([world], [apply_h(m, world)])[0].matrix
            assert abs(h[2, 2]) < 1e-12 and h[0, 2] > 0
            np.testing.assert_allclose(h, np.abs(m) / np.sqrt(3.0), atol=1e-9)


class TestResiduals:
    def test_exact_data_near_zero(self):
        rng = np.random.default_rng(19)
        world = grid(6)
        truth = random_well_conditioned_h(rng)
        image = apply_h(truth, world)
        est = estimate_homography(world, image)
        assert transfer_errors(est, world, image).max() < 1e-9

    def test_noise_band_monte_carlo(self):
        rng = np.random.default_rng(20)
        world = grid(10, 10.0)
        truth = random_well_conditioned_h(rng)
        means = []
        for _ in range(20):
            image = apply_h(truth, world) + rng.normal(0, 0.5, (100, 2))
            est = estimate_homography(world, image)
            means.append(transfer_errors(est, world, image).mean())
        assert 0.2 < np.mean(means) < 1.0
