"""Plane-to-image homography estimation by the normalized direct linear transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusCalError

__all__ = [
    "Homography",
    "HomographyResiduals",
    "normalize_points",
    "canonicalize",
    "estimate_homography",
    "homography_residuals",
]

_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Homography:
    """A 3x3 projective plane map in canonical scale.

    ``condition`` is the ratio of the largest design-matrix singular value to
    the second smallest; large values flag a poorly constrained estimate.
    """

    matrix: np.ndarray
    condition: float = float("nan")

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        if m.shape != (3, 3):
            raise ValueError("homography must be 3x3")
        if not np.all(np.isfinite(m)):
            raise ValueError("homography entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, world_xy) -> np.ndarray:
        """Map plane points (n, 2) to pixels (n, 2)."""
        pts = np.atleast_2d(np.asarray(world_xy, dtype=float))
        h = np.column_stack([pts, np.ones(len(pts))]) @ self.matrix.T
        w = h[:, 2]
        scale = max(1.0, float(np.max(np.abs(h))))
        if np.any(np.abs(w) < 1e-15 * scale):
            raise FocusCalError("plane point maps to zero third coordinate")
        return h[:, :2] / w[:, None]


def canonicalize(matrix) -> np.ndarray:
    """Scale to unit Frobenius norm with a deterministic sign.

    The sign makes the bottom-right entry positive, falling back to the first
    entry above a small threshold when that one is near zero.
    """
    m = np.asarray(matrix, dtype=float)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        raise ValueError("zero matrix cannot be canonicalized")
    # Skip the division when already unit norm so the map is idempotent.
    if abs(norm - 1.0) > 1e-14:
        m = m / norm
    if abs(m[2, 2]) > 1e-12:
        pivot = m[2, 2]
    else:
        flat = m.ravel()
        nz = np.flatnonzero(np.abs(flat) > 1e-12)
        pivot = flat[nz[0]] if nz.size else 1.0
    return -m if pivot < 0 else m


def normalize_points(points) -> tuple[np.ndarray, np.ndarray]:
    """Translate and scale points to zero centroid and mean radius sqrt(2).

    Returns the transformed points and the 3x3 similarity applied to them, so
    callers can compose the inverse afterwards.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2 or pts.shape[1] != 2:
        raise FocusCalError("need at least two 2D points")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = float(np.mean(np.linalg.norm(centered, axis=1)))
    if mean_dist < 1e-12 * (1.0 + float(np.max(np.abs(pts)))):
        raise FocusCalError("all points identical")
    s = np.sqrt(2.0) / mean_dist
    transform = np.array(
        [
            [s, 0.0, -s * centroid[0]],
            [0.0, s, -s * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )
    return centered * s, transform


def _plane_coords(world) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(world, dtype=float))
    if pts.shape[1] == 3:
        if np.any(pts[:, 2] != 0.0):
            raise ValueError("template points must have z = 0")
        pts = pts[:, :2]
    elif pts.shape[1] != 2:
        raise ValueError("world points must be (n, 2) or (n, 3) with z = 0")
    return pts


def estimate_homography(world, image) -> Homography:
    """Estimate the plane-to-image homography from >= 4 correspondences.

    Both point sets are normalized, a 2n x 9 design matrix is assembled (two
    rows per correspondence, third block negated so exact data annihilates
    the stacked coefficient vector), and the smallest right singular vector
    gives the solution, which is then denormalized and canonicalized. Only
    the right singular vectors are computed (a thin SVD).
    """
    wp = _plane_coords(world)
    ip = np.atleast_2d(np.asarray(image, dtype=float))
    if wp.shape[0] != ip.shape[0]:
        raise ValueError("world and image point counts differ")
    n = wp.shape[0]
    if n < 4:
        raise FocusCalError(f"need at least 4 correspondences, got {n}")
    wn, t_world = normalize_points(wp)
    im, t_image = normalize_points(ip)
    design = np.zeros((2 * n, 9))
    ones = np.ones(n)
    design[0::2, 0:3] = np.column_stack([wn, ones])
    design[1::2, 3:6] = np.column_stack([wn, ones])
    design[0::2, 6:9] = -im[:, 0:1] * np.column_stack([wn, ones])
    design[1::2, 6:9] = -im[:, 1:2] * np.column_stack([wn, ones])
    if n == 4:
        # A thin SVD of eight rows has only eight right singular vectors; a
        # zero ninth row adds the null vector the solution is read from.
        design = np.vstack([design, np.zeros(9)])
    _, sing, vt = np.linalg.svd(design, full_matrices=False)
    # One vanishing singular value is the solution; two means the points do
    # not determine the map (for example collinear world points).
    if sing[7] <= _RANK_TOL * sing[0]:
        raise FocusCalError("correspondences do not determine a homography")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_image) @ h_norm @ t_world
    condition = float(sing[0] / sing[7])
    matrix = canonicalize(h)
    if not np.all(np.isfinite(matrix)) or np.linalg.cond(matrix) > 1e12:
        raise FocusCalError("estimated homography is rank deficient")
    return Homography(matrix, condition)


@dataclass(frozen=True, eq=False)
class HomographyResiduals:
    """Per-correspondence transfer errors in pixels with summary statistics."""

    errors: np.ndarray
    mean: float
    std: float


def homography_residuals(h, world, image) -> HomographyResiduals:
    """Pixel distance between observed points and mapped plane points."""
    matrix = h.matrix if isinstance(h, Homography) else np.asarray(h, dtype=float)
    wp = _plane_coords(world)
    ip = np.atleast_2d(np.asarray(image, dtype=float))
    mapped = Homography(canonicalize(matrix)).apply(wp)
    errors = np.linalg.norm(ip - mapped, axis=1)
    return HomographyResiduals(errors, float(errors.mean()), float(errors.std()))
