"""Plane-to-image homography estimation by the normalized direct linear transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _norms
from .errors import FocusCalError, raise_first

__all__ = ["Homography", "estimate_homography", "estimate_homographies"]

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


def _canonical(m: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Scale matrices (g, 3, 3) with nonzero Frobenius norms ``norm`` (g,) to unit
    norm with a deterministic sign.

    The sign makes the bottom-right entry positive, falling back to the first
    entry above a small threshold when that one is near zero.
    """
    # Skip the division when already unit norm so the map is idempotent.
    m = np.where((np.abs(norm - 1.0) > 1e-14)[:, None, None], m / norm[:, None, None], m)
    flat = m.reshape(len(m), 9)
    big = np.abs(flat) > 1e-12
    fallback = np.where(big.any(axis=1), flat[np.arange(len(m)), np.argmax(big, axis=1)], 1.0)
    pivot = np.where(big[:, 8], flat[:, 8], fallback)
    return np.where((pivot < 0)[:, None, None], -m, m)


def _normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Translate and scale point sets (g, n, 2) to zero centroid and mean radius sqrt(2).

    Returns the normalized sets, the 3x3 similarity applied to each, and the
    checks of ``_dlt`` the sets meet here: coordinates so large that their
    spread overflows, and all points identical. A rejected set's similarity
    is left finite and meaningless.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        centroid = pts.mean(axis=1)
        centered = pts - centroid[:, None, :]
        x, y = centered[:, :, 0], centered[:, :, 1]
        mean_dist = np.mean(np.sqrt(x * x + y * y), axis=1)
    huge = ~np.isfinite(mean_dist)
    centroid[huge] = centered[huge] = 0.0
    identical = mean_dist < 1e-12 * (1.0 + np.max(np.abs(pts), axis=(1, 2)))
    s = np.sqrt(2.0) / np.where(identical | huge, 1.0, mean_dist)
    transform = np.zeros((len(pts), 3, 3))
    transform[:, 0, 0] = transform[:, 1, 1] = s
    transform[:, :2, 2] = -s[:, None] * centroid
    transform[:, 2, 2] = 1.0
    checks = [(huge, "point coordinates too large"), (identical, "all points identical")]
    return centered * s[:, None, None], transform, checks


def _plane_coords(world) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(world, dtype=float))
    if pts.shape[1] == 3:
        if np.any(pts[:, 2] != 0.0):
            raise ValueError("template points must have z = 0")
        pts = pts[:, :2]
    elif pts.shape[1] != 2:
        raise ValueError("world points must be (n, 2) or (n, 3) with z = 0")
    return pts


def _correspondences(world, image) -> tuple[np.ndarray, np.ndarray]:
    """Plane and image points (n, 2) of one view, checked for the DLT."""
    wp = _plane_coords(world)
    ip = np.atleast_2d(np.asarray(image, dtype=float))
    if wp.shape[0] != ip.shape[0]:
        raise ValueError("world and image point counts differ")
    if wp.shape[0] < 4:
        raise FocusCalError(f"need at least 4 correspondences, got {wp.shape[0]}")
    if ip.shape[1] != 2:
        raise FocusCalError("need at least two 2D points")
    if not (np.all(np.isfinite(wp)) and np.all(np.isfinite(ip))):
        raise FocusCalError("correspondences must be finite")
    return wp, ip


def _dlt(wp: np.ndarray, ip: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Canonical homographies (g, 3, 3) and conditions (g,) of g views of n points.

    Both point sets are normalized, a 2n x 9 design matrix is assembled (two
    rows per correspondence, third block negated so exact data annihilates
    the stacked coefficient vector), and the smallest right singular vector
    gives the solution, which is then denormalized and canonicalized. One
    batched thin SVD serves every view. Also returns the checks, in the order
    a single view meets them, as (rejected views, reason) pairs.
    """
    g, n = wp.shape[:2]
    wn, t_world, world_checks = _normalize(wp)
    im, t_image, image_checks = _normalize(ip)
    # A thin SVD of eight rows has only eight right singular vectors; for
    # four points a zero ninth row adds the null vector the solution is read from.
    design = np.zeros((g, max(2 * n, 9), 9))
    homog = np.concatenate([wn, np.ones((g, n, 1))], axis=2)
    design[:, 0 : 2 * n : 2, 0:3] = homog
    design[:, 1 : 2 * n : 2, 3:6] = homog
    design[:, 0 : 2 * n : 2, 6:9] = -im[:, :, 0:1] * homog
    design[:, 1 : 2 * n : 2, 6:9] = -im[:, :, 1:2] * homog
    _, sing, vt = np.linalg.svd(design, full_matrices=False)
    # One vanishing singular value is the solution; two means the points do
    # not determine the map (for example collinear world points).
    undetermined = sing[:, 7] <= _RANK_TOL * sing[:, 0]
    h = np.linalg.inv(t_image) @ vt[:, -1].reshape(g, 3, 3) @ t_world
    matrix = _canonical(h, _norms(h.reshape(g, 9)))
    finite = np.all(np.isfinite(matrix), axis=(1, 2))
    cond = np.full(g, np.inf)
    cond[finite] = np.linalg.cond(matrix[finite])
    checks = [
        *world_checks,
        *image_checks,
        (undetermined, "correspondences do not determine a homography"),
        (cond > 1e12, "estimated homography is rank deficient"),
    ]
    return matrix, sing[:, 0] / np.where(undetermined, 1.0, sing[:, 7]), checks


def estimate_homographies(worlds, images, labels=None) -> list[Homography]:
    """Estimate one plane-to-image homography per view, each from >= 4 points.

    Views are grouped by point count and each group takes one batched
    normalized DLT (see ``_dlt``); every homography is bit for bit the one
    its view gives alone. When a view is rejected, the first such view's
    error is raised, as ``"view <label>: <reason>"`` when ``labels`` names
    the views. ``worlds``, ``images`` and ``labels`` must have the same length.
    """
    if len(worlds) != len(images) or (labels is not None and len(labels) != len(worlds)):
        raise ValueError("worlds, images and labels differ in length")
    failures: dict = {}
    groups: dict = {}
    for i, (world, image) in enumerate(zip(worlds, images)):
        try:
            wp, ip = _correspondences(world, image)
        except (ValueError, FocusCalError) as exc:
            failures[i] = exc
            continue
        groups.setdefault(len(wp), []).append((i, wp, ip))
    results = {}
    for members in groups.values():
        index = np.array([i for i, _, _ in members])
        matrices, conditions, checks = _dlt(
            np.array([wp for _, wp, _ in members]), np.array([ip for _, _, ip in members])
        )
        for bad, reason in checks:
            for i in index[bad]:
                failures.setdefault(int(i), FocusCalError(reason))
        results.update(zip(index.tolist(), zip(matrices, conditions.tolist())))
    raise_first(failures, labels)
    return [Homography(*results[i]) for i in range(len(results))]


def estimate_homography(world, image) -> Homography:
    """Estimate the plane-to-image homography from >= 4 correspondences.

    The normalized DLT of ``estimate_homographies`` for one view. Its thin
    SVD forms the thin left factor as well as the right singular vectors.
    """
    return estimate_homographies([world], [image])[0]
