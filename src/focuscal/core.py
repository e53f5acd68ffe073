"""Pin-hole camera primitives shared by the simulator, the refinement and the point API.

Conventions used throughout the package: world coordinates in millimetres,
image coordinates in pixels, angles in radians. A pose maps world points into
the camera frame via ``x_cam = R @ x_world + t`` with the optical axis along
+z. All types are immutable values and every function is pure.

The camera model (Zhang, "A flexible new technique for camera calibration",
PAMI 2000) is built from the pieces written once here: batched Rodrigues
rotations and their left Jacobians (``_rodrigues``), the pin-hole projection
(``_pinhole``), the radial correction (``_radial``) and its inverse
(``_distort_views``). ``_rotate`` rotates points by whole matrices for
``Pose.transform``. The refinement's forward pass over every view and its
analytic Jacobian live in ``calibrate._Problem``, which owns their layout:
its template is planar, so it rotates each point by a rotation's first two
columns only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusCalError

__all__ = [
    "Intrinsics",
    "Pose",
    "Distortion",
    "rodrigues_from_rotations",
    "project_points",
    "distort_points",
    "undistort_points",
]

# Angle below which sin/cos ratios switch to their Taylor expansions.
_SMALL_ANGLE = 1e-7
# Budget and pixel step tolerance of the distortion inversion's fixed point.
_DISTORT_ITERATIONS = 50
_DISTORT_TOL = 1e-12


def _as_vec(x, n: int) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(n)


@dataclass(frozen=True)
class Intrinsics:
    """Scale factors (pixels), skew, and principal point (pixels)."""

    alpha: float
    beta: float
    gamma: float = 0.0
    u0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, self.u0, self.v0)
        if not np.all(np.isfinite(vals)):
            raise ValueError("intrinsic parameters must be finite")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("scale factors must be positive")

    @property
    def matrix(self) -> np.ndarray:
        """Upper-triangular 3x3 intrinsic matrix."""
        return np.array(
            [
                [self.alpha, self.gamma, self.u0],
                [0.0, self.beta, self.v0],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class Distortion:
    """Second-order radial distortion coefficients, zero by default."""

    k1: float = 0.0
    k2: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.k1, self.k2))):
            raise ValueError("distortion coefficients must be finite")

    @property
    def is_zero(self) -> bool:
        return self.k1 == 0.0 and self.k2 == 0.0


# rotation parameterization


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices of vectors (..., 3), shape (..., 3, 3)."""
    k = np.zeros(v.shape[:-1] + (3, 3))
    k[..., 0, 1], k[..., 0, 2] = -v[..., 2], v[..., 1]
    k[..., 1, 0], k[..., 1, 2] = v[..., 2], -v[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -v[..., 1], v[..., 0]
    return k


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms of the rows of ``v`` (m, k), each as ``sqrt(v_i . v_i)`` like
    ``np.linalg.norm`` of one vector, so a batch matches it to the last bit."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _rodrigues(rvecs, derivatives: bool = False) -> tuple:
    """Rotations (m, 3, 3) of axis-angle vectors (m, 3), and on request their
    left Jacobians (m, 3, 3): rotation j moves by ``[J_l[j] dr]x R`` when its
    vector moves by ``dr``."""
    r = np.asarray(rvecs, dtype=float).reshape(-1, 3)
    # Simulated datasets depend on these rotations to the last bit.
    theta = _norms(r)
    t2 = theta * theta
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(safe) / safe)
    # 2*sin(theta/2)**2 avoids cancellation in 1 - cos(theta)
    b = np.where(small, 0.5 - t2 / 24.0, 2.0 * np.sin(safe / 2.0) ** 2 / (safe * safe))
    k = _skew(r)
    k2 = k @ k
    rot = np.eye(3) + a[:, None, None] * k + b[:, None, None] * k2
    if not derivatives:
        return rot, None
    # c = (1 - sin(theta)/theta)/theta^2 cancels worse, so its series starts earlier
    series = theta < 1e-4
    c = np.where(series, 1.0 / 6.0 - t2 / 120.0, (1.0 - a) / np.where(series, 1.0, t2))
    return rot, np.eye(3) + b[:, None, None] * k + c[:, None, None] * k2


def rodrigues_from_rotations(rots) -> np.ndarray:
    """Axis-angle vectors (m, 3) of rotation matrices (m, 3, 3), stable near 0 and pi."""
    rot = np.asarray(rots, dtype=float).reshape(-1, 3, 3)
    w = np.stack(
        [rot[:, 2, 1] - rot[:, 1, 2], rot[:, 0, 2] - rot[:, 2, 0], rot[:, 1, 0] - rot[:, 0, 1]],
        axis=1,
    )
    s = 0.5 * _norms(w)  # |sin(theta)|
    c = 0.5 * (np.trace(rot, axis1=1, axis2=2) - 1.0)
    theta = np.arctan2(s, c)
    small = theta < _SMALL_ANGLE
    near_pi = ~small & ~(np.pi - theta > 1e-4)
    general = ~small & ~near_pi
    out = 0.5 * w
    out[general] = (theta[general] / (2.0 * s[general]))[:, None] * w[general]
    if near_pi.any():
        # Near pi the skew part vanishes; recover the axis from the symmetric part.
        r, c_pi = rot[near_pi], c[near_pi, None, None]
        outer = (0.5 * (r + r.transpose(0, 2, 1)) - c_pi * np.eye(3)) / (1.0 - c_pi)
        rows = np.arange(len(r))
        k = np.argmax(np.diagonal(outer, axis1=1, axis2=2), axis=1)
        pivot = np.maximum(outer[rows, k, k], np.finfo(float).tiny)
        axis = outer[rows, :, k] / np.sqrt(pivot)[:, None]
        axis /= _norms(axis)[:, None]
        dots = np.matmul(axis[:, None, :], w[near_pi][:, :, None])[:, 0, 0]
        axis = np.where((dots < 0.0)[:, None], -axis, axis)
        out[near_pi] = theta[near_pi, None] * axis
    return out


def _rotate(rot, points) -> np.ndarray:
    """Points (..., 3) rotated by rotations (..., 3, 3).

    Each coordinate is the ordered sum of three products, so a point rounds
    the same whatever the batch it comes in; a matmul's summation depends on
    the batch.
    """
    p = np.asarray(points, dtype=float)
    return (rot[..., 0] * p[..., 0, None] + rot[..., 1] * p[..., 1, None]
            + rot[..., 2] * p[..., 2, None])


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid world-to-camera transform: axis-angle rotation plus translation."""

    rodrigues: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _as_vec(self.rodrigues, 3).copy()
        t = _as_vec(self.translation, 3).copy()
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("pose parameters must be finite")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rodrigues", r)
        object.__setattr__(self, "translation", t)

    @property
    def matrix(self) -> np.ndarray:
        """3x3 rotation matrix view of the axis-angle parameters."""
        return _rodrigues(self.rodrigues)[0][0]

    def transform(self, points) -> np.ndarray:
        """Map world points (n, 3) into the camera frame."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _rotate(self.matrix, pts) + self.translation


# projection and radial correction


def _pinhole(x, y, z, alpha, beta, gamma, u0, v0) -> tuple:
    """Pixels (u, v) of camera-frame coordinates."""
    return (alpha * x + gamma * y) / z + u0, beta * y / z + v0


def _radial(du, dv, alpha, beta, k1, k2) -> tuple:
    """Normalized offsets, squared radius and gain of the radial correction.

    ``du, dv`` are pixel offsets from the principal point. The radius is
    normalized by the scale factors so the polynomial argument is
    dimensionless; the correction ``(du, dv) * gain`` stays in pixels.
    """
    xb = du / alpha
    yb = dv / beta
    r2 = xb * xb + yb * yb
    return xb, yb, r2, k1 * r2 + k2 * r2 * r2


def project_points(world, intr: Intrinsics, pose: Pose) -> np.ndarray:
    """Project world points (n, 3), each strictly in front of the camera, to pixels (n, 2)."""
    cam = pose.transform(world)
    x, y, z = cam.T
    if np.any(z <= 0.0) or not np.all(np.isfinite(cam)):
        raise FocusCalError("point at or behind the camera plane")
    return np.column_stack(_pinhole(x, y, z, intr.alpha, intr.beta, intr.gamma, intr.u0, intr.v0))


def _correction(points, alpha, beta, u0, v0, dist: Distortion) -> tuple:
    pts = np.asarray(points, dtype=float)
    du = pts[..., 0] - u0
    dv = pts[..., 1] - v0
    g = _radial(du, dv, alpha, beta, dist.k1, dist.k2)[3]
    return du * g, dv * g


def undistort_points(observed, intr: Intrinsics, dist: Distortion) -> np.ndarray:
    """Closed-form map from distorted pixels to corrected pixels."""
    pts = np.asarray(observed, dtype=float)
    cu, cv = _correction(pts, intr.alpha, intr.beta, intr.u0, intr.v0, dist)
    return np.stack([pts[..., 0] + cu, pts[..., 1] + cv], axis=-1)


def distort_points(ideal, intr: Intrinsics, dist: Distortion) -> np.ndarray:
    """Invert the correction map: pixels whose correction reproduces ``ideal``.

    Iterates ``p <- ideal - delta(p)`` from the ideal position. A point still
    moving when the budget runs out (the correction is too steep there) is
    solved along its ray instead: the correction scales the normalized offset
    from the principal point by ``1 + k1 r^2 + k2 r^4``, so the inverse radius
    is the smallest positive root of ``k2 r^5 + k1 r^3 + r = |offset|``, and
    the point is NaN where there is none. Never raises.
    """
    target = np.asarray(ideal, dtype=float)
    params = np.array([[intr.alpha, intr.beta, intr.u0, intr.v0]])
    return _distort_views(target.reshape(1, -1, 2), params, dist).reshape(target.shape)


def _distort_views(target, params, dist: Distortion) -> np.ndarray:
    """``distort_points`` of m views (m, n, 2), view i with (alpha, beta, u0, v0)
    = ``params[i]`` and its own stopping test. The points left moving are solved
    in one eigenvalue call over the companion matrices ``np.roots`` would build; a point
    whose matrix is not finite has no root there."""
    if dist.is_zero:
        return target.copy()
    p = target.copy()
    moving = np.arange(len(p))
    with np.errstate(over="ignore", invalid="ignore"):  # diverging points, replaced below
        for _ in range(_DISTORT_ITERATIONS):
            cu, cv = _correction(p[moving], *params[moving].T[..., None], dist)
            new = target[moving] - np.stack([cu, cv], axis=-1)
            step = np.abs(new - p[moving])
            p[moving] = new
            still = ~(np.max(step, axis=(1, 2), initial=0.0) < _DISTORT_TOL)
            moving, step = moving[still], step[still]
            if not moving.size:
                return p
    index, point = np.nonzero(~(np.max(step, axis=-1) < _DISTORT_TOL))  # still moving
    view = moving[index]
    alpha, beta, u0, v0 = params[view].T
    offset = target[view, point] - np.column_stack([u0, v0])
    with np.errstate(over="ignore"):  # tiny scale factors: an infinite radius, no root below
        radius = np.hypot(offset[:, 0] / alpha, offset[:, 1] / beta)
    # k2 r^5 + k1 r^3 + r - radius, its leading zero coefficients dropped
    head = np.array([dist.k2, 0.0, dist.k1, 0.0, 1.0][0 if dist.k2 else 2:])
    companion = np.tile(np.eye(len(head), k=-1), (len(radius), 1, 1))
    with np.errstate(over="ignore"):
        companion[:, 0, :-1], companion[:, 0, -1] = -head[1:] / head[0], radius / head[0]
    solvable = np.isfinite(companion).all(axis=(1, 2))
    roots = np.linalg.eigvals(companion[solvable])
    positive = np.where((roots.imag == 0.0) & (roots.real > 0.0), roots.real, np.inf)
    real = np.full(len(radius), np.inf)
    real[solvable] = positive.min(axis=1)
    with np.errstate(invalid="ignore"):  # infinity over an infinite radius, dropped
        offset *= np.where(real < np.inf, real / radius, np.nan)[:, None]
    p[view, point] = offset + np.column_stack([u0, v0])
    return p
