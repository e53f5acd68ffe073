"""Pin-hole camera primitives and the one camera model of the package.

Conventions used throughout the package: world coordinates in millimetres,
image coordinates in pixels, angles in radians. A pose maps world points into
the camera frame via ``x_cam = R @ x_world + t`` with the optical axis along
+z. All types are immutable values and every function is pure.

The camera model (Zhang, "A flexible new technique for camera calibration",
PAMI 2000) is written once, here: batched Rodrigues rotations and their left
Jacobians (``_rodrigues``), the pin-hole projection (``_pinhole``) and the
radial correction (``_radial``). ``Reprojection`` evaluates it over the
stacked points of every view in one forward pass and fills the analytic
Jacobian, transposed, from what that pass kept, on request. A rotated
point's derivative by the axis-angle vector takes the closed form
d(R w)/dr = -[R w]x J_l(r) (Gallego & Yezzi, "A compact formula for the
derivative of a 3-D rotation in exponential coordinates", JMIV 2015).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusCalError

__all__ = [
    "Intrinsics",
    "Pose",
    "Distortion",
    "rotation_from_rodrigues",
    "rodrigues_from_rotation",
    "rodrigues_from_rotations",
    "rotation_derivatives",
    "project",
    "project_points",
    "perspective_pixels",
    "distort",
    "distort_points",
    "undistort",
    "undistort_points",
    "Reprojection",
]

# Angle below which sin/cos ratios switch to their Taylor expansions.
_SMALL_ANGLE = 1e-7
# Depth at or below which a view's residuals are infinite.
_MIN_DEPTH = 1e-9
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


def rotation_from_rodrigues(rvec) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (angle = vector norm)."""
    return _rodrigues(_as_vec(rvec, 3))[0][0]


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


def rodrigues_from_rotation(rot) -> np.ndarray:
    """Axis-angle vector of a rotation matrix, stable near 0 and pi."""
    return rodrigues_from_rotations(np.asarray(rot, dtype=float)[None])[0]


def rotation_derivatives(rvec) -> np.ndarray:
    """Partial derivatives of the rotation matrix, shape (3, 3, 3).

    Entry ``[i]`` is the derivative of ``rotation_from_rodrigues(rvec)`` with
    respect to component ``i`` of the axis-angle vector.
    """
    rot, jl = _rodrigues(_as_vec(rvec, 3), derivatives=True)
    return _skew(jl[0].T) @ rot[0]  # d(R)/d(r_i) = [J_l e_i]x R


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
        return rotation_from_rodrigues(self.rodrigues)

    @classmethod
    def from_matrix(cls, rot, t) -> "Pose":
        rot = np.asarray(rot, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-8 or np.linalg.det(rot) < 0:
            raise ValueError("matrix is not a proper rotation")
        return cls(rodrigues_from_rotation(rot), _as_vec(t, 3))

    def transform(self, points) -> np.ndarray:
        """Map world points (n, 3) into the camera frame."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.matrix.T + self.translation


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


def perspective_pixels(camera_points, intr: Intrinsics) -> np.ndarray:
    """Pixels for camera-frame points (n, 3) with strictly positive depth."""
    cam = np.atleast_2d(np.asarray(camera_points, dtype=float))
    z = cam[:, 2]
    if np.any(z <= 0.0) or not np.all(np.isfinite(cam)):
        raise FocusCalError("point at or behind the camera plane")
    u, v = _pinhole(
        cam[:, 0], cam[:, 1], z, intr.alpha, intr.beta, intr.gamma, intr.u0, intr.v0
    )
    return np.column_stack([u, v])


def project_points(world, intr: Intrinsics, pose: Pose) -> np.ndarray:
    """Project world points (n, 3) to pixels (n, 2)."""
    return perspective_pixels(pose.transform(world), intr)


def project(wp, intr: Intrinsics, pose: Pose) -> np.ndarray:
    """Project a single world point to inhomogeneous pixel coordinates."""
    return project_points(_as_vec(wp, 3)[None, :], intr, pose)[0]


def _correction(points, intr: Intrinsics, dist: Distortion) -> tuple:
    pts = np.asarray(points, dtype=float)
    du = pts[..., 0] - intr.u0
    dv = pts[..., 1] - intr.v0
    g = _radial(du, dv, intr.alpha, intr.beta, dist.k1, dist.k2)[3]
    return du * g, dv * g


def undistort_points(observed, intr: Intrinsics, dist: Distortion) -> np.ndarray:
    """Closed-form map from distorted pixels to corrected pixels."""
    pts = np.asarray(observed, dtype=float)
    cu, cv = _correction(pts, intr, dist)
    return np.stack([pts[..., 0] + cu, pts[..., 1] + cv], axis=-1)


def undistort(observed, intr: Intrinsics, dist: Distortion) -> np.ndarray:
    return undistort_points(_as_vec(observed, 2), intr, dist)


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
    if dist.is_zero:
        return target.copy()
    p = target.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # diverging points, replaced below
        for _ in range(_DISTORT_ITERATIONS):
            cu, cv = _correction(p, intr, dist)
            new = np.stack([target[..., 0] - cu, target[..., 1] - cv], axis=-1)
            step = np.abs(new - p)
            p = new
            if float(np.max(step, initial=0.0)) < _DISTORT_TOL:
                return p
    lost = ~(np.max(step, axis=-1) < _DISTORT_TOL)
    offset = target[lost].reshape(-1, 2) - (intr.u0, intr.v0)
    radius = np.hypot(offset[:, 0] / intr.alpha, offset[:, 1] / intr.beta)
    for i, r in enumerate(radius):
        roots = np.roots([dist.k2, 0.0, dist.k1, 0.0, 1.0, -r])
        real = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
        offset[i] *= real.min() / r if real.size else np.nan
    p[lost] = offset + (intr.u0, intr.v0)
    return p


def distort(ideal, intr: Intrinsics, dist: Distortion) -> np.ndarray:
    return distort_points(_as_vec(ideal, 2), intr, dist)


# the camera model over all views


class Reprojection:
    """One pass of the camera model over the stacked points of every view.

    Point ``j`` has template coordinates ``world[j]``, observed pixels
    ``image[j]`` and view ``view[j]``, an index into the per-view axis-angle
    vectors ``rvecs`` (m, 3) and translations ``tvecs`` (m, 3). ``alpha`` and
    ``beta`` are shared scalars or per-view arrays (m,); the other parameters
    are shared. ``residuals`` (n, 2) is the observation after the radial
    correction minus the pin-hole projection. Every residual of a view with a
    point at or behind the camera plane, or a non-positive scale factor, is
    infinite. The pass keeps the rotated points, camera coordinates and
    radial terms that ``fill_jacobian`` reuses.
    """

    def __init__(self, world, image, view, rvecs, tvecs, alpha, beta, gamma, u0, v0,
                 k1=0.0, k2=0.0):
        image = np.asarray(image, dtype=float)
        view = np.asarray(view, dtype=np.intp)
        self.rvecs = np.array(rvecs, dtype=float)  # a copy: the caller may reuse its array
        rot = _rodrigues(self.rvecs)[0]
        self.rw = np.einsum("nab,nb->na", rot[view], np.asarray(world, dtype=float))
        self.cam = self.rw + np.asarray(tvecs, float)[view]
        x, y, z = self.cam.T
        alpha, beta = (np.asarray(p, dtype=float) for p in (alpha, beta))
        self.alpha, self.beta = alpha, beta = [p[view] if p.ndim else p for p in (alpha, beta)]
        self.gamma, self.k1, self.k2 = gamma, k1, k2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u_hat, v_hat = _pinhole(x, y, z, alpha, beta, gamma, u0, v0)
            self.du = du = image[:, 0] - u0
            self.dv = dv = image[:, 1] - v0
            radial = _radial(du, dv, alpha, beta, k1, k2)
            self.xb, self.yb, self.r2, self.g = xb, yb, r2, g = radial
            u, v = image[:, 0] + du * g - u_hat, image[:, 1] + dv * g - v_hat
            self.residuals = np.column_stack([u, v])
        bad = (z <= _MIN_DEPTH) | (alpha <= 0) | (beta <= 0)
        if bad.any():
            self.residuals[np.isin(view, view[bad])] = np.inf

    def fill_jacobian(self, jt, columns: dict, groups) -> None:
        """Write the analytic Jacobian of the flattened residuals, transposed, into ``jt``.

        Columns 2j and 2j + 1 of ``jt`` are point j's u and v residuals, so
        the derivatives by one parameter are one row. The rows ``columns``
        maps the free shared parameters to ("alpha", "beta", "gamma", "u0",
        "v0", "k1", "k2") take the derivatives by them, and the six rows
        after them the derivatives by each residual's own view's pose,
        rotation vector first. ``groups`` lists the views in point order as
        runs (view indices, points per view); each view's rotation rows are
        one (3, 3) @ (3, n) product. Every entry of those rows is written.
        """
        x, y, z = self.cam.T
        alpha, beta, gamma, k1, k2 = self.alpha, self.beta, self.gamma, self.k1, self.k2
        du, dv, xb, yb, r2, g = self.du, self.dv, self.xb, self.yb, self.r2, self.g
        gain = k1 + 2.0 * k2 * r2  # d(g)/d(r2)
        ex, ey = 2.0 * gain * xb / alpha, 2.0 * gain * yb / beta
        derivatives = {  # built on demand, one row pair at a time
            "alpha": lambda: (-du * ex * xb - x / z, -dv * ex * xb),
            "beta": lambda: (-du * ey * yb, -dv * ey * yb - y / z),
            "gamma": lambda: (-y / z, 0.0),
            "u0": lambda: (-g - du * ex - 1.0, -dv * ex),
            "v0": lambda: (-du * ey, -g - dv * ey - 1.0),
            "k1": lambda: (du * r2, dv * r2),
            "k2": lambda: (du * r2 * r2, dv * r2 * r2),
        }
        for name, row in columns.items():
            jt[row, 0::2], jt[row, 1::2] = derivatives[name]()
        # pose rows: residual = corrected - projected, so -d(projection), and
        # d(cam)/dr = -[rw]x J_l turns -grad . d(cam)/dr into (grad x rw) J_l
        k = len(columns)
        w0, w1, w2 = self.rw.T
        jl_t = _rodrigues(self.rvecs, derivatives=True)[1].transpose(0, 2, 1)
        grad_u = (alpha / z, gamma / z, -(alpha * x + gamma * y) / (z * z))
        grad_v = (np.zeros_like(z), beta / z, -beta * y / (z * z))
        for parity, (g0, g1, g2) in enumerate((grad_u, grad_v)):
            cross = np.array([g1 * w2 - g2 * w1, g2 * w0 - g0 * w2, g0 * w1 - g1 * w0])
            start = 0
            for views, n in groups:
                end = start + len(views) * n
                block = cross[:, start:end].reshape(3, len(views), n).transpose(1, 0, 2)
                rot = np.matmul(jl_t[views], block).transpose(1, 0, 2).reshape(3, -1)
                jt[k : k + 3, 2 * start + parity : 2 * end : 2] = rot
                start = end
            jt[k + 3 : k + 6, parity::2] = -g0, -g1, -g2
