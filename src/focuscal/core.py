"""Pin-hole camera primitives and the one camera model of the package.

Conventions used throughout the package: world coordinates in millimetres,
image coordinates in pixels, angles in radians. A pose maps world points into
the camera frame via ``x_cam = R @ x_world + t`` with the optical axis along
+z. All types are immutable values and every function is pure.

The camera model (Zhang, "A flexible new technique for camera calibration",
PAMI 2000) is written once, here: batched Rodrigues rotations and their left
Jacobians (``_rodrigues``), the pin-hole projection (``_pinhole``) and the
radial correction (``_radial``). ``reprojection_residuals`` evaluates it over
the stacked points of every view, with the analytic Jacobian on request. A
rotated point's derivative by the axis-angle vector takes the closed form
d(R w)/dr = -[R w]x J_l(r) (Gallego & Yezzi, "A compact formula for the
derivative of a 3-D rotation in exponential coordinates", JMIV 2015).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusCalError, NonConvergence

__all__ = [
    "Intrinsics",
    "Pose",
    "Distortion",
    "rotation_from_rodrigues",
    "rodrigues_from_rotation",
    "rotation_derivatives",
    "project",
    "project_points",
    "perspective_pixels",
    "distort",
    "distort_points",
    "undistort",
    "undistort_points",
    "reprojection_residuals",
]

# Angle below which sin/cos ratios switch to their Taylor expansions.
_SMALL_ANGLE = 1e-7
# Depth at or below which a view's residuals are infinite.
_MIN_DEPTH = 1e-9


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


def _rodrigues(rvecs, derivatives: bool = False) -> tuple:
    """Rotations (m, 3, 3) of axis-angle vectors (m, 3), and on request their
    left Jacobians (m, 3, 3): rotation j moves by ``[J_l[j] dr]x R`` when its
    vector moves by ``dr``."""
    r = np.asarray(rvecs, dtype=float).reshape(-1, 3)
    # One dot product per vector, as np.linalg.norm takes for a single vector:
    # simulated datasets depend on these rotations to the last bit.
    theta = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])
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


def rodrigues_from_rotation(rot) -> np.ndarray:
    """Axis-angle vector of a rotation matrix, stable near 0 and pi."""
    rot = np.asarray(rot, dtype=float)
    w = np.array(
        [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
    )
    s = 0.5 * float(np.linalg.norm(w))  # |sin(theta)|
    c = 0.5 * (float(np.trace(rot)) - 1.0)
    theta = float(np.arctan2(s, c))
    if theta < _SMALL_ANGLE:
        return 0.5 * w
    if np.pi - theta > 1e-4:
        return (theta / (2.0 * s)) * w
    # Near pi the skew part vanishes; recover the axis from the symmetric part.
    sym = 0.5 * (rot + rot.T)
    outer = (sym - c * np.eye(3)) / (1.0 - c)
    k = int(np.argmax(np.diag(outer)))
    axis = outer[:, k] / np.sqrt(max(outer[k, k], np.finfo(float).tiny))
    axis /= np.linalg.norm(axis)
    if axis @ w < 0.0:
        axis = -axis
    return theta * axis


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


def distort_points(
    ideal,
    intr: Intrinsics,
    dist: Distortion,
    max_iterations: int = 50,
    tol: float = 1e-12,
) -> np.ndarray:
    """Invert the correction map by fixed-point iteration.

    Produces distorted pixels whose correction reproduces ``ideal``. Starts at
    the ideal position and iterates ``p <- ideal - delta(p)``; converges for
    mild distortion (correction slope below one).
    """
    target = np.asarray(ideal, dtype=float)
    if dist.is_zero:
        return target.copy()
    p = target.copy()
    for _ in range(max_iterations):
        cu, cv = _correction(p, intr, dist)
        new = np.stack([target[..., 0] - cu, target[..., 1] - cv], axis=-1)
        step = float(np.max(np.abs(new - p)))
        p = new
        if step < tol:
            return p
    raise NonConvergence(
        f"distortion inversion did not reach {tol} in {max_iterations} iterations"
    )


def distort(ideal, intr: Intrinsics, dist: Distortion, **kwargs) -> np.ndarray:
    return distort_points(_as_vec(ideal, 2), intr, dist, **kwargs)


# the camera model over all views


def reprojection_residuals(
    world, image, view, rvecs, tvecs, alpha, beta, gamma, u0, v0, k1=0.0, k2=0.0,
    *, jacobian: tuple | None = None, columns: dict | None = None,
) -> np.ndarray:
    """Residuals (n, 2) of the stacked points of every view in one pass.

    Point ``j`` has template coordinates ``world[j]``, observed pixels
    ``image[j]`` and view ``view[j]``, an index into the per-view axis-angle
    vectors ``rvecs`` (m, 3) and translations ``tvecs`` (m, 3). ``alpha`` and
    ``beta`` are shared scalars or per-view arrays (m,); the other parameters
    are shared. A residual is the observation after the radial correction
    minus the pin-hole projection. Every residual of a view with a point at
    or behind the camera plane, or a non-positive scale factor, is infinite.

    Given ``jacobian``, a pair of caller-allocated arrays ``(shared, pose)``,
    the analytic derivatives of the flattened residuals are written into them
    in place. ``shared`` (2n, k) takes the derivatives by the free shared
    parameters at the columns ``columns`` maps them to ("alpha", "beta",
    "gamma", "u0", "v0", "k1", "k2"); ``pose`` (2n, 6) takes each row's
    derivatives by its own view's pose, rotation vector first. Every entry of
    ``pose`` and of the mapped columns is written.
    """
    world = np.asarray(world, dtype=float)
    image = np.asarray(image, dtype=float)
    view = np.asarray(view, dtype=np.intp)
    rot, jl = _rodrigues(rvecs, derivatives=jacobian is not None)
    rw = np.einsum("nab,nb->na", rot[view], world)
    cam = rw + np.asarray(tvecs, float)[view]
    x, y, z = cam.T
    alpha, beta = (np.asarray(p, dtype=float) for p in (alpha, beta))
    alpha, beta = (p[view] if p.ndim else p for p in (alpha, beta))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_hat, v_hat = _pinhole(x, y, z, alpha, beta, gamma, u0, v0)
        du = image[:, 0] - u0
        dv = image[:, 1] - v0
        xb, yb, r2, g = _radial(du, dv, alpha, beta, k1, k2)
        u, v = image[:, 0] + du * g - u_hat, image[:, 1] + dv * g - v_hat
        res = np.column_stack([u, v])
    bad = (z <= _MIN_DEPTH) | (alpha <= 0) | (beta <= 0)
    if bad.any():
        res[np.isin(view, view[bad])] = np.inf
    if jacobian is None:
        return res
    shared, pose = jacobian
    gain = k1 + 2.0 * k2 * r2  # d(g)/d(r2)
    ex, ey = 2.0 * gain * xb / alpha, 2.0 * gain * yb / beta
    derivatives = {  # built on demand, one column pair at a time
        "alpha": lambda: (-du * ex * xb - x / z, -dv * ex * xb),
        "beta": lambda: (-du * ey * yb, -dv * ey * yb - y / z),
        "gamma": lambda: (-y / z, 0.0),
        "u0": lambda: (-g - du * ex - 1.0, -dv * ex),
        "v0": lambda: (-du * ey, -g - dv * ey - 1.0),
        "k1": lambda: (du * r2, dv * r2),
        "k2": lambda: (du * r2 * r2, dv * r2 * r2),
    }
    for name, col in (columns or {}).items():
        shared[0::2, col], shared[1::2, col] = derivatives[name]()
    # pose block: residual = corrected - projected, so -d(projection), and
    # d(cam)/dr = -[rw]x J_l turns -grad . d(cam)/dr into (grad x rw) J_l
    grad_u = np.column_stack([alpha / z, gamma / z, -(alpha * x + gamma * y) / (z * z)])
    grad_v = np.column_stack([np.zeros_like(z), beta / z, -beta * y / (z * z)])
    jl = jl[view]
    pose[0::2, :3] = np.einsum("na,nab->nb", np.cross(grad_u, rw), jl)
    pose[1::2, :3] = np.einsum("na,nab->nb", np.cross(grad_v, rw), jl)
    pose[0::2, 3:] = -grad_u
    pose[1::2, 3:] = -grad_v
    return res
