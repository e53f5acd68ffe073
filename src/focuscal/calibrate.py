"""Calibration pipelines over planar template views.

Two pipelines share one model and machinery. The baseline computes a single
intrinsic matrix: per-view homographies feed the absolute-conic linear system
for closed-form intrinsics, poses follow by homography decomposition, and a
joint refinement then adjusts every parameter at once. The constrained
pipeline instead freezes per-view scale factors, taken from a measured scale
table or from the (alpha, beta) curves fitted to one, and refines only the
poses, principal point, skew and distortion, which removes the coupling
channel that lets focal-length errors hide in the translations.

The refinement residual pairs each observation, corrected by the closed-form
radial model, with the pin-hole projection of its template point. ``_Problem``
evaluates that model over the stacked points of every view in one forward
pass, from the primitives in ``core``, and fills its analytic Jacobian and
the normal equations from what the pass kept. A rotated point's derivative
by the axis-angle vector takes the closed form d(R w)/dr = -[R w]x J_l(r)
(Gallego & Yezzi, "A compact formula for the derivative of a 3-D rotation in
exponential coordinates", JMIV 2015). The per-view setup (homographies, pose
starts and statistics) runs batched over all views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Distortion,
    Intrinsics,
    Pose,
    _norms,
    _pinhole,
    _radial,
    _rodrigues,
    rodrigues_from_rotations,
)
from .errors import FocusCalError, raise_first
from .homography import Homography, estimate_homographies
from .lens import CurveFit, eval_focal_curve
from .scale import ScaleTable
from .solver import _check_budget, levenberg_marquardt

__all__ = [
    "CalibrationView",
    "IntrinsicSet",
    "PerViewStats",
    "ReprojectionStats",
    "Solution",
    "CalibrationResult",
    "extrinsics_from_homography",
    "intrinsics_from_homographies",
    "calibrate_baseline",
    "calibrate_proposed",
    "reprojection_stats",
    "solution_residuals",
]

@dataclass(frozen=True, eq=False)
class CalibrationView:
    """One template observation: distance, correspondences, optional truth.

    Its homography is estimated once per view object, by the first
    calibration that takes the view, and reused by every later one; a view
    made with ``dataclasses.replace`` starts without it.
    """

    view_id: str
    distance_mm: float
    world: np.ndarray
    image: np.ndarray
    gt_pose: Pose | None = None
    _homography: Homography | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        world = np.atleast_2d(np.asarray(self.world, dtype=float)).copy()
        image = np.atleast_2d(np.asarray(self.image, dtype=float)).copy()
        if world.shape[1] == 2:
            world = np.column_stack([world, np.zeros(len(world))])
        if world.shape[1] != 3:
            raise ValueError("world points must be (n, 2) or (n, 3)")
        if np.any(world[:, 2] != 0.0):
            raise ValueError("template points must have z = 0")
        if image.shape != (world.shape[0], 2):
            raise ValueError("image points must be (n, 2) matching world points")
        if world.shape[0] < 4:
            raise ValueError("a view needs at least 4 correspondences")
        if not 0 < self.distance_mm < np.inf:
            raise ValueError("view distance must be positive and finite")
        if not (np.isfinite(world).all() and np.isfinite(image).all()):
            raise ValueError("correspondences must be finite")
        world.flags.writeable = False
        image.flags.writeable = False
        object.__setattr__(self, "world", world)
        object.__setattr__(self, "image", image)

    def __len__(self) -> int:
        return self.world.shape[0]


@dataclass(frozen=True)
class IntrinsicSet:
    """Shared principal point and skew plus one or per-view scale pairs."""

    u0: float
    v0: float
    gamma: float
    scales: tuple[tuple[float, float], ...]
    shared: bool

    @classmethod
    def from_single(cls, intr: Intrinsics) -> "IntrinsicSet":
        return cls(intr.u0, intr.v0, intr.gamma, ((intr.alpha, intr.beta),), True)


@dataclass(frozen=True)
class PerViewStats:
    view_id: str
    mean_abs_px: float
    rms_px: float
    n_points: int


@dataclass(frozen=True, eq=False)
class ReprojectionStats:
    """Signed per-coordinate residual statistics plus magnitude summaries."""

    mean_px: float
    median_px: float
    std_px: float
    rms_px: float
    mean_abs_px: float
    per_view: tuple[PerViewStats, ...]


@dataclass(frozen=True, eq=False)
class Solution:
    intrinsics: IntrinsicSet
    poses: tuple[Pose, ...]
    distortion: Distortion
    stats: ReprojectionStats


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Algebraic and refined solutions plus solver diagnostics.

    ``converged`` is false exactly when the refinement used up its
    ``max_iterations`` budget (``termination == "max_iterations"``).
    """

    method: str
    view_ids: tuple[str, ...]
    algebraic: Solution
    refined: Solution
    iterations: int
    termination: str

    @property
    def converged(self) -> bool:
        return self.termination != "max_iterations"


# extrinsics from a homography


def _nearest_rotations(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest rotations (m, 3, 3) of finite matrices q (m, 3, 3), and which are singular."""
    u, s, vt = np.linalg.svd(q)
    flip = np.linalg.det(u @ vt) < 0
    u[flip, :, -1] = -u[flip, :, -1]
    return u @ vt, s[:, -1] <= 1e-13 * s[:, 0]


def _poses_from_homographies(homs, intrinsic_matrices, labels=None) -> list[Pose]:
    """Decompose plane homographies (m, 3, 3) into poses, one batched pass.

    View ``i`` is decomposed with ``intrinsic_matrices[i]``. The scale is
    fixed so the first two rotation columns have unit norm, with its sign
    chosen to place the template in front of the camera; the rotation is the
    nearest one to the scaled columns. Every pose is bit for bit the one its
    view gives alone. When a view is rejected, the first such view's error is
    raised, as ``"view <label>: <reason>"`` when ``labels`` names the views.
    """
    m = np.array(homs, dtype=float).reshape(-1, 3, 3)
    a = np.array(intrinsic_matrices, dtype=float).reshape(-1, 3, 3)
    failures: dict = {}

    def check(bad, reason):
        for i in np.flatnonzero(bad):
            failures.setdefault(int(i), FocusCalError(reason))
        return bad

    # A rejected view continues with the identity, so the batch stays finite.
    bad = check(~np.all(np.isfinite(a), axis=(1, 2)),
                "intrinsic matrix must be a finite 3x3 matrix")
    a[bad] = np.eye(3)
    with np.errstate(over="ignore"):  # huge entries: an infinite determinant and scale
        scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2))) ** 3
        det = np.abs(np.linalg.det(a))
    bad = check(det < 1e-12 * scale, "intrinsic matrix is not invertible")
    a[bad] = np.eye(3)
    b = np.linalg.solve(a, m)
    norm1 = _norms(b[:, :, 0])
    vanishes = check(norm1 == 0.0, "homography first column vanishes under the intrinsics")
    rho = 1.0 / np.where(vanishes, 1.0, norm1)
    t = rho[:, None] * b[:, :, 2]
    behind = t[:, 2] < 0
    rho[behind], t[behind] = -rho[behind], -t[behind]
    check(~(t[:, 2] > 0), "no scale sign puts the template in front of the camera")
    r1 = rho[:, None] * b[:, :, 0]
    r2 = rho[:, None] * b[:, :, 1]
    q = np.stack([r1, r2, np.cross(r1, r2)], axis=2)
    bad = check(~np.all(np.isfinite(q), axis=(1, 2)), "input must be a finite 3x3 matrix")
    q[bad] = np.eye(3)
    rot, singular = _nearest_rotations(q)
    check(singular, "matrix is singular")
    raise_first(failures, labels)
    return [Pose(r, ti) for r, ti in zip(rodrigues_from_rotations(rot), t)]


def extrinsics_from_homography(h, intrinsic_matrix) -> Pose:
    """Decompose a plane homography into a pose given the intrinsic matrix.

    The scale is fixed so the first two rotation columns have unit norm, with
    its sign chosen to place the template in front of the camera.
    """
    a = np.asarray(intrinsic_matrix, dtype=float)
    if a.shape != (3, 3):
        raise FocusCalError("intrinsic matrix must be a finite 3x3 matrix")
    m = h.matrix if isinstance(h, Homography) else np.asarray(h, dtype=float)
    return _poses_from_homographies(m[None], a[None])[0]


# closed-form intrinsics


def _conic_rows(hi: np.ndarray, hj: np.ndarray) -> np.ndarray:
    """Rows (m, 6) of the conic constraint h_i^T B h_j for columns (m, 3)."""
    return np.stack(
        [
            hi[:, 0] * hj[:, 0],
            hi[:, 0] * hj[:, 1] + hi[:, 1] * hj[:, 0],
            hi[:, 1] * hj[:, 1],
            hi[:, 2] * hj[:, 0] + hi[:, 0] * hj[:, 2],
            hi[:, 2] * hj[:, 1] + hi[:, 1] * hj[:, 2],
            hi[:, 2] * hj[:, 2],
        ],
        axis=1,
    )


def intrinsics_from_homographies(homographies) -> Intrinsics:
    """Closed-form shared intrinsics from at least three homographies.

    Each homography contributes two linear constraints on the image of the
    absolute conic; the smallest singular vector of the stacked system gives
    the conic, from which the intrinsic parameters are read off.
    """
    matrices = [
        h.matrix if isinstance(h, Homography) else np.asarray(h, dtype=float)
        for h in homographies
    ]
    if len(matrices) < 3:
        raise FocusCalError("need at least three views for the closed form")
    h = np.array(matrices)
    rows = np.empty((2 * len(h), 6))
    rows[0::2] = _conic_rows(h[:, :, 0], h[:, :, 1])
    rows[1::2] = _conic_rows(h[:, :, 0], h[:, :, 0]) - _conic_rows(h[:, :, 1], h[:, :, 1])
    _, sing, vt = np.linalg.svd(rows, full_matrices=False)
    if sing[4] <= 1e-10 * sing[0]:
        raise FocusCalError("view orientations do not constrain the intrinsics")
    b = vt[-1]
    if b[0] < 0:
        b = -b
    b11, b12, b22, b13, b23, b33 = b
    denom = b11 * b22 - b12 * b12
    if b11 <= 0 or denom <= 0:
        raise FocusCalError("conic solution is not positive definite")
    v0 = (b12 * b13 - b11 * b23) / denom
    lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
    if lam <= 0:
        raise FocusCalError("conic solution is not positive definite")
    alpha = float(np.sqrt(lam / b11))
    beta = float(np.sqrt(lam * b11 / denom))
    gamma = float(-b12 * alpha * alpha * beta / lam)
    u0 = float(gamma * v0 / beta - b13 * alpha * alpha / lam)
    return Intrinsics(alpha, beta, gamma, u0, float(v0))


# refinement problem

# Depth at or below which a view's residuals are infinite.
_MIN_DEPTH = 1e-9


class _Problem:
    """The camera model's residuals and analytic normal equations for the joint refinement.

    Both methods map view i's scale factors as alpha_i = a A_i, beta_i = b B_i,
    with multipliers (A_i, B_i) from ``start``: ones when it is shared, its
    pairs otherwise. They differ only in their columns. Parameter order:
    intrinsic block, then six pose parameters per view. Baseline's intrinsic
    block is (alpha, beta, gamma, u0, v0[, k1, k2]), a and b free; proposed's
    is (u0, v0, gamma[, k1, k2]), a = b = 1. The ``alpha`` and ``beta`` rows
    are derivatives by alpha_i and beta_i, which are those by a and b only
    because every multiplier is 1 wherever those columns exist. Points are
    held with the views grouped by point count, as ``estimate_homographies``
    groups them; ``view`` gives each point's view. ``residual`` returns the
    residuals in view order all the same.

    Each coordinate is held as one contiguous row over the points: the
    template's x and y in ``world``, the observed u and v in ``image``, and
    the pass's rotated and camera-frame points as (3, n) rows. Only the
    rotation runs per group: the template is planar, so a group's (views, n)
    block takes r1 x + r2 y + t from the first two columns of each view's
    rotation and its translation, with no per-point gather. The projection,
    radial correction, residuals and Jacobian then run as one flat pass.

    One buffer, allocated once, holds [J | r] transposed: two columns per
    point, each with the k intrinsic derivatives, the six of the point's own
    view's pose and the residual, so every parameter's derivatives are one
    contiguous row. A group's columns are one (views, k + 7, 2n) block of
    it, and ``normal`` takes every block of the normal equations and the
    gradient from one batched product [J | r]^T [J | r] per group.
    """

    def __init__(self, views, start: IntrinsicSet, estimate_distortion: bool):
        counts = np.array([len(v) for v in views])
        order = np.argsort(counts, kind="stable")
        self.world = np.concatenate([views[i].world[:, :2].T for i in order], axis=1)
        self.image = np.concatenate([views[i].image.T for i in order], axis=1)
        self.view = np.repeat(order, counts[order])
        # where each point goes in view order, unless the views are already in order
        in_order = np.all(np.diff(order) > 0)
        self._unsort = None if in_order else np.argsort(self.view, kind="stable")
        self.n_views = len(views)
        self.shared = start.shared
        self.multipliers = np.ones((1, 2)) if start.shared else np.array(start.scales, float)
        self._per_point = np.broadcast_to(self.multipliers, (self.n_views, 2)).T[:, self.view]
        names = ("alpha", "beta", "gamma", "u0", "v0") if start.shared else ("u0", "v0", "gamma")
        names += ("k1", "k2") if estimate_distortion else ()
        self.columns = {name: j for j, name in enumerate(names)}
        self.n_intr = len(names)
        self.n_params = self.n_intr + 6 * self.n_views
        self._rows = np.empty((self.n_intr + 7, 2 * len(self.view)))
        self.groups, self._blocks, begin = [], [], 0
        for n in np.unique(counts):
            members = order[counts[order] == n]
            points = slice(begin, begin + n * len(members))
            self.groups.append((members, int(n), points))
            block = self._rows[:, 2 * points.start : 2 * points.stop]
            self._blocks.append(block.reshape(-1, len(members), 2 * n).transpose(1, 0, 2))
            begin = points.stop
        self._last = None  # (point, pass) of the latest forward pass

    def pack(self, intr_set: IntrinsicSet, dist: Distortion, poses) -> np.ndarray:
        alpha, beta = intr_set.scales[0]
        values = dict(alpha=alpha, beta=beta, gamma=intr_set.gamma, u0=intr_set.u0,
                      v0=intr_set.v0, k1=dist.k1, k2=dist.k2)
        x = np.zeros(self.n_params)
        x[: self.n_intr] = [values[name] for name in self.columns]
        x[self.n_intr :] = np.hstack([[p.rodrigues for p in poses],
                                      [p.translation for p in poses]]).ravel()
        return x

    def _named(self, x) -> dict:
        """The shared parameters at ``x`` by name; a = b = 1 and k1 = k2 = 0 when not refined."""
        return {"alpha": 1.0, "beta": 1.0, "k1": 0.0, "k2": 0.0,
                **{name: x[j] for name, j in self.columns.items()}}

    def unpack_intrinsics(self, x) -> tuple[IntrinsicSet, Distortion]:
        p = self._named(np.asarray(x, dtype=float))
        scales = tuple((float(p["alpha"] * a), float(p["beta"] * b)) for a, b in self.multipliers)
        intr = IntrinsicSet(float(p["u0"]), float(p["v0"]), float(p["gamma"]), scales,
                            self.shared)
        return intr, Distortion(float(p["k1"]), float(p["k2"]))

    def unpack(self, x) -> tuple[IntrinsicSet, Distortion, tuple[Pose, ...]]:
        poses = np.asarray(x, dtype=float)[self.n_intr :].reshape(self.n_views, 6)
        return (*self.unpack_intrinsics(x), tuple(Pose(pose[:3], pose[3:]) for pose in poses))

    def _pass(self, x) -> tuple:
        """The camera model's forward pass at ``x``, reused when ``x`` is bitwise the held one.

        Returns the residuals (n, 2) in the held point order, each observation
        after the radial correction minus the pin-hole projection, then the
        terms ``jacobian`` reuses. Every residual of a view with a point at or
        behind the camera plane, or a non-positive scale factor, is infinite.
        The solver asks for a Jacobian right after the trial residual it
        accepts, and for its first residual where the algebraic statistics
        took theirs. The held pass is dropped first, so two are never held.
        """
        x = np.array(x, dtype=float)
        # Compared bitwise, so -0.0 and 0.0 are different points.
        if self._last is not None and self._last[0].tobytes() == x.tobytes():
            return self._last[1]
        self._last = None
        p = self._named(x)
        p["alpha"], p["beta"] = p["alpha"] * self._per_point[0], p["beta"] * self._per_point[1]
        alpha, beta, u0, v0 = p["alpha"], p["beta"], p["u0"], p["v0"]
        poses = x[self.n_intr :].reshape(self.n_views, 6)
        rvecs = poses[:, :3]
        rot = _rodrigues(rvecs)[0]
        # Only r1, r2 and t act on the planar template; the term R w adds for
        # z = 0, r3 * 0, could only change the sign of a zero in rw.
        rw, cam = np.empty((2, 3, len(self.view)))
        for views, n, points in self.groups:
            shape = (3, len(views), n)
            wx, wy = self.world[:, points].reshape(2, len(views), n)
            r1, r2 = rot[views, :, :2].transpose(2, 1, 0)[..., None]
            block = rw[:, points].reshape(shape)
            np.multiply(r1, wx, out=block)
            block += r2 * wy
            np.add(block, poses[views, 3:].T[..., None], out=cam[:, points].reshape(shape))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            u_hat, v_hat = _pinhole(*cam, alpha, beta, p["gamma"], u0, v0)
            du, dv = self.image[0] - u0, self.image[1] - v0
            radial = (du, dv, *_radial(du, dv, alpha, beta, p["k1"], p["k2"]))
            g = radial[-1]
            r = np.column_stack([self.image[0] + du * g - u_hat, self.image[1] + dv * g - v_hat])
        bad = (cam[2] <= _MIN_DEPTH) | (alpha <= 0) | (beta <= 0)
        if bad.any():
            r[np.isin(self.view, self.view[bad])] = np.inf
        self._last = (x, (r, p, rvecs, rw, cam, radial))
        return self._last[1]

    def residual(self, x) -> np.ndarray:
        r = self._pass(x)[0]
        return (r if self._unsort is None else r[self._unsort]).ravel()

    def jacobian(self, x) -> np.ndarray:
        """Fill the buffer at ``x``; returns its Jacobian, (rows, k + 6).

        The array is a view of the buffer, valid until the next call, with
        rows in the held point order. Buffer columns 2j and 2j + 1 are point
        j's u and v residuals. Row ``columns[name]`` holds the derivatives by
        that shared parameter, the six rows after them those by the point's
        own view's pose, rotation vector first, and the last row the
        residuals. A view's rotation rows are one (3, 3) @ (3, n) product.
        Every entry is written.
        """
        r, p, rvecs, rw, cam, (du, dv, xb, yb, r2, g) = self._pass(x)
        jt = self._rows
        x, y, z = cam
        alpha, beta, gamma, k1, k2 = (p[name] for name in ("alpha", "beta", "gamma", "k1", "k2"))
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
        for name, row in self.columns.items():
            jt[row, 0::2], jt[row, 1::2] = derivatives[name]()
        # pose rows: residual = corrected - projected, so -d(projection), and
        # d(cam)/dr = -[rw]x J_l turns -grad . d(cam)/dr into (grad x rw) J_l
        k = self.n_intr
        w0, w1, w2 = rw
        jl_t = _rodrigues(rvecs, derivatives=True)[1].transpose(0, 2, 1)
        grad_u = (alpha / z, gamma / z, -(alpha * x + gamma * y) / (z * z))
        grad_v = (np.zeros_like(z), beta / z, -beta * y / (z * z))
        for parity, (g0, g1, g2) in enumerate((grad_u, grad_v)):
            cross = np.array([g1 * w2 - g2 * w1, g2 * w0 - g0 * w2, g0 * w1 - g1 * w0])
            for views, n, points in self.groups:
                block = cross[:, points].reshape(3, len(views), n).transpose(1, 0, 2)
                rot = np.matmul(jl_t[views], block).transpose(1, 0, 2).reshape(3, -1)
                jt[k : k + 3, 2 * points.start + parity : 2 * points.stop : 2] = rot
            jt[k + 3 : k + 6, parity::2] = -g0, -g1, -g2
        jt[-1] = r.ravel()
        return jt[:-1].T

    def normal(self, x) -> tuple:
        """Blocks U, W, V and the gradient of the normal equations at ``x``."""
        self.jacobian(x)
        k, m = self.n_intr, self.n_views
        u, g = np.zeros((k, k)), np.zeros(k)
        w, v, gp = np.empty((m, k, 6)), np.empty((m, 6, 6)), np.empty((m, 6))
        for (members, _, _), block in zip(self.groups, self._blocks):
            p = np.matmul(block, block.transpose(0, 2, 1))
            u += p[:, :k, :k].sum(axis=0)
            g += p[:, :k, -1].sum(axis=0)
            w[members], v[members], gp[members] = p[:, :k, k:-1], p[:, k:-1, k:-1], p[:, k:-1, -1]
        return u, w, v, np.concatenate([g, gp.ravel()])


# scale factors for the constrained pipeline

_TABLE_TOLERANCE = 0.1


def _scale_pair(distance_mm: float, table: ScaleTable | None, curves) -> tuple[float, float]:
    """The frozen scale factors of a view at ``distance_mm``.

    The nearest table row within 10% of the distance gives them; otherwise the
    fitted (alpha, beta) curves are evaluated there. A pair that is not
    positive and finite is rejected.
    """
    pair = None
    if table is not None and len(table) > 0:
        idx = int(np.argmin(np.abs(table.distances - distance_mm)))
        if abs(table.distances[idx] - distance_mm) <= _TABLE_TOLERANCE * distance_mm:
            pair = float(table.alpha[idx]), float(table.beta[idx])
    if pair is None and curves is not None:
        pair = tuple(float(eval_focal_curve(fit, distance_mm)) for fit in curves)
    if pair is None:
        raise FocusCalError(
            f"no scale-table row within {_TABLE_TOLERANCE:.0%} of {distance_mm} mm "
            "and no fitted curve available"
        )
    if not (np.all(np.isfinite(pair)) and min(pair) > 0):
        raise FocusCalError(
            f"scale factors at {distance_mm} mm must be positive and finite, "
            f"got alpha={pair[0]:.6g}, beta={pair[1]:.6g}"
        )
    return pair


# statistics


def solution_residuals(solution: Solution, views) -> list[np.ndarray]:
    """Signed (du, dv) residuals per view for a stored solution."""
    if len(views) != len(solution.poses):
        raise ValueError("view count does not match the calibration result")
    problem = _Problem(views, solution.intrinsics, estimate_distortion=True)
    x = problem.pack(solution.intrinsics, solution.distortion, solution.poses)
    counts = [len(v) for v in views]
    return np.split(np.reshape(problem.residual(x), (-1, 2)), np.cumsum(counts)[:-1])


def _stats_from_residuals(stacked, counts, view_ids) -> ReprojectionStats:
    """Statistics of the (n, 2) residuals of views of ``counts`` points, stacked in view order."""
    x, y = stacked[:, 0], stacked[:, 1]
    dist = np.sqrt(x * x + y * y)
    counts = np.asarray(counts)
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    mean_abs, rms = np.empty(len(counts)), np.empty(len(counts))
    # Views of one point count take one reduction, over the same axes as one view alone.
    for n in np.unique(counts):
        index = np.flatnonzero(counts == n)
        rows = starts[index, None] + np.arange(n)
        mean_abs[index] = dist[rows].mean(axis=1)
        rms[index] = np.sqrt(np.mean(stacked[rows] ** 2, axis=(1, 2)))
    pooled = stacked.ravel()
    return ReprojectionStats(
        mean_px=float(pooled.mean()),
        median_px=float(np.median(pooled)),
        std_px=float(pooled.std()),
        rms_px=float(np.sqrt(np.mean(pooled**2))),
        mean_abs_px=float(dist.mean()),
        per_view=tuple(
            PerViewStats(view_ids[i], float(mean_abs[i]), float(rms[i]), int(counts[i]))
            for i in range(len(counts))
        ),
    )


def reprojection_stats(solution: Solution, views) -> ReprojectionStats:
    """Recompute a stored solution's reprojection statistics from its views."""
    residuals = solution_residuals(solution, views)
    return _stats_from_residuals(np.concatenate(residuals), [len(r) for r in residuals],
                                 [v.view_id for v in views])


# pipelines


def _homographies(views) -> list[Homography]:
    """Each view's homography; the views without one take one batched DLT and keep it.

    A view's points are read-only, so its estimate never goes stale. When a
    view is rejected, no view of the batch keeps one.
    """
    fresh = [v for v in views if v._homography is None]
    if fresh:
        homs = estimate_homographies([v.world for v in fresh], [v.image for v in fresh],
                                     [v.view_id for v in fresh])
        for view, hom in zip(fresh, homs):
            object.__setattr__(view, "_homography", hom)
    return [v._homography for v in views]


def _calibrate(
    views, homs, start: IntrinsicSet, method: str, max_iterations: int,
    estimate_distortion: bool,
) -> CalibrationResult:
    """Poses from the homographies under ``start``, then the joint refinement.

    ``start`` holds one scale pair shared by every view (baseline) or one
    frozen pair per view (proposed); each view's pose start decomposes its
    homography with the intrinsic matrix of its own pair, and the refinement
    takes its columns and scale multipliers from it.
    """
    matrices = np.broadcast_to([Intrinsics(a, b, start.gamma, start.u0, start.v0).matrix
                                for a, b in start.scales], (len(homs), 3, 3))
    view_ids = tuple(v.view_id for v in views)
    poses0 = _poses_from_homographies([h.matrix for h in homs], matrices, view_ids)
    problem = _Problem(views, start, estimate_distortion)
    x0 = problem.pack(start, Distortion(), poses0)
    counts = [len(v) for v in views]

    def stats(r) -> ReprojectionStats:
        return _stats_from_residuals(np.reshape(r, (-1, 2)), counts, view_ids)

    r0 = problem.residual(x0)  # the LM's first residual reuses this pass
    lm = levenberg_marquardt(
        problem.residual, x0, problem.normal, max_iterations=max_iterations
    )
    # The algebraic solution keeps the poses x0 was packed from, and takes its
    # statistics after the LM, which first rejects a start that is not finite.
    intr0, dist0 = problem.unpack_intrinsics(x0)
    intr, dist, poses = problem.unpack(lm.params)
    return CalibrationResult(
        method, view_ids, Solution(intr0, tuple(poses0), dist0, stats(r0)),
        Solution(intr, poses, dist, stats(lm.residuals)),
        iterations=lm.iterations, termination=lm.termination,
    )


def calibrate_baseline(
    views,
    *,
    max_iterations: int = 200,
    estimate_distortion: bool = True,
) -> CalibrationResult:
    """Single-focal-length calibration: closed form plus joint refinement.

    Requires at least three views with distinct template orientations. The
    refinement adjusts the full intrinsic matrix, every pose, and (by
    default) the radial distortion coefficients simultaneously.
    """
    _check_budget(max_iterations)
    views = list(views)
    if len(views) < 3:
        raise FocusCalError("need at least three views")
    homs = _homographies(views)
    start = IntrinsicSet.from_single(intrinsics_from_homographies(homs))
    return _calibrate(views, homs, start, "baseline", max_iterations, estimate_distortion)


def calibrate_proposed(
    views,
    table: ScaleTable | None = None,
    curves: tuple[CurveFit, CurveFit] | None = None,
    *,
    max_iterations: int = 200,
    image_size: tuple[int, int] | None = None,
    estimate_distortion: bool = True,
) -> CalibrationResult:
    """Constrained calibration with frozen per-view scale factors.

    Each view's scale factors come from the nearest ``table`` row within 10%
    of its distance, else from ``curves``, the (alpha, beta) pair of fitted
    curves; they never change during refinement. The principal point starts
    at the image centre when the image size is known, else at the midrange of
    the observed pixels; skew and distortion start at zero. Only poses,
    principal point, skew, and distortion are refined.
    """
    _check_budget(max_iterations)
    views = list(views)
    if not views:
        raise ValueError("need at least one view")
    frozen = tuple(_scale_pair(v.distance_mm, table, curves) for v in views)
    if image_size is not None:
        centre = (image_size[0] / 2.0, image_size[1] / 2.0)
    else:
        pixels = np.vstack([v.image for v in views])
        low = pixels.min(axis=0)
        high = pixels.max(axis=0)
        centre = (float((low[0] + high[0]) / 2.0), float((low[1] + high[1]) / 2.0))
    homs = _homographies(views)
    start = IntrinsicSet(centre[0], centre[1], 0.0, frozen, False)
    return _calibrate(views, homs, start, "proposed", max_iterations, estimate_distortion)
