"""Calibration pipelines over planar template views.

Two pipelines share the same machinery. The baseline computes a single
intrinsic matrix: per-view homographies feed the absolute-conic linear system
for closed-form intrinsics, poses follow by homography decomposition, and a
joint refinement then adjusts every parameter at once. The constrained
pipeline instead freezes per-view scale factors taken from a measured scale
table or fitted focal curve and refines only the poses, principal point, skew
and distortion, which removes the coupling channel that lets focal-length
errors hide in the translations.

The refinement residual pairs each observation, corrected by the closed-form
radial model, with the pin-hole projection of its template point. That model
and its analytic Jacobian live in ``core.Reprojection``; this module only
stacks the views, packs the parameters, calls it and forms the normal
equations from its rows. The per-view setup (homographies, pose starts and
statistics) runs batched over all views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Distortion,
    Intrinsics,
    Pose,
    Reprojection,
    _norms,
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
    "ScaleSource",
    "extrinsics_from_homography",
    "intrinsics_from_homographies",
    "calibrate_baseline",
    "calibrate_proposed",
    "reprojection_stats",
    "solution_residuals",
]

@dataclass(frozen=True, eq=False)
class CalibrationView:
    """One template observation: distance, correspondences, optional truth."""

    view_id: str
    distance_mm: float
    world: np.ndarray
    image: np.ndarray
    gt_pose: Pose | None = None

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
        if not self.distance_mm > 0:
            raise ValueError("view distance must be positive")
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
    converged: bool
    iterations: int
    termination: str


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
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2))) ** 3
    bad = check(np.abs(np.linalg.det(a)) < 1e-12 * scale, "intrinsic matrix is not invertible")
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


class _Problem:
    """Residuals and analytic normal equations for the joint refinement.

    Parameter order: intrinsic block, then six pose parameters per view.
    Baseline intrinsic block is (alpha, beta, gamma, u0, v0[, k1, k2]); the
    frozen-scale block is (u0, v0, gamma[, k1, k2]). Points are held with
    the views grouped by point count, as ``estimate_homographies`` groups
    them; ``view`` gives each point's view. ``residual`` returns the
    residuals in view order all the same.

    One buffer, allocated once, holds [J | r] transposed: two columns per
    point, each with the k intrinsic derivatives, the six of the point's own
    view's pose and the residual, so every parameter's derivatives are one
    contiguous row. A group's columns are one (views, k + 7, 2n) block of
    it, and ``normal`` takes every block of the normal equations and the
    gradient from one batched product [J | r]^T [J | r] per group.
    """

    def __init__(self, views, frozen_scales, estimate_distortion: bool):
        counts = np.array([len(v) for v in views])
        order = np.argsort(counts, kind="stable")
        self.world = np.vstack([views[i].world for i in order])
        self.image = np.vstack([views[i].image for i in order])
        self.view = np.repeat(order, counts[order])
        # where each point goes in view order, unless the views are already in order
        in_order = np.all(np.diff(order) > 0)
        self._unsort = None if in_order else np.argsort(self.view, kind="stable")
        self.starts = 2 * np.r_[0, np.cumsum(counts)[:-1]]  # first residual row of each view
        self.frozen = frozen_scales  # None for baseline
        self.n_views = len(views)
        if frozen_scales is None:
            names = ("alpha", "beta", "gamma", "u0", "v0")
        else:
            names = ("u0", "v0", "gamma")
        names += ("k1", "k2") if estimate_distortion else ()
        self.columns = {name: j for j, name in enumerate(names)}
        self.n_intr = len(names)
        self.n_params = self.n_intr + 6 * self.n_views
        self._rows = np.empty((self.n_intr + 7, 2 * len(self.view)))
        self.groups, self._blocks, start = [], [], 0
        for n in np.unique(counts):
            members = order[counts[order] == n]
            end = start + 2 * n * len(members)
            self.groups.append((members, int(n)))
            block = self._rows[:, start:end].reshape(-1, len(members), 2 * n)
            self._blocks.append(block.transpose(1, 0, 2))
            start = end
        self._last = None  # (point, pass) of the latest forward pass

    def pack(self, intr_set: IntrinsicSet, dist: Distortion, poses) -> np.ndarray:
        alpha, beta = intr_set.scales[0]
        values = dict(alpha=alpha, beta=beta, gamma=intr_set.gamma, u0=intr_set.u0,
                      v0=intr_set.v0, k1=dist.k1, k2=dist.k2)
        x = np.zeros(self.n_params)
        x[: self.n_intr] = [values[name] for name in self.columns]
        x[self.n_intr :] = np.ravel([np.r_[p.rodrigues, p.translation] for p in poses])
        return x

    def _model_args(self, x) -> dict:
        """Keyword arguments of ``Reprojection`` at parameters ``x``."""
        x = np.asarray(x, dtype=float)
        args = {"k1": 0.0, "k2": 0.0}
        args.update((name, x[j]) for name, j in self.columns.items())
        if self.frozen is not None:
            args["alpha"], args["beta"] = np.array(self.frozen, dtype=float).T
        poses = x[self.n_intr :].reshape(self.n_views, 6)
        return dict(args, rvecs=poses[:, :3], tvecs=poses[:, 3:])

    def unpack(self, x) -> tuple[IntrinsicSet, Distortion, tuple[Pose, ...]]:
        m = self._model_args(x)
        if self.frozen is None:
            scales = ((float(m["alpha"]), float(m["beta"])),)
        else:
            scales = tuple(self.frozen)
        intr = IntrinsicSet(float(m["u0"]), float(m["v0"]), float(m["gamma"]), scales,
                            self.frozen is None)
        dist = Distortion(float(m["k1"]), float(m["k2"]))
        return intr, dist, tuple(Pose(r, t) for r, t in zip(m["rvecs"], m["tvecs"]))

    def _model(self, x) -> Reprojection:
        return Reprojection(self.world, self.image, self.view, **self._model_args(x))

    def _pass(self, x) -> Reprojection:
        """The forward pass at ``x``, reused when ``x`` is bitwise the held one.

        The solver asks for a Jacobian right after the trial residual it
        accepts, and for its first residual where the algebraic statistics
        took theirs. The held pass is dropped first, so two are never held.
        """
        x = np.array(x, dtype=float)
        # Compared bitwise, so -0.0 and 0.0 are different points.
        if self._last is None or self._last[0].tobytes() != x.tobytes():
            self._last = None
            self._last = (x, self._model(x))
        return self._last[1]

    def residual(self, x) -> np.ndarray:
        model = self._pass(x)
        r = model.residuals if self._unsort is None else model.residuals[self._unsort]
        return r.ravel()

    def split(self, r) -> list[np.ndarray]:
        """Signed (du, dv) residuals ``residual`` returned, one (n_i, 2) array per view."""
        return np.split(np.reshape(r, (-1, 2)), self.starts[1:] // 2)

    def jacobian(self, x) -> np.ndarray:
        """Fill the buffer at ``x``; returns its Jacobian, (rows, k + 6).

        The array is a view of the buffer, valid until the next call, with
        rows in the held point order.
        """
        model = self._pass(x)
        model.fill_jacobian(self._rows, self.columns, self.groups)
        self._rows[-1] = model.residuals.ravel()
        return self._rows[:-1].T

    def normal(self, x) -> tuple:
        """Blocks U, W, V and the gradient of the normal equations at ``x``."""
        self.jacobian(x)
        k, m = self.n_intr, self.n_views
        u, g = np.zeros((k, k)), np.zeros(k)
        w, v, gp = np.empty((m, k, 6)), np.empty((m, 6, 6)), np.empty((m, 6))
        for (members, _), block in zip(self.groups, self._blocks):
            p = np.matmul(block, block.transpose(0, 2, 1))
            u += p[:, :k, :k].sum(axis=0)
            g += p[:, :k, -1].sum(axis=0)
            w[members], v[members], gp[members] = p[:, :k, k:-1], p[:, k:-1, k:-1], p[:, k:-1, -1]
        return u, w, v, np.concatenate([g, gp.ravel()])


# scale-factor sources for the constrained pipeline

_TABLE_TOLERANCE = 0.1


@dataclass(frozen=True)
class ScaleSource:
    """Where per-view scale factors come from: table rows, fitted curves, or both.

    A view distance matches a table row within 10% of the distance; otherwise
    the fitted curves are evaluated. A pair that is not positive and finite
    is rejected.
    """

    table: ScaleTable | None = None
    alpha_curve: CurveFit | None = None
    beta_curve: CurveFit | None = None

    def lookup(self, distance_mm: float) -> tuple[float, float]:
        pair = None
        if self.table is not None and len(self.table) > 0:
            idx = int(np.argmin(np.abs(self.table.distances - distance_mm)))
            if abs(self.table.distances[idx] - distance_mm) <= _TABLE_TOLERANCE * distance_mm:
                pair = float(self.table.alpha[idx]), float(self.table.beta[idx])
        if pair is None and self.alpha_curve is not None:
            beta_curve = self.beta_curve or self.alpha_curve
            pair = (
                float(eval_focal_curve(self.alpha_curve, distance_mm)),
                float(eval_focal_curve(beta_curve, distance_mm)),
            )
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


def _coerce_scale_source(source) -> ScaleSource:
    if isinstance(source, ScaleSource):
        return source
    if isinstance(source, ScaleTable):
        return ScaleSource(table=source)
    raise TypeError(f"unsupported scale source: {type(source).__name__}")


# statistics


def solution_residuals(solution: Solution, views) -> list[np.ndarray]:
    """Signed (du, dv) residuals per view for a stored solution."""
    intr = solution.intrinsics
    problem = _Problem(views, None if intr.shared else intr.scales, estimate_distortion=True)
    x = problem.pack(intr, solution.distortion, solution.poses)
    return problem.split(problem.residual(x))


def _stats_from_residuals(residuals, view_ids) -> ReprojectionStats:
    stacked = np.concatenate(residuals)
    dist = np.linalg.norm(stacked, axis=1)
    counts = np.array([len(r) for r in residuals])
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


def reprojection_stats(result_or_solution, views) -> ReprojectionStats:
    """Recompute reprojection statistics from stored parameters and inputs."""
    solution = (
        result_or_solution.refined
        if isinstance(result_or_solution, CalibrationResult)
        else result_or_solution
    )
    view_ids = [v.view_id for v in views]
    return _stats_from_residuals(solution_residuals(solution, views), view_ids)


# pipelines


def _homographies(views) -> list[Homography]:
    return estimate_homographies([v.world for v in views], [v.image for v in views],
                                 [v.view_id for v in views])


def _calibrate(
    views, homs, start: IntrinsicSet, method: str, max_iterations: int,
    estimate_distortion: bool,
) -> CalibrationResult:
    """Poses from the homographies under ``start``, then the joint refinement.

    ``start`` holds one scale pair shared by every view (baseline) or one
    frozen pair per view (proposed); each view's pose start decomposes its
    homography with the intrinsic matrix of its own pair.
    """
    matrices = [Intrinsics(alpha, beta, start.gamma, start.u0, start.v0).matrix
                for alpha, beta in start.scales]
    if start.shared:
        matrices *= len(homs)
    view_ids = tuple(v.view_id for v in views)
    poses0 = _poses_from_homographies([h.matrix for h in homs], matrices, view_ids)
    problem = _Problem(views, None if start.shared else start.scales, estimate_distortion)
    x0 = problem.pack(start, Distortion(), poses0)

    def solution(x, r) -> Solution:
        intr, dist, poses = problem.unpack(x)
        return Solution(intr, poses, dist, _stats_from_residuals(problem.split(r), view_ids))

    # Before the LM, whose first residual reuses this pass at x0.
    algebraic = solution(x0, problem.residual(x0))
    lm = levenberg_marquardt(
        problem.residual, x0, problem.normal, max_iterations=max_iterations
    )
    return CalibrationResult(
        method, view_ids, algebraic, solution(lm.params, lm.residuals),
        converged=lm.termination != "max_iterations", iterations=lm.iterations,
        termination=lm.termination,
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
    scale_source,
    *,
    max_iterations: int = 200,
    image_size: tuple[int, int] | None = None,
    estimate_distortion: bool = True,
) -> CalibrationResult:
    """Constrained calibration with frozen per-view scale factors.

    Scale factors come from ``scale_source``, a ScaleTable or a ScaleSource,
    keyed by each view's distance and never change during refinement. The
    principal point starts at the image centre when the image size is known,
    else at the midrange of the observed pixels; skew and distortion start at
    zero. Only poses, principal point, skew, and distortion are refined.
    """
    _check_budget(max_iterations)
    views = list(views)
    if not views:
        raise ValueError("need at least one view")
    source = _coerce_scale_source(scale_source)
    frozen = tuple(source.lookup(v.distance_mm) for v in views)
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
