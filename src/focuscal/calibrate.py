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
and its analytic Jacobian live in ``core.reprojection_residuals``; this module
only stacks the views, packs the parameters and calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .core import (
    Distortion,
    Intrinsics,
    Pose,
    reprojection_residuals,
    rodrigues_from_rotation,
)
from .errors import FocusCalError, NonConvergence
from .homography import Homography, estimate_homography
from .lens import CurveFit, eval_focal_curve
from .scale import ScaleTable
from .solver import BlockJacobian, SolverOptions, levenberg_marquardt

__all__ = [
    "CalibrationView",
    "IntrinsicSet",
    "PerViewStats",
    "ReprojectionStats",
    "Solution",
    "CalibrationResult",
    "ScaleSource",
    "orthogonalize_rotation",
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
    """Algebraic and refined solutions plus solver diagnostics."""

    method: str
    view_ids: tuple[str, ...]
    algebraic: Solution
    refined: Solution
    converged: bool
    iterations: int
    termination: str


# extrinsics from a homography


def orthogonalize_rotation(q) -> np.ndarray:
    """Nearest rotation in Frobenius norm, determinant forced to +1."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3) or not np.all(np.isfinite(q)):
        raise FocusCalError("input must be a finite 3x3 matrix")
    u, s, vt = np.linalg.svd(q)
    if s[-1] <= 1e-13 * s[0]:
        raise FocusCalError("matrix is singular")
    if np.linalg.det(u @ vt) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    return u @ vt


def extrinsics_from_homography(h, intrinsic_matrix) -> Pose:
    """Decompose a plane homography into a pose given the intrinsic matrix.

    The scale is fixed so the first two rotation columns have unit norm, with
    its sign chosen to place the template in front of the camera.
    """
    a = np.asarray(intrinsic_matrix, dtype=float)
    if a.shape != (3, 3) or not np.all(np.isfinite(a)):
        raise FocusCalError("intrinsic matrix must be a finite 3x3 matrix")
    if abs(np.linalg.det(a)) < 1e-12 * max(1.0, float(np.abs(a).max()) ** 3):
        raise FocusCalError("intrinsic matrix is not invertible")
    m = h.matrix if isinstance(h, Homography) else np.asarray(h, dtype=float)
    b = np.linalg.solve(a, m)
    norm1 = float(np.linalg.norm(b[:, 0]))
    if norm1 == 0.0:
        raise FocusCalError("homography first column vanishes under the intrinsics")
    rho = 1.0 / norm1
    t = rho * b[:, 2]
    if t[2] < 0:
        rho = -rho
        t = -t
    if not t[2] > 0:
        raise FocusCalError("no scale sign puts the template in front of the camera")
    r1 = rho * b[:, 0]
    r2 = rho * b[:, 1]
    rot = orthogonalize_rotation(np.column_stack([r1, r2, np.cross(r1, r2)]))
    return Pose(rodrigues_from_rotation(rot), t)


# closed-form intrinsics


def _conic_row(m: np.ndarray, i: int, j: int) -> np.ndarray:
    return np.array(
        [
            m[0, i] * m[0, j],
            m[0, i] * m[1, j] + m[1, i] * m[0, j],
            m[1, i] * m[1, j],
            m[2, i] * m[0, j] + m[0, i] * m[2, j],
            m[2, i] * m[1, j] + m[1, i] * m[2, j],
            m[2, i] * m[2, j],
        ]
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
    rows = np.zeros((2 * len(matrices), 6))
    for k, m in enumerate(matrices):
        rows[2 * k] = _conic_row(m, 0, 1)
        rows[2 * k + 1] = _conic_row(m, 0, 0) - _conic_row(m, 1, 1)
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


def _stack(views) -> tuple:
    """Stacked world and image points, per-point view index, view offsets."""
    counts = [len(v) for v in views]
    world = np.vstack([v.world for v in views])
    image = np.vstack([v.image for v in views])
    view = np.repeat(np.arange(len(views)), counts)
    return world, image, view, np.cumsum(counts)[:-1]


class _Problem:
    """Residuals and analytic Jacobian for the joint refinement.

    Parameter order: intrinsic block, then six pose parameters per view.
    Baseline intrinsic block is (alpha, beta, gamma, u0, v0[, k1, k2]); the
    frozen-scale block is (u0, v0, gamma[, k1, k2]). The Jacobian comes as
    a block-arrow :class:`BlockJacobian`: the intrinsic columns, and each
    view's six pose columns over that view's contiguous rows.
    """

    def __init__(self, views, frozen_scales, estimate_distortion: bool):
        self.world, self.image, self.view, offsets = _stack(views)
        self.starts = 2 * np.r_[0, offsets]  # first residual row of each view
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

    def pack(self, intr_set: IntrinsicSet, dist: Distortion, poses) -> np.ndarray:
        alpha, beta = intr_set.scales[0]
        values = dict(alpha=alpha, beta=beta, gamma=intr_set.gamma, u0=intr_set.u0,
                      v0=intr_set.v0, k1=dist.k1, k2=dist.k2)
        x = np.zeros(self.n_params)
        x[: self.n_intr] = [values[name] for name in self.columns]
        x[self.n_intr :] = np.ravel([np.r_[p.rodrigues, p.translation] for p in poses])
        return x

    def _model_args(self, x) -> dict:
        """Keyword arguments of ``reprojection_residuals`` at parameters ``x``."""
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

    def residual(self, x) -> np.ndarray:
        return reprojection_residuals(
            self.world, self.image, self.view, **self._model_args(x)
        ).ravel()

    def jacobian(self, x) -> BlockJacobian:
        rows = 2 * len(self.view)
        jac = BlockJacobian(np.empty((rows, self.n_intr)), np.empty((rows, 6)), self.starts)
        reprojection_residuals(
            self.world, self.image, self.view, **self._model_args(x),
            jacobian=(jac.shared, jac.pose), columns=self.columns,
        )
        return jac


# scale-factor sources for the constrained pipeline


@dataclass(frozen=True)
class ScaleSource:
    """Where per-view scale factors come from: table rows, fitted curves, or both.

    A view distance matches a table row when within ``tolerance`` (fraction of
    the distance); otherwise the fitted curves are evaluated.
    """

    table: ScaleTable | None = None
    alpha_curve: CurveFit | None = None
    beta_curve: CurveFit | None = None
    tolerance: float = 0.1

    def lookup(self, distance_mm: float) -> tuple[float, float]:
        if self.table is not None and len(self.table) > 0:
            idx = int(np.argmin(np.abs(self.table.distances - distance_mm)))
            if abs(self.table.distances[idx] - distance_mm) <= self.tolerance * distance_mm:
                return float(self.table.alpha[idx]), float(self.table.beta[idx])
        if self.alpha_curve is not None:
            beta_curve = self.beta_curve or self.alpha_curve
            return (
                float(eval_focal_curve(self.alpha_curve, distance_mm)),
                float(eval_focal_curve(beta_curve, distance_mm)),
            )
        raise FocusCalError(
            f"no scale-table row within {self.tolerance:.0%} of {distance_mm} mm "
            "and no fitted curve available"
        )


def _coerce_scale_source(source) -> ScaleSource:
    if isinstance(source, ScaleSource):
        return source
    if isinstance(source, ScaleTable):
        return ScaleSource(table=source)
    raise TypeError(f"unsupported scale source: {type(source).__name__}")


# statistics


def solution_residuals(solution: Solution, views) -> list[np.ndarray]:
    """Signed (du, dv) residuals per view for a stored solution."""
    world, image, view, offsets = _stack(views)
    intr, dist = solution.intrinsics, solution.distortion
    alpha, beta = np.array(intr.scales[0] if intr.shared else intr.scales, float).T
    res = reprojection_residuals(
        world, image, view, [p.rodrigues for p in solution.poses],
        [p.translation for p in solution.poses], alpha, beta,
        intr.gamma, intr.u0, intr.v0, dist.k1, dist.k2,
    )
    return np.split(res, offsets)


def _stats_from_residuals(residuals, view_ids) -> ReprojectionStats:
    pooled = np.concatenate([r.ravel() for r in residuals])
    per_view = tuple(
        PerViewStats(
            view_id=view_ids[i],
            mean_abs_px=float(np.linalg.norm(residuals[i], axis=1).mean()),
            rms_px=float(np.sqrt(np.mean(residuals[i] ** 2))),
            n_points=len(residuals[i]),
        )
        for i in range(len(residuals))
    )
    return ReprojectionStats(
        mean_px=float(pooled.mean()),
        median_px=float(np.median(pooled)),
        std_px=float(pooled.std()),
        rms_px=float(np.sqrt(np.mean(pooled**2))),
        mean_abs_px=float(
            np.concatenate([np.linalg.norm(r, axis=1) for r in residuals]).mean()
        ),
        per_view=per_view,
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


def _solution(problem: _Problem, x, views) -> Solution:
    intr, dist, poses = problem.unpack(x)
    sol = Solution(intr, poses, dist, None)
    stats = _stats_from_residuals(
        solution_residuals(sol, views), [v.view_id for v in views]
    )
    return Solution(intr, poses, dist, stats)


def _refine(problem, x0, views, method, algebraic, opts):
    failure = None
    try:
        lm = levenberg_marquardt(problem.residual, x0, opts, jacobian=problem.jacobian)
    except NonConvergence as exc:
        failure, lm = exc, exc.result
    result = CalibrationResult(
        method=method,
        view_ids=tuple(v.view_id for v in views),
        algebraic=algebraic,
        refined=_solution(problem, lm.params, views),
        converged=failure is None,
        iterations=lm.iterations,
        termination=lm.termination,
    )
    if failure is not None:
        raise NonConvergence(str(failure), result=result) from None
    return result


def calibrate_baseline(
    views,
    opts: SolverOptions | None = None,
    *,
    estimate_distortion: bool = True,
) -> CalibrationResult:
    """Single-focal-length calibration: closed form plus joint refinement.

    Requires at least three views with distinct template orientations. The
    refinement adjusts the full intrinsic matrix, every pose, and (by
    default) the radial distortion coefficients simultaneously.
    """
    views = list(views)
    if len(views) < 3:
        raise FocusCalError("need at least three views")
    homs = map_ordered(lambda v: estimate_homography(v.world, v.image), views)
    intr0 = intrinsics_from_homographies(homs)
    a0 = intr0.matrix
    poses0 = [extrinsics_from_homography(h, a0) for h in homs]
    problem = _Problem(views, None, estimate_distortion)
    x0 = problem.pack(IntrinsicSet.from_single(intr0), Distortion(), poses0)
    algebraic = _solution(problem, x0, views)
    return _refine(problem, x0, views, "baseline", algebraic, opts)


def calibrate_proposed(
    views,
    scale_source,
    opts: SolverOptions | None = None,
    *,
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
    views = list(views)
    if not views:
        raise ValueError("need at least one view")
    source = _coerce_scale_source(scale_source)
    frozen = [source.lookup(v.distance_mm) for v in views]
    if image_size is not None:
        centre = (image_size[0] / 2.0, image_size[1] / 2.0)
    else:
        pixels = np.vstack([v.image for v in views])
        low = pixels.min(axis=0)
        high = pixels.max(axis=0)
        centre = (float((low[0] + high[0]) / 2.0), float((low[1] + high[1]) / 2.0))

    def init_pose(pair):
        view, (alpha, beta) = pair
        a_i = Intrinsics(alpha, beta, 0.0, centre[0], centre[1]).matrix
        return extrinsics_from_homography(
            estimate_homography(view.world, view.image), a_i
        )

    poses0 = map_ordered(init_pose, zip(views, frozen))
    problem = _Problem(views, [tuple(p) for p in frozen], estimate_distortion)
    intr0 = IntrinsicSet(centre[0], centre[1], 0.0, tuple(map(tuple, frozen)), False)
    x0 = problem.pack(intr0, Distortion(), poses0)
    algebraic = _solution(problem, x0, views)
    return _refine(problem, x0, views, "proposed", algebraic, opts)
