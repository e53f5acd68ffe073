"""Levenberg-Marquardt for least-squares problems with a block-arrow Jacobian.

In a calibration every residual row depends on a few shared parameters and
on the parameters of its own view only, so the Jacobian is block-arrow
shaped: a dense shared block of ``k`` columns beside one ``b``-column block
per group of rows. The solver never forms the dense Jacobian or its normal
matrix. It sums the normal matrix's blocks over each group of rows, U
(k x k), V_i (b x b) and W_i (k x b), eliminates the group parameters,
solves the k x k reduced (Schur complement) system and back-substitutes
(Triggs et al., "Bundle Adjustment - A Modern Synthesis", 2000, section 6).
Memory per step is linear in the number of rows, not in rows x parameters.
A plain 2-D Jacobian takes the same path, as a shared block with no groups.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import FocusCalError

__all__ = [
    "LMResult",
    "BlockJacobian",
    "levenberg_marquardt",
    "finite_difference_jacobian",
]

logger = logging.getLogger(__name__)

# Stop when the largest gradient entry, or the step relative to |x|, is below these.
_GRADIENT_TOL = 1e-10
_STEP_TOL = 1e-12
# Damping schedule: start, factor on a rejected step, factor on an accepted one.
_DAMPING_INIT = 1e-3
_DAMPING_INCREASE = 10.0
_DAMPING_DECREASE = 0.1
_MAX_DAMPING = 1e32


@dataclass
class LMResult:
    """Solver outcome: refined parameters plus convergence diagnostics.

    ``termination`` is ``"gradient"`` or ``"step"`` when a tolerance was met
    and ``"max_iterations"`` when the iteration budget ran out first.
    """

    params: np.ndarray
    objective: float
    iterations: int
    accepted: int
    termination: str
    objective_history: list = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class BlockJacobian:
    """A block-arrow Jacobian stored as its two nonzero blocks.

    Parameters are ``k`` shared ones followed by ``b`` per group. ``shared``
    (rows, k) holds every row's derivatives by the shared parameters and
    ``pose`` (rows, b) its derivatives by its own group's parameters. Group
    ``i`` owns the rows from ``starts[i]`` to the next start (the last group
    runs to the end); the first start is 0 and no group is empty.
    """

    shared: np.ndarray
    pose: np.ndarray
    starts: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        rows, k = self.shared.shape
        return rows, k + self.pose.shape[1] * len(self.starts)


def _as_blocks(jac) -> BlockJacobian:
    if isinstance(jac, BlockJacobian):
        return jac
    jac = np.asarray(jac, dtype=float)
    return BlockJacobian(jac, np.empty((len(jac), 0)), np.empty(0, dtype=np.intp))


def _row_groups(jac: BlockJacobian) -> list[slice]:
    ends = np.r_[jac.starts[1:], len(jac.shared)]
    return [slice(start, end) for start, end in zip(jac.starts, ends)]


def _gradient(jac: BlockJacobian, r: np.ndarray) -> np.ndarray:
    """``J.T @ r`` in parameter order."""
    local = [jac.pose[g].T @ r[g] for g in _row_groups(jac)]
    return np.concatenate([jac.shared.T @ r, *local])


class _NormalEquations:
    """Column-scaled normal equations of a block-arrow Jacobian.

    Columns are scaled to unit norm (with a floor for null columns), which
    makes the damping ``lam * I`` of ``step`` scale-invariant across mixed
    units. Holds the blocks of the scaled normal matrix, not the Jacobian.
    """

    def __init__(self, jac: BlockJacobian, grad: np.ndarray):
        shared, pose, groups = jac.shared, jac.pose, _row_groups(jac)
        k, b, m = shared.shape[1], pose.shape[1], len(groups)
        # One matrix product per group of rows: summing per-row outer
        # products with np.add.reduceat took ten times as long at 60 x 384.
        u = shared.T @ shared
        w = np.array([shared[g].T @ pose[g] for g in groups]).reshape(m, k, b)
        v = np.array([pose[g].T @ pose[g] for g in groups]).reshape(m, b, b)
        diag = np.concatenate([np.diag(u), np.diagonal(v, axis1=1, axis2=2).ravel()])
        scale = np.sqrt(diag)
        floor = max(float(scale.max(initial=0.0)), 1.0) * 1e-14
        self.scale = np.maximum(scale, floor)
        su, sp = self.scale[:k], self.scale[k:].reshape(m, b)
        self.u = u / np.outer(su, su)
        self.v = v / (sp[:, :, None] * sp[:, None, :])
        self.w = w / (su[:, None] * sp[:, None, :])
        self.rhs = -grad / self.scale

    def step(self, lam: float) -> np.ndarray:
        """Solution of the damped system, unscaled; may raise LinAlgError."""
        k, (m, b, _) = len(self.u), self.v.shape
        rhs_u, rhs_p = self.rhs[:k], self.rhs[k:].reshape(m, b)
        # V_i^-1 [W_i^T | rhs_i] for every group in one batched solve
        wt_rhs = np.concatenate([self.w.transpose(0, 2, 1), rhs_p[:, :, None]], axis=2)
        solved = np.linalg.solve(self.v + lam * np.eye(b), wt_rhs)
        v_wt, v_rhs = solved[:, :, :k], solved[:, :, k]
        schur = self.u + lam * np.eye(k) - np.einsum("mkb,mbj->kj", self.w, v_wt)
        step_u = np.linalg.solve(schur, rhs_u - np.einsum("mkb,mb->k", self.w, v_rhs))
        step_p = v_rhs - v_wt @ step_u
        return np.concatenate([step_u, step_p.ravel()]) / self.scale


def _check_budget(max_iterations: int) -> None:
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")


def _more_damping(lam: float) -> float:
    lam *= _DAMPING_INCREASE
    if lam > _MAX_DAMPING:
        raise FocusCalError("damped normal equations unsolvable at maximum damping")
    return lam


def finite_difference_jacobian(residual, params, scale: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, step scaled per parameter magnitude."""
    x = np.asarray(params, dtype=float)
    r0 = np.asarray(residual(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        step = scale * max(1.0, abs(x[j]))
        forward = x.copy()
        forward[j] += step
        backward = x.copy()
        backward[j] -= step
        jac[:, j] = (
            np.asarray(residual(forward), dtype=float)
            - np.asarray(residual(backward), dtype=float)
        ) / (2.0 * step)
    return jac


def levenberg_marquardt(
    residual,
    x0,
    jacobian=None,
    *,
    max_iterations: int = 200,
) -> LMResult:
    """Minimize the sum of squared residuals starting from ``x0``.

    ``jacobian(x)`` must return the residual Jacobian, as a 2-D array or a
    :class:`BlockJacobian`; when omitted a central-difference approximation
    is used. Damping is applied through the diagonal of the normal matrix
    (columns are rescaled to unit norm before solving, which makes the
    damping scale-invariant across mixed units). Accepted steps strictly
    decrease the objective. Running out of the ``max_iterations`` budget is
    a result, with termination ``"max_iterations"`` and the best parameters
    found, not an error; :class:`FocusCalError` is raised when the damped
    system cannot be solved at any damping level. Only one Jacobian is held
    at a time: it is released once the normal matrix's blocks are summed,
    before ``jacobian`` is called again.
    """
    _check_budget(max_iterations)
    jac_fn = jacobian if jacobian is not None else (
        lambda x: finite_difference_jacobian(residual, x)
    )
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FocusCalError("residual is not finite at the starting point")
    obj = float(r @ r)
    history = [obj]
    lam = _DAMPING_INIT
    iterations = 0
    accepted = 0
    need_jacobian = True

    while True:
        if need_jacobian:
            jac = _as_blocks(jac_fn(x))
            grad = _gradient(jac, r)
            if float(np.max(np.abs(grad), initial=0.0)) < _GRADIENT_TOL:
                return LMResult(x, obj, iterations, accepted, "gradient", history)
            normal = _NormalEquations(jac, grad)
            del jac
            need_jacobian = False

        if iterations >= max_iterations:
            return LMResult(x, obj, iterations, accepted, "max_iterations", history)
        iterations += 1

        while True:
            try:
                step = normal.step(lam)
                if np.all(np.isfinite(step)):
                    break
            except np.linalg.LinAlgError:
                pass
            lam = _more_damping(lam)

        trial = x + step
        r_trial = np.asarray(residual(trial), dtype=float)
        obj_trial = float(r_trial @ r_trial) if np.all(np.isfinite(r_trial)) else np.inf
        ok = obj_trial < obj
        logger.debug(
            "LM it=%d obj=%.12g lambda=%.12g accepted=%d",
            iterations,
            obj_trial,
            lam,
            int(ok),
        )
        step_norm = float(np.linalg.norm(step))
        small_step = step_norm < _STEP_TOL * (float(np.linalg.norm(x)) + _STEP_TOL)
        if ok:
            x = trial
            r = r_trial
            obj = obj_trial
            history.append(obj)
            accepted += 1
            lam = max(lam * _DAMPING_DECREASE, 1e-14)
            need_jacobian = True
        else:
            lam = _more_damping(lam)
        if small_step:
            return LMResult(x, obj, iterations, accepted, "step", history)
