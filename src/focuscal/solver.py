"""Levenberg-Marquardt for least-squares problems with block-arrow normal equations.

In a calibration every residual row depends on a few shared parameters and
on the parameters of its own view only, so the Jacobian is block-arrow
shaped: a dense shared block of ``k`` columns beside one ``b``-column block
per group of rows. The solver never sees that Jacobian. The problem hands it
the blocks of the normal matrix, U (k x k), V_i (b x b) and W_i (k x b) for
every group, with the gradient. The solver eliminates the group parameters,
solves the k x k reduced (Schur complement) system and back-substitutes
(Triggs et al., "Bundle Adjustment - A Modern Synthesis", 2000, section 6).
A problem without groups hands U = J^T J with no W_i or V_i.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import FocusCalError

__all__ = ["LMResult", "levenberg_marquardt"]

logger = logging.getLogger(__name__)

# Stop when the largest gradient entry, or the step relative to |x|, is below these.
# The step's rounding floor is 1e-11 to 4e-10 |x| in a calibration.
_GRADIENT_TOL = 1e-10
_STEP_TOL = 1e-10
# Damping schedule: start, factor on a rejected step, factor on an accepted one.
# The start is for a good starting point (Madsen, Nielsen & Tingleff, "Methods
# for non-linear least squares problems", 2004, 3.2), as a closed form gives.
_DAMPING_INIT = 1e-6
_DAMPING_INCREASE = 10.0
_DAMPING_DECREASE = 0.1
_MAX_DAMPING = 1e32


@dataclass
class LMResult:
    """Solver outcome: refined parameters plus convergence diagnostics.

    ``termination`` is ``"gradient"`` when the largest gradient entry fell
    below 1e-10, ``"step"`` when a step, accepted or not, was shorter than
    1e-10 |x|, and ``"max_iterations"`` when the iteration budget ran out
    first. ``residuals`` is the vector ``residual`` returned at ``params``.
    """

    params: np.ndarray
    objective: float
    iterations: int
    accepted: int
    termination: str
    residuals: np.ndarray
    objective_history: list = field(default_factory=list)


class _NormalEquations:
    """Column-scaled normal equations of a block-arrow problem.

    Built from the blocks U (k, k), W (m, k, b), V (m, b, b) and the gradient
    (k + m b). Columns are scaled to unit norm (with a floor for null
    columns), which makes the damping ``lam * I`` of ``step`` scale-invariant
    across mixed units.
    """

    def __init__(self, u, w, v, grad):
        k, (m, b) = len(u), v.shape[:2]
        self.gradient_max = float(np.max(np.abs(grad), initial=0.0))
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


def levenberg_marquardt(
    residual,
    x0,
    normal,
    *,
    max_iterations: int = 200,
) -> LMResult:
    """Minimize the sum of squared residuals starting from ``x0``.

    ``normal(x)`` returns the normal-equation blocks at ``x`` as a tuple
    ``(u, w, v, grad)``: U = J_s^T J_s (k, k) of the shared columns, W_i =
    J_s^T J_i (m, k, b) and V_i = J_i^T J_i (m, b, b) of each group's
    columns, and the gradient J^T r in parameter order, shared first. Damping
    is applied through the diagonal of the normal matrix (columns are
    rescaled to unit norm before solving, which makes the damping
    scale-invariant across mixed units); it starts at 1e-6 and moves tenfold
    per step. Accepted steps strictly decrease the objective. Running out of
    the ``max_iterations`` budget is a result, with termination
    ``"max_iterations"`` and the best parameters found, not an error;
    :class:`FocusCalError` is raised when the damped system cannot be solved
    at any damping level. The blocks of one call are released before
    ``normal`` is called again.
    """
    _check_budget(max_iterations)
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    with np.errstate(over="ignore"):  # residuals too large to square
        obj = float(r @ r) if np.all(np.isfinite(r)) else np.inf
    if not np.isfinite(obj):
        raise FocusCalError("residual is not finite at the starting point")
    history = [obj]
    lam = _DAMPING_INIT
    iterations = 0
    accepted = 0
    normal_eq = None

    while True:
        if normal_eq is None:
            normal_eq = _NormalEquations(*normal(x))
            if normal_eq.gradient_max < _GRADIENT_TOL:
                return LMResult(x, obj, iterations, accepted, "gradient", r, history)

        if iterations >= max_iterations:
            return LMResult(x, obj, iterations, accepted, "max_iterations", r, history)
        iterations += 1

        while True:
            try:
                step = normal_eq.step(lam)
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
            x, r = trial, r_trial
            obj = obj_trial
            history.append(obj)
            accepted += 1
            lam = max(lam * _DAMPING_DECREASE, 1e-14)
            normal_eq = None
        else:
            lam = _more_damping(lam)
        if small_step:
            return LMResult(x, obj, iterations, accepted, "step", r, history)
