"""Dense Levenberg-Marquardt for small nonlinear least-squares problems."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import FocusCalError, NonConvergence

__all__ = ["SolverOptions", "LMResult", "levenberg_marquardt", "finite_difference_jacobian"]

logger = logging.getLogger(__name__)

_MAX_DAMPING = 1e32


@dataclass(frozen=True)
class SolverOptions:
    """Iteration budget, tolerances, and damping schedule for the solver."""

    max_iterations: int = 200
    gradient_tol: float = 1e-10
    step_tol: float = 1e-12
    damping_init: float = 1e-3
    damping_increase: float = 10.0
    damping_decrease: float = 0.1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if min(self.gradient_tol, self.step_tol, self.damping_init) <= 0:
            raise ValueError("tolerances and damping must be positive")


@dataclass
class LMResult:
    """Solver outcome: refined parameters plus convergence diagnostics."""

    params: np.ndarray
    objective: float
    iterations: int
    accepted: int
    termination: str
    objective_history: list = field(default_factory=list)


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
    opts: SolverOptions | None = None,
    jacobian=None,
) -> LMResult:
    """Minimize the sum of squared residuals starting from ``x0``.

    ``jacobian(x)`` must return the residual Jacobian; when omitted a
    central-difference approximation is used. Damping is applied through the
    diagonal of the normal matrix (columns are rescaled to unit norm before
    solving, which makes the damping scale-invariant across mixed units).
    Accepted steps strictly decrease the objective. Raises
    :class:`NonConvergence` with the partial result attached when the
    iteration budget runs out, and :class:`FocusCalError` when the damped
    system cannot be solved at any damping level. Only one Jacobian is held
    at a time: the previous one is released before ``jacobian`` is called
    again.
    """
    opts = opts or SolverOptions()
    jac_fn = jacobian if jacobian is not None else (
        lambda x: finite_difference_jacobian(residual, x)
    )
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise FocusCalError("residual is not finite at the starting point")
    obj = float(r @ r)
    history = [obj]
    lam = opts.damping_init
    iterations = 0
    accepted = 0
    need_jacobian = True
    grad = col_scale = normal = None

    while True:
        if need_jacobian:
            jac = np.asarray(jac_fn(x), dtype=float)
            grad = jac.T @ r
            if float(np.max(np.abs(grad), initial=0.0)) < opts.gradient_tol:
                return LMResult(x, obj, iterations, accepted, "gradient", history)
            normal = jac.T @ jac
            del jac
            col_scale = np.sqrt(np.diag(normal))
            floor = max(float(col_scale.max(initial=0.0)), 1.0) * 1e-14
            col_scale = np.maximum(col_scale, floor)
            normal = normal / np.outer(col_scale, col_scale)
            need_jacobian = False

        if iterations >= opts.max_iterations:
            result = LMResult(x, obj, iterations, accepted, "max_iterations", history)
            raise NonConvergence(
                f"no tolerance met within {opts.max_iterations} iterations",
                result=result,
            )
        iterations += 1

        step = None
        while step is None:
            try:
                scaled = normal + lam * np.eye(len(x))
                candidate = np.linalg.solve(scaled, -grad / col_scale)
                if np.all(np.isfinite(candidate)):
                    step = candidate / col_scale
                    break
            except np.linalg.LinAlgError:
                pass
            lam *= opts.damping_increase
            if lam > _MAX_DAMPING:
                raise FocusCalError(
                    "damped normal equations unsolvable at maximum damping"
                )

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
        small_step = step_norm < opts.step_tol * (float(np.linalg.norm(x)) + opts.step_tol)
        if ok:
            x = trial
            r = r_trial
            obj = obj_trial
            history.append(obj)
            accepted += 1
            lam = max(lam * opts.damping_decrease, 1e-14)
            need_jacobian = True
        else:
            lam *= opts.damping_increase
            if lam > _MAX_DAMPING:
                raise FocusCalError(
                    "damped normal equations unsolvable at maximum damping"
                )
        if small_step:
            return LMResult(x, obj, iterations, accepted, "step", history)
