"""Test-side helpers: dense Jacobians and the normal-equation blocks they give."""

import numpy as np


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


def blocks(jac, r, k=None, b=0):
    """The blocks ``(u, w, v, grad)`` ``levenberg_marquardt`` takes, of a dense Jacobian.

    The first ``k`` columns (all by default) are shared; the rest are groups
    of ``b`` columns each. Sums run over every row, so a row outside a group
    only adds its zeros.
    """
    jac = np.asarray(jac, dtype=float)
    k = jac.shape[1] if k is None else k
    m = (jac.shape[1] - k) // b if b else 0
    shared = jac[:, :k]
    pose = jac[:, k:].reshape(len(jac), m, b).transpose(1, 0, 2)
    u = shared.T @ shared
    w = np.array([shared.T @ p for p in pose]).reshape(m, k, b)
    v = np.array([p.T @ p for p in pose]).reshape(m, b, b)
    return u, w, v, jac.T @ np.asarray(r, dtype=float)


def dense_normal(residual, jacobian=None, k=None, b=0):
    """A ``normal`` callback for ``levenberg_marquardt`` from a dense Jacobian.

    ``jacobian(x)`` gives the Jacobian; without it, central differences of
    ``residual`` do.
    """
    def normal(x):
        jac = jacobian(x) if jacobian else finite_difference_jacobian(residual, x)
        return blocks(jac, residual(x), k, b)

    return normal


def dense(problem, x) -> np.ndarray:
    """The dense Jacobian of a calibration ``_Problem`` at ``x``, rows as ``residual``'s.

    ``problem.jacobian(x)`` gives each row's shared and own-pose columns,
    with rows in the problem's point order; the view of row ``2j`` and
    ``2j + 1`` is ``problem.view[j]``.
    """
    rows = problem.jacobian(x)
    k = problem.n_intr
    view = np.repeat(problem.view, 2)
    out = np.zeros((len(rows), problem.n_params))
    out[:, :k] = rows[:, :k]
    pose = k + 6 * view[:, None] + np.arange(6)
    out[np.arange(len(rows))[:, None], pose] = rows[:, k:]
    # residual() lists rows by view, in point order within a view
    return out[np.argsort(view, kind="stable")]
