"""Test-side helpers for block-arrow Jacobians."""

import numpy as np


def dense(jac) -> np.ndarray:
    """The dense matrix a ``BlockJacobian`` stands for.

    The shared block fills the first ``k`` columns; group ``i``'s pose block
    fills columns ``k + b * i`` to ``k + b * (i + 1)`` over that group's rows.
    """
    rows, k = jac.shared.shape
    b = jac.pose.shape[1]
    out = np.zeros(jac.shape)
    out[:, :k] = jac.shared
    ends = np.r_[jac.starts[1:], rows]
    for i, (start, end) in enumerate(zip(jac.starts, ends)):
        out[start:end, k + b * i : k + b * (i + 1)] = jac.pose[start:end]
    return out
