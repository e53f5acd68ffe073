"""Ray-optics focus model.

A thin-lens camera refocuses by moving the sensor: the sharpest image of a
point at distance ``d`` forms where the ideal projective ray through the lens
centre meets the ray refracted at the lens edge. The sensor-to-lens distance
at that intersection is the effective focal length, which rises with object
distance and flattens out past the hyperfocal region. An empirical hyperbolic
curve ``value(d) = -k_f / d**2 + value0`` captures the same rise-to-plateau
shape for measured scale factors. ``focal_sweep`` returns the model's focal
lengths at the caller's distances, in the caller's order; ``fit_focal_curve``
fits the curve to a scale table's columns as a :class:`CurveFit`, one per
scale factor, and ``calibrate_proposed`` takes the (alpha, beta) pair of fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusCalError

__all__ = [
    "LensSpec",
    "CurveFit",
    "focal_length_limit",
    "focal_sweep",
    "fit_focal_curve",
    "eval_focal_curve",
]


@dataclass(frozen=True)
class LensSpec:
    """Physical lens description driving the focus model.

    radius_mm is the lens radius illuminating the sensor, angle_ratio the
    constant ratio between outgoing and incoming ray angles (0 < ratio < 1),
    axis_offset_mm the off-axis distance of the probe point whose rays are
    traced.
    """

    radius_mm: float
    angle_ratio: float
    axis_offset_mm: float = 1.0

    def __post_init__(self):
        if not self.radius_mm > 0:
            raise ValueError("lens radius must be positive")
        if not 0.0 < self.angle_ratio < 1.0:
            raise ValueError("angle ratio must lie in (0, 1)")
        if self.axis_offset_mm < 0:
            raise ValueError("axis offset must be non-negative")


@dataclass(frozen=True)
class CurveFit:
    """Hyperbolic rise-to-plateau fit: value(d) = -k_f / d**2 + value0."""

    k_f: float
    value0: float


def _sweep(lens: LensSpec, d: np.ndarray) -> np.ndarray:
    span = lens.radius_mm - lens.axis_offset_mm
    if span == 0.0:
        raise FocusCalError("probe point at the lens edge")
    with np.errstate(over="ignore"):  # an infinite ratio: arctan's limit, or rejected below
        outgoing = lens.angle_ratio * np.arctan(d / span)
        denom = np.tan(np.pi / 2.0 - outgoing) - lens.axis_offset_mm / d
    if np.any(denom <= 0.0):
        raise FocusCalError("sensor plane at infinity or behind the lens")
    focal = lens.radius_mm / denom
    if not np.all(focal > 0.0):  # a tiny radius over a large denominator
        raise FocusCalError("focal length underflows to zero")
    return focal


def focal_length_limit(lens: LensSpec) -> float:
    """Focal length as the object distance grows without bound."""
    return lens.radius_mm / np.tan(np.pi / 2.0 * (1.0 - lens.angle_ratio))


def focal_sweep(lens: LensSpec, distances) -> np.ndarray:
    """Sensor-to-lens distances giving the sharpest image at ``distances``, in their
    order: where the ideal projective ray meets the ray leaving the lens edge."""
    d = np.asarray(distances, dtype=float).reshape(-1)
    if not np.all(d > 0):  # NaN included
        raise ValueError("distances must be strictly positive")
    return _sweep(lens, d)


def fit_focal_curve(distances, values) -> CurveFit:
    """Least-squares fit of the hyperbolic curve to ``values`` sampled at ``distances``.

    The model is linear in (k_f, value0): value = -k_f / d**2 + value0, so a
    two-column linear system solves it exactly. A fit whose asymptote value0
    is not positive has no plateau, and is rejected.
    """
    d = np.asarray(distances, dtype=float).reshape(-1)
    v = np.asarray(values, dtype=float).reshape(-1)
    if d.shape != v.shape:
        raise ValueError("distances and values must have equal length")
    if d.size < 2:
        raise FocusCalError("need at least two samples")
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    if np.unique(d).size < 2:
        raise FocusCalError("all sample distances are equal")
    design = np.column_stack([-1.0 / (d * d), np.ones_like(d)])
    # Column scaling tames the wildly different magnitudes of 1/d**2 and 1.
    scale = np.linalg.norm(design, axis=0)
    coeff, *_ = np.linalg.lstsq(design / scale, v, rcond=None)
    coeff = coeff / scale
    if not coeff[1] > 0:
        raise FocusCalError("fitted asymptote must be positive")
    return CurveFit(float(coeff[0]), float(coeff[1]))


def eval_focal_curve(fit: CurveFit, d) -> float | np.ndarray:
    """Evaluate the fitted curve at one or more distances."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr <= 0):
        raise ValueError("distance must be positive")
    # a distance too large to square takes the asymptote, one too small an infinite value
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = -fit.k_f / (d_arr * d_arr) + fit.value0
    return float(out) if np.isscalar(d) or d_arr.ndim == 0 else out
