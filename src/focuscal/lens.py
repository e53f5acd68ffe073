"""Ray-optics focus model.

A thin-lens camera refocuses by moving the sensor: the sharpest image of a
point at distance ``d`` forms where the ideal projective ray through the lens
centre meets the ray refracted at the lens edge. The sensor-to-lens distance
at that intersection is the effective focal length, which rises with object
distance and flattens out past the hyperfocal region. An empirical hyperbolic
curve ``value(d) = -k_f / d**2 + value0`` captures the same rise-to-plateau
shape for measured scale factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusCalError

__all__ = [
    "LensSpec",
    "CurveFit",
    "FocalCurve",
    "incoming_angle",
    "sharp_focal_length",
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


@dataclass(frozen=True, eq=False)
class FocalCurve:
    """Sampled value-versus-distance relation with an optional fitted curve."""

    distances: np.ndarray
    values: np.ndarray
    fit: CurveFit | None = None

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float).reshape(-1).copy()
        v = np.asarray(self.values, dtype=float).reshape(-1).copy()
        if d.shape != v.shape:
            raise ValueError("distances and values must have equal length")
        if np.any(d <= 0):
            raise ValueError("distances must be strictly positive")
        if np.any(np.diff(d) < 0):
            raise ValueError("distances must be sorted ascending")
        if self.fit is not None and not self.fit.value0 > 0:
            raise ValueError("fitted asymptote must be positive")
        d.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "values", v)


def incoming_angle(lens: LensSpec, d: float) -> float:
    """Angle of the ray from a probe point at distance d to the lens edge."""
    if not d > 0:
        raise ValueError("distance must be positive")
    span = lens.radius_mm - lens.axis_offset_mm
    if span == 0.0:
        raise FocusCalError("probe point at the lens edge")
    return float(np.arctan(d / span))


def _sweep(lens: LensSpec, d: np.ndarray) -> np.ndarray:
    span = lens.radius_mm - lens.axis_offset_mm
    if span == 0.0:
        raise FocusCalError("probe point at the lens edge")
    outgoing = lens.angle_ratio * np.arctan(d / span)
    denom = np.tan(np.pi / 2.0 - outgoing) - lens.axis_offset_mm / d
    if np.any(denom <= 0.0):
        raise FocusCalError("sensor plane at infinity or behind the lens")
    return lens.radius_mm / denom


def sharp_focal_length(lens: LensSpec, d: float) -> float:
    """Sensor-to-lens distance giving the sharpest image at object distance d.

    This is the x coordinate of the intersection of the ideal projective ray
    with the ray leaving the lens edge at the reduced angle.
    """
    if not d > 0:
        raise ValueError("distance must be positive")
    return float(_sweep(lens, np.asarray([d], dtype=float))[0])


def focal_length_limit(lens: LensSpec) -> float:
    """Focal length as the object distance grows without bound."""
    return lens.radius_mm / np.tan(np.pi / 2.0 * (1.0 - lens.angle_ratio))


def focal_sweep(lens: LensSpec, distances) -> FocalCurve:
    """Evaluate the focus model over a distance grid."""
    d = np.asarray(distances, dtype=float).reshape(-1)
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    order = np.argsort(d, kind="stable")
    d = d[order]
    return FocalCurve(d, _sweep(lens, d))


def fit_focal_curve(samples) -> FocalCurve:
    """Least-squares fit of the hyperbolic curve to (distance, value) samples.

    The model is linear in (k_f, value0): value = -k_f / d**2 + value0, so a
    two-column linear system solves it exactly.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (distance, value)")
    if arr.shape[0] < 2:
        raise FocusCalError("need at least two samples")
    d = arr[:, 0]
    v = arr[:, 1]
    if np.any(d <= 0):
        raise ValueError("distances must be strictly positive")
    if np.unique(d).size < 2:
        raise FocusCalError("all sample distances are equal")
    design = np.column_stack([-1.0 / (d * d), np.ones_like(d)])
    # Column scaling tames the wildly different magnitudes of 1/d**2 and 1.
    scale = np.linalg.norm(design, axis=0)
    coeff, *_ = np.linalg.lstsq(design / scale, v, rcond=None)
    coeff = coeff / scale
    order = np.argsort(d, kind="stable")
    return FocalCurve(d[order], v[order], CurveFit(float(coeff[0]), float(coeff[1])))


def eval_focal_curve(fit: CurveFit, d) -> float | np.ndarray:
    """Evaluate the fitted curve at one or more distances."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr <= 0):
        raise ValueError("distance must be positive")
    out = -fit.k_f / (d_arr * d_arr) + fit.value0
    return float(out) if np.isscalar(d) or d_arr.ndim == 0 else out
