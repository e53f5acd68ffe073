"""Per-distance scale factors from fronto-parallel views, and zone segmentation.

A template held parallel to the image plane at a known distance turns the
pin-hole model into a pure similarity: the mean pixel gap between adjacent
grid points, multiplied by distance over template pitch, recovers the scale
factor at that distance. Plotting scale factor against distance exposes three
regimes: a rise while the lens refocuses (zone 1), a flat plateau once focus
is parked at the hyperfocal distance (zone 2), and a noisy tail where the
template is too small in the image to measure (zone 3). A :class:`ScaleTable`
holds its rows in distance order, however its rows were given, so the zones
and the nearest-row lookup of ``calibrate_proposed`` read every table alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FocusCalError, NoPlateauFound

__all__ = [
    "ParallelView",
    "ScaleTable",
    "ZoneSegmentation",
    "central_increments",
    "scale_factors",
    "segment_zones",
    "suggest_noise_band",
]

DEFAULT_WINDOW_FRACTION = 0.2


@dataclass(frozen=True, eq=False)
class ParallelView:
    """Detected grid points of one fronto-parallel template image.

    ``points`` has shape (rows, cols, 2) in pixels, with NaN marking grid
    positions that were not detected (for example outside the image).
    """

    points: np.ndarray
    distance_mm: float
    pitch_mm: float
    image_size: tuple[int, int]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValueError("points must have shape (rows, cols, 2)")
        if not self.distance_mm > 0:
            raise ValueError("distance must be positive")
        if not self.pitch_mm > 0:
            raise ValueError("pitch must be positive")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "image_size", tuple(self.image_size))


@dataclass(frozen=True, eq=False)
class ScaleTable:
    """Scale factors per view distance, one row per view, in distance order.

    The rows are sorted by distance when the table is built; rows at one
    distance keep the order they were given in.
    """

    distances: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        d, a, b = (np.asarray(column, dtype=float).reshape(-1)
                   for column in (self.distances, self.alpha, self.beta))
        if not (d.shape == a.shape == b.shape):
            raise ValueError("table columns must have equal length")
        if not np.all(d > 0):  # NaN included
            raise ValueError("distances must be strictly positive")
        order = np.argsort(d, kind="stable")
        for name, column in zip(("distances", "alpha", "beta"), (d, a, b)):
            column = column[order]  # a sorted copy
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.distances.size


@dataclass(frozen=True)
class ZoneSegmentation:
    """Distance-axis segmentation: plateau boundaries and plateau values."""

    zone1_end_mm: float
    zone2_end_mm: float
    plateau_alpha_px: float
    plateau_beta_px: float

    def __post_init__(self):
        if not 0 < self.zone1_end_mm < self.zone2_end_mm:
            raise ValueError("zone boundaries must satisfy 0 < zone1 < zone2")


def _central_gaps(
    view: ParallelView, window_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    pts = view.points
    w, h = view.image_size
    centre = np.array([w / 2.0, h / 2.0])
    limit = window_fraction * float(np.hypot(w, h))
    # a point too far out to square or subtract lies outside the window, and is dropped
    with np.errstate(over="ignore"):
        radius = np.linalg.norm(pts - centre, axis=2)
        ok = np.all(np.isfinite(pts), axis=2) & (radius < limit)
        horizontal = ok[:, :-1] & ok[:, 1:]
        du = np.abs(pts[:, 1:, 0] - pts[:, :-1, 0])[horizontal]
        vertical = ok[:-1, :] & ok[1:, :]
        dv = np.abs(pts[1:, :, 1] - pts[:-1, :, 1])[vertical]
    return du, dv


def central_increments(
    view: ParallelView, window_fraction: float = DEFAULT_WINDOW_FRACTION
) -> tuple[float, float]:
    """Mean horizontal and vertical pixel gaps between adjacent grid points.

    Only point pairs whose endpoints both fall within the central window
    (radius below ``window_fraction`` of the image diagonal) contribute, which
    keeps radial distortion out of the measurement without correcting it.
    """
    du, dv = _central_gaps(view, window_fraction)
    if du.size < 1 or dv.size < 1 or du.size + dv.size < 2:
        raise FocusCalError(
            "need adjacent point pairs along both axes inside the central window"
        )
    return float(du.mean()), float(dv.mean())


def scale_factors(
    views, window_fraction: float = DEFAULT_WINDOW_FRACTION
) -> ScaleTable:
    """Scale factors for a stack of fronto-parallel views.

    View i's row is ``alpha_i = du_i * d_i / pitch`` and ``beta_i = dv_i *
    d_i / pitch``; the table holds the rows in distance order.
    """
    views = list(views)
    if not views:
        raise ValueError("need at least one view")
    pitch = views[0].pitch_mm
    if any(abs(v.pitch_mm - pitch) > 1e-12 * pitch for v in views):
        raise ValueError("views must share the template pitch")
    distances = np.empty(len(views))
    alpha = np.empty(len(views))
    beta = np.empty(len(views))
    for i, view in enumerate(views):
        du, dv = central_increments(view, window_fraction)
        distances[i] = view.distance_mm
        alpha[i] = du * view.distance_mm / pitch
        beta[i] = dv * view.distance_mm / pitch
    finite = np.isfinite(alpha) & np.isfinite(beta)
    if not finite.all():
        raise FocusCalError(f"scale factors at {distances[~finite][0]} mm are not finite")
    return ScaleTable(distances, alpha, beta)


def segment_zones(table: ScaleTable, noise_band: float) -> ZoneSegmentation:
    """Locate the flat plateau of a scale table.

    The plateau is the longest run of consecutive rows whose alpha values all
    stay within ``noise_band`` of the run mean (ties prefer the latest run).
    Rows before it form zone 1, rows after it zone 3. At least three
    consecutive flat rows are required, and at least five rows.
    """
    if not noise_band > 0:
        raise ValueError("noise band must be positive")
    if len(table) < 5:
        raise FocusCalError("need at least five rows")
    d = table.distances
    steps = np.diff(d)
    if np.any(steps == 0):
        raise FocusCalError(f"two scale-table rows at {d[1:][steps == 0][0]} mm")
    values = table.alpha
    for length in range(len(table), 2, -1):
        windows = np.lib.stride_tricks.sliding_window_view(values, length)
        spread = np.max(np.abs(windows - windows.mean(axis=1)[:, None]), axis=1)
        flat = np.flatnonzero(spread <= noise_band)
        if flat.size:
            i = int(flat[-1])
            j = i + length - 1
            break
    else:
        raise NoPlateauFound(
            f"no run of three or more samples is flat within {noise_band}"
        )
    return ZoneSegmentation(
        zone1_end_mm=float(d[i]),
        zone2_end_mm=float(d[j]),
        plateau_alpha_px=float(values[i : j + 1].mean()),
        plateau_beta_px=float(table.beta[i : j + 1].mean()),
    )


def suggest_noise_band(
    views, window_fraction: float = DEFAULT_WINDOW_FRACTION
) -> float:
    """Noise band for segmentation from the gap scatter inside the views.

    Twice the sample standard deviation of the horizontal central gaps,
    propagated to scale-factor units by distance over pitch; the median over
    views is returned, floored at a millionth of the typical scale so exact
    synthetic stacks still segment.
    """
    views = list(views)
    bands = []
    scales = []
    for view in views:
        du, _ = _central_gaps(view, window_fraction)
        if du.size < 2:
            continue
        factor = view.distance_mm / view.pitch_mm
        bands.append(2.0 * float(np.std(du, ddof=1)) * factor)
        scales.append(float(du.mean()) * factor)
    if not bands:
        raise FocusCalError("no view has two central horizontal gaps")
    band = float(np.median(bands))
    return max(band, 1e-6 * float(np.median(scales)))
