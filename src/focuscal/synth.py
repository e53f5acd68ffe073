"""Ground-truth dataset generation with a focus-aware virtual camera.

The simulator projects a planar grid through a pin-hole camera whose scale
factors either stay at their plateau values or follow the lens focus model:
below the hyperfocal distance the effective focal length (and with it alpha
and beta) shrinks as the camera refocuses closer; at and beyond it the focus
is parked and the plateau values hold exactly. Every generated view carries
its ground-truth pose, which makes calibration bias measurable.

All randomness flows from explicit seeds. Multi-view generators derive one
child seed per view through ``numpy.random.SeedSequence.spawn``, so a dataset
is a pure function of (preset, template, distances, noise, seed). A call
simulates all its views in one batched pass, each drawing its pose and noise
from its own child seed as a loop over the views would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .calibrate import CalibrationResult, CalibrationView
from .core import (
    Distortion,
    Intrinsics,
    Pose,
    _distort_views,
    _norms,
    _pinhole,
    _rodrigues,
    rodrigues_from_rotations,
)
from .errors import FocusCalError, FormatError, _get, _get_size, _parse_json, _reading
from .lens import LensSpec, focal_sweep
from .scale import ParallelView

__all__ = [
    "TemplateSpec",
    "CameraPreset",
    "BiasReport",
    "FOCUS_FIXED",
    "FOCUS_VARYING",
    "generate_template",
    "generate_dataset",
    "generate_parallel_stack",
    "parallel_stack_dataset",
    "bias_report",
    "load_preset",
    "bundled_preset_names",
]

FOCUS_FIXED = "fixed_plateau"
FOCUS_VARYING = "distance_dependent"
_PRESET = "invalid camera preset"  # how a preset's format errors begin


@dataclass(frozen=True)
class TemplateSpec:
    """Planar grid description: row/column counts and point pitch."""

    rows: int
    cols: int
    pitch_mm: float

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("template needs at least 2 rows and 2 columns")
        if not self.pitch_mm > 0:
            raise ValueError("pitch must be positive")


def generate_template(spec: TemplateSpec) -> np.ndarray:
    """Grid points (rows*cols, 3) at z = 0, origin at one corner.

    Column index runs along x and varies fastest.
    """
    cols = np.arange(spec.cols) * spec.pitch_mm
    rows = np.arange(spec.rows) * spec.pitch_mm
    xx, yy = np.meshgrid(cols, rows)
    return np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])


@dataclass(frozen=True)
class CameraPreset:
    """A virtual camera: plateau intrinsics plus the lens focus behaviour."""

    name: str
    image_size: tuple[int, int]
    intrinsics: Intrinsics
    lens: LensSpec
    hyperfocal_mm: float
    pixels_per_mm: float
    distortion: Distortion

    def __post_init__(self):
        if not self.hyperfocal_mm > 0:
            raise ValueError("hyperfocal distance must be positive")
        if not self.pixels_per_mm > 0:
            raise ValueError("pixels_per_mm must be positive")
        object.__setattr__(self, "image_size", tuple(self.image_size))

    def focus_ratio(self, distance_mm: float) -> float:
        """Scale-factor multiplier at a distance, exactly 1 past hyperfocal.

        The focus mechanism stops adjusting at the hyperfocal plane, so the
        effective focal length is evaluated at min(distance, hyperfocal).
        """
        d = min(float(distance_mm), self.hyperfocal_mm)
        return float(focal_sweep(self.lens, [d])[0]) / self._hyperfocal_focal_mm

    @cached_property
    def _hyperfocal_focal_mm(self) -> float:
        return float(focal_sweep(self.lens, [self.hyperfocal_mm])[0])

    def effective_intrinsics(self, distance_mm: float, focus_mode: str) -> Intrinsics:
        if focus_mode == FOCUS_FIXED:
            return self.intrinsics
        if focus_mode != FOCUS_VARYING:
            raise ValueError(f"unknown focus mode: {focus_mode!r}")
        ratio = self.focus_ratio(distance_mm)
        base = self.intrinsics
        return Intrinsics(
            base.alpha * ratio, base.beta * ratio, base.gamma, base.u0, base.v0
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "CameraPreset":
        with _reading(_PRESET, doc):
            intr = _get(doc, "intrinsics", dict)
            lens = _get(doc, "lens", dict)
            dist = _get(doc, "distortion", dict, {})
            return cls(
                name=_get(doc, "name", str),
                image_size=_get_size(doc, "image_size_px"),
                intrinsics=Intrinsics(
                    alpha=_get(intr, "alpha_px", float),
                    beta=_get(intr, "beta_px", float),
                    gamma=_get(intr, "gamma", float, 0.0),
                    u0=_get(intr, "u0_px", float),
                    v0=_get(intr, "v0_px", float),
                ),
                lens=LensSpec(
                    radius_mm=_get(lens, "radius_mm", float),
                    angle_ratio=_get(lens, "angle_ratio", float),
                    axis_offset_mm=_get(lens, "axis_offset_mm", float, 0.0),
                ),
                hyperfocal_mm=_get(doc, "hyperfocal_mm", float),
                pixels_per_mm=_get(doc, "pixels_per_mm", float),
                distortion=Distortion(_get(dist, "k1", float, 0.0), _get(dist, "k2", float, 0.0)),
            )


def bundled_preset_names() -> list[str]:
    files = resources.files("focuscal").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def _preset_file(name_or_path: str):
    """The file a preset argument names: an existing ``.json`` path is itself,
    anything else the bundled preset of that name."""
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        return path
    path = resources.files("focuscal").joinpath(f"presets/{name_or_path}.json")
    if not path.is_file():
        raise FormatError(f"unknown preset {name_or_path!r}; "
                          f"bundled: {', '.join(bundled_preset_names())}")
    return path


def load_preset(name_or_path: str) -> CameraPreset:
    """Load a bundled preset by name or any preset JSON file by path."""
    with _reading(_PRESET):  # a file that is not UTF-8
        text = _preset_file(name_or_path).read_bytes().decode("utf-8")
    return CameraPreset.from_dict(_parse_json(text, _PRESET))


def _observe(preset: CameraPreset, intrs, cam, noise_px: float, seeds) -> tuple:
    """Detected pixels (m, n, 2) of m views' camera-frame points (m, n, 3), NaN
    where undetected, and which views have a non-finite point in front of the camera.

    View i is seen with ``intrs[i]``: points in front of the camera are projected,
    pushed through the distortion model, perturbed with isotropic Gaussian pixel
    noise from ``default_rng(seeds[i])``, and detected only inside the image.
    """
    if not 0.0 <= noise_px < np.inf:
        raise ValueError("noise must be non-negative and finite")
    w, h = map(float, preset.image_size)  # an integer past int64 would compare as an object
    params = np.array([(i.alpha, i.beta, i.u0, i.v0, i.gamma) for i in intrs]).reshape(-1, 5)
    alpha, beta, u0, v0, gamma = params.T[..., None]
    front = cam[..., 2] > 0
    unprojectable = np.any(front[..., None] & ~np.isfinite(cam), axis=(1, 2))
    depth = np.where(front, cam[..., 2], np.nan)  # NaN pixels behind the camera
    with np.errstate(over="ignore", invalid="ignore"):  # huge intrinsics: no pixel near the image
        ideal = np.stack(_pinhole(cam[..., 0], cam[..., 1], depth, alpha, beta, gamma, u0, v0), -1)
    # Points far outside the frame are undetectable and can sit beyond the
    # distortion model's invertible range; cut them before inverting.
    margin = 0.1 * float(np.hypot(w, h))
    near = np.all((ideal >= -margin) & (ideal <= (w + margin, h + margin)), axis=-1)
    centre = np.stack([u0, v0], axis=-1)  # a fixed point of the inversion
    detected = _distort_views(np.where(near[..., None], ideal, centre), params[:, :4],
                              preset.distortion)
    if noise_px > 0:
        for view, mask, seed in zip(detected, near, seeds):
            rng = np.random.default_rng(seed)
            view[mask] += rng.normal(0.0, noise_px, size=(np.count_nonzero(mask), 2))
    inside = near & np.all((detected >= 0.0) & (detected <= (w, h)), axis=-1)
    return np.where(inside[..., None], detected, np.nan), unprojectable


def _in_order(make, items) -> tuple[list, Exception | None]:
    """``make`` of each item until one fails, and that failure: raised at once for
    the first item, else returned for the caller to raise after the earlier errors."""
    made = []
    for item in items:
        try:
            made.append(make(item))
        except (ValueError, FocusCalError) as exc:
            if not made:
                raise
            return made, exc
    return made, None


def _sample_poses(rngs, template: TemplateSpec, distances, tilt_range_deg) -> tuple:
    """Axis-angle vectors and translations (m, 3) of random poses, view i drawing
    from ``rngs[i]``: the template centre on the optical axis at ``distances[i]``,
    a tilt uniform in ``tilt_range_deg`` (finite, low <= high) about a random
    in-plane axis, and a modest roll so multi-view sets stay well conditioned."""
    low, high = tilt_range_deg
    if not 0.0 <= high - low < np.inf:
        raise ValueError(f"tilt range needs finite low <= high, got {low}:{high}")
    limits = np.array([[0.0, low, -np.pi / 12.0], [2.0 * np.pi, high, np.pi / 12.0]])
    azimuth, tilt, roll = np.array([rng.uniform(*limits) for rng in rngs]).reshape(-1, 3).T
    zero = np.zeros_like(roll)
    axis = np.column_stack([np.cos(azimuth), np.sin(azimuth), zero]) * np.radians(tilt)[:, None]
    rot = _rodrigues(axis)[0] @ _rodrigues(np.column_stack([zero, zero, roll]))[0]
    t = np.column_stack([zero, zero, distances]) - rot @ generate_template(template).mean(axis=0)
    return rodrigues_from_rotations(rot), t


def _tilted_views(preset, template, rvecs, tvecs, focus_mode, noise_px, seeds, view_ids):
    """Views of the template at poses (rvecs[i], tvecs[i]) in one pass, each at the
    camera-frame depth of the template centre, which selects its scale factors."""
    world = generate_template(template)
    cam = world @ _rodrigues(rvecs)[0].transpose(0, 2, 1) + tvecs[:, None, :]
    depths = cam.mean(axis=1)[:, 2]

    def place(i):
        pose = Pose(rvecs[i], tvecs[i])
        if depths[i] <= 0:
            raise FocusCalError("template centre is behind the camera")
        return pose, preset.effective_intrinsics(float(depths[i]), focus_mode)

    placed, failure = _in_order(place, range(len(cam)))
    pixels, unprojectable = _observe(preset, [intr for _, intr in placed],
                                     cam[: len(placed)], noise_px, seeds)
    views = []
    for i, (pose, _) in enumerate(placed):
        found = np.isfinite(pixels[i, :, 0])
        if unprojectable[i]:
            raise FocusCalError("point at or behind the camera plane")
        if not np.any(found):
            raise FocusCalError("no template point projects inside the image")
        views.append(CalibrationView(view_ids[i], float(depths[i]), world[found],
                                     pixels[i, found], pose))
    if failure:
        raise failure
    return views


def generate_dataset(
    preset: CameraPreset,
    template: TemplateSpec,
    distances,
    focus_mode: str = FOCUS_VARYING,
    noise_px: float = 0.0,
    seed: int = 0,
    tilt_range_deg: tuple[float, float] = (5.0, 30.0),
) -> list[CalibrationView]:
    """Simulate one tilted view per distance with per-view child seeds."""
    distances = [float(d) for d in distances]
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(len(distances))]
    rvecs, tvecs = _sample_poses(rngs, template, distances, tilt_range_deg)
    return _tilted_views(preset, template, rvecs, tvecs, focus_mode, noise_px, rngs,
                         [f"view{i:03d}" for i in range(len(distances))])


def generate_parallel_stack(
    preset: CameraPreset,
    template: TemplateSpec,
    distances,
    noise_px: float = 0.0,
    seed: int = 0,
) -> list[ParallelView]:
    """Fronto-parallel distance-dependent views, grid structure preserved.

    Grid positions that fall outside the image are NaN so downstream code can
    restrict itself to detected points.
    """
    distances = [float(d) for d in distances]
    if any(d <= 0 for d in distances):
        raise ValueError("distances must be positive")
    world = generate_template(template)
    centre = world.mean(axis=0)
    intrs, failure = _in_order(lambda d: preset.effective_intrinsics(d, FOCUS_VARYING), distances)
    shifts = np.column_stack([np.zeros((len(intrs), 2)), distances[: len(intrs)]]) - centre
    children = np.random.SeedSequence(seed).spawn(len(distances))
    pixels, unprojectable = _observe(preset, intrs, world + shifts[:, None], noise_px, children)
    if unprojectable.any():
        raise FocusCalError("point at or behind the camera plane")
    if failure:
        raise failure
    grid = (len(pixels), template.rows, template.cols, 2)
    return [ParallelView(points, d, template.pitch_mm, preset.image_size)
            for d, points in zip(distances, pixels.reshape(grid))]


def parallel_stack_dataset(
    preset: CameraPreset,
    template: TemplateSpec,
    distances,
    noise_px: float = 0.0,
    seed: int = 0,
) -> list[CalibrationView]:
    """The fronto-parallel stack as calibration views with ground-truth poses.

    Grid positions outside the image are dropped; the remaining points keep
    grid order, so the stack survives a round trip through a dataset file.
    """
    stack = generate_parallel_stack(preset, template, distances, noise_px, seed)
    world = generate_template(template)
    centre = world.mean(axis=0)
    grid_world = world.reshape(template.rows, template.cols, 3)
    views = []
    for i, pv in enumerate(stack):
        finite = np.all(np.isfinite(pv.points), axis=2)
        if not np.any(finite):
            raise FocusCalError(f"stack view at {pv.distance_mm} mm is empty")
        pose = Pose(np.zeros(3), np.array([0.0, 0.0, pv.distance_mm]) - centre)
        views.append(CalibrationView(f"stack{i:03d}", pv.distance_mm, grid_world[finite],
                                     pv.points[finite], pose))
    return views


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Per-view pose errors against ground truth, with their means.

    Translation errors are the estimated minus true translation vectors, whose
    components live on the (true) camera axes; a negative z entry means the
    camera was placed closer to the template than it really was.
    """

    view_ids: tuple[str, ...]
    translation_errors_mm: np.ndarray
    rotation_errors_rad: np.ndarray
    mean_mm: np.ndarray
    mean_rotation_rad: float


def bias_report(result: CalibrationResult, views) -> BiasReport:
    """Compare refined poses against the ground truth stored in the views."""
    views = list(views)
    if len(views) != len(result.refined.poses):
        raise ValueError("view count does not match the calibration result")
    if any(v.gt_pose is None for v in views):
        raise FocusCalError("every view needs a ground-truth pose")
    poses = [*result.refined.poses, *(v.gt_pose for v in views)]
    rot = _rodrigues(np.array([p.rodrigues for p in poses]))[0]
    t = np.array([p.translation for p in poses])
    m = len(views)
    dt = t[:m] - t[m:]
    rot_err = _norms(rodrigues_from_rotations(rot[:m] @ rot[m:].transpose(0, 2, 1)))
    return BiasReport(
        view_ids=tuple(v.view_id for v in views),
        translation_errors_mm=dt,
        rotation_errors_rad=rot_err,
        mean_mm=dt.mean(axis=0),
        mean_rotation_rad=float(rot_err.mean()),
    )
