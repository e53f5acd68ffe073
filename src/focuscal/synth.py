"""Ground-truth dataset generation with a focus-aware virtual camera.

The simulator projects a planar grid through a pin-hole camera whose scale
factors either stay at their plateau values or follow the lens focus model:
below the hyperfocal distance the effective focal length (and with it alpha
and beta) shrinks as the camera refocuses closer; at and beyond it the focus
is parked and the plateau values hold exactly. Every generated view carries
its ground-truth pose, which makes calibration bias measurable.

All randomness flows from explicit seeds. Multi-view generators derive one
child seed per view through ``numpy.random.SeedSequence.spawn``, so a dataset
is a pure function of (preset, template, distances, noise, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .calibrate import CalibrationResult, CalibrationView
from .core import (
    Distortion,
    Intrinsics,
    Pose,
    _norms,
    _rodrigues,
    distort_points,
    perspective_pixels,
    rodrigues_from_rotation,
    rodrigues_from_rotations,
    rotation_from_rodrigues,
)
from .errors import FocusCalError, FormatError
from .lens import LensSpec, sharp_focal_length
from .scale import ParallelView

__all__ = [
    "TemplateSpec",
    "CameraPreset",
    "BiasReport",
    "FOCUS_FIXED",
    "FOCUS_VARYING",
    "generate_template",
    "generate_view",
    "generate_dataset",
    "generate_parallel_stack",
    "parallel_stack_dataset",
    "sample_pose",
    "bias_report",
    "load_preset",
    "bundled_preset_names",
]

FOCUS_FIXED = "fixed_plateau"
FOCUS_VARYING = "distance_dependent"


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
        return sharp_focal_length(self.lens, d) / sharp_focal_length(
            self.lens, self.hyperfocal_mm
        )

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
        try:
            intr = doc["intrinsics"]
            lens = doc["lens"]
            dist = doc.get("distortion", {})
            return cls(
                name=str(doc["name"]),
                image_size=(int(doc["image_size_px"][0]), int(doc["image_size_px"][1])),
                intrinsics=Intrinsics(
                    alpha=float(intr["alpha_px"]),
                    beta=float(intr["beta_px"]),
                    gamma=float(intr.get("gamma", 0.0)),
                    u0=float(intr["u0_px"]),
                    v0=float(intr["v0_px"]),
                ),
                lens=LensSpec(
                    radius_mm=float(lens["radius_mm"]),
                    angle_ratio=float(lens["angle_ratio"]),
                    axis_offset_mm=float(lens.get("axis_offset_mm", 0.0)),
                ),
                hyperfocal_mm=float(doc["hyperfocal_mm"]),
                pixels_per_mm=float(doc["pixels_per_mm"]),
                distortion=Distortion(
                    float(dist.get("k1", 0.0)), float(dist.get("k2", 0.0))
                ),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise FormatError(f"invalid camera preset: {exc}") from exc


def bundled_preset_names() -> list[str]:
    files = resources.files("focuscal").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name_or_path: str) -> CameraPreset:
    """Load a bundled preset by name or any preset JSON file by path."""
    path = Path(name_or_path)
    if not (path.suffix == ".json" and path.exists()):
        path = resources.files("focuscal").joinpath(f"presets/{name_or_path}.json")
        if not path.is_file():
            raise FormatError(
                f"unknown preset {name_or_path!r}; "
                f"bundled: {', '.join(bundled_preset_names())}"
            )
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"invalid camera preset: {exc}") from exc
    return CameraPreset.from_dict(doc)


def _observe(preset: CameraPreset, intr: Intrinsics, cam, noise_px: float, seed) -> np.ndarray:
    """Detected pixels (n, 2) of camera-frame points (n, 3), NaN where undetected.

    Points in front of the camera are projected, pushed through the distortion
    model, perturbed with isotropic Gaussian pixel noise, and detected only if
    they land inside the image.
    """
    if noise_px < 0:
        raise ValueError("noise must be non-negative")
    w, h = preset.image_size
    index = np.flatnonzero(cam[:, 2] > 0)
    ideal = perspective_pixels(cam[index], intr)
    # Points far outside the frame are undetectable and can sit beyond the
    # distortion model's invertible range; cut them before inverting.
    margin = 0.1 * float(np.hypot(w, h))
    near = np.all((ideal >= -margin) & (ideal <= (w + margin, h + margin)), axis=1)
    index, detected = index[near], distort_points(ideal[near], intr, preset.distortion)
    if noise_px > 0:
        rng = np.random.default_rng(seed)
        detected += rng.normal(0.0, noise_px, size=detected.shape)
    inside = np.all((detected >= 0.0) & (detected <= (w, h)), axis=1)
    pixels = np.full((len(cam), 2), np.nan)
    pixels[index[inside]] = detected[inside]
    return pixels


def sample_pose(
    rng: np.random.Generator,
    template: TemplateSpec,
    distance_mm: float,
    tilt_range_deg: tuple[float, float] = (5.0, 30.0),
) -> Pose:
    """Random view pose with the template centre on the optical axis.

    Tilt off fronto-parallel is uniform in the given range about a uniformly
    random in-plane axis, plus a modest roll so multi-view sets stay well
    conditioned.
    """
    centre = generate_template(template).mean(axis=0)
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    tilt = np.radians(rng.uniform(*tilt_range_deg))
    roll = rng.uniform(-np.pi / 12.0, np.pi / 12.0)
    axis = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    rot = rotation_from_rodrigues(axis * tilt) @ rotation_from_rodrigues(
        np.array([0.0, 0.0, roll])
    )
    t = np.array([0.0, 0.0, distance_mm]) - rot @ centre
    return Pose(rodrigues_from_rotation(rot), t)


def generate_view(
    preset: CameraPreset,
    template: TemplateSpec,
    pose: Pose,
    focus_mode: str = FOCUS_VARYING,
    noise_px: float = 0.0,
    seed=0,
    view_id: str = "view",
) -> CalibrationView:
    """Simulate one template observation.

    The view distance is the camera-frame depth of the template centre; it
    selects the effective scale factors in distance-dependent mode. Points are
    projected, pushed through the distortion model, perturbed with isotropic
    Gaussian pixel noise, and kept only if they land inside the image.
    """
    world = generate_template(template)
    rot = pose.matrix
    cam = world @ rot.T + pose.translation
    distance = float(cam.mean(axis=0)[2])
    if distance <= 0:
        raise FocusCalError("template centre is behind the camera")
    intr = preset.effective_intrinsics(distance, focus_mode)
    pixels = _observe(preset, intr, cam, noise_px, seed)
    found = np.isfinite(pixels[:, 0])
    if not np.any(found):
        raise FocusCalError("no template point projects inside the image")
    return CalibrationView(
        view_id=view_id,
        distance_mm=distance,
        world=world[found],
        image=pixels[found],
        gt_pose=pose,
    )


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
    children = np.random.SeedSequence(seed).spawn(len(distances))
    views = []
    for i, (d, child) in enumerate(zip(distances, children)):
        rng = np.random.default_rng(child)
        pose = sample_pose(rng, template, d, tilt_range_deg)
        views.append(
            generate_view(
                preset,
                template,
                pose,
                focus_mode,
                noise_px,
                seed=rng,
                view_id=f"view{i:03d}",
            )
        )
    return views


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
    children = np.random.SeedSequence(seed).spawn(len(distances))
    stack = []
    for d, child in zip(distances, children):
        t = np.array([0.0, 0.0, d]) - centre
        intr = preset.effective_intrinsics(d, FOCUS_VARYING)
        pixels = _observe(preset, intr, world + t, noise_px, child)
        stack.append(
            ParallelView(
                points=pixels.reshape(template.rows, template.cols, 2),
                distance_mm=d,
                pitch_mm=template.pitch_mm,
                image_size=preset.image_size,
            )
        )
    return stack


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
        pose = Pose(
            np.zeros(3), np.array([0.0, 0.0, pv.distance_mm]) - centre
        )
        views.append(
            CalibrationView(
                view_id=f"stack{i:03d}",
                distance_mm=pv.distance_mm,
                world=grid_world[finite],
                image=pv.points[finite],
                gt_pose=pose,
            )
        )
    return views


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Per-view pose errors against ground truth, with axis-wise summaries.

    Translation errors are the estimated minus true translation vectors, whose
    components live on the (true) camera axes; a negative z entry means the
    camera was placed closer to the template than it really was.
    """

    view_ids: tuple[str, ...]
    translation_errors_mm: np.ndarray
    rotation_errors_rad: np.ndarray
    mean_mm: np.ndarray
    min_mm: np.ndarray
    max_mm: np.ndarray
    mean_rotation_rad: float
    max_rotation_rad: float


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
        min_mm=dt.min(axis=0),
        max_mm=dt.max(axis=0),
        mean_rotation_rad=float(rot_err.mean()),
        max_rotation_rad=float(rot_err.max()),
    )
