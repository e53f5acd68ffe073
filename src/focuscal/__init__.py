"""Camera calibration with distance-dependent focal length.

A numpy toolkit for planar-template calibration that treats the lens focus
honestly: it measures per-distance scale factors from fronto-parallel views,
locates the hyperfocal plateau, and refines poses with the scale factors
frozen, alongside a classic single-focal-length baseline and a ray-optics
simulator that generates ground-truth datasets for comparing the two.
"""

from . import _parallel  # noqa: F401  (unused; perfbench/tracing.py looks it up)
from .calibrate import (
    CalibrationResult,
    CalibrationView,
    IntrinsicSet,
    ReprojectionStats,
    ScaleSource,
    Solution,
    calibrate_baseline,
    calibrate_proposed,
    extrinsics_from_homography,
    intrinsics_from_homographies,
    orthogonalize_rotation,
    reprojection_stats,
)
from .core import (
    Distortion,
    Intrinsics,
    Pose,
    distort,
    project,
    project_points,
    rodrigues_from_rotation,
    rotation_from_rodrigues,
    undistort,
)
from .homography import (
    Homography,
    canonicalize,
    estimate_homography,
    homography_residuals,
    normalize_points,
)
from .lens import (
    CurveFit,
    FocalCurve,
    LensSpec,
    eval_focal_curve,
    fit_focal_curve,
    focal_length_limit,
    focal_sweep,
    incoming_angle,
    sharp_focal_length,
)
from .scale import (
    ParallelView,
    ScaleTable,
    ZoneSegmentation,
    central_increments,
    plateau_scale,
    scale_factors,
    segment_zones,
    suggest_noise_band,
)
from .solver import LMResult, levenberg_marquardt
from .synth import (
    BiasReport,
    CameraPreset,
    FOCUS_FIXED,
    FOCUS_VARYING,
    TemplateSpec,
    bias_report,
    generate_dataset,
    generate_parallel_stack,
    generate_template,
    generate_view,
    load_preset,
    parallel_stack_dataset,
    sample_pose,
)

__version__ = "0.1.0"
