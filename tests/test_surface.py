"""The package's public surface, and the names the benchmark tracer looks up."""

import importlib
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

import focuscal

# The modules whose ``__all__`` the package re-exports.
LIBRARY_MODULES = ("calibrate", "core", "homography", "lens", "scale", "solver", "synth")


def load_tracing():
    """``perfbench/tracing.py``, imported from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_package_exports_the_union_of_module_all():
    modules = [importlib.import_module(f"focuscal.{name}") for name in LIBRARY_MODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert focuscal.__all__ == union
    public = {name for name, value in vars(focuscal).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(focuscal, name) is getattr(module, name)


# The public names, spelled out so that any change to them shows in a test.
PUBLIC_NAMES = [
    "BiasReport", "CalibrationResult", "CalibrationView", "CameraPreset", "CurveFit",
    "Distortion", "FOCUS_FIXED", "FOCUS_VARYING", "Homography", "IntrinsicSet",
    "Intrinsics", "LMResult", "LensSpec", "ParallelView", "PerViewStats", "Pose",
    "ReprojectionStats", "ScaleTable", "Solution", "TemplateSpec",
    "ZoneSegmentation", "bias_report", "bundled_preset_names", "calibrate_baseline",
    "calibrate_proposed", "central_increments", "distort_points", "estimate_homographies",
    "estimate_homography", "eval_focal_curve", "extrinsics_from_homography", "fit_focal_curve",
    "focal_length_limit", "focal_sweep", "generate_dataset", "generate_parallel_stack",
    "generate_template", "intrinsics_from_homographies", "levenberg_marquardt", "load_preset",
    "parallel_stack_dataset", "project_points", "reprojection_stats",
    "rodrigues_from_rotations", "scale_factors", "segment_zones", "solution_residuals",
    "suggest_noise_band", "undistort_points",
]


def test_public_names_are_the_listed_ones():
    assert sorted(focuscal.__all__) == PUBLIC_NAMES


def test_every_listed_name_resolves():
    names = [info.name for info in pkgutil.iter_modules(focuscal.__path__)]
    assert set(LIBRARY_MODULES) < set(names)
    for module_name in names:
        if module_name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"focuscal.{module_name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"focuscal.{module_name}.{name}"


def test_traced_names_exist():
    tracing = load_tracing()
    assert tracing.TRACED and tracing.TRACED_METHODS
    for _, home, attr in tracing.TRACED:
        assert hasattr(importlib.import_module(home), attr), f"{home}.{attr}"
    for _, home, cls_name, attr in tracing.TRACED_METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{home}.{cls_name}.{attr}"
