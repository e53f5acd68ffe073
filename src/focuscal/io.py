"""File formats: canonical JSON documents and plot-ready CSV tables.

JSON documents are written canonically (sorted keys, floats at 12 significant
digits, LF endings, trailing newline) so that write, read, write is
byte-identical. Every document carries a top-level ``"schema": 1`` field.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .calibrate import (
    CalibrationResult,
    CalibrationView,
    IntrinsicSet,
    PerViewStats,
    ReprojectionStats,
    Solution,
)
from .core import Distortion, Pose
from .errors import FormatError
from .lens import CurveFit
from .scale import ParallelView, ScaleTable, ZoneSegmentation
from .synth import BiasReport, TemplateSpec

__all__ = [
    "canonical_dumps",
    "atomic_write_text",
    "sha256_hex",
    "dataset_to_dict",
    "dataset_from_dict",
    "image_size_from_meta",
    "parallel_views_from_dataset",
    "calibration_to_dict",
    "calibration_from_dict",
    "scale_table_to_csv",
    "scale_table_from_csv",
    "segmentation_to_dict",
    "curve_fits_to_dict",
    "curve_fits_from_dict",
    "bias_to_csv",
    "focal_curve_to_csv",
]

SCHEMA_VERSION = 1


# canonical serialization


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot serialize non-finite numbers")
    if value == 0.0:
        return "0"
    return format(value, ".12g")


def _emit(value, out: list) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        items = list(value)
        for i, item in enumerate(items):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError("object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(value[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_dumps(doc) -> str:
    """Serialize a document deterministically; idempotent across round trips."""
    out: list = []
    _emit(doc, out)
    return "".join(out) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temporary file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# dataset documents


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise FormatError(f"{context}: missing key {key!r}")
    return doc[key]


def dataset_to_dict(template: TemplateSpec, views, meta: dict | None = None) -> dict:
    view_docs = []
    for view in views:
        points = [
            {
                "wx_mm": float(w[0]),
                "wy_mm": float(w[1]),
                "u_px": float(p[0]),
                "v_px": float(p[1]),
            }
            for w, p in zip(view.world, view.image)
        ]
        doc = {
            "id": view.view_id,
            "distance_mm": float(view.distance_mm),
            "points": points,
        }
        if view.gt_pose is not None:
            doc["gt_pose"] = {
                "rodrigues": [float(x) for x in view.gt_pose.rodrigues],
                "t_mm": [float(x) for x in view.gt_pose.translation],
            }
        view_docs.append(doc)
    return {
        "schema": SCHEMA_VERSION,
        "template": {
            "rows": template.rows,
            "cols": template.cols,
            "pitch_mm": template.pitch_mm,
        },
        "views": view_docs,
        "meta": dict(meta or {}),
    }


def dataset_from_dict(doc: dict) -> tuple[TemplateSpec, list[CalibrationView], dict]:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise FormatError("dataset: unsupported or missing schema version")
    context = "dataset template"
    try:
        tdoc = _require(doc, "template", "dataset")
        template = TemplateSpec(
            rows=int(_require(tdoc, "rows", "template")),
            cols=int(_require(tdoc, "cols", "template")),
            pitch_mm=float(_require(tdoc, "pitch_mm", "template")),
        )
        context = "dataset"
        views = []
        for i, vdoc in enumerate(_require(doc, "views", "dataset")):
            context = f"view {i}"
            points = _require(vdoc, "points", context)
            if len(points) < 4:
                raise FormatError(f"{context}: needs at least 4 points")
            world = []
            image = []
            for p in points:
                world.append([float(_require(p, "wx_mm", context)),
                              float(_require(p, "wy_mm", context)), 0.0])
                image.append([float(_require(p, "u_px", context)),
                              float(_require(p, "v_px", context))])
            gt = None
            if "gt_pose" in vdoc:
                pdoc = vdoc["gt_pose"]
                gt = Pose(
                    np.asarray(_require(pdoc, "rodrigues", context), dtype=float),
                    np.asarray(_require(pdoc, "t_mm", context), dtype=float),
                )
            views.append(
                CalibrationView(
                    view_id=str(_require(vdoc, "id", context)),
                    distance_mm=float(_require(vdoc, "distance_mm", context)),
                    world=np.asarray(world),
                    image=np.asarray(image),
                    gt_pose=gt,
                )
            )
        context = "dataset meta"
        meta = dict(doc.get("meta", {}))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{context}: {exc}") from exc
    return template, views, meta


def image_size_from_meta(meta: dict) -> tuple[float, float] | None:
    """A dataset's ``meta.image_size_px`` as (width, height), None if absent."""
    size = meta.get("image_size_px")
    if size is None:
        return None
    try:
        width, height = (float(n) for n in size)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"dataset meta: image_size_px {size!r} is not two numbers") from exc
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise FormatError(f"dataset meta: image_size_px {size!r} is not positive and finite")
    return width, height


def parallel_views_from_dataset(
    template: TemplateSpec, views, meta: dict
) -> list[ParallelView]:
    """Rebuild grid-structured views from a fronto-parallel stack dataset.

    Grid indices are recovered from the world coordinates, which are exact
    multiples of the template pitch; absent grid positions become NaN.
    """
    size = image_size_from_meta(meta)
    if size is None:
        raise FormatError("dataset meta lacks image_size_px; cannot place the window")
    out = []
    for view in views:
        grid = np.full((template.rows, template.cols, 2), np.nan)
        cols = view.world[:, 0] / template.pitch_mm
        rows = view.world[:, 1] / template.pitch_mm
        ci = np.rint(cols)
        ri = np.rint(rows)
        if np.any(np.abs(cols - ci) > 1e-9) or np.any(np.abs(rows - ri) > 1e-9):
            raise FormatError(
                f"view {view.view_id}: points do not lie on the template grid"
            )
        if np.any(ci < 0) or np.any(ci >= template.cols) or np.any(ri < 0) or np.any(
            ri >= template.rows
        ):
            raise FormatError(f"view {view.view_id}: grid index out of range")
        grid[ri.astype(int), ci.astype(int)] = view.image
        out.append(
            ParallelView(
                points=grid,
                distance_mm=view.distance_mm,
                pitch_mm=template.pitch_mm,
                image_size=(int(size[0]), int(size[1])),
            )
        )
    return out


# calibration documents


def _intrinsics_to_dict(intr: IntrinsicSet) -> dict:
    return {
        "u0_px": intr.u0,
        "v0_px": intr.v0,
        "gamma": intr.gamma,
        "shared": intr.shared,
        "scales": [{"alpha_px": a, "beta_px": b} for a, b in intr.scales],
    }


def _intrinsics_from_dict(doc: dict) -> IntrinsicSet:
    scales = tuple(
        (float(s["alpha_px"]), float(s["beta_px"])) for s in _require(doc, "scales", "intrinsics")
    )
    return IntrinsicSet(
        u0=float(_require(doc, "u0_px", "intrinsics")),
        v0=float(_require(doc, "v0_px", "intrinsics")),
        gamma=float(_require(doc, "gamma", "intrinsics")),
        scales=scales,
        shared=bool(_require(doc, "shared", "intrinsics")),
    )


def _stats_to_dict(stats: ReprojectionStats) -> dict:
    return {
        "mean_px": stats.mean_px,
        "median_px": stats.median_px,
        "std_px": stats.std_px,
        "rms_px": stats.rms_px,
        "mean_abs_px": stats.mean_abs_px,
        "per_view": [
            {
                "view_id": pv.view_id,
                "mean_abs_px": pv.mean_abs_px,
                "rms_px": pv.rms_px,
                "n_points": pv.n_points,
            }
            for pv in stats.per_view
        ],
    }


def _stats_from_dict(doc: dict) -> ReprojectionStats:
    return ReprojectionStats(
        mean_px=float(doc["mean_px"]),
        median_px=float(doc["median_px"]),
        std_px=float(doc["std_px"]),
        rms_px=float(doc["rms_px"]),
        mean_abs_px=float(doc["mean_abs_px"]),
        per_view=tuple(
            PerViewStats(
                view_id=str(pv["view_id"]),
                mean_abs_px=float(pv["mean_abs_px"]),
                rms_px=float(pv["rms_px"]),
                n_points=int(pv["n_points"]),
            )
            for pv in doc["per_view"]
        ),
    )


def _solution_to_dict(sol: Solution, view_ids) -> dict:
    return {
        "intrinsics": _intrinsics_to_dict(sol.intrinsics),
        "distortion": {"k1": sol.distortion.k1, "k2": sol.distortion.k2},
        "poses": [
            {
                "view_id": view_ids[i],
                "rodrigues": [float(x) for x in sol.poses[i].rodrigues],
                "t_mm": [float(x) for x in sol.poses[i].translation],
            }
            for i in range(len(sol.poses))
        ],
        "stats": _stats_to_dict(sol.stats),
    }


def _solution_from_dict(doc: dict) -> tuple[Solution, tuple[str, ...]]:
    poses = tuple(
        Pose(np.asarray(p["rodrigues"], dtype=float), np.asarray(p["t_mm"], dtype=float))
        for p in doc["poses"]
    )
    view_ids = tuple(str(p["view_id"]) for p in doc["poses"])
    return (
        Solution(
            intrinsics=_intrinsics_from_dict(doc["intrinsics"]),
            poses=poses,
            distortion=Distortion(
                float(doc["distortion"]["k1"]), float(doc["distortion"]["k2"])
            ),
            stats=_stats_from_dict(doc["stats"]),
        ),
        view_ids,
    )


def calibration_to_dict(result: CalibrationResult, provenance: dict) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "method": result.method,
        "converged": result.converged,
        "iterations": result.iterations,
        "termination": result.termination,
        "algebraic": _solution_to_dict(result.algebraic, result.view_ids),
        "provenance": dict(provenance),
    }
    refined = _solution_to_dict(result.refined, result.view_ids)
    doc.update(refined)
    return doc


def calibration_from_dict(doc: dict) -> CalibrationResult:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise FormatError("calibration: unsupported or missing schema version")
    try:
        refined, view_ids = _solution_from_dict(doc)
        algebraic, _ = _solution_from_dict(doc["algebraic"])
        return CalibrationResult(
            method=str(doc["method"]),
            view_ids=view_ids,
            algebraic=algebraic,
            refined=refined,
            converged=bool(doc["converged"]),
            iterations=int(doc["iterations"]),
            termination=str(doc["termination"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"calibration: {exc}") from exc


# CSV tables


def scale_table_to_csv(table: ScaleTable) -> str:
    lines = ["distance_mm,alpha_px,beta_px"]
    for d, a, b in zip(table.distances, table.alpha, table.beta):
        lines.append(f"{_format_float(d)},{_format_float(a)},{_format_float(b)}")
    return "\n".join(lines) + "\n"


def scale_table_from_csv(text: str) -> ScaleTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "distance_mm,alpha_px,beta_px":
        raise FormatError("scale table: missing or wrong header row")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise FormatError(f"scale table: malformed row {ln!r}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise FormatError(f"scale table: {exc}") from exc
    if not rows:
        raise FormatError("scale table: no data rows")
    arr = np.asarray(rows)
    if not np.all(np.isfinite(arr)):
        raise FormatError("scale table: values must be finite")
    if np.any(arr <= 0):
        raise FormatError("scale table: distances and scale factors must be positive")
    return ScaleTable(arr[:, 0], arr[:, 1], arr[:, 2])


def segmentation_to_dict(seg: ZoneSegmentation) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "zone1_end_mm": seg.zone1_end_mm,
        "zone2_end_mm": seg.zone2_end_mm,
        "plateau_alpha_px": seg.plateau_alpha_px,
        "plateau_beta_px": seg.plateau_beta_px,
    }


def curve_fits_to_dict(alpha_fit: CurveFit, beta_fit: CurveFit) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "alpha_fit": {"k_f": alpha_fit.k_f, "value0": alpha_fit.value0},
        "beta_fit": {"k_f": beta_fit.k_f, "value0": beta_fit.value0},
    }


def curve_fits_from_dict(doc: dict) -> tuple[CurveFit, CurveFit]:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise FormatError("curve fits: unsupported or missing schema version")
    try:
        return (
            CurveFit(float(doc["alpha_fit"]["k_f"]), float(doc["alpha_fit"]["value0"])),
            CurveFit(float(doc["beta_fit"]["k_f"]), float(doc["beta_fit"]["value0"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"curve fits: {exc}") from exc


def bias_to_csv(report: BiasReport) -> str:
    lines = ["view_id,dx_mm,dy_mm,dz_mm,rot_err_rad"]
    for i, vid in enumerate(report.view_ids):
        dx, dy, dz = report.translation_errors_mm[i]
        lines.append(
            f"{vid},{_format_float(dx)},{_format_float(dy)},"
            f"{_format_float(dz)},{_format_float(report.rotation_errors_rad[i])}"
        )
    return "\n".join(lines) + "\n"


def focal_curve_to_csv(distances, focals) -> str:
    lines = ["distance_mm,focal_mm"]
    for d, f in zip(distances, focals):
        lines.append(f"{_format_float(float(d))},{_format_float(float(f))}")
    return "\n".join(lines) + "\n"
