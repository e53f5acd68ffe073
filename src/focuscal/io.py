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
from dataclasses import asdict
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
from .errors import SCHEMA_VERSION, FormatError, _get, _get_list, _get_rows, _get_size, _reading
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


# canonical serialization


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot serialize non-finite numbers")
    if value == 0.0:
        return "0"
    return format(value, ".12g")


# json.dumps runs this for a str, so strings and keys keep its bytes
_quote = json.encoder.encode_basestring_ascii


def _canonical(value) -> str:
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(map(_canonical, value)) + "]"
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("object keys must be strings")
        return "{" + ",".join(_quote(k) + ":" + _canonical(value[k]) for k in sorted(value)) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_dumps(doc) -> str:
    """Serialize a document deterministically; idempotent across round trips."""
    return _canonical(doc) + "\n"


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

# The keys of a point, in the column order of a view's world then image coordinates.
_POINT_KEYS = ("wx_mm", "wy_mm", "u_px", "v_px")


def _pose_to_dict(pose: Pose) -> dict:
    return {
        "rodrigues": [float(x) for x in pose.rodrigues],
        "t_mm": [float(x) for x in pose.translation],
    }


def dataset_to_dict(template: TemplateSpec, views, meta: dict | None = None) -> dict:
    view_docs = []
    for view in views:
        rows = np.column_stack([view.world[:, :2], view.image]).tolist()
        points = [dict(zip(_POINT_KEYS, row)) for row in rows]
        doc = {
            "id": view.view_id,
            "distance_mm": float(view.distance_mm),
            "points": points,
        }
        if view.gt_pose is not None:
            doc["gt_pose"] = _pose_to_dict(view.gt_pose)
        view_docs.append(doc)
    return {
        "schema": SCHEMA_VERSION,
        "template": asdict(template),  # renaming a template field changes the format
        "views": view_docs,
        "meta": dict(meta or {}),
    }


def _pose_from_dict(doc: dict) -> Pose:
    return Pose(_get_list(doc, "rodrigues", float, 3), _get_list(doc, "t_mm", float, 3))


def _view_from_dict(i: int, vdoc: dict) -> CalibrationView:
    with _reading(f"view {i}"):
        # one (n, 4) array of wx, wy, u, v; CalibrationView checks its size and values
        points = _get_rows(_get(vdoc, "points", list), _POINT_KEYS)
        gt = _pose_from_dict(_get(vdoc, "gt_pose", dict)) if "gt_pose" in vdoc else None
        return CalibrationView(
            view_id=_get(vdoc, "id", str),
            distance_mm=_get(vdoc, "distance_mm", float),
            world=points[:, :2],
            image=points[:, 2:],
            gt_pose=gt,
        )


def dataset_from_dict(doc: dict) -> tuple[TemplateSpec, list[CalibrationView], dict]:
    with _reading("dataset", doc):
        tdoc = _get(doc, "template", dict)
        template = TemplateSpec(
            rows=_get(tdoc, "rows", int), cols=_get(tdoc, "cols", int),
            pitch_mm=_get(tdoc, "pitch_mm", float),
        )
        views = [_view_from_dict(i, vdoc) for i, vdoc in enumerate(_get(doc, "views", list))]
        meta = _get(doc, "meta", dict, {})
    if not views:
        raise FormatError("dataset: no views")
    if len({v.view_id for v in views}) < len(views):
        raise FormatError("dataset: view ids are not unique")
    return template, views, meta


def image_size_from_meta(meta: dict) -> tuple[int, int] | None:
    """A dataset's ``meta.image_size_px`` as (width, height), None if absent."""
    if meta.get("image_size_px") is None:
        return None
    with _reading("dataset meta"):
        return _get_size(meta, "image_size_px")


def _slots(index: np.ndarray) -> tuple[np.ndarray, int]:
    """Each grid index's slot along one axis, and the number of slots: used indices
    take slots in their order, and a gap between two used indices one empty slot."""
    order = np.argsort(index)
    slot = np.empty(len(index), int)
    slot[order] = np.r_[0, np.cumsum(np.minimum(np.diff(index[order]), 2))]  # 0 for a repeat
    return slot, slot.max() + 1


def parallel_views_from_dataset(
    template: TemplateSpec, views, meta: dict
) -> list[ParallelView]:
    """Rebuild grid-structured views from a fronto-parallel stack dataset.

    Grid indices are recovered from the world coordinates, which are exact
    multiples of the template pitch; absent grid positions become NaN. Each
    view's grid holds only the rows and columns its own points use, with one
    empty row or column where used ones are not adjacent, so points are grid
    neighbours exactly when they are template neighbours, and no grid is
    sized by the declared template or by another view.
    """
    size = image_size_from_meta(meta)
    if size is None:
        raise FormatError("dataset meta lacks image_size_px; cannot place the window")
    out = []
    for view in views:
        index = view.world[:, :2] / template.pitch_mm  # (column, row) of each point
        nearest = np.rint(index)
        if np.any(np.abs(index - nearest) > 1e-9):
            raise FormatError(f"view {view.view_id}: points do not lie on the template grid")
        last_col, last_row = nearest.max(axis=0).tolist()  # floats that compare with any int
        if np.any(nearest < 0) or last_col >= template.cols or last_row >= template.rows:
            raise FormatError(f"view {view.view_id}: grid index out of range")
        (cols, n_cols), (rows, n_rows) = map(_slots, nearest.T)
        grid = np.full((n_rows, n_cols, 2), np.nan)
        grid[rows, cols] = view.image
        out.append(ParallelView(grid, view.distance_mm, template.pitch_mm, size))
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
    if not isinstance(doc["shared"], bool):
        raise ValueError("intrinsics: shared must be true or false")
    return IntrinsicSet(
        u0=_get(doc, "u0_px", float),
        v0=_get(doc, "v0_px", float),
        gamma=_get(doc, "gamma", float),
        scales=tuple((_get(s, "alpha_px", float), _get(s, "beta_px", float))
                     for s in _get(doc, "scales", list)),
        shared=doc["shared"],
    )


# The stats fields in order, each with its kind; asdict writes them under these keys.
_POOLED_STATS = ("mean_px", "median_px", "std_px", "rms_px", "mean_abs_px")
_PER_VIEW_STATS = (("view_id", str), ("mean_abs_px", float), ("rms_px", float),
                   ("n_points", int))


def _stats_from_dict(doc: dict) -> ReprojectionStats:
    per_view = tuple(PerViewStats(*(_get(pv, key, kind) for key, kind in _PER_VIEW_STATS))
                     for pv in _get(doc, "per_view", list))
    return ReprojectionStats(*(_get(doc, key, float) for key in _POOLED_STATS), per_view)


def _solution_to_dict(sol: Solution, view_ids) -> dict:
    return {
        "intrinsics": _intrinsics_to_dict(sol.intrinsics),
        "distortion": asdict(sol.distortion),  # renaming a field changes the format
        "poses": [
            {"view_id": view_id, **_pose_to_dict(pose)}
            for view_id, pose in zip(view_ids, sol.poses)
        ],
        "stats": asdict(sol.stats),  # renaming a stats field changes the format
    }


def _solution_from_dict(doc: dict) -> tuple[Solution, tuple[str, ...]]:
    pose_docs = _get(doc, "poses", list)
    poses = tuple(map(_pose_from_dict, pose_docs))
    view_ids = tuple(_get(p, "view_id", str) for p in pose_docs)
    intr = _intrinsics_from_dict(_get(doc, "intrinsics", dict))
    need = 1 if intr.shared else len(poses)
    if len(intr.scales) != need:
        raise ValueError(f"intrinsics: {len(intr.scales)} scale pairs where "
                         f"{'shared' if intr.shared else 'per-view'} scales need {need}")
    if not all(0 < s for pair in intr.scales for s in pair):
        raise ValueError("intrinsics: scale factors must be positive")
    dist = _get(doc, "distortion", dict)
    return (
        Solution(
            intrinsics=intr,
            poses=poses,
            distortion=Distortion(_get(dist, "k1", float), _get(dist, "k2", float)),
            stats=_stats_from_dict(_get(doc, "stats", dict)),
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
    with _reading("calibration", doc):
        refined, view_ids = _solution_from_dict(doc)
        algebraic, _ = _solution_from_dict(_get(doc, "algebraic", dict))
        result = CalibrationResult(
            method=_get(doc, "method", str),
            view_ids=view_ids,
            algebraic=algebraic,
            refined=refined,
            iterations=_get(doc, "iterations", int),
            termination=_get(doc, "termination", str),
        )
        if doc["converged"] is not result.converged:
            raise ValueError(f"converged must be {json.dumps(result.converged)} "
                             f"when termination is {result.termination!r}")
        return result


# CSV tables


def _csv(header: str, *columns) -> str:
    """One row per index of the columns; strings as they are, numbers canonical."""
    rows = (
        ",".join(v if isinstance(v, str) else _format_float(float(v)) for v in row)
        for row in zip(*columns)
    )
    return "\n".join([header, *rows]) + "\n"


_SCALE_TABLE_HEADER = "distance_mm,alpha_px,beta_px"


def scale_table_to_csv(table: ScaleTable) -> str:
    return _csv(_SCALE_TABLE_HEADER, table.distances, table.alpha, table.beta)


def scale_table_from_csv(text: str) -> ScaleTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _SCALE_TABLE_HEADER:
        raise FormatError("scale table: missing or wrong header row")
    if len(lines) == 1:
        raise FormatError("scale table: no data rows")
    with _reading("scale table"):  # unpacking rejects rows without three values
        arr = np.array(
            [[float(d), float(a), float(b)] for d, a, b in (ln.split(",") for ln in lines[1:])]
        )
    if not np.all(np.isfinite(arr)):
        raise FormatError("scale table: values must be finite")
    if np.any(arr <= 0):
        raise FormatError("scale table: distances and scale factors must be positive")
    return ScaleTable(arr[:, 0], arr[:, 1], arr[:, 2])


def segmentation_to_dict(seg: ZoneSegmentation) -> dict:
    return {"schema": SCHEMA_VERSION, **asdict(seg)}  # renaming a field changes the format


def curve_fits_to_dict(alpha_fit: CurveFit, beta_fit: CurveFit) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "alpha_fit": asdict(alpha_fit),  # renaming a CurveFit field changes the format
        "beta_fit": asdict(beta_fit),
    }


def curve_fits_from_dict(doc: dict) -> tuple[CurveFit, CurveFit]:
    with _reading("curve fits", doc):
        fits = _get(doc, "alpha_fit", dict), _get(doc, "beta_fit", dict)
        return tuple(CurveFit(_get(fit, "k_f", float), _get(fit, "value0", float)) for fit in fits)


def bias_to_csv(report: BiasReport) -> str:
    return _csv(
        "view_id,dx_mm,dy_mm,dz_mm,rot_err_rad",
        report.view_ids, *np.transpose(report.translation_errors_mm), report.rotation_errors_rad,
    )


def focal_curve_to_csv(distances, focals) -> str:
    return _csv("distance_mm,focal_mm", distances, focals)
