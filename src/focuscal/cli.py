"""Command-line front end.

Subcommands: ``simulate`` (synthetic datasets), ``scale-factors`` (scale
table, zone segmentation, optional curve fit), ``calibrate`` (baseline or
frozen-scale method), ``report`` (bias and reprojection reports), and
``lens-curve`` (focus-model sweeps). Exit codes: 0 success, 1 runtime or
numeric failure, 2 usage error. ``--json-errors`` switches stderr to one
structured JSON object per failure.

Each ``cmd_*`` returns its outputs (path to text, in write order), its
summary and the failure it ends with, or None; ``main`` writes the outputs,
then raises the failure or prints the summary. So a failed command writes
nothing, unless its failure keeps outputs on purpose: ``calibrate`` keeps a
calibration that ran out of iterations, and ``scale-factors`` the table when
no plateau is found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import calibrate_baseline, calibrate_proposed
from .errors import (
    SCHEMA_VERSION,
    FocusCalError,
    FormatError,
    NonConvergence,
    NoPlateauFound,
    _get,
    _parse_json,
    _reading,
)
from .io import (
    atomic_write_text,
    bias_to_csv,
    calibration_from_dict,
    calibration_to_dict,
    canonical_dumps,
    curve_fits_from_dict,
    curve_fits_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    focal_curve_to_csv,
    image_size_from_meta,
    parallel_views_from_dataset,
    scale_table_from_csv,
    scale_table_to_csv,
    segmentation_to_dict,
    sha256_hex,
)
from .lens import LensSpec, fit_focal_curve, focal_sweep
from .scale import DEFAULT_WINDOW_FRACTION, scale_factors, segment_zones, suggest_noise_band
from .synth import (
    FOCUS_FIXED,
    FOCUS_VARYING,
    CameraPreset,
    TemplateSpec,
    _preset_file,
    bias_report,
    generate_dataset,
    parallel_stack_dataset,
)

_MODES = {
    "fixed": FOCUS_FIXED,
    "fixed_plateau": FOCUS_FIXED,
    "varying": FOCUS_VARYING,
    "distance_dependent": FOCUS_VARYING,
}


class UsageError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


def _parse_range(text: str, name: str, parts: int) -> list[float]:
    pieces = text.split(":")
    if len(pieces) != parts:
        raise UsageError(f"{name} must have {parts} colon-separated numbers")
    try:
        return [float(p) for p in pieces]
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from exc


def _resolve_preset(name_or_path: str):
    try:
        path = _preset_file(name_or_path)
    except FormatError as exc:  # an unknown name
        raise UsageError(str(exc)) from exc
    return CameraPreset.from_dict(_load_json(path, "preset"))


def _read_text(path: str, what: str) -> str:
    """Every input file is read here: unreadable is a usage error, not UTF-8 a
    format error. Decoding is strict and keeps line endings, so the text's
    UTF-8 encoding is the file's bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc.strerror or exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what}: not UTF-8 text ({exc})") from exc


def _load_json(path: str, what: str) -> dict:
    return _parse_json(_read_text(path, what), what)


def cmd_simulate(args) -> tuple:
    preset = _resolve_preset(args.preset)
    template = TemplateSpec(rows=args.rows, cols=args.cols, pitch_mm=args.pitch)
    mode = _MODES[args.mode]
    meta = {
        "preset": preset.name,
        "seed": args.seed,
        "noise_px": args.noise,
        "mode": mode,
        "image_size_px": list(preset.image_size),
    }
    if args.parallel_stack:
        start, stop, step = _parse_range(args.parallel_stack, "--parallel-stack", 3)
        if step <= 0 or stop < start:
            raise UsageError("--parallel-stack needs start <= stop and step > 0")
        distances = list(np.arange(start, stop + step / 2.0, step))
        views = parallel_stack_dataset(preset, template, distances, args.noise, args.seed)
        meta["kind"] = "stack"
    else:
        lo, hi = _parse_range(args.distance_range, "--distance-range", 2)
        if not 0 < lo <= hi:
            raise UsageError("--distance-range needs 0 < low <= high")
        if args.views < 1:
            raise UsageError("--views must be at least 1")
        distances = list(np.linspace(lo, hi, args.views))
        tilt_lo, tilt_hi = _parse_range(args.tilt, "--tilt", 2)
        views = generate_dataset(
            preset, template, distances, mode, args.noise, args.seed,
            tilt_range_deg=(tilt_lo, tilt_hi),
        )
        meta["kind"] = "tilted"
    doc = dataset_to_dict(template, views, meta)
    total = sum(len(v) for v in views)
    message = f"simulate: {len(views)} views, {total} points, mode={mode} -> {args.out}"
    return {args.out: canonical_dumps(doc)}, message, None


def cmd_scale_factors(args) -> tuple:
    if args.fit and not args.out_curve:
        raise UsageError("--fit requires --out-curve")
    if args.out_curve and not args.fit:
        raise UsageError("--out-curve requires --fit")
    template, views, meta = dataset_from_dict(_load_json(args.dataset, "dataset"))
    with _reading("dataset meta"):
        kind = _get(meta, "kind", str, "stack")
    if kind != "stack":
        raise UsageError(f"scale-factors needs a fronto-parallel stack dataset, got kind {kind!r}")
    parallel = parallel_views_from_dataset(template, views, meta)
    table = scale_factors(parallel, window_fraction=args.window)
    band = args.noise_band if args.noise_band is not None else suggest_noise_band(
        parallel, window_fraction=args.window
    )
    outputs = {args.out_table: scale_table_to_csv(table)}
    try:
        seg = segment_zones(table, band)
    except NoPlateauFound as exc:
        # the table is measured whatever the band: keep it for another try
        return outputs, "", exc
    outputs[args.out_zones] = canonical_dumps(segmentation_to_dict(seg))
    if args.fit:
        fits = (fit_focal_curve(table.distances, column) for column in (table.alpha, table.beta))
        outputs[args.out_curve] = canonical_dumps(curve_fits_to_dict(*fits))
    message = (
        f"scale-factors: {len(table)} rows, plateau alpha={seg.plateau_alpha_px:.6g} px, "
        f"zones [{seg.zone1_end_mm:.6g}, {seg.zone2_end_mm:.6g}] mm -> {args.out_table}"
    )
    return outputs, message, None


def cmd_calibrate(args) -> tuple:
    text = _read_text(args.dataset, "dataset")
    template, views, meta = dataset_from_dict(_parse_json(text, "dataset"))
    provenance = {
        "dataset_sha256": sha256_hex(text),  # of the file's bytes, see _read_text
        "tool_version": __version__,
        "options": {
            "method": args.method,
            "estimate_distortion": not args.no_distortion,
            "max_iterations": args.max_iterations,
            "scale_table": args.scale_table,
            "scale_curve": args.scale_curve,
        },
    }
    if args.method == "baseline":
        result = calibrate_baseline(
            views, max_iterations=args.max_iterations,
            estimate_distortion=not args.no_distortion,
        )
    else:
        if not args.scale_table and not args.scale_curve:
            raise UsageError("--method proposed requires --scale-table or --scale-curve")
        table = (
            scale_table_from_csv(_read_text(args.scale_table, "scale table"))
            if args.scale_table
            else None
        )
        curves = (
            curve_fits_from_dict(_load_json(args.scale_curve, "scale curve"))
            if args.scale_curve
            else None
        )
        result = calibrate_proposed(
            views,
            table,
            curves,
            max_iterations=args.max_iterations,
            image_size=image_size_from_meta(meta),
            estimate_distortion=not args.no_distortion,
        )
    stats = result.refined.stats
    message = (
        f"calibrate[{args.method}]: mean_abs={stats.mean_abs_px:.6g} px "
        f"rms={stats.rms_px:.6g} px converged={result.converged} -> {args.out}"
    )
    # a calibration that ran out of iterations is still written, so it can be inspected
    failure = None if result.converged else NonConvergence(
        f"no tolerance met within {args.max_iterations} iterations"
    )
    return {args.out: canonical_dumps(calibration_to_dict(result, provenance))}, message, failure


def _ordered_views(views, view_ids):
    by_id = {v.view_id: v for v in views}
    try:
        return [by_id[i] for i in view_ids]
    except KeyError as exc:
        raise FormatError(f"calibration references unknown view id {exc}") from exc


def cmd_report(args) -> tuple:
    if len(args.calib) > 2:
        raise UsageError("at most two calibration files can be compared")
    if len(args.calib) == 1 and (args.out_csv_b or args.out_compare):
        raise UsageError("--out-csv-b and --out-compare need a second --calib")
    _, views, _ = dataset_from_dict(_load_json(args.dataset, "dataset"))
    results = [calibration_from_dict(_load_json(p, "calibration")) for p in args.calib]
    # an error that overflows, or a rotation angle that does, leaves a mean that is not
    # finite, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        reports = [bias_report(r, _ordered_views(views, r.view_ids)) for r in results]
        means = [float(np.linalg.norm(r.translation_errors_mm, axis=1).mean()) for r in reports]
    for path_in, mean, report in zip(args.calib, means, reports):
        for name, value in (("translation", mean), ("rotation", report.mean_rotation_rad)):
            if not np.isfinite(value):
                raise FocusCalError(f"{path_in}: {name} errors against the ground truth overflow")
    out_paths = [args.out_csv]
    if len(results) == 2:
        second = args.out_csv_b or str(Path(args.out_csv).with_suffix("")) + "_b.csv"
        out_paths.append(second)
    outputs = {path: bias_to_csv(report) for path, report in zip(out_paths, reports)}
    lines = [
        f"{result.method:<9s} {path_in}: mean|dt|={mean:.4f} mm "
        f"mean dz={report.mean_mm[2]:+.4f} mm "
        f"rot={report.mean_rotation_rad:.2e} rad "
        f"reproj mean_abs={result.refined.stats.mean_abs_px:.4f} px"
        for path_in, result, report, mean in zip(args.calib, results, reports, means)
    ]
    if len(results) == 2:
        ratio = means[0] / means[1] if means[1] > 0 else float("inf")
        lines.append(f"translation error ratio (first/second): {ratio:.3f}")
        if args.out_compare:
            outputs[args.out_compare] = canonical_dumps({
                "schema": SCHEMA_VERSION,
                "mean_translation_error_mm": means,
                "translation_error_ratio": ratio,
            })
    return outputs, "\n".join(lines), None


def cmd_lens_curve(args) -> tuple:
    if args.preset:
        lens = _resolve_preset(args.preset).lens
    elif args.radius is not None and args.angle_ratio is not None:
        lens = LensSpec(args.radius, args.angle_ratio, args.axis_offset)
    else:
        raise UsageError("lens-curve needs --preset or --radius with --angle-ratio")
    if not 0 < args.from_mm <= args.to_mm or args.count < 2:
        raise UsageError("need 0 < --from <= --to and --count >= 2")
    if args.log:
        distances = np.geomspace(args.from_mm, args.to_mm, args.count)
    else:
        distances = np.linspace(args.from_mm, args.to_mm, args.count)
    focals = focal_sweep(lens, distances)
    message = f"lens-curve: {args.count} samples -> {args.out}"
    return {args.out: focal_curve_to_csv(distances, focals)}, message, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focuscal",
        description="Camera calibration with distance-dependent focal length.",
    )
    parser.add_argument("--version", action="version", version=f"focuscal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json-errors",
        action="store_true",
        help="emit structured error JSON on stderr",
    )

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--preset", required=True, help="bundled preset name or preset JSON path")
    p.add_argument("--out", required=True)
    p.add_argument("--views", type=int, default=15)
    p.add_argument("--mode", choices=sorted(_MODES), default="varying")
    p.add_argument("--noise", type=float, default=0.0, help="pixel noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=6)
    p.add_argument("--cols", type=int, default=9)
    p.add_argument("--pitch", type=float, default=25.0, help="template pitch in mm")
    p.add_argument("--distance-range", default="300:1200", help="lo:hi in mm")
    p.add_argument("--tilt", default="5:30", help="tilt range in degrees, lo:hi")
    p.add_argument(
        "--parallel-stack",
        help="start:stop:step distances in mm; fronto-parallel stack instead of tilted views",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "scale-factors", parents=[common],
        help="scale table, zone segmentation, optional curve fit",
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-table", required=True)
    p.add_argument("--out-zones", required=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--out-curve")
    p.add_argument("--noise-band", type=float)
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW_FRACTION,
                   help="central window fraction")
    p.set_defaults(func=cmd_scale_factors)

    p = sub.add_parser("calibrate", parents=[common], help="run a calibration pipeline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=["baseline", "proposed"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale-table")
    p.add_argument("--scale-curve")
    p.add_argument("--no-distortion", action="store_true")
    p.add_argument("--max-iterations", type=int, default=200)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", parents=[common], help="bias and reprojection report")
    p.add_argument("--dataset", required=True)
    p.add_argument(
        "--calib", action="append", required=True,
        help="calibration file; give twice for a paired comparison",
    )
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-csv-b", help="bias CSV path for the second calibration")
    p.add_argument("--out-compare", help="paired comparison JSON path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("lens-curve", parents=[common], help="dump a focus-model sweep")
    p.add_argument("--preset")
    p.add_argument("--radius", type=float, help="lens radius in mm")
    p.add_argument("--angle-ratio", type=float)
    p.add_argument("--axis-offset", type=float, default=1.0)
    p.add_argument("--from", dest="from_mm", type=float, required=True)
    p.add_argument("--to", dest="to_mm", type=float, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--log", action="store_true", help="log-spaced distances")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lens_curve)
    return parser


def _report_error(name: str, exc: Exception, json_errors: bool) -> None:
    if json_errors:
        payload = {"error": name, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"focuscal: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_errors = getattr(args, "json_errors", False)
    try:
        outputs, message, failure = args.func(args)
        for path, text in outputs.items():
            try:
                atomic_write_text(path, text)
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
        if failure is not None:
            raise failure
        print(message)
        return 0
    except (UsageError, ValueError) as exc:
        # The library rejects out-of-range argument values with ValueError;
        # input files are checked by their readers, which raise FormatError.
        _report_error("UsageError", exc, json_errors)
        return 2
    except FocusCalError as exc:
        _report_error(type(exc).__name__, exc, json_errors)
        return 1


if __name__ == "__main__":
    sys.exit(main())
