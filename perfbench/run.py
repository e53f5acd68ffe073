"""focuscal benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload calib-m --seed 1 --seconds 30 --trace 0

Workloads are ``calib-m``, ``calib-s`` and ``cli-pipeline`` (NOTES.md says
why each exists). ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones. The human-readable report comes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Full results, and the spans of a traced run, are written
under ``.perfbench_out/``. The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("calib-m", "calib-s", "cli-pipeline")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "FOCUSCAL_THREADS": os.environ.get("FOCUSCAL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _timed_child(command) -> float:
    """Wall seconds of one child process, from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr}")
    return seconds


def setup_seconds(args) -> list[float]:
    """Process start, import, inputs and one warm-up calibration, in fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    return [_timed_child(command) for _ in range(SETUP_PROBES)]


def import_ms() -> float:
    command = [sys.executable, "-c", "import focuscal"]
    return 1e3 * median(_timed_child(command) for _ in range(IMPORT_PROBES))


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# untraced run: end-to-end metrics


def _pair_ms(records) -> list[float]:
    pairs: dict[int, float] = {}
    for r in records:
        pairs[r["pair"]] = pairs.get(r["pair"], 0.0) + r["ms"]
    return list(pairs.values())


def calib_end_to_end(records: list, tally) -> tuple[dict, dict]:
    ok = [r for r in records if "error" not in r]
    base = [r["ms"] for r in ok if r["method"] == "baseline"]
    prop = [r["ms"] for r in ok if r["method"] == "proposed"]
    pairs = _pair_ms(records)
    pair_s = median(pairs) / 1e3
    metrics = {
        "baseline_p50_ms": metric(median(base), "ms"),
        "proposed_p50_ms": metric(median(prop), "ms"),
        # Per median pair: a mean follows a few slow pairs.
        "calibrations_per_s": metric(len(ok) / len(pairs) / pair_s, "1/s"),
        "pipeline_p50_s": metric(pair_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    ratios = [r["translation_error_ratio"] for r in records if "translation_error_ratio" in r]
    extra = {
        "failed_ratio": metric(tally.failed / tally.attempted, "1"),
        "translation_error_ratio": metric(median(ratios), "1"),
        "baseline_calls": metric(len(base), "count"),
        "proposed_calls": metric(len(prop), "count"),
    }
    # A p90 needs at least ten samples beyond it.
    for name, values in (("baseline_p90_ms", base), ("proposed_p90_ms", prop)):
        if len(values) >= 100:
            extra[name] = metric(statistics.quantiles(values, n=10)[-1], "ms")
    return metrics, extra


def cli_end_to_end(passes: list, tally) -> tuple[dict, dict]:
    from workloads import BASELINE_STEP, PROPOSED_STEP

    calibrations = sum(p["steps"][i]["ok"] for p in passes
                       for i in (BASELINE_STEP, PROPOSED_STEP))
    pass_s = median(p["s"] for p in passes)
    metrics = {
        "baseline_p50_ms": metric(
            1e3 * median(p["steps"][BASELINE_STEP]["s"] for p in passes), "ms"),
        "proposed_p50_ms": metric(
            1e3 * median(p["steps"][PROPOSED_STEP]["s"] for p in passes), "ms"),
        # Per median pass, as for calib-*.
        "calibrations_per_s": metric(calibrations / len(passes) / pass_s, "1/s"),
        "pipeline_p50_s": metric(pass_s, "s"),
        "peak_rss_mb": metric(
            max(s["max_rss_mb"] for p in passes for s in p["steps"]), "MB"),
    }
    ratios = [p["translation_error_ratio"] for p in passes
              if p["translation_error_ratio"] is not None]
    extra = {
        "failed_ratio": metric(tally.failed / tally.attempted, "1"),
        "translation_error_ratio": metric(median(ratios), "1"),
        "passes": metric(len(passes), "count"),
    }
    return metrics, extra


def measure(args, wl, tally) -> tuple[dict, dict, list]:
    setups = setup_seconds(args)
    wl.setup()
    records = wl.run(args.seconds, tally)
    summarize = cli_end_to_end if args.workload == "cli-pipeline" else calib_end_to_end
    metrics, extra = summarize(records, tally)
    metrics = {"setup_s": metric(median(setups), "s"), **metrics}
    extra["setup_samples_s"] = setups
    return metrics, extra, records


# traced run: per-layer metrics


def trace(args, wl, tally) -> tuple[dict, dict, list, object]:
    import tracing

    tracer = tracing.Tracer()
    start = time.perf_counter()
    uninstall = tracing.install(tracer)
    try:
        wl.build_inputs()
    finally:
        uninstall()
    wl.warm_up()
    imported = import_ms()
    extra = {}
    if args.workload == "cli-pipeline":
        first = wl.run_pass(0, tally)
        half = max(args.seconds - (time.perf_counter() - start), 0.0) / 2.0
        plain = wl.run(half, tally, inprocess=True)
        uninstall = tracing.install(tracer)
        try:
            traced = wl.run(half, tally, inprocess=True, tracer=tracer)
        finally:
            uninstall()
        plain_ms = 1e3 * median(p["s"] for p in plain)
        traced_ms = 1e3 * median(p["s"] for p in traced)
        start_ms = 1e3 * first["s"] - plain_ms
        records = [first] + plain + traced
    else:
        half = max(args.seconds - (time.perf_counter() - start), 0.0) / 2.0
        plain_records = wl.run(half, tally)
        uninstall = tracing.install(tracer)
        try:
            traced_records = wl.run(half, tally, tracer=tracer)
        finally:
            uninstall()
        plain_ms = median(_pair_ms(plain_records))
        traced_ms = median(_pair_ms(traced_records))
        start_ms = 0.0
        records = plain_records + traced_records
    metrics = tracing.layer_metrics(tracer.spans, first_group="0")
    metrics["cli.import_ms"] = metric(imported, "ms")
    metrics["cli.process_start_ms"] = metric(start_ms, "ms")
    metrics["trace.overhead_ms"] = metric(traced_ms - plain_ms, "ms")
    metrics["trace.overhead_ratio"] = metric((traced_ms - plain_ms) / plain_ms, "1")
    extra["untraced_request_ms"] = plain_ms
    extra["traced_request_ms"] = traced_ms
    extra["lm_runs"] = tracing.lm_runs(tracer.spans)
    return metrics, extra, records, tracer


def report(args, env, metrics, extra, tally) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, m in list(metrics.items()) + [
        (k, v) for k, v in extra.items() if isinstance(v, dict) and "unit" in v
    ]:
        print(f"  {name:<48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"output checks {'passed' if tally.correct else 'FAILED'}")
    for note in tally.notes[:10]:
        print(f"    failure: {note.strip().splitlines()[-1]}")
    for run in extra.get("lm_runs", []):
        if run["request"].split("/")[0] == "0":
            print("  LM run {request}: {ms:.1f} ms, {iterations} iterations "
                  "({accepted} accepted), {jacobians} Jacobians of {rows}x{params} = "
                  "{jacobian_mb_computed:.2f} MB, normal equations "
                  "{normal_gflop_computed:.3f} GFLOP (computed)".format(**run))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "focuscal" / "__init__.py").is_file():
        print(f"perfbench: no focuscal sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = OUT / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, ROOT, work)
    if args.setup_probe:
        wl.setup()
        return 0
    tally = workloads.Tally()
    env = environment()
    tracer = None
    try:
        if args.trace:
            metrics, extra, records, tracer = trace(args, wl, tally)
        else:
            metrics, extra, records = measure(args, wl, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    with open(f"{stem}.json", "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "metrics": metrics,
                   "extra": extra, "failures": tally.notes, "records": records},
                  handle, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(f"{stem}.spans.jsonl")
    report(args, env, metrics, extra, tally)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
