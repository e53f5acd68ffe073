"""Spans around calls into focuscal's modules, and the per-layer metrics.

The wrappers live only here. ``install`` replaces each traced function on
every focuscal module that binds it, so a call is timed however its caller
looks it up, and ``uninstall`` puts the originals back. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, home module, attribute). The span name's first part is the layer.
TRACED = [
    ("synth.generate_dataset", "focuscal.synth", "generate_dataset"),
    ("synth.generate_parallel_stack", "focuscal.synth", "generate_parallel_stack"),
    ("homography.estimate_homography", "focuscal.homography", "estimate_homography"),
    ("calibrate.calibrate_baseline", "focuscal.calibrate", "calibrate_baseline"),
    ("calibrate.calibrate_proposed", "focuscal.calibrate", "calibrate_proposed"),
    ("calibrate.intrinsics_from_homographies", "focuscal.calibrate",
     "intrinsics_from_homographies"),
    ("calibrate.extrinsics_from_homography", "focuscal.calibrate",
     "extrinsics_from_homography"),
    ("calibrate.stats", "focuscal.calibrate", "solution_residuals"),
    ("calibrate.stats", "focuscal.calibrate", "_stats_from_residuals"),
    ("solver.levenberg_marquardt", "focuscal.solver", "levenberg_marquardt"),
    ("_parallel.map_ordered", "focuscal._parallel", "map_ordered"),
    ("scale.scale_factors", "focuscal.scale", "scale_factors"),
    ("scale.suggest_noise_band", "focuscal.scale", "suggest_noise_band"),
    ("scale.segment_zones", "focuscal.scale", "segment_zones"),
    ("lens.fit_focal_curve", "focuscal.lens", "fit_focal_curve"),
    ("lens.focal_sweep", "focuscal.lens", "focal_sweep"),
    ("io.canonical_dumps", "focuscal.io", "canonical_dumps"),
    ("io.atomic_write_text", "focuscal.io", "atomic_write_text"),
    ("io.dataset_from_dict", "focuscal.io", "dataset_from_dict"),
    ("io.calibration_to_dict", "focuscal.io", "calibration_to_dict"),
    ("io.calibration_from_dict", "focuscal.io", "calibration_from_dict"),
    ("io.scale_table_from_csv", "focuscal.io", "scale_table_from_csv"),
]
TRACED_METHODS = [
    ("calibrate.residual", "focuscal.calibrate", "_Problem", "residual"),
    ("calibrate.jacobian", "focuscal.calibrate", "_Problem", "jacobian"),
]


@dataclass
class Span:
    name: str
    parent: int | None
    request: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store; ``request`` names the calibration or pass underway."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = self.spans[parent].request if parent is not None else self.request
        span = Span(name, parent, request, attrs=attrs)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def adopt(self, index: int):
        """Make span ``index`` the parent of spans opened in this thread."""
        stack = self._stack()
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()

    def current(self) -> int:
        return self._stack()[-1]

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, out)
                return out

        return traced

    def wrap_map(self, fn):
        """``map_ordered`` wrapper that also times each item in its own thread."""

        @functools.wraps(fn)
        def traced(item_fn, items):
            with self.span("_parallel.map_ordered"):
                owner = self.current()

                def item(arg):
                    with self.adopt(owner), self.span("_parallel.item"):
                        return item_fn(arg)

                return fn(item, items)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "request": s.request,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }, sort_keys=True) + "\n")


def _after_jacobian(span, args, out):
    span.attrs["rows"], span.attrs["params"] = (int(n) for n in out.shape)


def _after_lm(span, args, out):
    span.attrs.update(iterations=out.iterations, accepted=out.accepted,
                      termination=out.termination, params=int(len(out.params)))


def _after_table(span, args, out):
    span.attrs["rows"] = len(out)


def _after_write(span, args, out):
    span.attrs["bytes"] = len(args[1].encode("utf-8"))


_AFTER = {
    "calibrate.jacobian": _after_jacobian,
    "solver.levenberg_marquardt": _after_lm,
    "scale.scale_factors": _after_table,
    "io.atomic_write_text": _after_write,
}


def install(tracer: Tracer):
    """Wrap every traced function where focuscal modules bind it; returns an undo."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "focuscal" or n.startswith("focuscal."))]
    for name, home, attr in TRACED:
        original = getattr(sys.modules[home], attr)
        wrapper = (tracer.wrap_map(original) if name == "_parallel.map_ordered"
                   else tracer.wrap(name, original))
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
    for name, home, cls_name, attr in TRACED_METHODS:
        cls = getattr(sys.modules[home], cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original))
        undo.append((cls, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# per-layer metrics


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class SpanIndex:
    """Per-request and parent/child views over a tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(i)

    def named(self, name: str):
        return [s for s in self.spans if s.name == name]

    def self_ms(self, index: int) -> float:
        """Span duration minus the union of its children's intervals."""
        s = self.spans[index]
        kids = [(self.spans[k].start, self.spans[k].end)
                for k in self.children.get(index, [])]
        return 1e3 * ((s.end - s.start) - union_length(kids))

    def busy_ms(self, name: str) -> float:
        """Median over requests of the wall time the named spans cover."""
        per_request: dict[str, list] = {}
        for s in self.named(name):
            per_request.setdefault(s.request, []).append((s.start, s.end))
        return _median(1e3 * union_length(v) for v in per_request.values())

    def calls(self, name: str) -> float:
        per_request: dict[str, int] = {}
        for s in self.named(name):
            per_request[s.request] = per_request.get(s.request, 0) + 1
        return _median(per_request.values())

    def attr_sum(self, name: str, key: str) -> float:
        """Median over requests of the sum of a span attribute."""
        per_request: dict[str, float] = {}
        for s in self.named(name):
            per_request[s.request] = per_request.get(s.request, 0) + s.attrs.get(key, 0)
        return _median(per_request.values())


def layer_metrics(spans, first_group: str) -> dict:
    """Per-layer metrics; LM counts come from the requests of ``first_group``."""
    ix = SpanIndex(spans)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("synth.generate_dataset.ms", ix.busy_ms("synth.generate_dataset"), "ms")
    put("synth.generate_parallel_stack.ms", ix.busy_ms("synth.generate_parallel_stack"), "ms")

    homs = ix.named("homography.estimate_homography")
    put("homography.estimate_homography.calls", ix.calls("homography.estimate_homography"),
        "count")
    put("homography.estimate_homography.p50_ms",
        _median(1e3 * (s.end - s.start) for s in homs), "ms")
    put("homography.estimate_homography.busy_ms",
        ix.busy_ms("homography.estimate_homography"), "ms")

    put("calibrate.intrinsics_from_homographies.ms",
        ix.busy_ms("calibrate.intrinsics_from_homographies"), "ms")
    put("calibrate.extrinsics_from_homography.busy_ms",
        ix.busy_ms("calibrate.extrinsics_from_homography"), "ms")
    for part in ("residual", "jacobian"):
        put(f"calibrate.{part}.calls", ix.calls(f"calibrate.{part}"), "count")
        put(f"calibrate.{part}.busy_ms", ix.busy_ms(f"calibrate.{part}"), "ms")
    jacs = ix.named("calibrate.jacobian")
    put("calibrate.jacobian.computed_mb",
        _median(8e-6 * s.attrs["rows"] * s.attrs["params"] for s in jacs), "MB")
    put("calibrate.stats.busy_ms", ix.busy_ms("calibrate.stats"), "ms")
    calib = [i for i, s in enumerate(spans)
             if s.name in ("calibrate.calibrate_baseline", "calibrate.calibrate_proposed")]
    put("calibrate.self_ms", _median(ix.self_ms(i) for i in calib), "ms")

    lm = [i for i, s in enumerate(spans) if s.name == "solver.levenberg_marquardt"]
    put("solver.levenberg_marquardt.busy_ms", ix.busy_ms("solver.levenberg_marquardt"), "ms")
    put("solver.self_ms", _median(ix.self_ms(i) for i in lm), "ms")
    first = [r for r in lm_runs(spans) if _group(r["request"]) == first_group]
    iterations = sum(r["iterations"] for r in first)
    put("solver.iterations", iterations, "count")
    put("solver.accepted_ratio",
        sum(r["accepted"] for r in first) / iterations if iterations else 0.0, "1")
    put("solver.normal_computed_gflop",
        sum(r["normal_gflop_computed"] for r in first), "GFLOP")

    for fn in ("scale_factors", "suggest_noise_band", "segment_zones"):
        put(f"scale.{fn}.ms", ix.busy_ms(f"scale.{fn}"), "ms")
    put("scale.table_rows", ix.attr_sum("scale.scale_factors", "rows"), "count")
    for fn in ("fit_focal_curve", "focal_sweep"):
        put(f"lens.{fn}.ms", ix.busy_ms(f"lens.{fn}"), "ms")

    put("io.canonical_dumps.ms", ix.busy_ms("io.canonical_dumps"), "ms")
    put("io.bytes_written", ix.attr_sum("io.atomic_write_text", "bytes"), "bytes")
    for fn in ("dataset_from_dict", "calibration_to_dict", "calibration_from_dict",
               "scale_table_from_csv"):
        put(f"io.{fn}.ms", ix.busy_ms(f"io.{fn}"), "ms")

    for command in ("simulate", "scale-factors", "calibrate", "report", "lens-curve"):
        put(f"cli.{command}.ms", ix.busy_ms(f"cli.{command}"), "ms")

    maps = ix.named("_parallel.map_ordered")
    items = ix.named("_parallel.item")
    put("parallel.map_ordered.ms", ix.busy_ms("_parallel.map_ordered"), "ms")
    map_wall = sum(s.end - s.start for s in maps)
    put("parallel.overlap",
        sum(s.end - s.start for s in items) / map_wall if map_wall else 0.0, "1")
    return m


def _group(request: str) -> str:
    """Loop iteration a request belongs to: ``3/baseline`` -> ``3``."""
    return request.split("/", 1)[0]


def lm_runs(spans) -> list[dict]:
    """Each LM run's wall time beside its computed kernel counts."""
    ix = SpanIndex(spans)
    runs = []
    for i, s in enumerate(spans):
        if s.name != "solver.levenberg_marquardt" or "iterations" not in s.attrs:
            continue
        jacs = [spans[k] for k in ix.children.get(i, []) if spans[k].name == "calibrate.jacobian"]
        rows = jacs[0].attrs["rows"] if jacs else 0
        params = s.attrs["params"]
        runs.append({
            "request": s.request,
            "ms": 1e3 * (s.end - s.start),
            "self_ms": ix.self_ms(i),
            "iterations": s.attrs["iterations"],
            "accepted": s.attrs["accepted"],
            "termination": s.attrs["termination"],
            "jacobians": len(jacs),
            "rows": rows,
            "params": params,
            "jacobian_mb_computed": 8e-6 * rows * params,
            "normal_gflop_computed": (2.0 * rows * params**2 * len(jacs)
                                      + s.attrs["iterations"] * params**3 / 3.0) / 1e9,
        })
    return runs
