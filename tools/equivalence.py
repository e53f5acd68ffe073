"""Check that this checkout produces the same outputs as another commit.

    python tools/equivalence.py --against REF

REF is checked out with ``git worktree`` in a temporary directory. One fixed
corpus then runs at both trees, each with ``python -W error`` and only its
own ``src/`` on the path:

- the README command-line walkthrough at seeds 1, 42 and 73, plus, on each
  seed's files, ``calibrate --max-iterations 1`` for both methods (exit 1
  with a partial file), ``--no-distortion`` for both methods,
  ``--scale-curve``, and ``--scale-table`` with ``--scale-curve`` on views
  at 120-400 mm, where the views with no table row within 10% of their
  distance take the curve;
- ``scale-factors --fit`` on a 22-row stack (45:155:5 mm) that has no
  plateau in the suggested noise band (exit 1, table written) and on a
  221-row stack (45:155:0.5 mm);
- an eosens12cxp stack at 18:27:1 mm with 0.3 px noise, whose steep
  distortion near the image margin reaches the distortion inverse's root
  solve, and ``scale-factors --fit`` on it: its points use only rows 3-6
  and columns 4-9 of the template, so the stack reader trims its grids
  (exit 1, no plateau, table written);
- ``lens-curve`` from a lens given by ``--radius`` and ``--angle-ratio``, no
  preset, at 50 linearly spaced distances (20-500 mm), beside the
  walkthrough's log-spaced robotiq sweep;
- library calibrations, both methods, written as canonical calibration JSON,
  at the calib-s geometry (README quick start, seeds 0-5), the calib-m
  geometry (60 views x 192 points, seeds 1, 2 and 4, where seed 4's first
  view has 190 points, so two point-count groups at this size) and
  calib-s-cut, the calib-s geometry with one view cut to 4 points and one
  to 5 (seeds 0-1), so views of several point counts, and the 4-point DLT,
  are covered;
- every ``demos/*.py`` script of this checkout, each tree running its own copy.

Every output file, and each step's stdout, stderr and exit code, is kept.
Steps run in their own directory with relative paths, so the two trees see
the same arguments; the tree's own path is masked in stdout and stderr.

Items are compared byte for byte, with two exceptions for changes that move
only the last bits of a refinement. A calibration document (the command
line's ``base*.json`` and ``prop*.json``, the library's ``baseline.json``
and ``proposed.json``) whose bytes differ is ``near`` when alpha, beta, u0,
v0, gamma, k1 and k2 agree within 1e-9 relative; a ``compare.json`` is
``near`` when its translation errors and their ratio agree to 4 digits
(1e-4 relative). Prints ``same``, ``near`` or ``DIFF`` per item, then a
SHA-256 of this tree's sorted item table, and exits 1 when any item differs
beyond that. A calibration document that is ``near`` or ``DIFF`` has any
change of iterations or termination written out, and a ``DIFF`` one also
its largest relative change among alpha, beta, u0, v0, gamma, k1 and k2.
A stdout, stderr or CSV item that is ``DIFF`` has its first differing line
written out from both trees, each cut to 60 characters.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WALKTHROUGH = [
    "simulate --preset robotiq --views 15 --mode varying --noise 0.25 --seed {seed} "
    "--pitch 8 --distance-range 120:145 --out zone1.json",
    "simulate --preset robotiq --parallel-stack 45:175:5 --pitch 8 --rows 10 --cols 14 "
    "--noise 0 --seed {seed} --out stack.json",
    "scale-factors --dataset stack.json --out-table table.csv --out-zones zones.json "
    "--fit --out-curve curve.json",
    "calibrate --dataset zone1.json --method baseline --out base.json",
    "calibrate --dataset zone1.json --method proposed --scale-table table.csv --out prop.json",
    "report --dataset zone1.json --calib base.json --calib prop.json --out-csv bias.csv "
    "--out-compare compare.json",
    "lens-curve --preset robotiq --from 20 --to 5000 --count 200 --log --out focal_curve.csv",
    "calibrate --dataset zone1.json --method baseline --max-iterations 1 --out base_it1.json",
    "calibrate --dataset zone1.json --method proposed --scale-table table.csv "
    "--max-iterations 1 --out prop_it1.json",
    "calibrate --dataset zone1.json --method baseline --no-distortion --out base_nodist.json",
    "calibrate --dataset zone1.json --method proposed --scale-curve curve.json "
    "--out prop_curve.json",
    "calibrate --dataset zone1.json --method proposed --scale-table table.csv "
    "--no-distortion --out prop_nodist.json",
    "simulate --preset robotiq --views 15 --mode varying --noise 0.25 --seed {seed} "
    "--pitch 8 --distance-range 120:400 --out far.json",
    "calibrate --dataset far.json --method proposed --scale-table table.csv "
    "--scale-curve curve.json --out prop_far.json",
]
# The README's older 45:155:5 stack has no plateau in the suggested band:
# exit 1, with the scale table written.
SHORT_STACK = [
    "simulate --preset robotiq --parallel-stack 45:155:5 --pitch 8 --rows 10 --cols 14 "
    "--noise 0 --seed 73 --out stack.json",
    "scale-factors --dataset stack.json --out-table table.csv --out-zones zones.json "
    "--fit --out-curve curve.json",
]
DENSE_STACK = [
    "simulate --preset robotiq --parallel-stack 45:155:0.5 --pitch 8 --rows 10 --cols 14 "
    "--noise 0 --seed 73 --out dense.json",
    "scale-factors --dataset dense.json --out-table dense_table.csv "
    "--out-zones dense_zones.json --fit --out-curve dense_curve.json",
]
# Points of these views sit where the distortion's fixed point diverges, and
# fill only rows 3-6 and columns 4-9 of the template.
STEEP_STACK = [
    "simulate --preset eosens12cxp --rows 10 --cols 14 --pitch 8 --parallel-stack 18:27:1 "
    "--noise 0.3 --seed 5 --out steep.json",
    "scale-factors --dataset steep.json --out-table steep_table.csv --out-zones steep_zones.json "
    "--fit --out-curve steep_curve.json",
]
# The other lens-curve path: a lens from the arguments, linear spacing.
LINEAR_LENS = [
    "lens-curve --radius 5 --angle-ratio 0.8 --from 20 --to 500 --count 50 "
    "--out focal_linear.csv",
]
# Run as ``python -c LIBRARY GEOMETRY SEED``; uses only calls that every
# commit of the corpus's era has.
LIBRARY = """
import sys
import numpy as np
import focuscal as fc
from focuscal.io import calibration_to_dict, canonical_dumps

robotiq = fc.load_preset("robotiq")
stack = fc.generate_parallel_stack(
    robotiq, fc.TemplateSpec(10, 14, 8.0), np.arange(45.0, 155.0, 5.0), 0.0, seed=73
)
table = fc.scale_factors(stack)
geometry, seed = sys.argv[1], int(sys.argv[2])
if geometry.startswith("calib-s"):
    template, distances = fc.TemplateSpec(6, 9, 8.0), np.r_[50.0, np.linspace(130, 145, 14)]
else:
    template, distances = fc.TemplateSpec(12, 16, 3.0), np.linspace(80, 145, 60)
views = fc.generate_dataset(robotiq, template, distances, fc.FOCUS_VARYING,
                            noise_px=0.25, seed=seed)


# a view reduced to its four extreme template points, then the central one
def cut(view, count):
    w = view.world[:, :2]
    keep = [int(np.argmin(w.sum(1))), int(np.argmax(w.sum(1))),
            int(np.argmin(w[:, 0] - w[:, 1])), int(np.argmax(w[:, 0] - w[:, 1])),
            int(np.argmin(np.linalg.norm(w - w.mean(0), axis=1)))][:count]
    return fc.CalibrationView(view.view_id, view.distance_mm, view.world[keep],
                              view.image[keep], view.gt_pose)


if geometry == "calib-s-cut":
    views[3], views[7] = cut(views[3], 4), cut(views[7], 5)
results = {
    "baseline.json": fc.calibrate_baseline(views),
    "proposed.json": fc.calibrate_proposed(views, table, image_size=robotiq.image_size),
}
for name, result in results.items():
    with open(name, "w", encoding="utf-8", newline="\\n") as out:
        out.write(canonical_dumps(calibration_to_dict(result, {})))
"""


def corpus() -> dict[str, list[list[str]]]:
    """Case name -> its steps, each the arguments after ``python -W error``."""
    cases = {
        f"seed{seed}": [["-m", "focuscal", *step.format(seed=seed).split()]
                        for step in WALKTHROUGH]
        for seed in (1, 42, 73)
    }
    for case, steps in (("short-stack", SHORT_STACK), ("dense-stack", DENSE_STACK),
                        ("steep-stack", STEEP_STACK), ("linear-lens", LINEAR_LENS)):
        cases[case] = [["-m", "focuscal", *step.split()] for step in steps]
    for geometry, seeds in (("calib-s", range(6)), ("calib-m", (1, 2, 4)),
                            ("calib-s-cut", (0, 1))):
        for seed in seeds:
            cases[f"{geometry}-seed{seed}"] = [["-c", LIBRARY, geometry, str(seed)]]
    # a script path relative to the tree, which run_corpus resolves
    cases["demos"] = [[f"demos/{path.name}"] for path in sorted((ROOT / "demos").glob("*.py"))]
    return cases


def step_name(args: list[str]) -> str:
    """The name a step's items carry: the command, ``library`` or the script."""
    if args[0] == "-m":
        return args[2]
    return "library" if args[0] == "-c" else Path(args[0]).stem


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_corpus(tree: Path, work: Path) -> dict[str, bytes]:
    """Item -> its bytes, for the corpus run at ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    mask = str(tree).encode()
    items = {}
    for case, steps in corpus().items():
        cwd = work / case
        cwd.mkdir(parents=True)
        for i, args in enumerate(steps):
            command = args if args[0].startswith("-") else [str(tree / args[0]), *args[1:]]
            proc = subprocess.run([sys.executable, "-W", "error", *command], cwd=cwd, env=env,
                                  capture_output=True, timeout=600)
            label = f"{case}/step{i:02d}-{step_name(args)}"
            items[f"{label}.exit"] = str(proc.returncode).encode()
            items[f"{label}.stdout"] = proc.stdout.replace(mask, b"TREE")
            items[f"{label}.stderr"] = proc.stderr.replace(mask, b"TREE")
        for path in sorted(cwd.iterdir()):
            items[f"{case}/{path.name}"] = path.read_bytes()
    return items


def table_digest(items: dict[str, bytes]) -> str:
    return _digest("".join(f"{k} {_digest(v)}\n" for k, v in sorted(items.items())).encode())


CALIBRATION = re.compile(r"(base|prop)[^/]*\.json|baseline\.json|proposed\.json")
TEXT = re.compile(r".*\.(stdout|stderr|csv)")
# Characters of a differing line that a text item's note shows.
LINE_WIDTH = 60


def _relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _calibration_change(ref: dict, ours: dict) -> tuple[bool, str] | None:
    """Whether two calibrations agree, and the note their line carries; None
    when they are not calibrations of the same views by the same method."""
    def parameters(doc):
        intr, dist = doc["intrinsics"], doc["distortion"]
        values = [("u0", intr["u0_px"]), ("v0", intr["v0_px"]), ("gamma", intr["gamma"]),
                  ("k1", dist["k1"]), ("k2", dist["k2"])]
        values += [(key[:-3], s[key]) for s in intr["scales"] for key in ("alpha_px", "beta_px")]
        return (doc["schema"], doc["method"], intr["shared"],
                [p["view_id"] for p in doc["poses"]]), values

    (ref_kind, ref_values), (our_kind, our_values) = parameters(ref), parameters(ours)
    if ref_kind != our_kind or len(ref_values) != len(our_values):
        return None
    change, name = max((_relative(a, b), key) for (key, a), (_, b) in zip(ref_values, our_values))
    notes = [f"{key} {ref[key]} -> {ours[key]}"
             for key in ("iterations", "termination") if ref[key] != ours[key]]
    if change > 1e-9:
        notes.insert(0, f"{name} {change:.1e} relative")
    return change <= 1e-9, ", ".join(notes)


def _compare_change(ref: dict, ours: dict) -> tuple[bool, str] | None:
    values = [(ref["translation_error_ratio"], ours["translation_error_ratio"]),
              *zip(ref["mean_translation_error_mm"], ours["mean_translation_error_mm"])]
    if ref["schema"] != ours["schema"] or len(values) != 3:
        return None
    return all(_relative(a, b) <= 1e-4 for a, b in values), ""


def _line_change(ref: bytes, ours: bytes) -> str:
    """The first line at which two texts differ, as each tree has it."""
    texts = [text.splitlines(keepends=True) for text in (ref, ours)]
    # split as bytes, so texts that differ always differ in some line
    i = next(i for i in itertools.count() if texts[0][i : i + 1] != texts[1][i : i + 1])

    def shown(lines):
        if i >= len(lines):
            return "(none)"
        line = lines[i].decode(errors="replace").rstrip("\n")
        return repr(line if len(line) <= LINE_WIDTH else line[: LINE_WIDTH - 3] + "...")

    return f"line {i + 1}: {shown(texts[0])} -> {shown(texts[1])}"


def compare(item: str, ref: bytes | None, ours: bytes | None) -> str:
    """``same``, ``near`` or ``DIFF`` and the item, as the report prints it."""
    if ref == ours:
        return f"same {item}"
    name = item.rsplit("/", 1)[-1]
    if TEXT.fullmatch(name) and ref is not None and ours is not None:
        return f"DIFF {item} ({_line_change(ref, ours)})"
    check = (_calibration_change if CALIBRATION.fullmatch(name)
             else _compare_change if name == "compare.json" else None)
    near, note = False, ""
    if check and ref is not None and ours is not None:
        try:
            near, note = check(json.loads(ref), json.loads(ours)) or (False, "")
        except (ValueError, KeyError, TypeError):
            pass
    word = "near" if near else "DIFF"
    return f"{word} {item} ({note})" if note else f"{word} {item}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REF",
                        help="git commit to compare this checkout with")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                          f"{args.against}^{{commit}}"], capture_output=True, text=True)
    if rev.returncode != 0:
        print(f"equivalence: {args.against!r} is not a commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="focuscal-equivalence-") as tmp:
        ref_tree = Path(tmp) / "ref"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(ref_tree), rev.stdout.strip()], check=True)
        try:
            ref = run_corpus(ref_tree, Path(tmp) / "ref-run")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(ref_tree)], check=True)
        ours = run_corpus(ROOT, Path(tmp) / "this-run")
    lines = [compare(item, ref.get(item), ours.get(item))
             for item in sorted(ref.keys() | ours.keys())]
    print("\n".join(lines))
    print(f"table {table_digest(ours)}")
    near, differ = (sum(line.startswith(word) for line in lines) for word in ("near", "DIFF"))
    print(f"{len(lines)} items, {near} near, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
