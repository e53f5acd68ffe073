"""The comparison ``tools/equivalence.py`` makes between two trees' outputs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from focuscal.calibrate import calibrate_baseline
from focuscal.io import calibration_to_dict, canonical_dumps
from focuscal.synth import FOCUS_FIXED, TemplateSpec, generate_dataset, load_preset

_spec = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parents[1] / "tools" / "equivalence.py")
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


@pytest.fixture(scope="module")
def calibration() -> bytes:
    views = generate_dataset(load_preset("robotiq"), TemplateSpec(4, 5, 20.0),
                             [300.0, 420.0, 540.0, 660.0], FOCUS_FIXED, 0.3, 5)
    return canonical_dumps(calibration_to_dict(calibrate_baseline(views), {})).encode()


def with_alpha(doc: bytes, factor: float, **changes) -> bytes:
    """The document with alpha scaled, at full precision (canonical JSON keeps 12 digits)."""
    parsed = json.loads(doc)
    parsed["intrinsics"]["scales"][0]["alpha_px"] *= factor
    parsed.update(changes)
    return json.dumps(parsed, sort_keys=True).encode()


@pytest.mark.parametrize("item", ["seed1/base.json", "seed1/prop_it1.json",
                                  "calib-m-seed1/baseline.json", "calib-s-seed0/proposed.json"])
def test_calibration_documents(calibration, item):
    assert equivalence.compare(item, calibration, calibration) == f"same {item}"
    nearby = with_alpha(calibration, 1.0 + 1e-12)
    assert nearby != calibration
    assert equivalence.compare(item, calibration, nearby) == f"near {item}"
    assert equivalence.compare(item, calibration, with_alpha(calibration, 1.0 + 1e-6)) == (
        f"DIFF {item} (alpha 1.0e-06 relative)")


def test_near_writes_out_iterations_and_termination(calibration):
    doc = json.loads(calibration)
    moved = with_alpha(calibration, 1.0 - 1e-12, iterations=doc["iterations"] + 1,
                       termination="max_iterations")
    assert equivalence.compare("seed1/base.json", calibration, moved) == (
        f"near seed1/base.json (iterations {doc['iterations']} -> {doc['iterations'] + 1}, "
        f"termination {doc['termination']} -> max_iterations)")


def test_diff_writes_out_the_largest_change(calibration):
    doc = json.loads(calibration)
    doc["distortion"]["k2"] *= 1.0 - 4e-6
    moved = with_alpha(json.dumps(doc).encode(), 1.0 + 2e-6, iterations=doc["iterations"] - 3)
    assert equivalence.compare("calib-m-seed1/baseline.json", calibration, moved) == (
        "DIFF calib-m-seed1/baseline.json (k2 4.0e-06 relative, "
        f"iterations {doc['iterations']} -> {doc['iterations'] - 3})")
    other = json.loads(moved)
    other["method"] = "proposed"
    assert equivalence.compare("seed1/base.json", calibration, json.dumps(other).encode()) == (
        "DIFF seed1/base.json")


def test_other_files_keep_the_byte_check(calibration):
    nearby = with_alpha(calibration, 1.0 + 1e-12)
    for item in ("seed1/zone1.json", "seed1/bias.csv", "seed1/step03-calibrate.stdout"):
        assert equivalence.compare(item, calibration, nearby) == f"DIFF {item}"
    assert equivalence.compare("seed1/bias.csv", b"a,1\n", b"a,1\n") == "same seed1/bias.csv"
    assert equivalence.compare("seed1/base.json", calibration, None) == "DIFF seed1/base.json"
    assert equivalence.compare("seed1/base.json", b"{", b"[]") == "DIFF seed1/base.json"


def test_compare_ratio_agrees_to_four_digits():
    def compare_doc(ratio, means=(2.0, 1.0)):
        return json.dumps({"schema": 1, "mean_translation_error_mm": list(means),
                           "translation_error_ratio": ratio}).encode()

    item = "seed42/compare.json"
    ratio = 2.0
    assert equivalence.compare(item, compare_doc(ratio), compare_doc(ratio)) == f"same {item}"
    assert equivalence.compare(
        item, compare_doc(ratio), compare_doc(ratio * (1 + 1e-7))) == f"near {item}"
    assert equivalence.compare(
        item, compare_doc(ratio), compare_doc(ratio * (1 + 1e-3))) == f"DIFF {item}"
    assert equivalence.compare(
        item, compare_doc(ratio), compare_doc(ratio, (2.0, np.nextafter(1.0, 2.0)))) == (
        f"near {item}")


def test_demo_items(tmp_path, monkeypatch):
    demos = equivalence.corpus()["demos"]
    assert [equivalence.step_name(args) for args in demos] == [
        "bias_experiment", "lens_focus_curve", "projection_basics", "scale_zones"]
    monkeypatch.setattr(equivalence, "corpus", lambda: {"demos": [["demos/projection_basics.py"]]})
    items = equivalence.run_corpus(equivalence.ROOT, tmp_path)
    label = "demos/step00-projection_basics"
    assert sorted(items) == [f"{label}.exit", f"{label}.stderr", f"{label}.stdout"]
    assert items[f"{label}.exit"] == b"0"
    assert b"homography condition estimate" in items[f"{label}.stdout"]
