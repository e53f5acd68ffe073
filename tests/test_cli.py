import copy
import functools
import json
import operator
import shlex
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from focuscal import cli
from focuscal.io import (
    canonical_dumps,
    dataset_from_dict,
    dataset_to_dict,
    parallel_views_from_dataset,
    scale_table_from_csv,
)
from focuscal.synth import TemplateSpec, bias_report, load_preset

# a stray numpy warning is an error, so it fails the test that meets it
CMD = [sys.executable, "-W", "error", "-m", "focuscal"]


def run(*args, cwd=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, cwd=cwd, timeout=300
    )


def simulate(tmp_path, name="d.json", **overrides):
    args = {
        "--preset": "robotiq",
        "--views": "6",
        "--mode": "fixed",
        "--noise": "0.2",
        "--seed": "7",
        "--distance-range": "300:900",
        "--out": str(tmp_path / name),
    }
    args.update(overrides)
    flat = [x for kv in args.items() for x in kv]
    proc = run("simulate", *flat)
    assert proc.returncode == 0, proc.stderr
    return tmp_path / name


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        a = simulate(tmp_path, "a.json")
        b = simulate(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_summary_line(self, tmp_path):
        out = tmp_path / "d.json"
        proc = run(
            "simulate", "--preset", "robotiq", "--views", "5", "--mode", "varying",
            "--noise", "0", "--seed", "3", "--distance-range", "80:140",
            "--pitch", "8", "--out", str(out),
        )
        assert proc.returncode == 0
        assert "5 views" in proc.stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert len(doc["views"]) == 5

    def test_parallel_stack_count(self, tmp_path):
        out = tmp_path / "stack.json"
        proc = run(
            "simulate", "--preset", "robotiq", "--parallel-stack", "200:2000:100",
            "--noise", "0", "--seed", "1", "--out", str(out),
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert len(doc["views"]) == 19

    def test_close_stack_with_steep_distortion(self, tmp_path):
        out = tmp_path / "stack.json"
        code = cli.main(["simulate", "--preset", "eosens12cxp", "--rows", "10", "--cols", "14",
                         "--pitch", "8", "--parallel-stack", "18:27:1", "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["views"]) == 10

    def test_unknown_preset_exits_2_without_file(self, tmp_path):
        out = tmp_path / "never.json"
        proc = run("simulate", "--preset", "doesnotexist", "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()

    def test_json_errors_flag(self, tmp_path):
        proc = run(
            "simulate", "--preset", "doesnotexist", "--out", str(tmp_path / "x.json"),
            "--json-errors",
        )
        assert proc.returncode == 2
        payload = json.loads(proc.stderr.strip())
        assert payload["error"] == "UsageError"

    def test_write_read_write_byte_identity(self, tmp_path):
        path = simulate(tmp_path)
        text = path.read_text()
        assert canonical_dumps(json.loads(text)) == text


def make_stack(tmp_path, name="stack.json", rng="60:400:5", noise="0", rows="10", cols="14"):
    out = tmp_path / name
    proc = run(
        "simulate", "--preset", "robotiq", "--parallel-stack", rng,
        "--rows", rows, "--cols", cols, "--pitch", "8",
        "--noise", noise, "--seed", "11", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    return out


class TestScaleFactors:
    def test_declared_template_size_is_not_allocated(self, tmp_path):
        # The README's stack, and a copy declaring 10**30 template rows: a grid holds
        # only the rows its own points use, so both give the same table.
        stack, huge = tmp_path / "stack.json", tmp_path / "huge.json"
        assert cli.main(["simulate", "--preset", "robotiq", "--parallel-stack", "45:175:5",
                         "--pitch", "8", "--rows", "10", "--cols", "14", "--noise", "0",
                         "--seed", "42", "--out", str(stack)]) == 0
        doc = json.loads(stack.read_text())
        doc["template"]["rows"] = 10**30
        huge.write_text(json.dumps(doc))
        tables = []
        for dataset in (stack, huge):
            table = tmp_path / f"{dataset.stem}.csv"
            assert cli.main(["scale-factors", "--dataset", str(dataset), "--out-table",
                             str(table), "--out-zones", str(tmp_path / "zones.json")]) == 0
            tables.append(table.read_bytes())
        assert tables[0] == tables[1]

    @staticmethod
    def far_point_stack(tmp_path, rows, wy_mm):
        """The README's stack as a document, with view 0's first point moved to
        ``wy_mm`` in a template declaring ``rows`` rows, and without that point."""
        stack = tmp_path / "stack.json"
        assert cli.main(["simulate", "--preset", "robotiq", "--parallel-stack", "45:175:5",
                         "--pitch", "8", "--rows", "10", "--cols", "14", "--noise", "0",
                         "--seed", "42", "--out", str(stack)]) == 0
        far, cut = json.loads(stack.read_text()), json.loads(stack.read_text())
        far["template"]["rows"] = rows
        far["views"][0]["points"][0]["wy_mm"] = wy_mm
        del cut["views"][0]["points"][0]
        return far, cut

    # a row index beyond int64, a row 10**4 away, and a declared size beyond a float
    @pytest.mark.parametrize("rows, wy_mm", [(10**31, 8e30), (10**30, 8e4), (10**400, 8e4)],
                             ids=["beyond-int64", "row-10000", "rows-400-digits"])
    def test_far_point_gives_the_table_without_it(self, tmp_path, rows, wy_mm):
        tables = []
        for name, doc in zip(("far", "cut"), self.far_point_stack(tmp_path, rows, wy_mm)):
            dataset, table = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            dataset.write_text(json.dumps(doc))
            assert cli.main(["scale-factors", "--dataset", str(dataset), "--out-table",
                             str(table), "--out-zones", str(tmp_path / "zones.json")]) == 0
            tables.append(table.read_bytes())
        assert tables[0] == tables[1]

    def test_grid_holds_the_rows_of_its_own_points(self, tmp_path):
        far, _ = self.far_point_stack(tmp_path, 10**30, 8e4)
        template, views, meta = dataset_from_dict(far)
        for view, parallel in zip(views, parallel_views_from_dataset(template, views, meta)):
            assert parallel.points.shape[0] <= 2 * np.unique(view.world[:, 1]).size

    def test_table_zones_and_fit(self, tmp_path):
        stack = make_stack(tmp_path)
        table_path = tmp_path / "table.csv"
        zones_path = tmp_path / "zones.json"
        curve_path = tmp_path / "curve.json"
        proc = run(
            "scale-factors", "--dataset", str(stack),
            "--out-table", str(table_path), "--out-zones", str(zones_path),
            "--fit", "--out-curve", str(curve_path), "--noise-band", "1.0",
        )
        assert proc.returncode == 0, proc.stderr
        table = scale_table_from_csv(table_path.read_text())
        assert len(table) == 69
        # recompute one row by hand from the dataset's central increments
        from focuscal.io import dataset_from_dict, parallel_views_from_dataset
        from focuscal.scale import central_increments

        template, views, meta = dataset_from_dict(json.loads(stack.read_text()))
        parallel = parallel_views_from_dataset(template, views, meta)
        view = parallel[10]
        du, _ = central_increments(view)
        idx = int(np.argmin(np.abs(table.distances - view.distance_mm)))
        # table CSV carries 12 significant digits
        assert table.alpha[idx] == pytest.approx(
            du * view.distance_mm / view.pitch_mm, rel=1e-11
        )
        zones = json.loads(zones_path.read_text())
        assert set(zones) == {
            "schema", "zone1_end_mm", "zone2_end_mm", "plateau_alpha_px", "plateau_beta_px",
        }
        assert abs(zones["zone1_end_mm"] - 150.0) <= 5.0
        curve = json.loads(curve_path.read_text())
        assert curve["alpha_fit"]["value0"] > 0

    def test_exact_model_fit_recovery(self, tmp_path):
        # Hand-built stack whose scale factors follow the hyperbolic law exactly.
        k_f, value0 = 2.0e5, 1370.0
        template = TemplateSpec(6, 8, 10.0)
        views = []
        image = (1279, 724)
        for i, d in enumerate(np.linspace(100.0, 400.0, 13)):
            alpha = -k_f / d**2 + value0
            gap = alpha * template.pitch_mm / d
            xs = (np.arange(template.cols) - (template.cols - 1) / 2) * gap + image[0] / 2
            ys = (np.arange(template.rows) - (template.rows - 1) / 2) * gap + image[1] / 2
            uu, vv = np.meshgrid(xs, ys)
            wx, wy = np.meshgrid(
                np.arange(template.cols) * template.pitch_mm,
                np.arange(template.rows) * template.pitch_mm,
            )
            from focuscal.calibrate import CalibrationView

            views.append(
                CalibrationView(
                    f"v{i}", d,
                    np.column_stack([wx.ravel(), wy.ravel()]),
                    np.column_stack([uu.ravel(), vv.ravel()]),
                )
            )
        doc = dataset_to_dict(template, views, {"image_size_px": list(image)})
        dataset = tmp_path / "exact.json"
        dataset.write_text(canonical_dumps(doc))
        curve_path = tmp_path / "curve.json"
        proc = run(
            "scale-factors", "--dataset", str(dataset),
            "--out-table", str(tmp_path / "t.csv"), "--out-zones", str(tmp_path / "z.json"),
            "--fit", "--out-curve", str(curve_path), "--noise-band", "3.0",
        )
        assert proc.returncode == 0, proc.stderr
        curve = json.loads(curve_path.read_text())
        assert curve["alpha_fit"]["k_f"] == pytest.approx(k_f, rel=1e-9)
        assert curve["alpha_fit"]["value0"] == pytest.approx(value0, rel=1e-9)

    def test_no_plateau_exits_1(self, tmp_path):
        stack = make_stack(tmp_path, name="rising.json", rng="40:120:10")
        proc = run(
            "scale-factors", "--dataset", str(stack),
            "--out-table", str(tmp_path / "t.csv"), "--out-zones", str(tmp_path / "z.json"),
            "--fit", "--out-curve", str(tmp_path / "c.json"), "--noise-band", "0.5",
        )
        assert proc.returncode == 1
        assert "flat" in proc.stderr
        # the table does not depend on the band, so it is kept; the rest is not written
        assert len(scale_table_from_csv((tmp_path / "t.csv").read_text())) == 9
        assert not (tmp_path / "z.json").exists() and not (tmp_path / "c.json").exists()

    def test_four_views_exit_1_without_file(self, tmp_path, capsys):
        stack = make_stack(tmp_path, name="stack4.json", rng="100:115:5")
        outs = [tmp_path / "t.csv", tmp_path / "z.json"]
        code = cli.main(["scale-factors", "--dataset", str(stack), "--out-table", str(outs[0]),
                         "--out-zones", str(outs[1]), "--json-errors"])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "FocusCalError", "message": "need at least five rows"}
        assert not any(path.exists() for path in outs)

    def test_fit_without_positive_asymptote_exits_1(self, tmp_path, capsys):
        # each view's offsets from the image centre scaled so that alpha = 3e6/d^2 - 50
        stack = make_stack(tmp_path, rng="100:160:5")
        doc = json.loads(stack.read_text())
        robotiq = load_preset("robotiq")
        centre = np.array(doc["meta"]["image_size_px"]) / 2.0
        for view in doc["views"]:
            d = view["distance_mm"]
            factor = (3e6 / d**2 - 50.0) / (robotiq.intrinsics.alpha * robotiq.focus_ratio(d))
            for point in view["points"]:
                uv = centre + factor * (np.array([point["u_px"], point["v_px"]]) - centre)
                point["u_px"], point["v_px"] = uv.tolist()
        stack.write_text(json.dumps(doc))
        outs = [tmp_path / "t.csv", tmp_path / "z.json", tmp_path / "c.json"]
        code = cli.main(["scale-factors", "--dataset", str(stack), "--out-table", str(outs[0]),
                         "--out-zones", str(outs[1]), "--fit", "--out-curve", str(outs[2]),
                         "--noise-band", "2000", "--json-errors"])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "FocusCalError", "message": "fitted asymptote must be positive"}
        assert not any(path.exists() for path in outs)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    dataset = tmp / "zone1.json"
    proc = run(
        "simulate", "--preset", "robotiq", "--views", "15", "--mode", "varying",
        "--noise", "0.25", "--seed", "42", "--pitch", "8",
        "--distance-range", "120:145", "--out", str(dataset),
    )
    assert proc.returncode == 0, proc.stderr
    stack = make_stack(tmp, name="stack.json", rng="100:160:5")
    table = tmp / "table.csv"
    proc = run(
        "scale-factors", "--dataset", str(stack),
        "--out-table", str(table), "--out-zones", str(tmp / "zones.json"),
    )
    assert proc.returncode == 0, proc.stderr
    return tmp, dataset, table


class TestCalibrateAndReport:

    def test_end_to_end(self, artifacts):
        tmp, dataset, table = artifacts
        base_out = tmp / "base.json"
        prop_out = tmp / "prop.json"
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "baseline",
            "--out", str(base_out),
        )
        assert proc.returncode == 0, proc.stderr
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "proposed",
            "--scale-table", str(table), "--out", str(prop_out),
        )
        assert proc.returncode == 0, proc.stderr
        base_doc = json.loads(base_out.read_text())
        assert base_doc["converged"] is True
        assert base_doc["intrinsics"]["shared"] is True
        prop_doc = json.loads(prop_out.read_text())
        assert prop_doc["intrinsics"]["shared"] is False
        assert len(prop_doc["intrinsics"]["scales"]) == 15
        # calibration files are byte-stable under reserialization
        assert canonical_dumps(json.loads(base_out.read_text())) == base_out.read_text()

        compare = tmp / "cmp.json"
        proc = run(
            "report", "--dataset", str(dataset),
            "--calib", str(base_out), "--calib", str(prop_out),
            "--out-csv", str(tmp / "bias.csv"), "--out-compare", str(compare),
        )
        assert proc.returncode == 0, proc.stderr
        assert "ratio" in proc.stdout
        doc = json.loads(compare.read_text())
        assert doc["translation_error_ratio"] > 1.0
        bias_lines = (tmp / "bias.csv").read_text().strip().split("\n")
        assert bias_lines[0] == "view_id,dx_mm,dy_mm,dz_mm,rot_err_rad"
        assert len(bias_lines) == 16
        assert (tmp / "bias_b.csv").exists()

    def test_reversed_table_gives_the_same_calibration(self, artifacts, tmp_path):
        # the 132.5 mm view is as far from the 130 mm row as from the 135 mm one: both
        # files give it the row at the lower distance
        tmp, dataset, table = artifacts
        header, *rows = table.read_text().splitlines(keepends=True)
        reversed_table = tmp_path / "reversed.csv"
        reversed_table.write_text(header + "".join(reversed(rows)))
        docs = []
        for path in (table, reversed_table):
            out = tmp_path / f"{path.stem}.json"
            proc = run("calibrate", "--dataset", str(dataset), "--method", "proposed",
                       "--scale-table", str(path), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(out.read_text())
            del doc["provenance"]
            docs.append(doc)
        assert docs[0] == docs[1]
        (view,) = [i for i, pose in enumerate(docs[0]["poses"]) if pose["view_id"] == "view007"]
        parsed = scale_table_from_csv(table.read_text())
        assert docs[0]["intrinsics"]["scales"][view]["alpha_px"] == (
            parsed.alpha[parsed.distances == 130.0].item())

    def test_proposed_without_scale_source_exits_2(self, artifacts):
        tmp, dataset, _ = artifacts
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "proposed",
            "--out", str(tmp / "never.json"),
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_max_iterations_exits_2(self, artifacts, count):
        tmp, dataset, _ = artifacts
        out = tmp / "never.json"
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "baseline",
            "--max-iterations", count, "--out", str(out), "--json-errors",
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr.strip())["error"] == "UsageError"
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_non_positive_view_count_exits_2(self, tmp_path, count):
        out = tmp_path / "never.json"
        proc = run(
            "simulate", "--preset", "robotiq", "--views", count, "--out", str(out),
            "--json-errors",
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr.strip())["error"] == "UsageError"
        assert not out.exists()

    def test_report_without_ground_truth_exits_1(self, artifacts):
        tmp, dataset, table = artifacts
        doc = json.loads(dataset.read_text())
        for view in doc["views"]:
            view.pop("gt_pose", None)
        stripped = tmp / "nogt.json"
        stripped.write_text(canonical_dumps(doc))
        proc = run(
            "report", "--dataset", str(stripped), "--calib", str(tmp / "base.json"),
            "--out-csv", str(tmp / "x.csv"),
        )
        assert proc.returncode == 1

    def test_second_report_output_without_second_calib_exits_2(self, artifacts, tmp_path):
        _, dataset, _ = artifacts
        calib = tmp_path / "base.json"
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "baseline",
            "--out", str(calib),
        )
        assert proc.returncode == 0, proc.stderr
        for flag in ("--out-compare", "--out-csv-b"):
            outs = [tmp_path / "bias.csv", tmp_path / "second.out"]
            proc = run(
                "report", "--dataset", str(dataset), "--calib", str(calib),
                "--out-csv", str(outs[0]), flag, str(outs[1]), "--json-errors",
            )
            assert proc.returncode == 2
            payload = json.loads(proc.stderr.strip())
            assert payload["error"] == "UsageError"
            assert flag in payload["message"]
            assert not any(path.exists() for path in outs)

    def test_non_positive_curve_scale_exits_1(self, artifacts, tmp_path):
        _, dataset, _ = artifacts
        curve = tmp_path / "curve.json"
        fit = {"k_f": 3e9, "value0": 1000.0}
        curve.write_text(canonical_dumps({"schema": 1, "alpha_fit": fit, "beta_fit": fit}))
        out = tmp_path / "never.json"
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "proposed",
            "--scale-curve", str(curve), "--out", str(out), "--json-errors",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stderr.strip())
        assert payload["error"] == "FocusCalError"
        first = float(json.loads(dataset.read_text())["views"][0]["distance_mm"])
        assert f"scale factors at {first} mm must be positive" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("calibs", [1, 2])
    def test_overflowing_translation_error_exits_1(self, artifacts, tmp_path, calibs):
        _, dataset, _ = artifacts
        calib = tmp_path / "base.json"
        assert cli.main(["calibrate", "--dataset", str(dataset), "--method", "baseline",
                         "--out", str(calib)]) == 0
        doc = json.loads(dataset.read_text())
        doc["views"][0]["gt_pose"]["t_mm"][0] = 1e308
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        outs = [tmp_path / "bias.csv", tmp_path / "bias_b.csv", tmp_path / "cmp.json"]
        second = ["--calib", str(calib), "--out-compare", str(outs[2])] if calibs == 2 else []
        proc = run("report", "--dataset", str(broken), "--calib", str(calib), *second,
                   "--out-csv", str(outs[0]), "--json-errors")
        assert proc.returncode == 1
        assert json.loads(proc.stderr.strip()) == {
            "error": "FocusCalError",
            "message": f"{calib}: translation errors against the ground truth overflow",
        }
        assert proc.stdout == ""
        assert not any(path.exists() for path in outs)

    @pytest.mark.parametrize("document", ["gt_pose", "refined"])
    def test_overflowing_rotation_error_exits_1(self, artifacts, tmp_path, capsys, document):
        _, dataset, _ = artifacts
        calib = tmp_path / "base.json"
        assert cli.main(["calibrate", "--dataset", str(dataset), "--method", "baseline",
                         "--out", str(calib)]) == 0
        path = dataset if document == "gt_pose" else calib
        doc = json.loads(path.read_text())
        pose = doc["views"][0]["gt_pose"] if document == "gt_pose" else doc["poses"][0]
        pose["rodrigues"] = [1e308, 0, 0]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        inputs = (broken, calib) if document == "gt_pose" else (dataset, broken)
        capsys.readouterr()
        code = cli.main(["report", "--dataset", str(inputs[0]), "--calib", str(inputs[1]),
                         "--out-csv", str(tmp_path / "bias.csv"), "--json-errors"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "FocusCalError",
            "message": f"{inputs[1]}: rotation errors against the ground truth overflow",
        }
        assert not (tmp_path / "bias.csv").exists()

    def test_nonconvergence_writes_partial_and_exits_1(self, artifacts):
        tmp, dataset, _ = artifacts
        out = tmp / "partial.json"
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "baseline",
            "--max-iterations", "1", "--out", str(out),
        )
        assert proc.returncode == 1
        doc = json.loads(out.read_text())
        assert doc["converged"] is False


# Edits that make a valid dataset document malformed.
MALFORMED_DATASETS = {
    "views-not-objects": lambda doc: doc.update(views=[1, 2, 3]),
    "views-not-a-list": lambda doc: doc.update(views=5),
    "u-not-a-number": lambda doc: doc["views"][0]["points"][0].update(u_px="abc"),
    "u-null": lambda doc: doc["views"][0]["points"][0].update(u_px=None),
    "rodrigues-too-short": lambda doc: doc["views"][0]["gt_pose"].update(rodrigues=[0.1, 0.2]),
    "duplicate-view-ids": lambda doc: doc["views"][1].update(id=doc["views"][0]["id"]),
    "no-views": lambda doc: doc.update(views=[]),
    "distance-400-digits": lambda doc: doc["views"][0].update(distance_mm=10**400),
    "rows-infinite": lambda doc: doc["template"].update(rows=float("inf")),
    # json.dumps cannot write an integer beyond Python's digit limit: the test
    # writes 5,000 digits where this string stands
    "pitch-5000-digits": lambda doc: doc["template"].update(pitch_mm="<5000 digits>"),
    # values of the wrong JSON kind
    "distance-a-string": lambda doc: doc["views"][0].update(distance_mm="60"),
    "u-a-boolean": lambda doc: doc["views"][0]["points"][0].update(u_px=True),
    "id-a-number": lambda doc: doc["views"][0].update(id=1e-320),
    "rodrigues-strings": lambda doc: doc["views"][0]["gt_pose"].update(rodrigues=["0.1", 0, 0]),
    "rows-fractional": lambda doc: doc["template"].update(rows=6.5),
    "meta-pairs": lambda doc: doc.update(meta=list(doc["meta"].items())),
    "image-width-400-digits": lambda doc: doc["meta"].update(image_size_px=[10**400, 724]),
    "stack-image-width-400-digits": lambda doc: doc["meta"].update(
        image_size_px=[10**400, 724]),
    "kind-a-number": lambda doc: doc["meta"].update(kind=5),
}

# Edits that make a valid calibration document malformed; ``report`` reads it.
MALFORMED_CALIBRATIONS = {
    "u0-a-string": lambda doc: doc["intrinsics"].update(u0_px="645"),
    "rms-nan": lambda doc: doc["stats"].update(rms_px=float("nan")),
    "iterations-fractional": lambda doc: doc.update(iterations=5.5),
    "method-a-number": lambda doc: doc.update(method=1),
}

# Edits that make a valid curve document malformed; ``calibrate --scale-curve`` reads it.
MALFORMED_CURVES = {
    "k-f-a-string": lambda doc: doc["alpha_fit"].update(k_f="1"),
}

ROBOTIQ_PRESET = json.loads((resources.files("focuscal") / "presets/robotiq.json").read_text())

# Preset file texts that simulate rejects as malformed
MALFORMED_PRESETS = {
    "preset-not-json": "{bad",
    "preset-infinite-width": json.dumps({**ROBOTIQ_PRESET, "image_size_px": [float("inf"), 480]}),
    "preset-offset-a-string": json.dumps(
        {**ROBOTIQ_PRESET, "lens": {**ROBOTIQ_PRESET["lens"], "axis_offset_mm": "nan"}}),
    "preset-fractional-width": json.dumps({**ROBOTIQ_PRESET, "image_size_px": [1279.7, 724]}),
    "preset-alpha-a-boolean": json.dumps(
        {**ROBOTIQ_PRESET, "intrinsics": {**ROBOTIQ_PRESET["intrinsics"], "alpha_px": True}}),
    "preset-width-400-digits": json.dumps({**ROBOTIQ_PRESET, "image_size_px": [10**400, 724]}),
    "preset-width-zero": json.dumps({**ROBOTIQ_PRESET, "image_size_px": [0, 724]}),
}

# Argument values that are rejected, each with a part of its message; each
# command names its output files ``{out}`` and ``{out}.json``, and a rejected
# run leaves neither behind.
REJECTED_ARGUMENT_VALUES = {
    "simulate-rows": ("simulate --preset robotiq --rows 1 --out {out}", "2 rows"),
    "simulate-pitch": ("simulate --preset robotiq --pitch 0 --out {out}", "pitch"),
    "simulate-noise": ("simulate --preset robotiq --noise -1 --out {out}", "noise"),
    "simulate-stack-noise": ("simulate --preset robotiq --parallel-stack 45:60:5 --noise -1 "
                             "--out {out}", "noise"),
    "simulate-noise-nan": ("simulate --preset robotiq --noise nan --out {out}", "noise"),
    "simulate-noise-inf": ("simulate --preset robotiq --noise inf --out {out}", "noise"),
    "simulate-tilt-nan": ("simulate --preset robotiq --views 4 --tilt=5:nan --out {out}", "tilt"),
    "simulate-tilt-inf": ("simulate --preset robotiq --views 4 --tilt=5:inf --out {out}", "tilt"),
    "simulate-tilt-reversed": ("simulate --preset robotiq --views 4 --tilt=30:5 --out {out}",
                               "tilt range"),
    "scale-factors-noise-band": ("scale-factors --dataset {stack} --out-table {out} "
                                 "--out-zones {out}.json --noise-band -1", "noise band"),
    "scale-factors-noise-band-zero": ("scale-factors --dataset {stack} --out-table {out} "
                                      "--out-zones {out}.json --noise-band 0", "noise band"),
    "scale-factors-fit-without-curve": ("scale-factors --dataset {stack} --out-table {out} "
                                        "--out-zones {out}.json --fit", "--out-curve"),
    "scale-factors-curve-without-fit": ("scale-factors --dataset {stack} --out-table {out} "
                                        "--out-zones {out}.json --out-curve {out}",
                                        "--out-curve requires --fit"),
}


# Every command that reads a JSON document, with the documents it reads: {dataset}
# a tilted dataset, {stack} a stack dataset, {calib} a calibration, {curve} a curve
# document and {preset} a preset. Each writes {out}; scale-factors also {out}.json.
READING_COMMANDS = {
    "calibrate": "calibrate --dataset {dataset} --method baseline --out {out}",
    "proposed": "calibrate --dataset {dataset} --method proposed --scale-curve {curve} "
                "--out {out}",
    "report": "report --dataset {dataset} --calib {calib} --out-csv {out}",
    "scale-factors": "scale-factors --dataset {stack} --out-table {out} --out-zones {out}.json",
    "simulate": "simulate --preset {preset} --views 4 --rows 4 --cols 5 --out {out}",
    "lens-curve": "lens-curve --preset {preset} --from 20 --to 200 --count 5 --out {out}",
}

# Each document a command reads, as (placeholder, command).
DOCUMENT_READS = [
    ("dataset", "calibrate"), ("dataset", "proposed"), ("dataset", "report"),
    ("stack", "scale-factors"), ("calib", "report"), ("curve", "proposed"),
    ("preset", "simulate"), ("preset", "lens-curve"),
]

# The document each malformed case edits and the command that reads it.
MALFORMED_READS = {
    **dict.fromkeys(MALFORMED_DATASETS, ("dataset", "calibrate")),
    "rodrigues-strings": ("dataset", "report"),
    "meta-pairs": ("stack", "scale-factors"),
    "image-width-400-digits": ("dataset", "proposed"),
    "stack-image-width-400-digits": ("stack", "scale-factors"),
    "kind-a-number": ("stack", "scale-factors"),
    **dict.fromkeys(MALFORMED_CALIBRATIONS, ("calib", "report")),
    **dict.fromkeys(MALFORMED_CURVES, ("curve", "proposed")),
    **dict.fromkeys(MALFORMED_PRESETS, ("preset", "simulate")),
}
MALFORMED_EDITS = {**MALFORMED_DATASETS, **MALFORMED_CALIBRATIONS, **MALFORMED_CURVES}


@pytest.fixture(scope="module")
def documents(artifacts):
    """One valid document of each kind READING_COMMANDS reads, by its placeholder."""
    tmp, dataset, _ = artifacts
    paths = {"dataset": dataset, "stack": tmp / "stack.json", "calib": tmp / "calib.json",
             "curve": tmp / "curve.json", "preset": tmp / "preset.json"}
    assert cli.main(["calibrate", "--dataset", str(dataset), "--method", "baseline",
                     "--out", str(paths["calib"])]) == 0
    fit = {"k_f": 595894.178378, "value0": 1395.41382627}  # fitted to a robotiq stack
    paths["curve"].write_text(canonical_dumps({"schema": 1, "alpha_fit": fit, "beta_fit": fit}))
    paths["preset"].write_text(json.dumps(ROBOTIQ_PRESET))
    return paths


def reading_args(command: str, paths: dict, out) -> list[str]:
    return READING_COMMANDS[command].format(**paths, out=out).split()


# Values that replace a part of a document: each JSON kind, and some of them twice.
REPLACEMENTS = [None, True, False, 0, 1, -1, 0.5, 1e308, float("nan"), "", "1", "nan",
                [], [1, 2], {}, {"k1": 1}]


def json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def document_paths(node, path=()):
    """The path of every value inside ``node``, an object or a list, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from document_paths(child, (*path, key))


# The extreme values of each JSON number kind: the largest and the smallest positive
# double, and integers past any array dimension (one numpy could allocate is never drawn).
EXTREMES = {float: [1e308, -1e308, 5e-324], int: [10**30, -10**30]}


def ends_cleanly(documents, kind, command, doc, tmp_path, capsys):
    """Run ``command`` with ``doc`` in place of the document ``kind``: no exception or
    warning escapes (warnings are errors here), a failure is one JSON object with its
    exit code, and it writes nothing it should not."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    broken = work / "broken.json"
    broken.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([*reading_args(command, {**documents, kind: broken}, work / "out"),
                     "--json-errors"])
    err = capsys.readouterr().err
    written = sorted(p.name for p in work.iterdir() if p != broken)
    if code == 0:
        assert err == ""
        return
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert code == (2 if payload["error"] == "UsageError" else 1)
    # the two failures that keep an output: a calibration out of iterations, a
    # table without a plateau
    kept = ["out"] if payload["error"] in ("NonConvergence", "NoPlateauFound") else []
    assert written == kept


# One number of a valid document set to an extreme of its kind, as (placeholder,
# command, path, value, exit code, a part of the message): the overflow is silenced
# where it happens and an existing check rejects what follows, or it is harmless.
EXTREME_VALUES = {
    # a point too far out to square lies outside the central window
    "stack-u-huge": ("stack", "scale-factors", ("views", 3, "points", 0, "u_px"), 1e308, 0, ""),
    "stack-v-huge": ("stack", "scale-factors", ("views", 3, "points", 0, "v_px"), -1e308, 0,
                     ""),
    # the decomposition or the LM's start check rejects the view
    "curve-value0-huge": ("curve", "proposed", ("alpha_fit", "value0"), 1e308, 1, ""),
    "curve-kf-huge": ("curve", "proposed", ("alpha_fit", "k_f"), -1e308, 1, ""),
    **{f"preset-{key}-{size}": ("preset", "simulate", ("intrinsics", key), value, 1,
                                "no template point projects inside the image")
       for key, size, value in (("alpha_px", "huge", 1e308), ("beta_px", "huge", 1e308),
                                ("gamma", "huge", 1e308), ("alpha_px", "tiny", 5e-324))},
    "preset-hyperfocal-tiny": ("preset", "simulate", ("hyperfocal_mm",), 5e-324, 1,
                               "sensor plane at infinity or behind the lens"),
    # a view far past the curve's rise takes its asymptote; one at 5e-324 mm, infinity
    "distance-huge-on-curve": ("dataset", "proposed", ("views", 2, "distance_mm"), 1e308, 0,
                               ""),
    "distance-tiny-on-curve": ("dataset", "proposed", ("views", 2, "distance_mm"), 5e-324, 1,
                               "scale factors at 5e-324 mm must be positive and finite"),
    # the stack's views are 100:160:5 mm
    "stack-distance-repeated": ("stack", "scale-factors", ("views", 5, "distance_mm"), 120, 1,
                                "two scale-table rows at 120.0 mm"),
    "stack-distance-huge": ("stack", "scale-factors", ("views", 5, "distance_mm"), 1e308, 1,
                            "scale factors at 1e+308 mm are not finite"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", list(MALFORMED_READS))
    def test_format_error_exits_1_without_file(self, documents, tmp_path, capsys, case):
        kind, command = MALFORMED_READS[case]
        broken = tmp_path / "broken.json"
        if case in MALFORMED_PRESETS:
            broken.write_text(MALFORMED_PRESETS[case])
        else:
            doc = json.loads(documents[kind].read_text())
            MALFORMED_EDITS[case](doc)
            broken.write_text(json.dumps(doc).replace('"<5000 digits>"', "9" * 5000))
        out = tmp_path / "never.out"
        code = cli.main([*reading_args(command, {**documents, kind: broken}, out),
                         "--json-errors"])
        payload = json.loads(capsys.readouterr().err)  # one JSON object, nothing else
        assert (code, payload["error"]) == (1, "FormatError")
        assert list(tmp_path.iterdir()) == [broken]

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_changed_kind_or_deleted_key_fails_cleanly(self, documents, tmp_path, capsys,
                                                      data):
        # 1-3 values of a valid document take another JSON kind or lose their key
        kind, command = data.draw(st.sampled_from(DOCUMENT_READS))
        doc = json.loads(documents[kind].read_text())
        paths = data.draw(st.lists(st.sampled_from(list(document_paths(doc))), min_size=1,
                                   max_size=3, unique=True))
        # deepest first, so each path still leads to the value it had
        for *head, key in sorted(paths, key=len, reverse=True):
            parent = functools.reduce(operator.getitem, head, doc)
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = copy.deepcopy(data.draw(st.sampled_from(
                    [v for v in REPLACEMENTS if json_kind(v) != json_kind(parent[key])])))
        ends_cleanly(documents, kind, command, doc, tmp_path, capsys)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_extreme_value_of_its_kind_fails_cleanly(self, documents, tmp_path, capsys, data):
        # 1-3 numbers of a valid document, most often not point coordinates, take an
        # extreme value of their own JSON kind; the run ends cleanly
        kind, command = data.draw(st.sampled_from(DOCUMENT_READS))
        doc = json.loads(documents[kind].read_text())
        numbers = [path for path in document_paths(doc)
                   if type(functools.reduce(operator.getitem, path, doc)) in EXTREMES]
        points = [path for path in numbers if "points" in path]
        others = [path for path in numbers if "points" not in path]
        pool = data.draw(st.sampled_from([pool for pool in (others, others, points) if pool]))
        for *head, key in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                                             unique=True)):
            parent = functools.reduce(operator.getitem, head, doc)
            parent[key] = data.draw(st.sampled_from(EXTREMES[type(parent[key])]))
        ends_cleanly(documents, kind, command, doc, tmp_path, capsys)

    @pytest.mark.parametrize("case", list(EXTREME_VALUES))
    def test_extreme_value_ends_as_stated(self, documents, tmp_path, capsys, case):
        kind, command, (*head, key), value, code, message = EXTREME_VALUES[case]
        doc = json.loads(documents[kind].read_text())
        functools.reduce(operator.getitem, head, doc)[key] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main([*reading_args(command, {**documents, kind: broken}, out),
                         "--json-errors"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and out.exists()
            return
        payload = json.loads(err)  # one JSON object, nothing else
        assert payload["error"] == "FocusCalError"
        assert message in payload["message"]
        assert list(tmp_path.iterdir()) == [broken]

    @pytest.mark.parametrize("distortion", [[1, 2], 3, "k1"])
    @pytest.mark.parametrize("command", [
        "simulate --preset {bad} --out {out}",
        "lens-curve --preset {bad} --from 20 --to 200 --count 5 --out {out}",
    ])
    def test_preset_distortion_not_an_object_exits_1(self, tmp_path, capsys, command,
                                                      distortion):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**ROBOTIQ_PRESET, "distortion": distortion}))
        out = tmp_path / "never.out"
        code = cli.main([*command.format(bad=bad, out=out).split(), "--json-errors"])
        payload = json.loads(capsys.readouterr().err)  # one JSON object, nothing else
        assert (code, payload["error"]) == (1, "FormatError")
        assert not out.exists()

    @pytest.mark.parametrize("schema", [2, 10**30, None, True, 1.0],
                             ids=["2", "huge", "missing", "true", "float"])
    @pytest.mark.parametrize("command", [
        "simulate --preset {bad} --out {out}",
        "lens-curve --preset {bad} --from 20 --to 200 --count 5 --out {out}",
    ], ids=["simulate", "lens-curve"])
    def test_preset_without_schema_1_exits_1(self, tmp_path, capsys, command, schema):
        doc = {key: value for key, value in ROBOTIQ_PRESET.items() if key != "schema"}
        if schema is not None:
            doc["schema"] = schema
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "never.out"
        code = cli.main([*command.format(bad=bad, out=out).split(), "--json-errors"])
        assert (code, json.loads(capsys.readouterr().err)) == (1, {
            "error": "FormatError",
            "message": "invalid camera preset: unsupported or missing schema version"})
        assert list(tmp_path.iterdir()) == [bad]

    def test_dataset_with_schema_true_exits_1(self, artifacts, tmp_path, capsys):
        # true == 1 in Python, but a boolean is no schema version
        _, dataset, _ = artifacts
        doc = json.loads(dataset.read_text())
        doc["schema"] = True
        bad = tmp_path / "zone1.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        code = cli.main(["calibrate", "--dataset", str(bad), "--method", "baseline",
                         "--out", str(out), "--json-errors"])
        assert (code, json.loads(capsys.readouterr().err)) == (1, {
            "error": "FormatError", "message": "dataset: unsupported or missing schema version"})
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("case", list(REJECTED_ARGUMENT_VALUES))
    def test_rejected_argument_value_exits_2(self, artifacts, tmp_path, capsys, case):
        tmp, _, _ = artifacts
        command, message = REJECTED_ARGUMENT_VALUES[case]
        out = tmp_path / "never.out"
        args = [word.format(out=out, stack=tmp / "stack.json") for word in command.split()]
        code = cli.main([*args, "--json-errors"])
        payload = json.loads(capsys.readouterr().err)  # one JSON object, nothing else
        assert (code, payload["error"]) == (2, "UsageError")
        assert message in payload["message"]
        assert not out.exists() and not out.with_name(out.name + ".json").exists()

    @pytest.mark.parametrize("distances, message", [
        ("--distance-range 10:20", "no template point projects inside the image"),
        ("--parallel-stack 1:3:1", "stack view at 1.0 mm is empty"),
        # the distortion maps no pixel onto the four points near the image
        ("--rows 10 --cols 14 --pitch 8 --parallel-stack 3:5:1",
         "stack view at 3.0 mm is empty"),
    ])
    def test_no_point_in_image_exits_1(self, tmp_path, capsys, distances, message):
        out = tmp_path / "never.json"
        code = cli.main(["simulate", "--preset", "robotiq", *distances.split(),
                         "--out", str(out), "--json-errors"])
        payload = json.loads(capsys.readouterr().err)
        assert (code, payload["error"], payload["message"]) == (1, "FocusCalError", message)
        assert not out.exists()

    def test_distortion_that_overflows_the_inverse_exits_1(self, tmp_path, capsys):
        preset = tmp_path / "bad.json"
        preset.write_text(json.dumps({**ROBOTIQ_PRESET, "distortion": {"k1": -1e308,
                                                                       "k2": -0.072}}))
        out = tmp_path / "never.json"
        code = cli.main(["simulate", "--preset", str(preset), "--out", str(out),
                         "--json-errors"])
        payload = json.loads(capsys.readouterr().err)
        assert (code, payload["error"]) == (1, "FocusCalError")
        assert not out.exists()

    def test_outlier_point_exits_1_without_a_warning(self, tmp_path):
        dataset = simulate(tmp_path, **{"--rows": "4", "--cols": "5"})
        doc = json.loads(dataset.read_text())
        doc["views"][2]["points"][3]["u_px"] = 0
        dataset.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        proc = run("calibrate", "--dataset", str(dataset), "--method", "baseline",
                   "--out", str(out), "--json-errors")
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": "FocusCalError", "message": "residual is not finite at the starting point"}
        assert not out.exists()

    def test_scale_factors_on_tilted_dataset_exits_2(self, artifacts, tmp_path):
        _, dataset, _ = artifacts
        outs = [tmp_path / "t.csv", tmp_path / "z.json", tmp_path / "c.json"]
        proc = run(
            "scale-factors", "--dataset", str(dataset), "--out-table", str(outs[0]),
            "--out-zones", str(outs[1]), "--fit", "--out-curve", str(outs[2]),
            "--noise-band", "100000", "--json-errors",
        )
        assert proc.returncode == 2
        payload = json.loads(proc.stderr.strip())
        assert payload["error"] == "UsageError"
        assert "tilted" in payload["message"]
        assert not any(path.exists() for path in outs)

    @pytest.mark.parametrize("size", ["ab", [1280], [1280, -720], [1280, None]])
    @pytest.mark.parametrize("command", ["scale-factors", "calibrate"])
    def test_bad_image_size_exits_1(self, artifacts, tmp_path, command, size):
        tmp, dataset, table = artifacts
        source = tmp / "stack.json" if command == "scale-factors" else dataset
        doc = json.loads(source.read_text())
        doc["meta"]["image_size_px"] = size
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        outs = [tmp_path / "t.csv", tmp_path / "z.json"]
        if command == "scale-factors":
            args = ["--out-table", str(outs[0]), "--out-zones", str(outs[1]),
                    "--noise-band", "1.0"]
        else:
            args = ["--method", "proposed", "--scale-table", str(table), "--out", str(outs[1])]
        proc = run(command, "--dataset", str(broken), *args, "--json-errors")
        assert proc.returncode == 1
        payload = json.loads(proc.stderr.strip())
        assert payload["error"] == "FormatError"
        assert "image_size_px" in payload["message"]
        assert not any(path.exists() for path in outs)

    def test_infinite_view_distance_exits_1(self, artifacts, tmp_path):
        _, dataset, table = artifacts
        doc = json.loads(dataset.read_text())
        doc["views"][0]["distance_mm"] = float("inf")
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))  # writes Infinity, which json.loads reads back
        out = tmp_path / "never.json"
        proc = run("calibrate", "--dataset", str(broken), "--method", "proposed",
                   "--scale-table", str(table), "--out", str(out), "--json-errors")
        assert proc.returncode == 1
        payload = json.loads(proc.stderr.strip())
        assert payload["error"] == "FormatError"
        assert payload["message"] == "view 0: distance_mm must be a finite number, not Infinity"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("u_px", 1e308), ("wx_mm", -1e308)])
    def test_huge_coordinate_rejects_its_view(self, artifacts, tmp_path, key, value):
        _, dataset, _ = artifacts
        doc = json.loads(dataset.read_text())
        doc["views"][1]["points"][0][key] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "never.json"
        proc = run("calibrate", "--dataset", str(broken), "--method", "baseline",
                   "--out", str(out), "--json-errors")
        assert proc.returncode == 1
        assert json.loads(proc.stderr.strip()) == {
            "error": "FocusCalError",
            "message": f"view {doc['views'][1]['id']}: point coordinates too large",
        }
        assert not out.exists()

    def test_missing_scale_table_exits_2(self, artifacts, tmp_path):
        _, dataset, _ = artifacts
        out = tmp_path / "never.json"
        proc = run(
            "calibrate", "--dataset", str(dataset), "--method", "proposed",
            "--scale-table", str(tmp_path / "missing.csv"), "--out", str(out),
            "--json-errors",
        )
        assert proc.returncode == 2
        payload = json.loads(proc.stderr.strip())
        assert payload["error"] == "UsageError"
        assert "missing.csv" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["lens-curve", "--preset", "robotiq", "--from", "20", "--to", "200", "--count", "5"],
        ["simulate", "--preset", "robotiq", "--views", "3"],
    ])
    def test_unwritable_output_exits_2(self, tmp_path, command):
        # an output path under a regular file fails for every user, root included
        blocker = tmp_path / "afile"
        blocker.write_text("")
        proc = run(*command, "--out", str(blocker / "x.out"), "--json-errors")
        assert proc.returncode == 2
        payload = json.loads(proc.stderr.strip())
        assert payload["error"] == "UsageError"
        assert str(blocker / "x.out") in payload["message"]
        assert blocker.read_text() == ""


# Each command reads the file ``{bad}``; the other inputs are valid.
UNREADABLE_INPUT_COMMANDS = {
    "calibrate-dataset": "calibrate --dataset {bad} --method baseline --out {out}",
    "calibrate-scale-table": "calibrate --dataset {dataset} --method proposed "
                             "--scale-table {bad} --out {out}",
    "calibrate-scale-curve": "calibrate --dataset {dataset} --method proposed "
                             "--scale-curve {bad} --out {out}",
    "scale-factors-dataset": "scale-factors --dataset {bad} --out-table {out} "
                             "--out-zones {out}",
    "report-calib": "report --dataset {dataset} --calib {bad} --out-csv {out}",
    "simulate-preset": "simulate --preset {bad} --out {out}",
}


class TestUnreadableInput:
    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "nested-too-deep"])
    @pytest.mark.parametrize("command", list(UNREADABLE_INPUT_COMMANDS))
    def test_json_error_without_output(self, artifacts, tmp_path, capsys, command, kind):
        _, dataset, _ = artifacts
        bad = tmp_path / "input.json"  # a preset path needs the .json suffix
        if kind == "directory":
            bad.mkdir()
        elif kind == "not-utf8":
            bad.write_bytes(b'{"schema": 1, "name": "\xff"}')
        else:
            bad.write_text("[" * 100_000)
        out = tmp_path / "never.out"
        args = [word.format(bad=bad, dataset=dataset, out=out)
                for word in UNREADABLE_INPUT_COMMANDS[command].split()]
        code = cli.main([*args, "--json-errors"])
        payload = json.loads(capsys.readouterr().err)  # one JSON object, nothing else
        expected = (2, "UsageError") if kind == "directory" else (1, "FormatError")
        assert (code, payload["error"]) == expected
        assert not out.exists()


def readme_block(heading: str) -> str:
    """The first fenced block under a README heading, without its language tag."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split(f"## {heading}", 1)[1].split("```", 2)[1].split("\n", 1)[1]


def readme_commands() -> list[list[str]]:
    """The commands of the README's "Command line" block, without ``focuscal``."""
    lines = readme_block("Command line").replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln) for ln in lines if ln.startswith("focuscal ")]
    return [c[1:] for c in commands]


class TestReadmeWalkthrough:
    def test_every_step_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert [c[0] for c in commands] == [
            "simulate", "simulate", "scale-factors", "calibrate", "calibrate", "report",
            "lens-curve",
        ]
        for command in commands:
            assert cli.main(command) == 0, command
        compare = json.loads((tmp_path / "compare.json").read_text())
        assert compare["translation_error_ratio"] > 1.0


class TestReadmeQuickStart:
    def test_baseline_biased_and_proposed_closer(self):
        namespace = {}
        exec(compile(readme_block("Library quick start"), "README.md", "exec"), namespace)
        views = namespace["views"]
        baseline_dz = bias_report(namespace["baseline"], views).mean_mm[2]
        proposed_dz = bias_report(namespace["proposed"], views).mean_mm[2]
        assert baseline_dz < 0
        assert abs(proposed_dz) < abs(baseline_dz)


class TestLensCurve:
    def test_preset_sweep(self, tmp_path):
        out = tmp_path / "curve.csv"
        proc = run(
            "lens-curve", "--preset", "robotiq", "--from", "20", "--to", "2000",
            "--count", "50", "--out", str(out),
        )
        assert proc.returncode == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "distance_mm,focal_mm"
        assert len([ln for ln in lines if ln]) == 51
        assert "," in lines[1] and "." in lines[1]

    def test_explicit_lens(self, tmp_path):
        out = tmp_path / "curve.csv"
        proc = run(
            "lens-curve", "--radius", "5", "--angle-ratio", "0.8",
            "--from", "50", "--to", "500", "--count", "10", "--log", "--out", str(out),
        )
        assert proc.returncode == 0

    def test_missing_lens_spec_exits_2(self, tmp_path):
        proc = run(
            "lens-curve", "--from", "50", "--to", "500",
            "--out", str(tmp_path / "c.csv"),
        )
        assert proc.returncode == 2


class TestUsageContract:
    def test_missing_required_argument_exits_2(self):
        proc = run("simulate", "--preset", "robotiq")
        assert proc.returncode == 2

    def test_unknown_command_exits_2(self):
        proc = run("frobnicate")
        assert proc.returncode == 2

    def test_version(self):
        proc = run("--version")
        assert proc.returncode == 0
        assert "focuscal" in proc.stdout
