import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from focuscal import cli
from focuscal.io import canonical_dumps, dataset_to_dict, scale_table_from_csv
from focuscal.synth import TemplateSpec

CMD = [sys.executable, "-m", "focuscal"]


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
            "--noise-band", "0.5",
        )
        assert proc.returncode == 1
        assert "flat" in proc.stderr


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
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", [*MALFORMED_DATASETS, "preset-not-json"])
    def test_format_error_exits_1_without_file(self, artifacts, tmp_path, case):
        _, dataset, _ = artifacts
        out = tmp_path / "never.json"
        if case == "preset-not-json":
            preset = tmp_path / "bad.json"
            preset.write_text("{bad")
            args = ["simulate", "--preset", str(preset), "--out", str(out)]
        else:
            doc = json.loads(dataset.read_text())
            MALFORMED_DATASETS[case](doc)
            broken = tmp_path / "broken.json"
            broken.write_text(json.dumps(doc))
            args = ["calibrate", "--dataset", str(broken), "--method", "baseline",
                    "--out", str(out)]
        proc = run(*args, "--json-errors")
        assert proc.returncode == 1
        assert json.loads(proc.stderr.strip())["error"] == "FormatError"
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
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize("command", list(UNREADABLE_INPUT_COMMANDS))
    def test_json_error_without_output(self, artifacts, tmp_path, capsys, command, kind):
        _, dataset, _ = artifacts
        bad = tmp_path / "input.json"  # a preset path needs the .json suffix
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"schema": 1, "name": "\xff"}')
        out = tmp_path / "never.out"
        args = [word.format(bad=bad, dataset=dataset, out=out)
                for word in UNREADABLE_INPUT_COMMANDS[command].split()]
        code = cli.main([*args, "--json-errors"])
        payload = json.loads(capsys.readouterr().err)  # one JSON object, nothing else
        expected = (2, "UsageError") if kind == "directory" else (1, "FormatError")
        assert (code, payload["error"]) == expected
        assert not out.exists()


def readme_commands() -> list[list[str]]:
    """The commands of the README's "Command line" block, without ``focuscal``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
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
