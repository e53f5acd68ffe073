import json

import numpy as np
import pytest

from focuscal.calibrate import calibrate_baseline, reprojection_stats
from focuscal.errors import FormatError
from focuscal.io import (
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
    parallel_views_from_dataset,
    scale_table_from_csv,
    scale_table_to_csv,
    segmentation_to_dict,
    sha256_hex,
)
from focuscal.lens import CurveFit
from focuscal.scale import ScaleTable, ZoneSegmentation, scale_factors
from focuscal.synth import (
    FOCUS_FIXED,
    TemplateSpec,
    bias_report,
    generate_dataset,
    generate_parallel_stack,
    load_preset,
    parallel_stack_dataset,
)

ROBOTIQ = load_preset("robotiq")


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        text = canonical_dumps({"b": 1, "a": [1.5, 2]})
        assert text == '{"a":[1.5,2],"b":1}\n'

    def test_twelve_significant_digits(self):
        text = canonical_dumps({"x": 1370.1234567890123})
        assert '"x":1370.12345679' in text

    def test_negative_zero_normalized(self):
        assert canonical_dumps(-0.0) == "0\n"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_write_read_write_byte_identity(self):
        rng = np.random.default_rng(60)
        doc = {
            "floats": list(rng.normal(size=20) * 10.0 ** rng.integers(-8, 8, 20)),
            "ints": [0, -3, 2**40],
            "nested": {"s": "text", "flag": True, "none": None},
        }
        once = canonical_dumps(doc)
        again = canonical_dumps(json.loads(once))
        assert once == again

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, canonical_dumps({"a": 1}))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestDatasetDocument:
    def make(self):
        template = TemplateSpec(5, 7, 12.0)
        views = generate_dataset(
            ROBOTIQ, template, [300.0, 500.0], FOCUS_FIXED, 0.2, seed=61
        )
        return template, views

    def test_round_trip(self):
        template, views = self.make()
        doc = dataset_to_dict(template, views, {"preset": "robotiq", "seed": 61})
        t2, v2, meta = dataset_from_dict(json.loads(canonical_dumps(doc)))
        assert t2 == template
        assert meta["preset"] == "robotiq"
        for a, b in zip(views, v2):
            assert a.view_id == b.view_id
            np.testing.assert_allclose(a.image, b.image, atol=1e-9)
            np.testing.assert_allclose(a.world, b.world, atol=1e-12)
            np.testing.assert_allclose(
                a.gt_pose.translation, b.gt_pose.translation, atol=1e-9
            )

    def test_schema_version_enforced(self):
        template, views = self.make()
        doc = dataset_to_dict(template, views, {})
        doc["schema"] = 99
        with pytest.raises(FormatError):
            dataset_from_dict(doc)

    def test_too_few_points_rejected(self):
        template, views = self.make()
        doc = dataset_to_dict(template, views, {})
        doc["views"][0]["points"] = doc["views"][0]["points"][:3]
        with pytest.raises(FormatError):
            dataset_from_dict(doc)

    def test_parallel_views_rebuilt(self):
        template = TemplateSpec(8, 10, 8.0)
        views = parallel_stack_dataset(ROBOTIQ, template, [120.0, 300.0], 0.0, seed=62)
        meta = {"image_size_px": list(ROBOTIQ.image_size)}
        doc = dataset_to_dict(template, views, meta)
        t2, v2, m2 = dataset_from_dict(doc)
        rebuilt = parallel_views_from_dataset(t2, v2, m2)
        direct = generate_parallel_stack(ROBOTIQ, template, [120.0, 300.0], 0.0, seed=62)
        table_a = scale_factors(rebuilt)
        table_b = scale_factors(direct)
        np.testing.assert_allclose(table_a.alpha, table_b.alpha, atol=1e-9)

    def test_missing_image_size_rejected(self):
        template = TemplateSpec(8, 10, 8.0)
        views = parallel_stack_dataset(ROBOTIQ, template, [120.0], 0.0, seed=63)
        with pytest.raises(FormatError):
            parallel_views_from_dataset(template, views, {})


class TestCalibrationDocument:
    def make_result(self):
        template = TemplateSpec(5, 7, 12.0)
        views = generate_dataset(
            ROBOTIQ, template, np.linspace(300, 900, 6), FOCUS_FIXED, 0.2, seed=64
        )
        return views, calibrate_baseline(views)

    def test_round_trip_and_stats_recompute(self):
        views, result = self.make_result()
        doc = calibration_to_dict(result, {"dataset_sha256": "abc", "tool_version": "x"})
        text = canonical_dumps(doc)
        parsed = calibration_from_dict(json.loads(text))
        assert parsed.method == "baseline"
        assert parsed.converged == result.converged
        recomputed = reprojection_stats(parsed, views)
        assert abs(recomputed.mean_px - parsed.refined.stats.mean_px) < 1e-9
        assert abs(recomputed.rms_px - parsed.refined.stats.rms_px) < 1e-9
        assert abs(recomputed.std_px - parsed.refined.stats.std_px) < 1e-9

    def test_byte_identity(self):
        _, result = self.make_result()
        doc = calibration_to_dict(result, {"dataset_sha256": "abc", "tool_version": "x"})
        once = canonical_dumps(doc)
        again = canonical_dumps(json.loads(once))
        assert once == again

    def test_top_level_fields(self):
        _, result = self.make_result()
        doc = calibration_to_dict(result, {})
        for key in ("schema", "method", "intrinsics", "distortion", "poses", "stats",
                    "algebraic", "provenance", "converged"):
            assert key in doc


class TestCsvTables:
    def test_scale_table_round_trip(self):
        table = ScaleTable([100.0, 200.0], [1370.123456789, 1371.5], [1373.0, 1374.25])
        text = scale_table_to_csv(table)
        assert text.startswith("distance_mm,alpha_px,beta_px\n")
        assert "\r" not in text
        back = scale_table_from_csv(text)
        np.testing.assert_allclose(back.alpha, table.alpha, rtol=1e-11)
        assert scale_table_to_csv(back) == text

    def test_scale_table_bad_header(self):
        with pytest.raises(FormatError):
            scale_table_from_csv("d,a,b\n1,2,3\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("100,nan,1373", "finite"),
            ("inf,1370,1373", "finite"),
            ("-100,1370,1373", "positive"),
            ("0,1370,1373", "positive"),
            ("100,1370,-1373", "positive"),
        ],
    )
    def test_scale_table_bad_values(self, row, message):
        text = f"distance_mm,alpha_px,beta_px\n200,1371,1374\n{row}\n"
        with pytest.raises(FormatError, match=message):
            scale_table_from_csv(text)

    def test_segmentation_keys(self):
        seg = ZoneSegmentation(150.0, 1200.0, 1370.8, 1373.8)
        doc = segmentation_to_dict(seg)
        assert set(doc) == {
            "schema", "zone1_end_mm", "zone2_end_mm", "plateau_alpha_px", "plateau_beta_px",
        }

    def test_curve_fits_round_trip(self):
        doc = curve_fits_to_dict(CurveFit(2.5e6, 1370.8), CurveFit(2.6e6, 1373.8))
        a, b = curve_fits_from_dict(json.loads(canonical_dumps(doc)))
        assert a.k_f == pytest.approx(2.5e6)
        assert b.value0 == pytest.approx(1373.8)

    def test_bias_csv_shape(self):
        template = TemplateSpec(5, 7, 12.0)
        views = generate_dataset(
            ROBOTIQ, template, np.linspace(300, 900, 6), FOCUS_FIXED, 0.0, seed=65
        )
        result = calibrate_baseline(views)
        text = bias_to_csv(bias_report(result, views))
        lines = text.strip().split("\n")
        assert lines[0] == "view_id,dx_mm,dy_mm,dz_mm,rot_err_rad"
        assert len(lines) == 1 + len(views)

    def test_focal_curve_csv(self):
        text = focal_curve_to_csv([100.0, 200.0], [14.5, 14.75])
        assert text == "distance_mm,focal_mm\n100,14.5\n200,14.75\n"


class TestHashing:
    def test_sha256_stable(self):
        assert sha256_hex("abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
