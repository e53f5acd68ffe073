import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focuscal.calibrate import CalibrationView, calibrate_baseline, reprojection_stats
from focuscal.core import Pose
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

    def test_exact_bytes_of_every_value_type(self):
        doc = {
            "f32": np.float32(0.1),
            "i64": np.int64(-9007199254740993),
            "array": np.array([[1.5, -0.0], [2.0, 1e-300]]),
            "tuple": (1, 2.5, "x"),
            "flags": [True, False, None],
            "neg_zero": -0.0,
            "tiny": 1e-300,
            "big": 1.25e17,
            "text": "tab\t \"quote\" back\\slash\nnew \u00e9 \u00fc \U0001f642 \x01",
            "nested": {"b": [], "a": {}},
        }
        assert canonical_dumps(doc) == (
            '{"array":[[1.5,0],[2,1e-300]],"big":1.25e+17,"f32":0.10000000149,'
            '"flags":[true,false,null],"i64":-9007199254740993,"neg_zero":0,'
            '"nested":{"a":{},"b":[]},'
            '"text":"tab\\t \\"quote\\" back\\\\slash\\nnew \\u00e9 \\u00fc '
            '\\ud83d\\ude42 \\u0001",'
            '"tiny":1e-300,"tuple":[1,2.5,"x"]}\n'
        )

    @pytest.mark.parametrize("doc, message", [
        ({1: 2}, "object keys must be strings"),
        ({"a": {1, 2}}, "cannot serialize set"),
    ])
    def test_unserializable_rejected(self, doc, message):
        with pytest.raises(TypeError, match=message):
            canonical_dumps(doc)

    def test_peak_memory_stays_near_the_output_size(self):
        template = TemplateSpec(10, 14, 8.0)
        views = parallel_stack_dataset(ROBOTIQ, template, np.arange(45.0, 155.0, 2.0))
        doc = dataset_to_dict(template, views)
        tracemalloc.start()
        try:
            text = canonical_dumps(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_text(path, canonical_dumps({"a": 1}))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "doc.json").mkdir()
        with pytest.raises(IsADirectoryError):
            atomic_write_text(tmp_path / "doc.json", "{}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


# finite floats over the whole normal range, both signs, and both zeros
MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
FLOATS = MAGNITUDES | MAGNITUDES.map(lambda x: -x) | st.sampled_from([0.0, -0.0])
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@st.composite
def datasets(draw):
    """A template, one to three views of 4-20 points each, with or without truth."""
    coord = st.floats(min_value=-1e4, max_value=1e4)
    template = TemplateSpec(
        draw(st.integers(2, 12)), draw(st.integers(2, 12)),
        draw(st.floats(min_value=0.1, max_value=100.0)),
    )
    views = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(4, 20))
        pose = None
        if draw(st.booleans()):
            pose = Pose(draw(st.lists(coord, min_size=3, max_size=3)),
                        draw(st.lists(coord, min_size=3, max_size=3)))
        views.append(CalibrationView(
            view_id=f"view{i:03d}",
            distance_mm=draw(st.floats(min_value=1e-3, max_value=1e5)),
            world=draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)),
            image=draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)),
            gt_pose=pose,
        ))
    return template, views


class TestDocumentProperties:
    @settings(deadline=None)
    @given(DOCUMENTS)
    def test_canonical_text_is_a_fixed_point(self, doc):
        text = canonical_dumps(doc)
        assert canonical_dumps(json.loads(text)) == text

    @settings(deadline=None, max_examples=50)
    @given(datasets())
    def test_dataset_write_read_write_byte_identity(self, dataset):
        template, views = dataset
        text = canonical_dumps(dataset_to_dict(template, views, {"seed": 1}))
        again = dataset_to_dict(*dataset_from_dict(json.loads(text)))
        assert canonical_dumps(again) == text


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
        recomputed = reprojection_stats(parsed.refined, views)
        assert abs(recomputed.mean_px - parsed.refined.stats.mean_px) < 1e-9
        assert abs(recomputed.rms_px - parsed.refined.stats.rms_px) < 1e-9
        assert abs(recomputed.std_px - parsed.refined.stats.std_px) < 1e-9

    def test_byte_identity(self):
        _, result = self.make_result()
        doc = calibration_to_dict(result, {"dataset_sha256": "abc", "tool_version": "x"})
        once = canonical_dumps(doc)
        again = canonical_dumps(json.loads(once))
        assert once == again

    @pytest.mark.parametrize("shared, scales, message", [
        (True, [], "0 scale pairs where shared scales need 1"),
        (False, [{"alpha_px": 1370.0, "beta_px": 1373.0}], "1 scale pairs where per-view"),
        ("false", None, "shared must be true or false"),
        (True, [{"alpha_px": -1370.0, "beta_px": 1373.0}], "scale factors must be positive"),
    ])
    def test_scale_list_checked_against_method(self, shared, scales, message):
        views, result = self.make_result()
        doc = json.loads(canonical_dumps(calibration_to_dict(result, {})))
        doc["intrinsics"]["shared"] = shared
        if scales is not None:
            doc["intrinsics"]["scales"] = scales
        with pytest.raises(FormatError, match=f"calibration: intrinsics: {message}"):
            calibration_from_dict(doc)

    @pytest.mark.parametrize("converged, termination, message", [
        ("false", None, "converged must be true when termination is 'step'"),
        ("yes", None, "converged must be true"),
        (None, None, "converged must be true"),
        (0, None, "converged must be true"),
        (1, None, "converged must be true"),
        (False, None, "converged must be true"),
        (True, "max_iterations", "converged must be false when termination is 'max_iterations'"),
        (0, "max_iterations", "converged must be false"),
    ])
    def test_converged_is_the_boolean_termination_implies(self, converged, termination,
                                                         message):
        _, result = self.make_result()
        doc = json.loads(canonical_dumps(calibration_to_dict(result, {})))
        assert (doc["converged"], doc["termination"]) == (True, "step")
        doc["converged"] = converged
        if termination is not None:
            doc["termination"] = termination
        with pytest.raises(FormatError, match=f"^calibration: {message}"):
            calibration_from_dict(doc)

    def test_non_converged_document_read_back(self):
        _, result = self.make_result()
        doc = json.loads(canonical_dumps(calibration_to_dict(result, {})))
        doc.update(converged=False, termination="max_iterations")
        parsed = calibration_from_dict(doc)
        assert (parsed.converged, parsed.termination) == (False, "max_iterations")
        assert canonical_dumps(calibration_to_dict(parsed, {})) == canonical_dumps(doc)

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

    def test_scale_table_is_read_into_distance_order(self):
        text = "distance_mm,alpha_px,beta_px\n200,1371,1374\n100,1370,1373\n"
        table = scale_table_from_csv(text)
        np.testing.assert_array_equal(table.distances, [100.0, 200.0])
        assert scale_table_to_csv(table) == (
            "distance_mm,alpha_px,beta_px\n100,1370,1373\n200,1371,1374\n")

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
