import itertools
import re

import numpy as np
import pytest

from focuscal.core import Distortion, Intrinsics, distort_points
from focuscal.errors import FocusCalError, NoPlateauFound
from focuscal.scale import (
    ParallelView,
    ScaleTable,
    central_increments,
    scale_factors,
    segment_zones,
    suggest_noise_band,
)

IMAGE = (1279, 724)


def grid_view(gap_u, gap_v, rows=8, cols=10, distance=1000.0, pitch=25.0, image=IMAGE):
    """Perfect pixel grid centred in the image."""
    u = np.arange(cols) * gap_u
    v = np.arange(rows) * gap_v
    uu, vv = np.meshgrid(u, v)
    uu += image[0] / 2 - uu.mean()
    vv += image[1] / 2 - vv.mean()
    return ParallelView(
        points=np.stack([uu, vv], axis=2),
        distance_mm=distance,
        pitch_mm=pitch,
        image_size=image,
    )


def projected_view(intr, distance, rows=10, cols=12, pitch=8.0, dist=None, image=IMAGE):
    """Fronto-parallel projection of a grid, optionally distorted."""
    xs = (np.arange(cols) - (cols - 1) / 2) * pitch
    ys = (np.arange(rows) - (rows - 1) / 2) * pitch
    xx, yy = np.meshgrid(xs, ys)
    u = intr.alpha * xx / distance + intr.gamma * yy / distance + intr.u0
    v = intr.beta * yy / distance + intr.v0
    pts = np.stack([u, v], axis=2)
    if dist is not None and not dist.is_zero:
        pts = distort_points(pts.reshape(-1, 2), intr, dist).reshape(pts.shape)
    return ParallelView(pts, distance, pitch, image)


class TestCentralIncrements:
    def test_uniform_grid(self):
        du, dv = central_increments(grid_view(34.25, 34.25))
        assert du == pytest.approx(34.25, abs=1e-12)
        assert dv == pytest.approx(34.25, abs=1e-12)

    def test_square_pixels_give_equal_increments(self):
        intr = Intrinsics(1370.0, 1370.0, 0.0, IMAGE[0] / 2, IMAGE[1] / 2)
        view = projected_view(intr, 800.0)
        du, dv = central_increments(view)
        assert du == pytest.approx(dv, abs=1e-9)

    def test_central_window_suppresses_distortion(self):
        intr = Intrinsics(1370.0, 1370.0, 0.0, IMAGE[0] / 2, IMAGE[1] / 2)
        truth = intr.alpha * 8.0 / 500.0
        view = projected_view(intr, 500.0, rows=16, cols=28, dist=Distortion(k1=0.01))
        du_central, _ = central_increments(view, window_fraction=0.2)
        du_full, _ = central_increments(view, window_fraction=10.0)
        assert abs(du_central - truth) / truth < 1e-3
        assert abs(du_full - truth) > abs(du_central - truth)

    def test_too_few_central_points(self):
        # grid far off-centre leaves nothing in the window
        view = ParallelView(
            points=np.dstack([np.full((3, 3), 5.0), np.full((3, 3), 5.0)]),
            distance_mm=100.0,
            pitch_mm=10.0,
            image_size=IMAGE,
        )
        with pytest.raises(FocusCalError, match="need adjacent point pairs along both axes"):
            central_increments(view)

    def test_nan_points_ignored(self):
        view = grid_view(30.0, 30.0)
        pts = view.points.copy()
        pts[0, 0] = np.nan
        du, dv = central_increments(
            ParallelView(pts, view.distance_mm, view.pitch_mm, view.image_size)
        )
        assert du == pytest.approx(30.0, abs=1e-12)

    def test_one_degree_tilt_error_is_small(self):
        # A 1 degree residual tilt is not corrected; quantify its bite.
        intr = Intrinsics(1370.0, 1370.0, 0.0, IMAGE[0] / 2, IMAGE[1] / 2)
        d, pitch, rows, cols = 600.0, 25.0, 8, 10
        xs = (np.arange(cols) - (cols - 1) / 2) * pitch
        ys = (np.arange(rows) - (rows - 1) / 2) * pitch
        xx, yy = np.meshgrid(xs, ys)
        theta = np.radians(1.0)
        z = d + xx * np.sin(theta)
        u = intr.alpha * (xx * np.cos(theta)) / z + intr.u0
        v = intr.beta * yy / z + intr.v0
        view = ParallelView(np.stack([u, v], axis=2), d, pitch, IMAGE)
        table = scale_factors([view])
        rel_err = abs(table.alpha[0] - intr.alpha) / intr.alpha
        assert 0.0 < rel_err < 2e-3


class TestScaleTable:
    def test_rows_are_sorted_by_distance(self):
        table = ScaleTable([300.0, 100.0, 200.0], [3.0, 1.0, 2.0], [30.0, 10.0, 20.0])
        np.testing.assert_array_equal(table.distances, [100.0, 200.0, 300.0])
        np.testing.assert_array_equal(table.alpha, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(table.beta, [10.0, 20.0, 30.0])
        assert not table.distances.flags.writeable

    @pytest.mark.parametrize("bad", [0.0, -100.0, np.nan])
    def test_distance_that_is_not_positive_is_rejected(self, bad):
        with pytest.raises(ValueError, match="distances must be strictly positive"):
            ScaleTable([100.0, bad], [1370.0, 1370.0], [1373.0, 1373.0])

    def test_rows_at_one_distance_keep_their_order(self):
        table = ScaleTable([120.0, 110.0, 100.0, 110.0, 130.0], [5.0, 4.0, 3.0, 2.0, 1.0],
                           np.ones(5))
        np.testing.assert_array_equal(table.alpha, [3.0, 4.0, 2.0, 5.0, 1.0])
        with pytest.raises(FocusCalError, match=r"two scale-table rows at 110\.0 mm$"):
            segment_zones(table, 1.0)


class TestScaleFactors:
    def test_exact_inversion(self):
        view = grid_view(34.25, 34.25, distance=1000.0, pitch=25.0)
        table = scale_factors([view])
        assert table.alpha[0] == pytest.approx(1370.0, abs=1e-9)
        assert table.beta[0] == pytest.approx(1370.0, abs=1e-9)

    def test_zero_increment_gives_zero_scale(self):
        pts = grid_view(30.0, 30.0).points.copy()
        pts[..., 0] = IMAGE[0] / 2  # all columns collapse in u
        view = ParallelView(pts, 1000.0, 25.0, IMAGE)
        table = scale_factors([view])
        assert table.alpha[0] == 0.0

    def test_rows_are_in_distance_order_whatever_the_view_order(self):
        views = [
            grid_view(30.0, 30.0, distance=500.0),
            grid_view(20.0, 20.0, distance=900.0),
            grid_view(25.0, 25.0, distance=700.0),
        ]
        for perm in itertools.permutations(range(3)):
            table = scale_factors([views[i] for i in perm])
            np.testing.assert_array_equal(table.distances, [500.0, 700.0, 900.0])
            np.testing.assert_allclose(table.alpha, [600.0, 700.0, 720.0], rtol=1e-12)
            np.testing.assert_allclose(table.beta, table.alpha, rtol=1e-12)

    def test_unit_invariance_mm_vs_cm(self):
        view_mm = grid_view(30.0, 30.0, distance=1000.0, pitch=25.0)
        view_cm = ParallelView(view_mm.points, 100.0, 2.5, IMAGE)
        a = scale_factors([view_mm]).alpha[0]
        b = scale_factors([view_cm]).alpha[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_no_views(self):
        with pytest.raises(ValueError, match="need at least one view"):
            scale_factors([])

    def test_views_with_different_pitches(self):
        views = [grid_view(30.0, 30.0, pitch=25.0), grid_view(30.0, 30.0, pitch=20.0)]
        with pytest.raises(ValueError, match="views must share the template pitch"):
            scale_factors(views)


def curve_table(noise_band, knee=150.0, spacing=25.0, lo=50.0, hi=1000.0, value0=1370.0):
    d = np.arange(lo, hi + spacing / 2, spacing)
    k_f = noise_band * knee**2
    alpha = value0 - k_f / d**2
    return ScaleTable(d, alpha, alpha * 1.002)


def reference_plateau(values, noise_band):
    """Rows (i, j) of the longest, then latest, flat run by a direct scan, or None."""
    n = len(values)
    best = None
    for i in range(n - 2):
        for j in range(i + 2, n):
            window = values[i : j + 1]
            if np.max(np.abs(window - window.mean())) <= noise_band:
                if best is None or (j - i, j, -i) > (best[1] - best[0], best[1], -best[0]):
                    best = (i, j)
    return best


def assert_matches_reference(table, noise_band):
    best = reference_plateau(table.alpha, noise_band)
    if best is None:
        with pytest.raises(NoPlateauFound, match=re.escape(f"flat within {noise_band}") + "$"):
            segment_zones(table, noise_band)
        return
    i, j = best
    seg = segment_zones(table, noise_band)
    assert (seg.zone1_end_mm, seg.zone2_end_mm) == (table.distances[i], table.distances[j])
    assert seg.plateau_alpha_px == table.alpha[i : j + 1].mean()
    assert seg.plateau_beta_px == table.beta[i : j + 1].mean()


def random_table(rng, n):
    """Rising rows, a plateau, then a noisy tail, at random sizes and scales."""
    knee, tail = sorted(rng.integers(0, n + 1, size=2))
    alpha = np.full(n, 1370.0) + rng.normal(0.0, rng.uniform(0.01, 2.0), n)
    alpha[:knee] -= rng.uniform(0.5, 20.0) * np.arange(knee, 0, -1)
    alpha[tail:] += rng.normal(0.0, rng.uniform(1.0, 30.0), n - tail)
    return ScaleTable(np.arange(1.0, n + 1.0) * 10.0, alpha, alpha * 1.002)


class TestSegmentZones:
    def test_repeated_distance_is_named(self):
        table = ScaleTable([100.0, 110.0, 110.0, 120.0, 130.0], np.ones(5), np.ones(5))
        with pytest.raises(FocusCalError, match=r"two scale-table rows at 110\.0 mm$"):
            segment_zones(table, 1.0)

    def test_matches_reference_on_random_tables(self):
        rng = np.random.default_rng(140)
        for _ in range(150):
            table = random_table(rng, int(rng.integers(5, 40)))
            assert_matches_reference(table, float(rng.uniform(0.05, 8.0)))

    def test_matches_reference_at_band_edge(self):
        # the band equals one window's spread exactly, so the <= comparison decides
        rng = np.random.default_rng(141)
        for _ in range(150):
            n = int(rng.integers(5, 40))
            table = random_table(rng, n)
            length = int(rng.integers(3, n + 1))
            start = int(rng.integers(0, n - length + 1))
            window = table.alpha[start : start + length]
            assert_matches_reference(table, float(np.max(np.abs(window - window.mean()))))

    def test_latest_of_equal_length_runs_wins(self):
        alpha = np.array([0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0]) + 1370.0
        table = ScaleTable(np.arange(1.0, 12.0) * 10.0, alpha, alpha)
        assert reference_plateau(alpha, 0.5) == (8, 10)
        assert_matches_reference(table, 0.5)

    def test_knee_located_within_one_spacing(self):
        band = 2.0
        table = curve_table(band, knee=150.0, spacing=25.0)
        seg = segment_zones(table, band)
        assert abs(seg.zone1_end_mm - 150.0) <= 25.0
        assert seg.zone2_end_mm == table.distances[-1]

    def test_constant_table(self):
        d = np.linspace(100, 900, 9)
        table = ScaleTable(d, np.full(9, 1370.8), np.full(9, 1373.8))
        seg = segment_zones(table, 1.0)
        assert seg.zone1_end_mm == 100.0
        assert seg.zone2_end_mm == 900.0
        assert seg.plateau_alpha_px == pytest.approx(1370.8)
        assert seg.plateau_beta_px == pytest.approx(1373.8)

    def test_perturbed_tail_marks_zone3(self):
        band = 1.0
        d = np.linspace(100, 1000, 19)
        alpha = np.full(19, 1370.0)
        alpha[-3:] += 10.0 * band * np.array([1.0, -1.3, 1.7])
        table = ScaleTable(d, alpha, alpha)
        seg = segment_zones(table, band)
        onset = d[16]
        assert abs(seg.zone2_end_mm - onset) <= d[1] - d[0]
        assert seg.plateau_alpha_px == pytest.approx(1370.0)

    def test_no_plateau(self):
        d = np.linspace(40, 120, 9)
        alpha = 1370.0 - 4.0e5 / d**2  # steep everywhere
        with pytest.raises(NoPlateauFound):
            segment_zones(ScaleTable(d, alpha, alpha), 0.5)

    def test_band_monotonicity(self):
        table = curve_table(2.0, knee=200.0, spacing=20.0, lo=60.0, hi=800.0)
        ends = [
            segment_zones(table, band).zone1_end_mm
            for band in (1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a >= b for a, b in zip(ends, ends[1:]))

    def test_requires_five_rows(self):
        table = ScaleTable([1, 2, 3, 4], np.ones(4), np.ones(4))
        with pytest.raises(FocusCalError, match="need at least five rows"):
            segment_zones(table, 1.0)

    @pytest.mark.parametrize("rows", [4, 5])
    @pytest.mark.parametrize("band", [0.0, -1.0, np.nan])
    def test_band_that_is_not_positive_is_an_argument_error(self, rows, band):
        # checked before the table, so a short table does not hide it
        table = ScaleTable(np.arange(1.0, rows + 1.0), np.ones(rows), np.ones(rows))
        with pytest.raises(ValueError, match="noise band must be positive"):
            segment_zones(table, band)


class TestPlateauScale:
    """The plateau values ``segment_zones`` reports: the mean of the plateau rows."""

    def test_exact_plateau_value(self):
        d = np.linspace(100, 900, 9)
        table = ScaleTable(d, np.full(9, 1370.8), np.full(9, 1373.8))
        seg = segment_zones(table, 0.5)
        assert seg.plateau_alpha_px == pytest.approx(1370.8)
        assert seg.plateau_beta_px == pytest.approx(1373.8)

    def test_mean_of_two(self):
        d = np.linspace(100.0, 600.0, 6)
        alpha = np.array([1000.0, 1100.0, 1370.0, 1372.0, 1370.0, 1372.0])
        seg = segment_zones(ScaleTable(d, alpha, alpha + 3.0), 1.5)
        assert (seg.zone1_end_mm, seg.zone2_end_mm) == (300.0, 600.0)
        assert seg.plateau_alpha_px == pytest.approx(1371.0)
        assert seg.plateau_beta_px == pytest.approx(1374.0)

    def test_monte_carlo_band(self):
        rng = np.random.default_rng(21)
        sigma, n = 2.0, 20
        hits = 0
        for _ in range(100):
            alpha = 1370.0 + rng.normal(0, sigma, n)
            table = ScaleTable(np.linspace(200, 1100, n), alpha, alpha)
            # a band this wide makes every row part of the plateau
            a = segment_zones(table, 20 * sigma).plateau_alpha_px
            if abs(a - 1370.0) <= 3 * sigma / np.sqrt(n):
                hits += 1
        assert hits >= 95


class TestSuggestNoiseBand:
    def test_positive_on_noisy_grid(self):
        rng = np.random.default_rng(22)
        pts = grid_view(30.0, 30.0).points + rng.normal(0, 0.5, grid_view(30.0, 30.0).points.shape)
        view = ParallelView(pts, 1000.0, 25.0, IMAGE)
        band = suggest_noise_band([view])
        assert band > 0
        # two sigma of the propagated gap scatter lands near sigma*sqrt(2)*2*d/pitch
        rough = 2 * 0.5 * np.sqrt(2) * 1000.0 / 25.0
        assert 0.2 * rough < band < 5 * rough

    def test_floor_on_exact_grid(self):
        band = suggest_noise_band([grid_view(30.0, 30.0)])
        assert band > 0

    def test_no_view_with_two_central_gaps(self):
        with pytest.raises(FocusCalError, match="no view has two central horizontal gaps"):
            suggest_noise_band([grid_view(30.0, 30.0)], window_fraction=1e-6)
