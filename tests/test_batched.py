"""The batched per-view setup of a calibration gives each view's result to the last bit.

Each reference below is the one-view code the batch replaced, kept here so a
change to the float operations of both paths at once still shows.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focuscal import cli, homography
from focuscal.calibrate import (
    CalibrationView,
    IntrinsicSet,
    _Problem,
    _conic_rows,
    _poses_from_homographies,
    _stats_from_residuals,
    calibrate_baseline,
    calibrate_proposed,
    extrinsics_from_homography,
    intrinsics_from_homographies,
)
from focuscal.core import Distortion, Intrinsics, Pose, rodrigues_from_rotations
from focuscal.errors import FocusCalError
from focuscal.homography import estimate_homographies, estimate_homography
from focuscal.io import canonical_dumps, dataset_to_dict, scale_table_to_csv
from focuscal.scale import ScaleTable
from focuscal.synth import FOCUS_FIXED, FOCUS_VARYING, TemplateSpec, generate_dataset, load_preset
from per_view import canonical, problem_rows

ROBOTIQ = load_preset("robotiq")


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# the one-view code the batch replaced


def reference_homography(world, image):
    """Matrix and condition of the one-view normalized DLT."""

    def normalize(pts):
        centroid = pts.mean(axis=0)
        centered = pts - centroid
        s = np.sqrt(2.0) / float(np.mean(np.linalg.norm(centered, axis=1)))
        return centered * s, np.array(
            [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
        )

    wp, ip = np.asarray(world, dtype=float)[:, :2], np.asarray(image, dtype=float)
    n = len(wp)
    wn, t_world = normalize(wp)
    im, t_image = normalize(ip)
    design = np.zeros((2 * n, 9))
    ones = np.ones(n)
    design[0::2, 0:3] = np.column_stack([wn, ones])
    design[1::2, 3:6] = np.column_stack([wn, ones])
    design[0::2, 6:9] = -im[:, 0:1] * np.column_stack([wn, ones])
    design[1::2, 6:9] = -im[:, 1:2] * np.column_stack([wn, ones])
    if n == 4:
        design = np.vstack([design, np.zeros(9)])
    _, sing, vt = np.linalg.svd(design, full_matrices=False)
    h = np.linalg.inv(t_image) @ vt[-1].reshape(3, 3) @ t_world
    return canonical(h), float(sing[0] / sing[7])


def reference_rodrigues(rot):
    """Axis-angle vector of one rotation, with the near-pi branch."""
    w = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]])
    s = 0.5 * float(np.linalg.norm(w))
    c = 0.5 * (float(np.trace(rot)) - 1.0)
    theta = float(np.arctan2(s, c))
    if theta < 1e-7:
        return 0.5 * w
    if np.pi - theta > 1e-4:
        return (theta / (2.0 * s)) * w
    outer = (0.5 * (rot + rot.T) - c * np.eye(3)) / (1.0 - c)
    k = int(np.argmax(np.diag(outer)))
    axis = outer[:, k] / np.sqrt(max(outer[k, k], np.finfo(float).tiny))
    axis /= np.linalg.norm(axis)
    return theta * (-axis if axis @ w < 0.0 else axis)


def reference_pose(m, a):
    """Rotation vector and translation of the one-view homography decomposition."""
    b = np.linalg.solve(a, m)
    rho = 1.0 / float(np.linalg.norm(b[:, 0]))
    t = rho * b[:, 2]
    if t[2] < 0:
        rho, t = -rho, -t
    r1, r2 = rho * b[:, 0], rho * b[:, 1]
    u, _, vt = np.linalg.svd(np.column_stack([r1, r2, np.cross(r1, r2)]))
    if np.linalg.det(u @ vt) < 0:
        u[:, -1] = -u[:, -1]
    return reference_rodrigues(u @ vt), t


def reference_conic_rows(m):
    def row(i, j):
        return np.array([
            m[0, i] * m[0, j],
            m[0, i] * m[1, j] + m[1, i] * m[0, j],
            m[1, i] * m[1, j],
            m[2, i] * m[0, j] + m[0, i] * m[2, j],
            m[2, i] * m[1, j] + m[1, i] * m[2, j],
            m[2, i] * m[2, j],
        ])

    return row(0, 1), row(0, 0) - row(1, 1)


# synthetic views


def random_view(rng, n, pivot_zero=False):
    """n plane points and their noisy image under a random homography.

    With ``pivot_zero`` the plane origin maps to infinity (H[2, 2] = 0) and
    the image is exact, so canonicalization falls back from the bottom-right
    pivot.
    """
    world = rng.uniform(10.0, 100.0, (n, 2))
    h = np.eye(3)
    h[:2, :2] += rng.uniform(-0.3, 0.3, (2, 2))
    h[:2, 2] = rng.uniform(100.0, 500.0, 2)
    h[2, :2] = rng.uniform(1e-3, 5e-3, 2) if pivot_zero else rng.uniform(-1e-3, 1e-3, 2)
    if pivot_zero:
        h[2, 2] = 0.0
    mapped = np.column_stack([world, np.ones(n)]) @ h.T
    image = mapped[:, :2] / mapped[:, 2:]
    return world, image if pivot_zero else image + rng.normal(0.0, 0.3, (n, 2))


def pose_homography(rng, a, angle, flip):
    """A homography of a random pose with rotation angle ``angle``, negated if ``flip``."""
    axis = rng.normal(size=3)
    pose = Pose(angle * axis / np.linalg.norm(axis),
                [rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(300, 900)])
    rot = pose.matrix
    m = a @ np.column_stack([rot[:, 0], rot[:, 1], pose.translation]) * rng.uniform(0.1, 10.0)
    return -m if flip else m


class TestBatchedHomographies:
    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(st.sampled_from([4, 5, 6, 9, 54]), min_size=1, max_size=7),
        pivots=st.lists(st.booleans(), min_size=7, max_size=7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_view_as_alone(self, counts, pivots, seed):
        rng = np.random.default_rng(seed)
        views = [random_view(rng, n, pivot) for n, pivot in zip(counts, pivots)]
        batch = estimate_homographies([w for w, _ in views], [i for _, i in views])
        for (world, image), got in zip(views, batch):
            alone = estimate_homography(world, image)
            assert same(got.matrix, alone.matrix) and same(got.condition, alone.condition)
            matrix, condition = reference_homography(world, image)
            assert same(got.matrix, matrix) and same(got.condition, condition)

    def test_near_zero_pivot_takes_the_fallback(self):
        rng = np.random.default_rng(5)
        world, image = random_view(rng, 4, pivot_zero=True)
        other_world, other_image = random_view(rng, 9)
        got = estimate_homographies([world, other_world], [image, other_image])[0]
        assert abs(got.matrix[2, 2]) <= 1e-12
        assert same(got.matrix, reference_homography(world, image)[0])

    def test_error_names_the_first_rejected_view(self):
        rng = np.random.default_rng(6)
        views = [random_view(rng, n) for n in (9, 6, 9, 5)]
        worlds = [w for w, _ in views]
        images = [i for _, i in views]
        worlds[2] = np.column_stack([np.arange(9.0), np.zeros(9)])  # collinear
        worlds[3] = worlds[3][:3]
        images[3] = images[3][:3]
        with pytest.raises(FocusCalError) as exc:
            estimate_homographies(worlds, images, ["a", "b", "c", "d"])
        assert str(exc.value) == "view c: correspondences do not determine a homography"
        with pytest.raises(FocusCalError) as exc:
            estimate_homographies(worlds[3:], images[3:], ["d"])
        assert str(exc.value) == "view d: need at least 4 correspondences, got 3"
        with pytest.raises(FocusCalError) as exc:
            estimate_homography(worlds[2], images[2])
        assert str(exc.value) == "correspondences do not determine a homography"

    def test_lists_of_different_lengths_rejected(self):
        rng = np.random.default_rng(8)
        worlds, images = zip(*(random_view(rng, 9) for _ in range(3)))
        for args in [(worlds, images[:2]), (worlds[:2], images), (worlds, images, ["a", "b"])]:
            with pytest.raises(ValueError, match="worlds, images and labels differ in length"):
                estimate_homographies(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_its_view(self, monkeypatch, bad):
        rng = np.random.default_rng(7)
        views = [random_view(rng, n) for n in (9, 6, 9, 9)]
        worlds = [w for w, _ in views]
        images = [i.copy() for _, i in views]
        images[2][4, 1] = bad  # the DLT of its 9-point group would fail for all three
        batches = []
        dlt = homography._dlt

        def spy(wp, ip):
            batches.append(dlt(wp, ip))
            return batches[-1]

        monkeypatch.setattr(homography, "_dlt", spy)
        with pytest.raises(FocusCalError) as exc:
            estimate_homographies(worlds, images, ["a", "b", "c", "d"])
        assert str(exc.value) == "view c: correspondences must be finite"
        # the bad view left its group; the others were estimated as alone
        got = [m for matrices, _, _ in batches for m in matrices]
        assert len(got) == 3
        alone = [estimate_homography(worlds[i], images[i]).matrix for i in (0, 3, 1)]
        for g, a in zip(got, alone):
            assert same(g, a)
        world = worlds[1].copy()
        world[0, 0] = bad
        with pytest.raises(FocusCalError, match="^correspondences must be finite$"):
            estimate_homography(world, images[1])


class TestBatchedPoses:
    @settings(max_examples=40, deadline=None)
    @given(
        angles=st.lists(
            st.one_of(st.floats(0.0, 3.0), st.floats(np.pi - 1e-4, np.pi)),
            min_size=1, max_size=6,
        ),
        flips=st.lists(st.booleans(), min_size=6, max_size=6),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_view_as_alone(self, angles, flips, shared, seed):
        rng = np.random.default_rng(seed)
        intrinsics = [
            Intrinsics(rng.uniform(900, 1500), rng.uniform(900, 1500), rng.uniform(-1, 1),
                       rng.uniform(600, 700), rng.uniform(300, 400)).matrix
            for _ in angles
        ]
        if shared:
            intrinsics = [intrinsics[0]] * len(angles)
        homs = [pose_homography(rng, a, angle, flip)
                for a, angle, flip in zip(intrinsics, angles, flips)]
        batch = _poses_from_homographies(homs, intrinsics)
        for m, a, got in zip(homs, intrinsics, batch):
            alone = extrinsics_from_homography(m, a)
            assert same(got.rodrigues, alone.rodrigues)
            assert same(got.translation, alone.translation)
            rvec, t = reference_pose(m, a)
            assert same(got.rodrigues, rvec) and same(got.translation, t)

    @settings(max_examples=30, deadline=None)
    @given(
        angles=st.lists(
            st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, np.pi),
                      st.floats(np.pi - 1e-4, np.pi)),
            min_size=1, max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rotation_vectors_as_alone(self, angles, seed):
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(len(angles), 3))
        rots = np.array([Pose(angle * axis / np.linalg.norm(axis), np.zeros(3)).matrix
                         for angle, axis in zip(angles, axes)])
        for rot, got in zip(rots, rodrigues_from_rotations(rots)):
            assert same(got, reference_rodrigues(rot))

    def test_near_pi_and_sign_flip_are_reached(self):
        rng = np.random.default_rng(7)
        a = Intrinsics(1000.0, 990.0, 0.2, 640.0, 360.0).matrix
        homs = [pose_homography(rng, a, np.pi - 1e-6, True),
                pose_homography(rng, a, 0.4, False)]
        got = _poses_from_homographies(homs, [a, a])
        assert np.linalg.norm(got[0].rodrigues) > np.pi - 1e-4
        for m, pose in zip(homs, got):
            rvec, t = reference_pose(m, a)
            assert same(pose.rodrigues, rvec) and same(pose.translation, t)

    def test_error_names_the_first_rejected_view(self):
        rng = np.random.default_rng(8)
        a = Intrinsics(1000.0, 990.0, 0.2, 640.0, 360.0).matrix
        homs = [pose_homography(rng, a, 0.3, False) for _ in range(4)]
        # template plane through the camera centre: no sign puts it in front
        homs[1] = a @ np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 1], [10.0, 5.0, 0.0]])
        homs[3] = np.zeros((3, 3))
        with pytest.raises(FocusCalError) as exc:
            _poses_from_homographies(homs, [a] * 4, ["p", "q", "r", "s"])
        assert str(exc.value) == (
            "view q: no scale sign puts the template in front of the camera"
        )
        with pytest.raises(FocusCalError) as exc:
            _poses_from_homographies(homs[2:], [a] * 2, ["r", "s"])
        assert str(exc.value) == "view s: homography first column vanishes under the intrinsics"
        with pytest.raises(FocusCalError) as exc:
            extrinsics_from_homography(homs[1], a)
        assert str(exc.value) == "no scale sign puts the template in front of the camera"


def mixed_views(seed=11):
    """Noisy views of one geometry, cut to 4, 5 and 20 points beside full ones."""
    full = generate_dataset(ROBOTIQ, TemplateSpec(5, 6, 15.0), np.linspace(300, 500, 6),
                            FOCUS_FIXED, 0.3, seed)
    corners = [0, 5, 24, 29, 14]
    cut = {1: corners[:4], 3: corners, 4: list(range(20))}
    return [
        CalibrationView(v.view_id, v.distance_mm, v.world[cut[i]], v.image[cut[i]], v.gt_pose)
        if i in cut else v
        for i, v in enumerate(full)
    ]


class TestBatchedStatsAndClosedForm:
    def test_stats_per_view_as_alone(self):
        rng = np.random.default_rng(9)
        residuals = [rng.normal(0.0, 0.4, (n, 2)) for n in (54, 4, 54, 5, 192, 4)]
        stats = _stats_from_residuals(np.concatenate(residuals), [len(r) for r in residuals],
                                      [f"v{i}" for i in range(6)])
        for r, view in zip(residuals, stats.per_view):
            assert same(view.mean_abs_px, float(np.linalg.norm(r, axis=1).mean()))
            assert same(view.rms_px, float(np.sqrt(np.mean(r**2))))
            assert view.n_points == len(r)

    def test_conic_rows_as_the_per_view_loop(self):
        rng = np.random.default_rng(10)
        homs = rng.normal(size=(7, 3, 3))
        first = _conic_rows(homs[:, :, 0], homs[:, :, 1])
        second = (_conic_rows(homs[:, :, 0], homs[:, :, 0])
                  - _conic_rows(homs[:, :, 1], homs[:, :, 1]))
        for m, row0, row1 in zip(homs, first, second):
            ref0, ref1 = reference_conic_rows(m)
            assert same(row0, ref0) and same(row1, ref1)

    def test_mixed_point_counts_calibrate(self):
        views = mixed_views()
        assert sorted({len(v) for v in views}) == [4, 5, 20, 30]
        result = calibrate_baseline(views)
        assert result.converged
        assert [s.n_points for s in result.refined.stats.per_view] == [len(v) for v in views]


class TestJacobianReuse:
    @pytest.fixture(scope="class")
    def points(self):
        views = mixed_views(12)
        intr = IntrinsicSet(640.0, 360.0, 0.1, ((1350.0, 1345.0),), True)
        problem = _Problem(views, intr, estimate_distortion=True)
        poses = [Pose(v.gt_pose.rodrigues + 0.01, v.gt_pose.translation) for v in views]
        x = problem.pack(intr, Distortion(0.01, -0.02), poses)
        y = x.copy()
        y[0] += 1e-3
        return views, intr, x, y

    @staticmethod
    def blocks(jac):
        """A snapshot of the whole buffer, the residual row included."""
        return jac.base.tobytes()

    def test_same_after_any_residual(self, points):
        views, intr, x, y = points
        fresh = self.blocks(_Problem(views, intr, True).jacobian(x))
        problem = _Problem(views, intr, True)
        problem.residual(x)
        assert self.blocks(problem.jacobian(x)) == fresh
        problem.residual(y)
        assert self.blocks(problem.jacobian(x)) == fresh
        assert self.blocks(problem.jacobian(y)) != fresh

    def test_mutating_the_residual_argument_does_not_fool_it(self, points):
        views, intr, x, y = points
        fresh = self.blocks(_Problem(views, intr, True).jacobian(x))
        problem = _Problem(views, intr, True)
        moved = y.copy()
        problem.residual(moved)
        moved[:] = x  # now equal to x, but the last pass was at y
        assert self.blocks(problem.jacobian(x)) == fresh
        kept = x.copy()
        problem.residual(kept)
        kept += 1.0
        assert self.blocks(problem.jacobian(x)) == fresh


@functools.cache
def benchmark_views(geometry, seed):
    """The views of a calib-s, calib-s-cut or calib-m dataset at ``seed``.

    calib-s-cut is calib-s with view 3 cut to four corners and view 7 to the
    corners and the central point.
    """
    if geometry == "calib-m":
        template, distances = TemplateSpec(12, 16, 3.0), np.linspace(80, 145, 60)
    else:
        template, distances = TemplateSpec(6, 9, 8.0), np.r_[50.0, np.linspace(130, 145, 14)]
    views = generate_dataset(ROBOTIQ, template, distances, FOCUS_VARYING, 0.25, seed)
    if geometry == "calib-s-cut":
        for i, keep in ((3, [0, 8, 45, 53]), (7, [0, 8, 45, 53, 22])):
            v = views[i]
            views[i] = CalibrationView(v.view_id, v.distance_mm, v.world[keep], v.image[keep],
                                       v.gt_pose)
    return views


class TestGroupedForwardPass:
    """The forward pass by groups gives the per-point pass's residuals and Jacobian."""

    # calib-m at seed 4 holds its views in view order (its 190-point view is
    # first); at seed 6 the 191-point view is second, so residual() permutes.
    @pytest.mark.parametrize("geometry, seed, groups, permuted", [
        ("calib-s", 0, [26, 54], False), ("calib-s-cut", 0, [4, 5, 26, 54], True),
        ("calib-m", 4, [190, 192], False), ("calib-m", 6, [191, 192], True),
    ])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("estimate_distortion", [True, False])
    def test_bits_as_per_point(self, geometry, seed, groups, permuted, shared,
                               estimate_distortion):
        views = benchmark_views(geometry, seed)
        pairs = tuple((1380.0 + i, 1370.0 - i) for i in range(len(views)))
        start = IntrinsicSet(640.0, 360.0, 0.1, pairs[:1] if shared else pairs, shared)
        problem = _Problem(views, start, estimate_distortion)
        assert [n for _, n, _ in problem.groups] == groups
        assert (problem._unsort is not None) == permuted
        poses = [Pose(v.gt_pose.rodrigues + 0.01, v.gt_pose.translation) for v in views]
        x = problem.pack(start, Distortion(0.01, -0.02), poses)
        r, jac = problem_rows(problem, views, x)
        assert same(problem.residual(x), r)
        assert same(problem.jacobian(x), jac)


class TestViewNamedInCommandLineErrors:
    @pytest.mark.parametrize("method", ["baseline", "proposed"])
    def test_collinear_view_named(self, tmp_path, capsys, method):
        views = generate_dataset(ROBOTIQ, TemplateSpec(5, 6, 15.0), np.linspace(300, 500, 6),
                                 FOCUS_FIXED, 0.3, 13)
        v = views[4]
        line = np.column_stack([v.world[:, 0], np.zeros(len(v))])
        views[4] = CalibrationView(v.view_id, v.distance_mm, line, v.image)
        dataset = tmp_path / "d.json"
        dataset.write_text(canonical_dumps(dataset_to_dict(TemplateSpec(5, 6, 15.0), views)))
        table = tmp_path / "t.csv"
        distances = [w.distance_mm for w in views]
        table.write_text(scale_table_to_csv(ScaleTable(distances, [1380.0] * 6, [1370.0] * 6)))
        out = tmp_path / "c.json"
        args = ["calibrate", "--dataset", str(dataset), "--method", method,
                "--out", str(out), "--json-errors"]
        if method == "proposed":
            args += ["--scale-table", str(table)]
        assert cli.main(args) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {
            "error": "FocusCalError",
            "message": f"view {v.view_id}: correspondences do not determine a homography",
        }
        assert not out.exists()

    def test_library_pipelines_name_the_view(self):
        views = mixed_views(14)
        v = views[2]
        views[2] = CalibrationView(v.view_id, v.distance_mm,
                                   np.column_stack([v.world[:, 0], np.zeros(len(v))]), v.image)
        message = f"view {v.view_id}: correspondences do not determine a homography"
        with pytest.raises(FocusCalError, match=message):
            calibrate_baseline(views)
        table = ScaleTable(np.array([v.distance_mm for v in views]),
                           np.full(len(views), 1380.0), np.full(len(views), 1370.0))
        with pytest.raises(FocusCalError, match=message):
            calibrate_proposed(views, table)
