"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import subprocess
import sys
import time

import numpy as np

from focuscal.calibrate import (
    IntrinsicSet,
    _Problem,
    calibrate_baseline,
    calibrate_proposed,
)
from focuscal.core import Distortion, Pose
from focuscal.homography import estimate_homography
from focuscal.io import canonical_dumps
from focuscal.lens import fit_focal_curve
from focuscal.scale import ScaleTable, scale_factors, segment_zones
from focuscal.synth import (
    FOCUS_FIXED,
    FOCUS_VARYING,
    TemplateSpec,
    bias_report,
    generate_dataset,
    generate_parallel_stack,
    load_preset,
)

from blocks import dense
from per_view import canonical, rodrigues

ROBOTIQ = load_preset("robotiq")


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def rotation_angle(rot_a, rot_b):
    return np.linalg.norm(rodrigues(rot_a @ rot_b.T))


def test_criterion_1_exact_recovery():
    """Noise-free plateau datasets: baseline recovers everything exactly."""
    template = TemplateSpec(10, 10, 18.0)  # 100 points per view
    start = time.time()
    views = generate_dataset(
        ROBOTIQ, template, np.linspace(400, 1100, 15), FOCUS_FIXED, 0.0, seed=70
    )
    result = calibrate_baseline(views)
    elapsed = time.time() - start
    truth = ROBOTIQ.intrinsics
    intr = result.refined.intrinsics
    assert abs(intr.scales[0][0] - truth.alpha) / truth.alpha < 1e-6
    assert abs(intr.scales[0][1] - truth.beta) / truth.beta < 1e-6
    assert abs(intr.u0 - truth.u0) / abs(truth.u0) < 1e-6
    assert abs(intr.v0 - truth.v0) / abs(truth.v0) < 1e-6
    assert abs(intr.gamma - truth.gamma) < 1e-6
    max_rot = max_t = 0.0
    for i, view in enumerate(views):
        pose = result.refined.poses[i]
        max_rot = max(max_rot, rotation_angle(pose.matrix, view.gt_pose.matrix))
        max_t = max(
            max_t,
            np.linalg.norm(pose.translation - view.gt_pose.translation)
            / np.linalg.norm(view.gt_pose.translation),
        )
    assert max_rot < 1e-6
    assert max_t < 1e-6
    assert result.refined.stats.mean_abs_px < 1e-8
    assert elapsed < 10.0
    ok("1 exact-recovery", f"15x100 pts, reproj {result.refined.stats.mean_abs_px:.1e} px, {elapsed:.1f}s")


def test_criterion_2_homography_oracle():
    """1000 random well-conditioned homographies recovered from exact data."""
    rng = np.random.default_rng(71)
    extent = 150.0
    grid = np.array(
        [[x, y] for y in np.linspace(0, extent, 6) for x in np.linspace(0, extent, 6)]
    )
    quad = np.array([[0.0, 0.0], [extent, 0.0], [extent, extent], [0.0, extent]])
    corners = np.column_stack([quad, np.ones(4)])
    start = time.time()
    worst = 0.0
    for trial in range(1000):
        while True:
            m = np.eye(3)
            m[:2, :2] += rng.uniform(-0.4, 0.4, (2, 2))
            m[:2, 2] = rng.uniform(-60.0, 60.0, 2)
            m[2, :2] = rng.uniform(-0.3, 0.3, 2) / extent
            if np.linalg.cond(m) < 1e4 and np.all(corners @ m[2] > 0.3):
                break
        truth = canonical(m)
        world = quad if trial % 5 == 0 else grid  # include minimal 4-point cases
        h = np.column_stack([world, np.ones(len(world))]) @ truth.T
        image = h[:, :2] / h[:, 2:3]
        est = estimate_homography(world, image)
        worst = max(worst, float(np.linalg.norm(est.matrix - truth)))
    elapsed = time.time() - start
    assert worst < 1e-8
    assert elapsed < 5.0
    ok("2 homography-oracle", f"1000 trials, worst {worst:.1e}, {elapsed:.1f}s")


def test_criterion_3_scale_factor_inversion():
    """Stacks reproduce the generating scale curve; noisy plateau mean is calibrated."""
    template = TemplateSpec(12, 16, 8.0)
    distances = np.arange(60.0, 155.0, 5.0)
    stack = generate_parallel_stack(ROBOTIQ, template, distances, 0.0, seed=72)
    table = scale_factors(stack)
    truth = np.array(
        [ROBOTIQ.intrinsics.alpha * ROBOTIQ.focus_ratio(d) for d in distances]
    )
    worst = float(np.max(np.abs(table.alpha - truth) / truth))
    assert worst < 1e-3

    plateau_distances = np.linspace(200.0, 1000.0, 10)
    means = []
    for run in range(100):
        noisy = generate_parallel_stack(
            ROBOTIQ, template, plateau_distances, 0.5, seed=1000 + run
        )
        means.append(float(np.mean(scale_factors(noisy).alpha)))
    means = np.asarray(means)
    band = 3.0 * float(means.std(ddof=1))
    centre = ROBOTIQ.intrinsics.alpha
    hits = int(np.sum(np.abs(means - means.mean()) <= band))
    assert hits >= 95
    assert abs(means.mean() - centre) < 0.005 * centre  # no gross bias
    ok("3 scale-inversion", f"noise-free worst {worst:.2e}, MC hits {hits}/100")


def test_criterion_4_hyperfocal_curve_fit():
    """Exact hyperbolic data fits to 1e-9; a constructed knee is localized."""
    k_f, value0 = 2.25e4, 1370.0  # band 1.0 at the 150 mm knee
    spacing = 25.0
    d = np.arange(50.0, 1000.0 + spacing / 2, spacing)
    values = -k_f / d**2 + value0
    fit = fit_focal_curve(d, values)
    assert abs(fit.k_f - k_f) / k_f < 1e-9
    assert abs(fit.value0 - value0) / value0 < 1e-9

    table = ScaleTable(d, values, values)
    seg = segment_zones(table, noise_band=1.0)
    assert abs(seg.zone1_end_mm - 150.0) <= spacing
    ok("4 curve-fit", f"fit exact, knee at {seg.zone1_end_mm:.0f} mm (target 150)")


def test_criterion_5_bias_reproduction():
    """Zone-1 data: baseline hides a one-signed depth bias behind tiny residuals."""
    start = time.time()
    template = TemplateSpec(6, 9, 8.0)
    distances = np.concatenate([[50.0], np.linspace(130, 145, 14)])
    views = generate_dataset(
        ROBOTIQ, template, distances, FOCUS_VARYING, 0.25, seed=42
    )
    stack = generate_parallel_stack(
        ROBOTIQ, TemplateSpec(10, 14, 8.0), np.arange(45.0, 155.0, 5.0), 0.0, seed=73
    )
    table = scale_factors(stack)
    baseline = calibrate_baseline(views)
    proposed = calibrate_proposed(views, table, image_size=ROBOTIQ.image_size)
    elapsed = time.time() - start

    # (a) near-zero reprojection error, yet depth errors share one sign
    assert baseline.refined.stats.mean_abs_px < 0.5
    report_base = bias_report(baseline, views)
    dz = report_base.translation_errors_mm[:, 2]
    fraction = max(float((dz < 0).mean()), float((dz > 0).mean()))
    assert fraction >= 0.9

    # (b) frozen scale factors cut the translation error by 5x or more
    report_prop = bias_report(proposed, views)
    mean_base = float(np.linalg.norm(report_base.translation_errors_mm, axis=1).mean())
    mean_prop = float(np.linalg.norm(report_prop.translation_errors_mm, axis=1).mean())
    assert mean_base >= 5.0 * mean_prop

    # (c) refined signed means are near zero and far below the algebraic ones
    for result in (baseline, proposed):
        refined = abs(result.refined.stats.mean_px)
        algebraic = abs(result.algebraic.stats.mean_px)
        assert refined < 0.02
        assert refined < algebraic
    assert elapsed < 60.0
    ok(
        "5 bias-reproduction",
        f"one-signed {fraction:.0%}, ratio {mean_base / mean_prop:.1f}x, "
        f"reproj {baseline.refined.stats.mean_abs_px:.2f} px, {elapsed:.1f}s",
    )


def headline_cases():
    """Both presets, each with its zone-1 views and the scale table of its stack."""
    cases = [
        ("robotiq", np.concatenate([[50.0], np.linspace(130, 145, 14)]),
         np.arange(45.0, 177.5, 5.0)),
        ("eosens12cxp", np.concatenate([[320.0], np.linspace(560, 640, 14)]),
         np.arange(300.0, 910.0, 20.0)),
    ]
    for name, distances, stack_distances in cases:
        preset = load_preset(name)
        stack = generate_parallel_stack(
            preset, TemplateSpec(10, 14, 8.0), stack_distances, 0.0, seed=73
        )
        yield preset, distances, scale_factors(stack)


def test_criterion_5_bias_holds_across_presets_seeds_and_noise():
    """The frozen-scale method beats the baseline in every one of 60 cases."""
    start = time.time()
    lines = []
    for preset, distances, table in headline_cases():
        ratios = []
        for seed in range(10):
            for noise in (0.1, 0.25, 0.5):
                views = generate_dataset(
                    preset, TemplateSpec(6, 9, 8.0), distances, FOCUS_VARYING, noise, seed
                )
                means = [
                    float(np.linalg.norm(bias_report(r, views).translation_errors_mm,
                                         axis=1).mean())
                    for r in (calibrate_baseline(views),
                              calibrate_proposed(views, table, image_size=preset.image_size))
                ]
                ratios.append(means[0] / means[1])
        assert min(ratios) > 1.0, (preset.name, ratios)
        lines.append(f"{preset.name} min ratio {min(ratios):.2f}")
    ok("5 bias-sweep", f"60/60 cases, {', '.join(lines)}, {time.time() - start:.1f}s")


def test_criterion_6_jacobian_correctness():
    """Analytic Jacobian matches central differences at 100 random points."""
    template = TemplateSpec(4, 5, 20.0)
    views = generate_dataset(
        ROBOTIQ, template, [300.0, 420.0], FOCUS_FIXED, 0.3, seed=74
    )
    rng = np.random.default_rng(75)
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            intr = IntrinsicSet(
                rng.uniform(600, 700), rng.uniform(340, 380), rng.uniform(-0.5, 0.5),
                ((rng.uniform(1200, 1500), rng.uniform(1200, 1500)),), True,
            )
        else:
            intr = IntrinsicSet(
                rng.uniform(600, 700), rng.uniform(340, 380), rng.uniform(-0.5, 0.5),
                ((1340.0, 1345.0), (1355.0, 1350.0)), False,
            )
        problem = _Problem(views, intr, estimate_distortion=True)
        dist = Distortion(rng.uniform(-0.02, 0.02), rng.uniform(-0.05, 0.05))
        poses = [
            Pose(
                v.gt_pose.rodrigues + rng.normal(scale=0.05, size=3),
                v.gt_pose.translation * rng.uniform(0.95, 1.05),
            )
            for v in views
        ]
        x = problem.pack(intr, dist, poses)
        analytic = dense(problem, x)
        fd = np.empty_like(analytic)
        for j in range(x.size):
            step = 1e-6 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += step
            xm = x.copy()
            xm[j] -= step
            fd[:, j] = (problem.residual(xp) - problem.residual(xm)) / (2 * step)
        worst = max(worst, float(np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())))
    assert worst < 1e-5
    ok("6 jacobian", f"100 points, worst relative {worst:.1e}")


def richardson_column(residual, x, j, step):
    """Column ``j`` of the Jacobian of ``residual`` at ``x``: central differences at
    ``step`` and ``step / 2``, Richardson-extrapolated to fourth order."""
    def central(h):
        forward, backward = x.copy(), x.copy()
        forward[j] += h
        backward[j] -= h
        return (residual(forward) - residual(backward)) / (2 * h)

    return (4 * central(step / 2) - central(step)) / 3


def test_criterion_6_jacobian_columns():
    """Each analytic Jacobian column matches an extrapolated difference relative to
    its own largest entry, for both start kinds with distortion.

    The worst column measures 1.7e-9 (the gamma column's rounding); an error of 1e-7
    relative in the alpha column's x / z term reads 1e-7, so the 1e-8 bound tells them
    apart where the whole-matrix scaling of criterion 6 does not.
    """
    views = generate_dataset(
        ROBOTIQ, TemplateSpec(4, 5, 20.0), [300.0, 420.0], FOCUS_FIXED, 0.3, seed=74
    )
    rng = np.random.default_rng(77)
    worst = {True: 0.0, False: 0.0}
    for trial in range(40):
        shared = trial % 2 == 0
        pairs = [(rng.uniform(1200, 1500), rng.uniform(1200, 1500)) for _ in views]
        intr = IntrinsicSet(rng.uniform(600, 700), rng.uniform(340, 380),
                            rng.uniform(-0.5, 0.5), tuple(pairs[:1] if shared else pairs),
                            shared)
        problem = _Problem(views, intr, estimate_distortion=True)
        dist = Distortion(rng.uniform(-0.02, 0.02), rng.uniform(-0.05, 0.05))
        poses = [
            Pose(v.gt_pose.rodrigues + rng.normal(scale=0.05, size=3),
                 v.gt_pose.translation * rng.uniform(0.95, 1.05))
            for v in views
        ]
        x = problem.pack(intr, dist, poses)
        for j, column in enumerate(dense(problem, x).T):
            fd = richardson_column(problem.residual, x, j, 1e-3 * max(1.0, abs(x[j])))
            error = float(np.abs(column - fd).max() / np.abs(column).max())
            worst[shared] = max(worst[shared], error)
    assert max(worst.values()) < 1e-8
    ok("6 jacobian columns", f"40 points, worst column relative {worst[True]:.1e} shared, "
                             f"{worst[False]:.1e} per-view pairs")


def test_criterion_7_rotation_hygiene():
    """Every emitted rotation is orthonormal with determinant +1."""
    template = TemplateSpec(6, 9, 8.0)
    views = generate_dataset(
        ROBOTIQ, template, np.concatenate([[50.0], np.linspace(130, 145, 9)]),
        FOCUS_VARYING, 0.25, seed=76,
    )
    stack_table = ScaleTable(
        np.array([v.distance_mm for v in views]),
        np.array([ROBOTIQ.intrinsics.alpha * ROBOTIQ.focus_ratio(v.distance_mm) for v in views]),
        np.array([ROBOTIQ.intrinsics.beta * ROBOTIQ.focus_ratio(v.distance_mm) for v in views]),
    )
    results = [
        calibrate_baseline(views),
        calibrate_proposed(views, stack_table, image_size=ROBOTIQ.image_size),
    ]
    checked = 0
    for result in results:
        for solution in (result.algebraic, result.refined):
            for pose in solution.poses:
                rot = pose.matrix
                assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-10
                assert abs(np.linalg.det(rot) - 1.0) < 1e-10
                checked += 1
    rng = np.random.default_rng(77)
    for _ in range(200):
        rot = Pose(rng.normal(size=3) * rng.uniform(0, np.pi), np.zeros(3)).matrix
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-10
        assert abs(np.linalg.det(rot) - 1.0) < 1e-10
        checked += 1
    ok("7 rotation-hygiene", f"{checked} rotations checked")


def test_criterion_8_determinism_and_io(tmp_path):
    """Seeded byte-identical files, write/read/write identity, exit codes."""
    cmd = [sys.executable, "-m", "focuscal"]

    def run(*args):
        return subprocess.run(cmd + list(args), capture_output=True, text=True, timeout=300)

    sim_args = [
        "simulate", "--preset", "robotiq", "--views", "6", "--mode", "varying",
        "--noise", "0.3", "--seed", "99", "--pitch", "8",
        "--distance-range", "100:145",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(*sim_args, "--out", str(a)).returncode == 0
    assert run(*sim_args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()

    # write -> read -> write stability across all document types
    dataset_text = a.read_text()
    assert canonical_dumps(json.loads(dataset_text)) == dataset_text
    stack = tmp_path / "stack.json"
    assert run(
        "simulate", "--preset", "robotiq", "--parallel-stack", "60:400:5",
        "--rows", "10", "--cols", "14", "--pitch", "8", "--noise", "0",
        "--seed", "1", "--out", str(stack),
    ).returncode == 0
    zones = tmp_path / "zones.json"
    table = tmp_path / "table.csv"
    assert run(
        "scale-factors", "--dataset", str(stack), "--out-table", str(table),
        "--out-zones", str(zones), "--noise-band", "1.0",
    ).returncode == 0
    assert canonical_dumps(json.loads(zones.read_text())) == zones.read_text()
    calib = tmp_path / "calib.json"
    assert run(
        "calibrate", "--dataset", str(a), "--method", "baseline", "--out", str(calib)
    ).returncode == 0
    assert canonical_dumps(json.loads(calib.read_text())) == calib.read_text()

    # exit-code contract: 0 success (above), 2 usage, 1 runtime
    assert run("simulate", "--preset", "nope", "--out", str(tmp_path / "x.json")).returncode == 2
    assert run(
        "calibrate", "--dataset", str(a), "--method", "proposed",
        "--out", str(tmp_path / "y.json"),
    ).returncode == 2
    rising = tmp_path / "rising.json"
    assert run(
        "simulate", "--preset", "robotiq", "--parallel-stack", "40:120:10",
        "--rows", "10", "--cols", "14", "--pitch", "8", "--noise", "0",
        "--seed", "2", "--out", str(rising),
    ).returncode == 0
    proc = run(
        "scale-factors", "--dataset", str(rising), "--out-table",
        str(tmp_path / "t2.csv"), "--out-zones", str(tmp_path / "z2.json"),
        "--noise-band", "0.5",
    )
    assert proc.returncode == 1
    ok("8 determinism-io", "bit-identical files, byte-stable schemas, exit codes 0/1/2")
