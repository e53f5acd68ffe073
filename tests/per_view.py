"""The simulator one view at a time: the reference the batched simulator matches.

``focuscal.synth`` samples, projects, distorts and perturbs every view of a
call in one pass, and ``focuscal.core.distort_points`` solves the points its
fixed point cannot invert with one batched eigenvalue call. This module keeps
the per-view loop they replace, with one ``np.roots`` call per point, so the
tests can require equal bits, the same errors and the same error order. It
takes the noise and tilt range as the per-view loop did, without checking
that they are finite. It also holds one-matrix forms of batched primitives
that several test modules use as references, and the refinement's forward
pass point by point.
"""

import numpy as np

from focuscal.calibrate import CalibrationView
from focuscal.core import Pose, _pinhole, _radial, _rodrigues, _rotate, rodrigues_from_rotations
from focuscal.errors import FocusCalError
from focuscal.homography import _canonical
from focuscal.scale import ParallelView
from focuscal.synth import FOCUS_VARYING, generate_template


def rotation(rvec):
    """Rotation matrix of one axis-angle vector."""
    return Pose(rvec, np.zeros(3)).matrix


def rodrigues(rot):
    """Axis-angle vector of one rotation matrix."""
    return rodrigues_from_rotations(np.asarray(rot, dtype=float)[None])[0]


def canonical(matrix):
    """One 3x3 matrix at unit Frobenius norm with the DLT's sign convention."""
    m = np.asarray(matrix, dtype=float)
    return _canonical(m[None], np.array([np.linalg.norm(m)]))[0]


def _correction(points, intr, dist):
    du = points[..., 0] - intr.u0
    dv = points[..., 1] - intr.v0
    xb, yb = du / intr.alpha, dv / intr.beta
    r2 = xb * xb + yb * yb
    g = dist.k1 * r2 + dist.k2 * r2 * r2
    return du * g, dv * g


def distort_points(ideal, intr, dist):
    """Fixed point ``p <- ideal - delta(p)`` over all the points, then one
    ``np.roots`` per point still moving after 50 iterations."""
    target = np.asarray(ideal, dtype=float)
    if dist.is_zero:
        return target.copy()
    p = target.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            cu, cv = _correction(p, intr, dist)
            new = np.stack([target[..., 0] - cu, target[..., 1] - cv], axis=-1)
            step = np.abs(new - p)
            p = new
            if float(np.max(step, initial=0.0)) < 1e-12:
                return p
    lost = ~(np.max(step, axis=-1) < 1e-12)
    offset = target[lost].reshape(-1, 2) - (intr.u0, intr.v0)
    radius = np.hypot(offset[:, 0] / intr.alpha, offset[:, 1] / intr.beta)
    for i, r in enumerate(radius):
        roots = np.roots([dist.k2, 0.0, dist.k1, 0.0, 1.0, -r])
        real = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
        offset[i] *= real.min() / r if real.size else np.nan
    p[lost] = offset + (intr.u0, intr.v0)
    return p


def observe(preset, intr, cam, noise_px, seed):
    """Detected pixels (n, 2) of camera-frame points (n, 3), NaN where undetected."""
    if noise_px < 0:
        raise ValueError("noise must be non-negative")
    w, h = preset.image_size
    index = np.flatnonzero(cam[:, 2] > 0)
    if not np.all(np.isfinite(cam[index])):
        raise FocusCalError("point at or behind the camera plane")
    x, y, z = cam[index].T
    ideal = np.column_stack([(intr.alpha * x + intr.gamma * y) / z + intr.u0,
                             intr.beta * y / z + intr.v0])
    margin = 0.1 * float(np.hypot(w, h))
    near = np.all((ideal >= -margin) & (ideal <= (w + margin, h + margin)), axis=1)
    index, detected = index[near], distort_points(ideal[near], intr, preset.distortion)
    if noise_px > 0:
        rng = np.random.default_rng(seed)
        detected += rng.normal(0.0, noise_px, size=detected.shape)
    inside = np.all((detected >= 0.0) & (detected <= (w, h)), axis=1)
    pixels = np.full((len(cam), 2), np.nan)
    pixels[index[inside]] = detected[inside]
    return pixels


def sample_pose(rng, template, distance_mm, tilt_range_deg=(5.0, 30.0)):
    centre = generate_template(template).mean(axis=0)
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    tilt = np.radians(rng.uniform(*tilt_range_deg))
    roll = rng.uniform(-np.pi / 12.0, np.pi / 12.0)
    axis = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    rot = rotation(axis * tilt) @ rotation(np.array([0.0, 0.0, roll]))
    t = np.array([0.0, 0.0, distance_mm]) - rot @ centre
    return Pose(rodrigues(rot), t)


def generate_view(preset, template, pose, focus_mode=FOCUS_VARYING, noise_px=0.0, seed=0,
                  view_id="view"):
    world = generate_template(template)
    cam = world @ pose.matrix.T + pose.translation
    distance = float(cam.mean(axis=0)[2])
    if distance <= 0:
        raise FocusCalError("template centre is behind the camera")
    intr = preset.effective_intrinsics(distance, focus_mode)
    pixels = observe(preset, intr, cam, noise_px, seed)
    found = np.isfinite(pixels[:, 0])
    if not np.any(found):
        raise FocusCalError("no template point projects inside the image")
    return CalibrationView(view_id, distance, world[found], pixels[found], pose)


def generate_dataset(preset, template, distances, focus_mode=FOCUS_VARYING, noise_px=0.0,
                     seed=0, tilt_range_deg=(5.0, 30.0)):
    distances = [float(d) for d in distances]
    views = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(len(distances))):
        rng = np.random.default_rng(child)
        pose = sample_pose(rng, template, distances[i], tilt_range_deg)
        views.append(generate_view(preset, template, pose, focus_mode, noise_px, seed=rng,
                                   view_id=f"view{i:03d}"))
    return views


def generate_parallel_stack(preset, template, distances, noise_px=0.0, seed=0):
    distances = [float(d) for d in distances]
    if any(d <= 0 for d in distances):
        raise ValueError("distances must be positive")
    world = generate_template(template)
    centre = world.mean(axis=0)
    stack = []
    for d, child in zip(distances, np.random.SeedSequence(seed).spawn(len(distances))):
        t = np.array([0.0, 0.0, d]) - centre
        intr = preset.effective_intrinsics(d, FOCUS_VARYING)
        pixels = observe(preset, intr, world + t, noise_px, child)
        stack.append(ParallelView(pixels.reshape(template.rows, template.cols, 2), d,
                                  template.pitch_mm, preset.image_size))
    return stack


def problem_rows(problem, views, x):
    """``problem.residual(x)`` and ``problem.jacobian(x)``, point by point.

    The forward pass before the group layout: each point gathers its view's
    whole rotation and translation, is rotated by all three terms of R w, the
    last one by its z = 0, and is kept as an (n, 3) camera point whose columns
    the projection and the Jacobian read. ``problem`` gives the layout only:
    its parameter columns, point order, groups and scale multipliers.
    """
    x = np.array(x, dtype=float)
    counts = np.array([len(v) for v in views])
    order = np.argsort(counts, kind="stable")
    world = np.vstack([views[i].world for i in order])
    image = np.vstack([views[i].image for i in order])
    view = problem.view
    per_point = np.broadcast_to(problem.multipliers, (problem.n_views, 2)).T[:, view]
    p = problem._named(x)
    p["alpha"], p["beta"] = p["alpha"] * per_point[0], p["beta"] * per_point[1]
    alpha, beta, gamma, u0, v0 = (p[name] for name in ("alpha", "beta", "gamma", "u0", "v0"))
    poses = x[problem.n_intr :].reshape(problem.n_views, 6)
    rvecs = poses[:, :3]
    rw = _rotate(_rodrigues(rvecs)[0][view], world)
    cam = rw + poses[view, 3:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_hat, v_hat = _pinhole(*cam.T, alpha, beta, gamma, u0, v0)
        du, dv = image[:, 0] - u0, image[:, 1] - v0
        xb, yb, r2, g = _radial(du, dv, alpha, beta, p["k1"], p["k2"])
        r = np.column_stack([image[:, 0] + du * g - u_hat, image[:, 1] + dv * g - v_hat])
    bad = (cam[:, 2] <= 1e-9) | (alpha <= 0) | (beta <= 0)
    if bad.any():
        r[np.isin(view, view[bad])] = np.inf
    k = problem.n_intr
    jt = np.empty((k + 6, 2 * len(view)))
    x_, y, z = cam.T
    k1, k2 = p["k1"], p["k2"]
    gain = k1 + 2.0 * k2 * r2
    ex, ey = 2.0 * gain * xb / alpha, 2.0 * gain * yb / beta
    derivatives = {
        "alpha": lambda: (-du * ex * xb - x_ / z, -dv * ex * xb),
        "beta": lambda: (-du * ey * yb, -dv * ey * yb - y / z),
        "gamma": lambda: (-y / z, 0.0),
        "u0": lambda: (-g - du * ex - 1.0, -dv * ex),
        "v0": lambda: (-du * ey, -g - dv * ey - 1.0),
        "k1": lambda: (du * r2, dv * r2),
        "k2": lambda: (du * r2 * r2, dv * r2 * r2),
    }
    for name, row in problem.columns.items():
        jt[row, 0::2], jt[row, 1::2] = derivatives[name]()
    w0, w1, w2 = rw.T
    jl_t = _rodrigues(rvecs, derivatives=True)[1].transpose(0, 2, 1)
    grad_u = (alpha / z, gamma / z, -(alpha * x_ + gamma * y) / (z * z))
    grad_v = (np.zeros_like(z), beta / z, -beta * y / (z * z))
    for parity, (g0, g1, g2) in enumerate((grad_u, grad_v)):
        cross = np.array([g1 * w2 - g2 * w1, g2 * w0 - g0 * w2, g0 * w1 - g1 * w0])
        start = 0
        for members, n, _ in problem.groups:
            end = start + len(members) * n
            block = cross[:, start:end].reshape(3, len(members), n).transpose(1, 0, 2)
            rot = np.matmul(jl_t[members], block).transpose(1, 0, 2).reshape(3, -1)
            jt[k : k + 3, 2 * start + parity : 2 * end : 2] = rot
            start = end
        jt[k + 3 : k + 6, parity::2] = -g0, -g1, -g2
    return r[np.argsort(view, kind="stable")].ravel(), jt.T
