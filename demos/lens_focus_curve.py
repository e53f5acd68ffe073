"""How the effective focal length changes with object distance.

A camera that refocuses moves its sensor: the sharpest image of a point at
distance d forms where the ideal pin-hole ray meets the ray bent at the lens
edge. Sweeping d shows the focal length rising steeply at close range and
flattening as the distance grows; the flat region is where a single-focal-
length camera model is actually valid.

Run:  python3 demos/lens_focus_curve.py
"""

import numpy as np

from focuscal import (
    LensSpec,
    fit_focal_curve,
    focal_length_limit,
    focal_sweep,
)

lens = LensSpec(radius_mm=5.0, angle_ratio=0.8, axis_offset_mm=1.0)

print("lens:", lens)
print(f"far-field focal length limit: {focal_length_limit(lens):.4f} mm\n")

distances = np.geomspace(20.0, 5000.0, 12)
focals = focal_sweep(lens, distances)
print(f"{'distance (mm)':>14s} {'focal (mm)':>11s} {'vs limit':>9s}")
limit = focal_length_limit(lens)
for d, f in zip(distances, focals):
    print(f"{d:14.1f} {f:11.4f} {100 * (f / limit - 1):+8.2f}%")

# The same rise-to-plateau shape is captured by the two-parameter hyperbolic
# model value(d) = -k_f / d**2 + value0, fitted by linear least squares.
fit = fit_focal_curve(distances, focals)
print(f"\nhyperbolic fit: k_f = {fit.k_f:.4g}, asymptote = {fit.value0:.4f} mm")
print(f"model focal length at 100 mm: {focal_sweep(lens, [100.0])[0]:.4f} mm")

print(
    "\nThe CLI writes the same sweep as CSV for plotting:\n"
    "  focuscal lens-curve --radius 5 --angle-ratio 0.8 --from 20 --to 5000 "
    "--count 200 --log --out focal_curve.csv"
)
