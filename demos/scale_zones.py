"""Measuring per-distance scale factors and finding the hyperfocal plateau.

The experiment needs nothing but fronto-parallel template images at known
distances: the mean pixel gap between adjacent grid points, scaled by
distance over pitch, is the scale factor at that distance. Plotting it
against distance exposes the three working regimes of a focusing camera:
rising (zone 1), flat (zone 2), and unreliable (zone 3, not simulated here).

Run:  python3 demos/scale_zones.py
"""

import numpy as np

from focuscal import (
    TemplateSpec,
    fit_focal_curve,
    generate_parallel_stack,
    load_preset,
    scale_factors,
    segment_zones,
    suggest_noise_band,
)

preset = load_preset("robotiq")
template = TemplateSpec(rows=10, cols=14, pitch_mm=8.0)
distances = np.arange(60.0, 505.0, 10.0)

stack = generate_parallel_stack(preset, template, distances, noise_px=0.2, seed=0)
table = scale_factors(stack)

print(f"{'d (mm)':>7s} {'alpha (px)':>11s} {'beta (px)':>10s}")
for i in range(0, len(table), 5):
    print(f"{table.distances[i]:7.0f} {table.alpha[i]:11.2f} {table.beta[i]:10.2f}")

band = suggest_noise_band(stack)
seg = segment_zones(table, band)
print(f"\nnoise band from gap scatter: {band:.2f} px")
print(f"zone 1 ends at {seg.zone1_end_mm:.0f} mm (preset hyperfocal: {preset.hyperfocal_mm:.0f} mm)")
print(f"zone 2 ends at {seg.zone2_end_mm:.0f} mm (end of sampled range)")
print(f"plateau scale factors: alpha = {seg.plateau_alpha_px:.2f} px, "
      f"beta = {seg.plateau_beta_px:.2f} px")
print(f"preset plateau values: alpha = {preset.intrinsics.alpha} px, "
      f"beta = {preset.intrinsics.beta} px")

fit = fit_focal_curve(table.distances, table.alpha)
print(f"\ncontinuous model: alpha(d) = -{fit.k_f:.4g}/d^2 + {fit.value0:.2f}")

print(
    "\nThe same pipeline via the CLI:\n"
    "  focuscal simulate --preset robotiq --parallel-stack 60:500:10 --pitch 8"
    " --rows 10 --cols 14 --noise 0.2 --seed 0 --out stack.json\n"
    "  focuscal scale-factors --dataset stack.json --out-table table.csv"
    " --out-zones zones.json --fit --out-curve curve.json"
)
