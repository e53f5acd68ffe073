"""Core building blocks: projection, distortion, homography, pose recovery.

Run:  python3 demos/projection_basics.py
"""

import numpy as np

from focuscal import (
    Distortion,
    Intrinsics,
    Pose,
    distort_points,
    estimate_homographies,
    extrinsics_from_homography,
    project_points,
    undistort_points,
)

intr = Intrinsics(alpha=1370.8, beta=1373.8, gamma=0.0001, u0=645.8, v0=359.3)
dist = Distortion(k1=0.0087, k2=-0.072)
pose = Pose(rodrigues=[0.15, -0.1, 0.05], translation=[-80.0, -50.0, 600.0])

point = np.array([40.0, 25.0, 0.0])
pixel = project_points(point[None], intr, pose)[0]
print(f"template point {point[:2]} mm projects to {np.round(pixel, 3)} px")

observed = distort_points(pixel, intr, dist)
corrected = undistort_points(observed, intr, dist)
print(f"distorted observation: {np.round(observed, 3)} px")
print(f"correction reproduces the ideal pixel to "
      f"{np.abs(corrected - pixel).max():.2e} px")

# A planar grid determines the camera pose through its homography.
grid = np.array([[x, y, 0.0] for y in range(0, 125, 25) for x in range(0, 150, 25)])
pixels = project_points(grid, intr, pose)
hom = estimate_homographies([grid], [pixels])[0]
recovered = extrinsics_from_homography(hom, intr.matrix)
print(f"\nhomography condition estimate: {hom.condition:.1f}")
print(f"true translation      : {np.round(pose.translation, 6)} mm")
print(f"recovered translation : {np.round(recovered.translation, 6)} mm")
print(f"rotation discrepancy  : "
      f"{np.linalg.norm(recovered.matrix - pose.matrix):.2e} (Frobenius)")
