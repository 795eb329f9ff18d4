"""
What "watertight" actually measures
===================================

validate() counts directed edges instead of trusting the builder: a
closed orientable surface uses every undirected edge exactly twice, in
opposite directions. Drop one triangle and three boundary edges appear.
"""

import numpy as np

from relieforge import HeightGrid, TriangleMesh, analytic_volume, close_solid, validate

grid = HeightGrid.from_spacing(np.full((2, 2), 3.0), dx=1.0, dy=1.0)
box = close_solid(grid)
good = validate(box)

print("closed box:")
print(f"  V={good.vertex_count} E={good.edge_count} F={good.triangle_count}")
print(f"  Euler characteristic: {good.euler_characteristic} (sphere-like is 2)")
print(f"  watertight: {good.watertight}")
print(f"  volume: {good.signed_volume} (truth: {analytic_volume(grid)})")

# Puncture it: same vertices, one face fewer.
holed = TriangleMesh(vertices=box.vertices, triangles=box.triangles[:-1])
bad = validate(holed)
print("\nsame box minus one triangle:")
print(f"  boundary edges: {bad.boundary_edge_count}")
print(f"  watertight: {bad.watertight}")
# Signed volume is still reported but means nothing for an open surface.
print(f"  (signed volume now unreliable: {bad.signed_volume})")

# analytic_volume is the independent oracle: it integrates the height
# field directly, never looking at triangles, so any mesher bug shows
# up as a mismatch between the two numbers.
bumpy = HeightGrid.from_spacing(
    np.abs(np.random.default_rng(7).normal(2.0, 0.5, (12, 9))), dx=0.8, dy=1.1
)
r = validate(close_solid(bumpy))
truth = analytic_volume(bumpy)
print(f"\nrandom 12x9 field: mesh {r.signed_volume:.9f} vs integral {truth:.9f}")
print(f"agree to {abs(r.signed_volume - truth):.2e}")
