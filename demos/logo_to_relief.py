# Turn a tiny synthetic logo into a printable relief, step by step,
# using the library API directly (the `relieforge convert` command does
# exactly this in one shot).

import numpy as np

import relieforge as rf

# --- 1. a 4x4 "logo": white border, black 2x2 glyph block ------------
pixels = np.full((4, 4), 255, dtype=np.uint8)
pixels[1:3, 1:3] = 0
pgm = b"P2\n4 4\n255\n" + "\n".join(
    " ".join(str(v) for v in row) for row in pixels
).encode() + b"\n"

img = rf.to_grayscale(rf.decode_pgm(pgm))
print("intensities:")
print(img.values)

# --- 2. orient and shape ---------------------------------------------
# Image rows run top-down but the grid's y axis runs bottom-up, so the
# first grid row is the *bottom* row of the picture.
grid = rf.grid_from_image(img)
heights = rf.apply(rf.preset_jdrf(), grid, scale=4.0)
print("\nheights (mm):")
print(heights.values)

# --- 3. pin the footprint to physical units --------------------------
sized, clamped = rf.assign_extent(heights, rf.PhysicalExtent(width_mm=80.0, depth_mm=28.0))
dx, dy = sized.x[1] - sized.x[0], sized.y[1] - sized.y[0]
print(f"\nspacing: dx={dx} mm, dy={dy} mm, clamped={clamped}")

# --- 4. close into a solid and sanity-check --------------------------
mesh = rf.close_solid(sized)
report = rf.validate(mesh)
print(
    f"\nmesh: {report.vertex_count} vertices, {report.triangle_count} triangles, "
    f"watertight={report.watertight}"
)
print(f"volume: {report.signed_volume:.3f} mm^3 (analytic {rf.analytic_volume(sized):.3f})")
print(f"bbox: {report.bbox_min} .. {report.bbox_max}")

# --- 5. write the STL -------------------------------------------------
n = rf.write_binary_stl(mesh, "logo.stl")
print(f"\nwrote logo.stl ({n} bytes)")
