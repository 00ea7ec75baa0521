"""Detecting convexity with tubular filtrations on cubical complexes.

A convex shape stays connected inside every band around every line, so the
degree-0 tubular diagram has a single interval for each of the nine probe
lines. Any concavity splits some band into two components, and the second
component's lifespan is the signal.

Run:  python demos/04_convexity.py   (about a minute)
"""

import numpy as np

from tdalab import (
    BinaryMask,
    ConvexityConfig,
    concavity_features,
    convexity_experiment,
    default_lines,
    gen_random_concave_polygon,
    gen_random_convex_polygon,
    rasterize,
)

# --- a U-shaped mask: the open top is a concavity -----------------------------
c = 12
cells = np.zeros((c, c), dtype=bool)
cells[:, :3] = True
cells[:3, :] = True
cells[-3:, :] = True
mask = BinaryMask(cells, (0.0, 0.0), 1.0)
lines = default_lines(mask)
feats = concavity_features(mask)
print("U-mask second-component lifespans (cell units) per line:")
for name, value in zip(lines.names, feats):
    print(f"  {name:9s} {value:.2f}")
print(f"the 'top' line sees the two prongs separately -> max = {feats.max():.1f}")
print()

# --- random polygons ------------------------------------------------------------
for seed in range(3):
    f_convex = concavity_features(rasterize(gen_random_convex_polygon(seed), 40))
    f_concave = concavity_features(rasterize(gen_random_concave_polygon(seed), 40))
    print(f"seed {seed}: convex max {f_convex.max():.2f}   concave max {f_concave.max():.2f}")
print()

# --- the four train/test regimes -------------------------------------------------
config = ConvexityConfig(points_per_cloud=800, clouds_per_shape=6, polygons_per_class=24)
report = convexity_experiment(config, seed=0)
print("threshold-classifier accuracy:")
for regime in report.regimes:
    print(f"  {regime.name:16s} {regime.value:.3f}")
