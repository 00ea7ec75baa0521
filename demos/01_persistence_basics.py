"""A tour of the core objects: clouds, filtrations, diagrams, signatures.

Run:  python demos/01_persistence_basics.py
"""

import numpy as np

from tdalab import (
    PointCloud,
    compute_ph,
    compute_ph0_unionfind,
    euclidean_distance_matrix,
    lifespans_topk,
    persistence_landscape,
    rips_complex,
    scalar_summaries,
)

rng = np.random.default_rng(0)

# --- a noisy circle: one component, one hole -------------------------------
theta = rng.uniform(0, 2 * np.pi, 120)
radius = 1.0 + rng.normal(0, 0.05, 120)
cloud = PointCloud(np.column_stack([radius * np.cos(theta), radius * np.sin(theta)]))
print(f"cloud: {cloud.n} points in R^{cloud.dim}")

dm = euclidean_distance_matrix(cloud)
cx = rips_complex(dm, max_dim=2)
print(f"Rips complex: {cx.n_simplices} simplices up to dimension 2")

pd = compute_ph(cx, max_dim=1)
d0, d1 = pd.in_dim(0), pd.in_dim(1)
print(f"degree 0: {len(d0)} intervals ({np.isinf(d0[:, 1]).sum()} essential)")
print(f"degree 1: {len(d1)} intervals")

spans = pd.lifespans(1)
print(f"longest hole lifespan: {spans[0]:.3f} (the circle)")
print(f"second longest       : {spans[1]:.3f} (sampling noise)" if len(spans) > 1 else "")

# --- degree 0 alone skips the triangles and gives the same classes ---------
uf = compute_ph0_unionfind(cx)
match = uf.multiset() == tuple(r for r in pd.multiset() if r[0] == 0)
print(f"degree-0-only diagram agrees with the full one: {match}")

# --- fixed-length signatures ------------------------------------------------
top5 = lifespans_topk(pd, dim=1, k=5)
print("top-5 lifespans:", np.round(top5.values, 3))

landscape = persistence_landscape(pd, dim=1, resolution=8, levels=2)
print("landscape (2 levels x 8 samples):")
print(np.round(landscape.values.reshape(2, 8), 3))

card, longest, total, second = scalar_summaries(pd, dim=1)
print(f"scalars: {card} finite intervals, max {longest:.3f}, total {total:.3f}, second {second:.3f}")
