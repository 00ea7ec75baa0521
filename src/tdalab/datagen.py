"""Deterministic generators for the labeled benchmark corpora.

Three families: planar/solid regions with a known number of holes,
constant-curvature disk samples labeled by curvature, and convex/concave
shapes (fixed "regular" shapes and random polygons) labeled by convexity.
Every item is reproducible from the master seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    PointCloud,
    PolarCloud,
    Polygon,
    convex_hull,
    points_in_polygon,
    rasterize,
)
from .seeding import derive_seed, generator

Array = np.ndarray


@dataclass(frozen=True)
class ShapeSpec:
    """Catalog entry: a named shape family with its parameters."""

    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LabeledDataset:
    """Items with aligned labels and full regeneration metadata."""

    items: tuple
    labels: Array
    meta: dict

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if len(self.items) != len(labels):
            raise ValueError("items and labels must align")
        seeds = self.meta.get("item_seeds")
        if seeds is not None and len(set(seeds)) != len(seeds):
            raise ValueError("per-item seeds must be distinct")
        labels.setflags(write=False)
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.items)


def _dataset(name: str, seed: int, rows, **sizes) -> LabeledDataset:
    """The dataset of ``(item, label, item seed, shape id)`` rows: float
    labels, and a manifest of the generator ``name``, the master seed, the
    item seeds and shape ids, then the given sizes."""
    items, labels, seeds, ids = zip(*rows)
    meta = {"generator": name, "master_seed": int(seed), "item_seeds": list(seeds), "shape_ids": list(ids)}
    return LabeledDataset(items, np.array(labels, dtype=float), {**meta, **sizes})


# ---------------------------------------------------------------------------
# holes corpus: 20 shapes, 4 per hole count in {0, 1, 2, 4, 9}
# ---------------------------------------------------------------------------

# round holes in the unit-width disk: (center_x, center_y, radius)
_ROUND_HOLES = {
    0: [],
    1: [(0.5, 0.5, 0.25)],
    2: [(0.29, 0.5, 0.13), (0.71, 0.5, 0.13)],
    4: [(0.5 + sx * 0.177, 0.5 + sy * 0.177, 0.1) for sx in (-1, 1) for sy in (-1, 1)],
    9: [(0.5 + sx * 0.23, 0.5 + sy * 0.23, 0.075) for sx in (-1, 0, 1) for sy in (-1, 0, 1)],
}

# square holes in the unit square: (center_x, center_y, half_side)
_SQUARE_HOLES = {
    0: [],
    1: [(0.5, 0.5, 0.25)],
    2: [(0.28, 0.5, 0.13), (0.72, 0.5, 0.13)],
    4: [(0.28 + sx * 0.44, 0.28 + sy * 0.44, 0.13) for sx in (0, 1) for sy in (0, 1)],
    9: [(x, y, 1.0 / 14.0) for x in (3 / 14, 0.5, 11 / 14) for y in (3 / 14, 0.5, 11 / 14)],
}

HOLE_COUNTS = (0, 1, 2, 4, 9)
SLAB_HEIGHT = 0.3

# Regions are drawn at twice the unit catalog scale so that the fixed
# absolute perturbation magnitudes (Gaussian sigma up to 0.1, translations
# up to 1) stay mild relative to the smallest holes. Scaling is free for
# the sampling geometry itself.
_REGION_SCALE = 2.0


def holes_catalog() -> list:
    """The 20 shape specs: disk/square region, k holes, planar or slab."""
    shapes = []
    for k in HOLE_COUNTS:
        for family in ("disk", "square"):
            for solid in (False, True):
                name = f"{family}-{k}-{'3d' if solid else '2d'}"
                shapes.append(
                    ShapeSpec(name, {"region": family, "holes": k, "solid": solid})
                )
    return shapes


def _in_holes_region(xy: Array, region: str, k: int) -> Array:
    """Membership of (m, 2) points in the region-with-holes."""
    x, y = xy[:, 0], xy[:, 1]
    if region == "disk":
        inside = (x - 0.5) ** 2 + (y - 0.5) ** 2 <= 0.25
        for cx, cy, r in _ROUND_HOLES[k]:
            inside &= (x - cx) ** 2 + (y - cy) ** 2 > r * r
    elif region == "square":
        inside = np.ones(len(xy), dtype=bool)
        for cx, cy, h in _SQUARE_HOLES[k]:
            inside &= np.maximum(np.abs(x - cx), np.abs(y - cy)) > h
    else:
        raise ValueError(f"unknown region: {region!r}")
    return inside


def _sample_region(predicate, bbox_lo, bbox_hi, n: int, rng) -> Array:
    """Uniform points by rejection from the bounding box."""
    lo = np.asarray(bbox_lo, dtype=float)
    hi = np.asarray(bbox_hi, dtype=float)
    out = np.empty((0, len(lo)))
    while len(out) < n:
        batch = rng.uniform(lo, hi, size=(max(2 * (n - len(out)), 64), len(lo)))
        out = np.concatenate([out, batch[predicate(batch)]])
    return out[:n]


def sample_holes_shape(spec: ShapeSpec, n_points: int, seed: int) -> PointCloud:
    """Uniform sample from one catalog shape (planar or slab-extruded)."""
    region = spec.params["region"]
    k = spec.params["holes"]
    rng = generator(seed)
    s = _REGION_SCALE
    xy = _sample_region(
        lambda p: _in_holes_region(p / s, region, k), (0.0, 0.0), (s, s), n_points, rng
    )
    if spec.params["solid"]:
        z = rng.uniform(0.0, SLAB_HEIGHT, size=(n_points, 1))
        return PointCloud(np.hstack([xy, z]))
    return PointCloud(xy)


def gen_holes_dataset(
    clouds_per_shape: int = 50, points_per_cloud: int = 1000, seed: int = 0
) -> LabeledDataset:
    """Balanced corpus of point clouds labeled by the hole count of their shape."""
    if clouds_per_shape < 1 or points_per_cloud < 1:
        raise ValueError("counts must be positive")
    rows = []
    for s_idx, spec in enumerate(holes_catalog()):
        for c_idx in range(clouds_per_shape):
            item_seed = derive_seed(seed, s_idx, c_idx)
            item = sample_holes_shape(spec, points_per_cloud, item_seed)
            rows.append((item, spec.params["holes"], item_seed, spec.family))
    return _dataset(
        "holes", seed, rows, clouds_per_shape=clouds_per_shape, points_per_cloud=points_per_cloud
    )


# ---------------------------------------------------------------------------
# curvature corpus: constant-curvature disk samples
# ---------------------------------------------------------------------------


def disk_radius_cdf(kappa: float, rho: Array) -> Array:
    """Analytic CDF of the geodesic radius under the area measure."""
    rho = np.asarray(rho, dtype=float)
    if kappa > 0:
        r = 1.0 / math.sqrt(kappa)
        return (1.0 - np.cos(rho / r)) / (1.0 - math.cos(1.0 / r))
    if kappa < 0:
        r = 1.0 / math.sqrt(-kappa)
        return (np.cosh(rho / r) - 1.0) / (math.cosh(1.0 / r) - 1.0)
    return rho**2


def sample_constant_curvature_disk(kappa: float, n: int, seed: int) -> PolarCloud:
    """Area-uniform sample of the unit disk at constant curvature kappa.

    The radius comes from inverting the area CDF; the azimuth is uniform.
    """
    if not -2.0 <= kappa <= 2.0:
        raise ValueError("curvature must lie in [-2, 2]")
    if n < 1:
        raise ValueError("need at least one sample")
    rng = generator(seed)
    u = rng.uniform(0.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    if kappa > 0:
        r = 1.0 / math.sqrt(kappa)
        rho = r * np.arccos(np.clip(1.0 - u * (1.0 - math.cos(1.0 / r)), -1.0, 1.0))
    elif kappa < 0:
        r = 1.0 / math.sqrt(-kappa)
        rho = r * np.arccosh(1.0 + u * (math.cosh(1.0 / r) - 1.0))
    else:
        rho = np.sqrt(u)
    rho = np.minimum(rho, 1.0)
    return PolarCloud(np.column_stack([rho, phi]), kappa)


def curvature_grid() -> Array:
    """The 101 training curvatures: -2 to 2 in steps of 0.04."""
    return np.round(np.linspace(-2.0, 2.0, 101), 10)


def gen_curvature_dataset(
    seed: int = 0,
    clouds_per_kappa: int = 10,
    points_per_cloud: int = 500,
    test_count: int = 100,
) -> tuple:
    """(train, test) datasets of polar clouds labeled by curvature.

    Training curvatures run over the fixed 0.04-spaced grid; test curvatures
    are drawn uniformly from [-2, 2].
    """
    if min(clouds_per_kappa, points_per_cloud, test_count) < 1:
        raise ValueError("counts must be positive")

    def row(kappa, item_seed, digits):
        item = sample_constant_curvature_disk(kappa, points_per_cloud, item_seed)
        return item, kappa, item_seed, f"kappa={kappa:+.{digits}f}"

    train = [
        row(kappa, derive_seed(seed, 1, g_idx, c_idx), 2)
        for g_idx, kappa in enumerate(curvature_grid().tolist())
        for c_idx in range(clouds_per_kappa)
    ]
    kappas = generator(seed, 2).uniform(-2.0, 2.0, size=test_count).tolist()
    test = [row(kappa, derive_seed(seed, 3, t_idx), 4) for t_idx, kappa in enumerate(kappas)]
    sizes = {"points_per_cloud": points_per_cloud}
    return (
        _dataset("curvature-train", seed, train, clouds_per_kappa=clouds_per_kappa, **sizes),
        _dataset("curvature-test", seed, test, **sizes),
    )


# ---------------------------------------------------------------------------
# convexity corpus
# ---------------------------------------------------------------------------


# A star dent splits a tubular sublevel only while the notch sits deeper
# (along the dent direction) than the two flanking tips, whose height is
# cos(pi/k). For the 3-star cos(pi/3) = 0.5, so an inner/outer ratio of 0.5
# leaves no dent at all; it gets a deeper notch. Each star is oriented with
# one notch pointing straight down so the dent faces a detection line, and
# the removed disk wedge is rotated off the axes for the same reason.
_STAR_RATIOS = {3: 0.25, 4: 0.5, 5: 0.5}
_STAR_PHASES = {3: math.pi / 2, 4: math.pi / 4, 5: math.pi / 2}
_WEDGE_START = 0.35


def _regular_polygon(sides: int, radius: float = 1.0, phase: float = math.pi / 2) -> Polygon:
    angles = phase + 2.0 * math.pi * np.arange(sides) / sides
    return Polygon(radius * np.column_stack([np.cos(angles), np.sin(angles)]))


def _star_polygon(points: int, ratio: float, radius: float = 1.0, phase: float = math.pi / 2) -> Polygon:
    """2*points vertices alternating between the outer and inner radius."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("star radius ratio must lie strictly inside (0, 1)")
    angles = phase + math.pi * np.arange(2 * points) / points
    radii = np.where(np.arange(2 * points) % 2 == 0, radius, ratio * radius)
    return Polygon(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]))


def regular_convexity_catalog() -> list:
    """Four convex shapes and their fixed concave counterparts."""
    shapes = [
        ShapeSpec("triangle", {"polygon": _regular_polygon(3), "convex": True}),
        ShapeSpec("square", {"polygon": _regular_polygon(4, phase=math.pi / 4), "convex": True}),
        ShapeSpec("pentagon", {"polygon": _regular_polygon(5), "convex": True}),
        ShapeSpec("disk", {"disk": True, "convex": True}),
    ]
    for k in (3, 4, 5):
        shapes.append(
            ShapeSpec(
                f"star{k}",
                {"polygon": _star_polygon(k, _STAR_RATIOS[k], phase=_STAR_PHASES[k]), "convex": False},
            )
        )
    shapes.append(
        ShapeSpec(
            "wedge-disk",
            {"disk": True, "wedge": (_WEDGE_START, _WEDGE_START + math.pi / 2), "convex": False},
        )
    )
    return shapes


def _sample_shape_points(spec: ShapeSpec, n: int, rng) -> Array:
    if spec.params.get("disk"):
        wedge = spec.params.get("wedge")

        def member(p):
            keep = p[:, 0] ** 2 + p[:, 1] ** 2 <= 1.0
            if wedge is not None:
                theta = np.mod(np.arctan2(p[:, 1], p[:, 0]), 2.0 * math.pi)
                keep &= (theta < wedge[0]) | (theta > wedge[1])
            return keep

        return _sample_region(member, (-1.0, -1.0), (1.0, 1.0), n, rng)
    return _sample_polygon(spec.params["polygon"], n, rng)


def _sample_polygon(poly: Polygon, n: int, rng) -> Array:
    """Uniform points in a polygon, by rejection from its bounding box."""
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    return _sample_region(lambda p: points_in_polygon(p, poly), lo, hi, n, rng)


def gen_random_convex_polygon(seed: int) -> Polygon:
    """Convex hull of 10 uniform points in the unit square."""
    rng = generator(seed)
    return convex_hull(rng.uniform(0.0, 1.0, size=(10, 2)))


def gen_random_concave_polygon(seed: int, retries: int = 100) -> Polygon:
    """Indent a random convex hull at a few edge midpoints.

    A random subset of edge midpoints moves toward the centroid by a factor
    in [0.3, 0.8]; the result must be simple with at least one reflex vertex,
    else the construction retries, as it does when ``convex_hull`` rejects
    the hull.
    """
    rng = generator(seed)
    for _ in range(retries):
        try:
            verts = convex_hull(rng.uniform(0.0, 1.0, size=(10, 2))).vertices
        except ValueError:
            continue
        m = len(verts)
        centroid = verts.mean(axis=0)
        count = int(rng.integers(1, math.ceil(m / 2) + 1))
        dent_edges = sorted(rng.choice(m, size=count, replace=False).tolist())
        out = []
        for i in range(m):
            out.append(verts[i])
            if i in dent_edges:
                mid = 0.5 * (verts[i] + verts[(i + 1) % m])
                factor = rng.uniform(0.3, 0.8)
                out.append(mid + factor * (centroid - mid))
        candidate = np.array(out)
        try:
            poly = Polygon(candidate)
        except ValueError:
            continue
        if _has_reflex_vertex(poly):
            return poly
    raise ValueError(f"concave polygon construction failed after {retries} retries")


def _random_polygon(convex: bool, seed: int, index: int) -> tuple:
    """A random convex or concave polygon from ``seed``, and its shape id."""
    make = gen_random_convex_polygon if convex else gen_random_concave_polygon
    return make(seed), f"{'convex' if convex else 'concave'}-{index}"


def _has_reflex_vertex(poly: Polygon) -> bool:
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    prv = np.roll(v, 1, axis=0)
    e_in = v - prv
    e_out = nxt - v
    cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
    return bool(np.any(cross < 0))


def gen_convexity_dataset(
    kind: str,
    seed: int = 0,
    points_per_cloud: int = 5000,
    clouds_per_shape: int = 60,
    polygons_per_class: int = 240,
) -> LabeledDataset:
    """Point clouds labeled 1 (convex source) or 0 (concave source).

    ``regular``: fixed catalog shapes, ``clouds_per_shape`` clouds each.
    ``random``: fresh convex hulls and indented polygons, one cloud each.
    """
    if min(points_per_cloud, clouds_per_shape, polygons_per_class) < 1:
        raise ValueError("counts must be positive")
    rows = []
    if kind == "regular":
        for s_idx, spec in enumerate(regular_convexity_catalog()):
            for c_idx in range(clouds_per_shape):
                item_seed = derive_seed(seed, 10, s_idx, c_idx)
                pts = _sample_shape_points(spec, points_per_cloud, generator(item_seed))
                rows.append((PointCloud(pts), spec.params["convex"], item_seed, spec.family))
    elif kind == "random":
        for p_idx in range(polygons_per_class):
            for convex in (True, False):
                item_seed = derive_seed(seed, 11, p_idx, int(convex))
                poly, shape_id = _random_polygon(convex, item_seed, p_idx)
                pts = _sample_polygon(poly, points_per_cloud, generator(item_seed, 1))
                rows.append((PointCloud(pts), convex, item_seed, shape_id))
    else:
        raise ValueError("kind must be 'regular' or 'random'")
    return _dataset(f"convexity-{kind}", seed, rows, points_per_cloud=points_per_cloud)


def gen_polygon_masks(
    count: int = 200, side: int = 30, seed: int = 0, concave_fraction: float = 0.5
) -> LabeledDataset:
    """Rasterized random polygons for convexity-measure experiments.

    Labels hold the source kind (1 convex, 0 concave); the area-ratio
    convexity measure is recomputed downstream from the masks themselves.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not 0.0 <= concave_fraction <= 1.0:
        raise ValueError(f"concave_fraction must lie in [0, 1], got {concave_fraction!r}")
    n_concave = int(round(count * concave_fraction))
    rows = []
    for i in range(count):
        convex = i >= n_concave
        item_seed = derive_seed(seed, 12, i)
        poly, shape_id = _random_polygon(convex, item_seed, i)
        rows.append((rasterize(poly, side), convex, item_seed, shape_id))
    return _dataset("polygon-masks", seed, rows, side=side)
