import math

import numpy as np
import pytest

from tdalab import datagen
from tdalab.datagen import (
    LabeledDataset,
    disk_radius_cdf,
    curvature_grid,
    gen_convexity_dataset,
    gen_curvature_dataset,
    gen_holes_dataset,
    gen_polygon_masks,
    gen_random_concave_polygon,
    gen_random_convex_polygon,
    holes_catalog,
    regular_convexity_catalog,
    sample_constant_curvature_disk,
    sample_holes_shape,
    _in_holes_region,
    _ROUND_HOLES,
    _SQUARE_HOLES,
)
from tdalab.geometry import (
    convexity_measure,
    points_in_polygon,
    rasterize,
)


# ---------------------------------------------------------------------------
# holes corpus
# ---------------------------------------------------------------------------


def test_holes_catalog_is_twenty_shapes():
    shapes = holes_catalog()
    assert len(shapes) == 20
    counts = [s.params["holes"] for s in shapes]
    for k in (0, 1, 2, 4, 9):
        assert counts.count(k) == 4


def test_holes_dataset_counts_and_balance():
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=40, seed=3)
    assert len(ds) == 20
    labels = sorted(ds.labels.tolist())
    assert labels == sorted([0, 1, 2, 4, 9] * 4)
    for item, spec in zip(ds.items, holes_catalog()):
        assert item.dim == (3 if spec.params["solid"] else 2)


def test_holes_dataset_default_sizes_are_paper_scale():
    import inspect

    sig = inspect.signature(gen_holes_dataset)
    assert sig.parameters["clouds_per_shape"].default == 50
    assert sig.parameters["points_per_cloud"].default == 1000


def test_holes_samples_avoid_holes():
    # point-in-region oracle: no sampled point may fall inside a hole
    for spec in holes_catalog():
        if spec.params["solid"]:
            continue
        cloud = sample_holes_shape(spec, 400, seed=11)
        k = spec.params["holes"]
        region = spec.params["region"]
        pts = cloud.points / 2.0  # region scale back to unit catalog coords
        assert _in_holes_region(pts, region, k).all()
        if region == "disk":
            for cx, cy, r in _ROUND_HOLES[k]:
                inside = (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 <= r * r
                assert not inside.any()
        else:
            for cx, cy, h in _SQUARE_HOLES[k]:
                inside = np.maximum(np.abs(pts[:, 0] - cx), np.abs(pts[:, 1] - cy)) <= h
                assert not inside.any()


def test_holes_catalog_betti_ground_truth():
    # analytic check: holes are pairwise disjoint, inside the region, with
    # positive wall thickness, so the region's first Betti number equals k
    for k, holes in _ROUND_HOLES.items():
        for i, (x, y, r) in enumerate(holes):
            assert math.hypot(x - 0.5, y - 0.5) + r < 0.5  # inside the disk
            for x2, y2, r2 in holes[i + 1 :]:
                assert math.hypot(x - x2, y - y2) > r + r2  # disjoint
        assert len(holes) == k
    for k, holes in _SQUARE_HOLES.items():
        for i, (x, y, h) in enumerate(holes):
            assert 0 < x - h and x + h < 1 and 0 < y - h and y + h < 1
            for x2, y2, h2 in holes[i + 1 :]:
                gap = max(abs(x - x2), abs(y - y2))
                assert gap > h + h2
        assert len(holes) == k


def test_holes_slab_z_range():
    spec = [s for s in holes_catalog() if s.params["solid"]][0]
    cloud = sample_holes_shape(spec, 200, seed=5)
    assert cloud.points[:, 2].min() >= 0.0
    assert cloud.points[:, 2].max() <= 0.3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_generators_bit_identical_given_seed():
    a = gen_holes_dataset(1, 50, seed=7)
    b = gen_holes_dataset(1, 50, seed=7)
    for x, y in zip(a.items, b.items):
        assert np.array_equal(x.points, y.points)
    c = gen_holes_dataset(1, 50, seed=8)
    assert not np.array_equal(a.items[0].points, c.items[0].points)


def test_curvature_dataset_deterministic():
    t1, s1 = gen_curvature_dataset(seed=1, clouds_per_kappa=1, points_per_cloud=30, test_count=5)
    t2, s2 = gen_curvature_dataset(seed=1, clouds_per_kappa=1, points_per_cloud=30, test_count=5)
    assert np.array_equal(t1.items[0].coords, t2.items[0].coords)
    assert np.array_equal(s1.labels, s2.labels)


def test_item_seeds_distinct():
    ds = gen_holes_dataset(2, 20, seed=0)
    seeds = ds.meta["item_seeds"]
    assert len(set(seeds)) == len(seeds)
    with pytest.raises(ValueError):
        LabeledDataset(ds.items[:2], ds.labels[:2], {"item_seeds": [1, 1]})


# ---------------------------------------------------------------------------
# constant-curvature sampling
# ---------------------------------------------------------------------------


def test_flat_disk_inverse_cdf():
    cloud = sample_constant_curvature_disk(0.0, 2000, seed=0)
    rho = cloud.coords[:, 0]
    # quantile check: under F(r) = r^2 the median radius is sqrt(0.5)
    assert np.median(rho) == pytest.approx(math.sqrt(0.5), abs=0.03)


def test_flat_disk_radius_is_sqrt_of_uniform_draw():
    # replay the sampler's own uniform draws: at kappa = 0 the inverse CDF
    # maps u = 0.25 to rho = 0.5 and in general rho = sqrt(u)
    from tdalab.seeding import generator

    cloud = sample_constant_curvature_disk(0.0, 64, seed=13)
    u = generator(13).uniform(0.0, 1.0, size=64)
    assert np.allclose(cloud.coords[:, 0], np.sqrt(u))


def test_disk_radius_bounded():
    for kappa in (-2.0, -0.5, 0.0, 0.5, 2.0):
        cloud = sample_constant_curvature_disk(kappa, 500, seed=2)
        assert cloud.coords[:, 0].max() <= 1.0


def test_spherical_cap_mass():
    # fraction with rho <= 0.5 must approach the analytic cap-area ratio
    kappa = 1.0
    n = 100_000
    cloud = sample_constant_curvature_disk(kappa, n, seed=4)
    frac = float(np.mean(cloud.coords[:, 0] <= 0.5))
    expected = (1 - math.cos(0.5)) / (1 - math.cos(1.0))
    assert frac == pytest.approx(expected, abs=0.005)


def test_curvature_bounds_rejected():
    with pytest.raises(ValueError):
        sample_constant_curvature_disk(2.5, 10, seed=0)


def test_curvature_grid_structure():
    grid = curvature_grid()
    assert len(grid) == 101
    assert grid[0] == -2.0 and grid[-1] == 2.0
    assert np.allclose(np.diff(grid), 0.04)


def test_curvature_dataset_counts_and_labels():
    train, test = gen_curvature_dataset(seed=0, clouds_per_kappa=1, points_per_cloud=20, test_count=7)
    assert len(train) == 101
    assert np.allclose(sorted(train.labels), curvature_grid())
    assert len(test) == 7
    assert np.all((test.labels >= -2) & (test.labels <= 2))
    # metric choice follows the sign of the true curvature even at test time
    for item, label in zip(test.items, test.labels):
        assert item.curvature == label


def test_curvature_default_sizes():
    import inspect

    sig = inspect.signature(gen_curvature_dataset)
    assert sig.parameters["clouds_per_kappa"].default == 10
    assert sig.parameters["points_per_cloud"].default == 500
    assert sig.parameters["test_count"].default == 100


def test_radial_cdf_function_matches_samplers():
    rho = np.linspace(0, 1, 11)
    assert disk_radius_cdf(0.0, rho)[5] == pytest.approx(0.25)
    assert disk_radius_cdf(1.0, np.array([1.0]))[0] == pytest.approx(1.0)
    assert disk_radius_cdf(-2.0, np.array([0.0]))[0] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# convexity corpus
# ---------------------------------------------------------------------------


def test_random_convex_polygon_is_convex():
    for seed in range(10):
        poly = gen_random_convex_polygon(seed)
        v = poly.vertices
        nxt = np.roll(v, -1, axis=0)
        prv = np.roll(v, 1, axis=0)
        e_in = v - prv
        e_out = nxt - v
        cross = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
        assert np.all(cross > 0)


def test_random_concave_polygon_has_reflex_vertex():
    for seed in range(10):
        poly = gen_random_concave_polygon(seed)
        v = poly.vertices
        nxt = np.roll(v, -1, axis=0)
        prv = np.roll(v, 1, axis=0)
        cross = (v - prv)[:, 0] * (nxt - v)[:, 1] - (v - prv)[:, 1] * (nxt - v)[:, 0]
        assert np.any(cross < 0)


def test_concave_polygon_retries_a_rejected_hull(monkeypatch):
    # a hull that convex_hull rejects costs one retry, not the polygon
    real = datagen.convex_hull
    calls = []

    def rejects_once(points):
        calls.append(points)
        if len(calls) == 1:
            raise ValueError("convex hull is degenerate: input points are collinear")
        return real(points)

    monkeypatch.setattr(datagen, "convex_hull", rejects_once)
    poly = gen_random_concave_polygon(5)
    assert len(calls) >= 2 and _reflex(poly.vertices)
    # a hull rejected on every try ends in the retries error
    monkeypatch.setattr(datagen, "convex_hull", lambda points: real(np.zeros((10, 2))))
    with pytest.raises(ValueError, match="after 3 retries"):
        gen_random_concave_polygon(5, retries=3)


def _reflex(v) -> bool:
    nxt, prv = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
    return bool(np.any((v - prv)[:, 0] * (nxt - v)[:, 1] - (v - prv)[:, 1] * (nxt - v)[:, 0] < 0))


def test_concave_polygon_rasterized_measure_below_convex_tolerance():
    for seed in range(10):
        mask = rasterize(gen_random_concave_polygon(seed), 40)
        assert convexity_measure(mask) < 0.97


def test_star_ratio_bounds():
    from tdalab.datagen import _star_polygon

    with pytest.raises(ValueError):
        _star_polygon(5, 1.0)
    with pytest.raises(ValueError):
        _star_polygon(5, 0.0)


def test_regular_convexity_dataset_balance():
    ds = gen_convexity_dataset("regular", seed=0, points_per_cloud=50, clouds_per_shape=2)
    assert len(ds) == 16
    assert np.sum(ds.labels == 1) == 8
    assert np.sum(ds.labels == 0) == 8
    assert len(regular_convexity_catalog()) == 8


def test_regular_dataset_default_is_480():
    import inspect

    sig = inspect.signature(gen_convexity_dataset)
    assert sig.parameters["clouds_per_shape"].default == 60
    assert sig.parameters["polygons_per_class"].default == 240
    assert sig.parameters["points_per_cloud"].default == 5000


def test_random_convexity_dataset_points_inside_polygons():
    ds = gen_convexity_dataset("random", seed=2, points_per_cloud=60, polygons_per_class=3)
    assert len(ds) == 6
    assert sorted(ds.labels.tolist()) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


def test_convexity_dataset_rejects_unknown_kind():
    with pytest.raises(ValueError):
        gen_convexity_dataset("fancy", seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_convexity_dataset("regular", points_per_cloud=20, clouds_per_shape=0),
        lambda: gen_convexity_dataset("random", points_per_cloud=20, polygons_per_class=0),
        lambda: gen_curvature_dataset(clouds_per_kappa=0, points_per_cloud=10, test_count=0),
        lambda: gen_curvature_dataset(clouds_per_kappa=1, points_per_cloud=10, test_count=0),
    ],
    ids=["convexity-clouds", "convexity-polygons", "curvature-both", "curvature-test"],
)
def test_generators_reject_zero_counts(make):
    # an empty corpus is an error, as gen_holes_dataset and gen_polygon_masks have it
    with pytest.raises(ValueError, match="counts must be positive"):
        make()


def test_polygon_masks_corpus():
    ds = gen_polygon_masks(count=40, side=30, seed=3)
    assert len(ds) == 40
    assert np.sum(ds.labels == 0) == 20
    measures = [convexity_measure(m) for m in ds.items]
    concave = [m for m, l in zip(measures, ds.labels) if l == 0]
    convex = [m for m, l in zip(measures, ds.labels) if l == 1]
    # a coarse raster can hide an individual shallow dent, but the corpus
    # must still spread: concave masks measure lower than convex ones
    assert np.mean(concave) < 0.95
    assert min(convex) >= 0.97


# ---------------------------------------------------------------------------
# the dataset record every generator shares
# ---------------------------------------------------------------------------

RECORD_SEED = 601
RECORD_DATASETS = {
    "holes": (
        lambda: gen_holes_dataset(1, 30, seed=RECORD_SEED),
        {"clouds_per_shape": 1, "points_per_cloud": 30},
    ),
    "curvature-train": (
        lambda: gen_curvature_dataset(RECORD_SEED, 1, 20, 5)[0],
        {"clouds_per_kappa": 1, "points_per_cloud": 20},
    ),
    "curvature-test": (
        lambda: gen_curvature_dataset(RECORD_SEED, 1, 20, 5)[1],
        {"points_per_cloud": 20},
    ),
    "convexity-regular": (
        lambda: gen_convexity_dataset("regular", RECORD_SEED, points_per_cloud=40, clouds_per_shape=2),
        {"points_per_cloud": 40},
    ),
    "convexity-random": (
        lambda: gen_convexity_dataset("random", RECORD_SEED, points_per_cloud=40, polygons_per_class=3),
        {"points_per_cloud": 40},
    ),
    "polygon-masks": (lambda: gen_polygon_masks(7, 12, RECORD_SEED), {"side": 12}),
}


@pytest.mark.parametrize("generator", list(RECORD_DATASETS))
def test_dataset_record(generator):
    make, sizes = RECORD_DATASETS[generator]
    ds = make()
    assert list(ds.meta) == ["generator", "master_seed", "item_seeds", "shape_ids", *sizes]
    assert ds.meta["generator"] == generator
    assert ds.meta["master_seed"] == RECORD_SEED
    assert {key: ds.meta[key] for key in sizes} == sizes
    n = len(ds.items)
    assert len(ds.labels) == len(ds.meta["item_seeds"]) == len(ds.meta["shape_ids"]) == n
    assert len(set(ds.meta["item_seeds"])) == n
    assert ds.labels.dtype == np.float64


@pytest.mark.parametrize("fraction", [1.5, -1.0, float("nan")])
def test_polygon_masks_reject_concave_fraction_outside_unit_interval(fraction):
    with pytest.raises(ValueError, match="concave_fraction must lie in"):
        gen_polygon_masks(4, 12, seed=0, concave_fraction=fraction)
