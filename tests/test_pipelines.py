import concurrent.futures
import dataclasses
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import tdalab.complexes as complexes
from tdalab.complexes import FilteredComplex, cubical_complex, rips_complex, weighted_rips_complex
from tdalab.datagen import (
    gen_convexity_dataset,
    gen_curvature_dataset,
    gen_holes_dataset,
    gen_polygon_masks,
    holes_catalog,
    sample_constant_curvature_disk,
    sample_holes_shape,
)
import tdalab.datagen as datagen
import tdalab.geometry as geometry
from tdalab.geometry import (
    BinaryMask,
    PointCloud,
    TransformSpec,
    apply_transform,
    convexity_measure,
    dtm,
    euclidean_distance_matrix,
    farthest_point_subsample,
    fill_sampling_gaps,
    geodesic_distance_matrix,
    rasterize,
    tubular_distances,
)
from tdalab.io import report_to_json
from tdalab.learn import Standardizer, accuracy, kfold_splits, knn_fit_predict, mse
import tdalab.persistence as persistence
import tdalab.pipelines as pipelines
from tdalab.persistence import PersistenceDiagram, compute_ph, sublevel_ph0_stack
from tdalab.pipelines import (
    ConvexityConfig,
    CurvatureConfig,
    LINE_NAMES,
    HolesConfig,
    RegressionConfig,
    _blocks,
    _capped_dim1_pairs,
    _concavity_block,
    _convexity_regime,
    _convexity_scalars,
    _gen_convexity,
    _knn_search,
    _second_persistence,
    _spearman,
    cell_units,
    concavity_features,
    convexity_experiment,
    convexity_regression,
    curvature_pipeline,
    default_lines,
    holes_pipeline,
    signature_grid,
    train_test_split_indices,
)
from tdalab.signatures import (
    FinitePoints,
    finite_points,
    image_ranges,
    landscape_range,
    lifespans_topk,
    persistence_image,
    persistence_landscape,
)

RNG = np.random.default_rng(2)


# ---------------------------------------------------------------------------
# line sets
# ---------------------------------------------------------------------------


def _unit_mask():
    return BinaryMask(np.ones((10, 10), dtype=bool), (0.0, 0.0), 1.0)


def test_default_lines_distinct_nine():
    lines = default_lines(_unit_mask())
    assert len(lines) == 9
    seen = {(tuple(np.round(l.anchor, 9)), tuple(np.round(l.direction, 9))) for l in lines.lines}
    assert len(seen) == 9


def test_default_lines_translate_with_mask():
    mask = _unit_mask()
    shift = np.array([5.0, -3.0])
    moved = BinaryMask(mask.cells, tuple(shift), 1.0)
    a = default_lines(mask)
    b = default_lines(moved)
    for la, lb in zip(a.lines, b.lines):
        assert np.allclose(la.direction, lb.direction)
        # the translated line is the original line shifted with the mask
        assert tubular_distances([la.anchor + shift], lb)[0] == pytest.approx(0.0, abs=1e-9)


def test_line_set_distances_equal_per_line_rows():
    # one call over the nine lines gives each Line's distances, bit for bit
    rng = np.random.default_rng(5)
    masks = list(gen_polygon_masks(12, 30, 811).items)
    masks += [BinaryMask(rng.random((7, 7)) < 0.5, tuple(rng.normal(0, 50, 2)), 0.37) for _ in range(5)]
    masks += [BinaryMask(m.cells, (17.25, -4.5), m.width * 3.3) for m in masks[:4]]
    for mask in masks:
        lines = default_lines(mask)
        points = np.concatenate([mask.cell_centers()[mask.cells], rng.normal(0, 100, (30, 2))])
        rows = np.stack([tubular_distances(points, line) for line in lines.lines])
        assert np.array_equal(tubular_distances(points, lines), rows)
        assert lines.names == pipelines.LINE_NAMES and len(lines) == 9


def test_concavity_features_build_no_line(monkeypatch):
    # the nine lines stay two arrays; only ``LineSet.lines`` builds Lines
    built = []
    monkeypatch.setattr(geometry.Line, "__post_init__", lambda line: built.append(line))
    masks = gen_polygon_masks(6, 30, 811).items
    for mask in masks:
        concavity_features(mask)
        concavity_features(mask, normalize=True)
    assert built == []
    assert len(default_lines(masks[0]).lines) == len(built) == 9


def test_full_square_tubular_single_interval_per_line():
    mask = _unit_mask()
    feats = concavity_features(mask)
    assert np.allclose(feats, 0.0)


# ---------------------------------------------------------------------------
# concavity features
# ---------------------------------------------------------------------------


def _u_mask(c=12):
    cells = np.zeros((c, c), dtype=bool)
    cells[:, : c // 4] = True
    cells[: c // 4, :] = True
    cells[-c // 4 :, :] = True
    return BinaryMask(cells, (0.0, 0.0), float(c))


def test_u_mask_has_positive_feature():
    feats = concavity_features(_u_mask())
    assert feats.max() > 0


def test_concavity_features_translation_scale_invariance():
    mask = _u_mask()
    f0 = concavity_features(mask, normalize=True)
    moved = BinaryMask(mask.cells, (17.0, -4.0), mask.width)
    assert np.allclose(concavity_features(moved, normalize=True), f0)
    scaled = BinaryMask(mask.cells, (0.0, 0.0), mask.width * 7.5)
    assert np.allclose(concavity_features(scaled, normalize=True), f0)


def _union_find_concavity(mask):
    """Concavity features the way the level sweep replaced: a cubical grid
    per line, degree 0 by the elder-rule union-find that serves
    compute_ph at max_dim=1, and the second class ranked in the diagram's
    (birth, death) order."""
    cell = mask.cell_size
    out = []
    for line in default_lines(mask).lines:
        grid = cubical_complex(mask, lambda c, line=line: np.round(tubular_distances(c, line) / cell, 9))
        pts = compute_ph(grid, 1).in_dim(0)
        if len(pts) < 2:
            out.append(0.0)
            continue
        end = grid.top_values[np.isfinite(grid.top_values)].max()
        finite = np.isfinite(pts[:, 1])
        spans = np.where(finite, pts[:, 1] - pts[:, 0], np.maximum(end - pts[:, 0], 0.0))
        out.append(float(spans[np.argsort(np.where(finite, spans, np.inf), kind="stable")[::-1][1]]))
    return np.array(out)


def test_concavity_features_equal_union_find_route():
    # the first 30 masks of seed 603 hold mask 24, which has two components
    # and so two essential classes on every line
    for mask in gen_polygon_masks(60, 30, 603).items[:30]:
        assert np.array_equal(concavity_features(mask), _union_find_concavity(mask))


def _tuple_order_concavity(mask):
    """Concavity features by plain Python: each line's classes as
    (rank key, birth, death) tuples, the key being the lifespan or +inf for
    an essential class, sorted, and the second-to-last one's lifespan."""
    values = cell_units(tubular_distances(mask.occupied_centers(), default_lines(mask)), mask.cell_size)
    out = []
    for line_values in values:
        grid = np.full(mask.cells.shape, np.inf)
        grid[mask.cells] = line_values
        _, births, deaths = sublevel_ph0_stack(grid[None])
        ranked = sorted((d - b if d < math.inf else math.inf, b, d) for b, d in zip(births.tolist(), deaths.tolist()))
        if len(ranked) < 2:
            out.append(0.0)
            continue
        _, b, d = ranked[-2]
        out.append(d - b if d < math.inf else max(float(line_values.max()) - b, 0.0))
    return np.array(out)


@pytest.mark.parametrize("seed, index, line, score", [(603, 24, "left", 28.0), (1, 15, "right", 29.0)])
def test_second_persistence_ties_keep_birth_death_order(seed, index, line, score):
    # two or more essential classes tie at +inf on these lines; numpy's
    # default argsort is unstable on some CPUs and scored both 27
    mask = gen_polygon_masks(60, 30, seed).items[index]
    feats = concavity_features(mask)
    assert np.array_equal(feats, _tuple_order_concavity(mask))
    assert feats[LINE_NAMES.index(line)] == score


def _per_line_concavity(mask, normalize):
    """Concavity features with one ``sublevel_ph0_stack`` call per line,
    each on a stack of one grid: the box of occupied cells filled with that
    line's values alone."""
    lines = default_lines(mask)
    cell = mask.cell_size
    ix, iy = np.nonzero(mask.cells)
    centers = mask.cell_centers()[ix, iy]
    ix, iy = ix - ix.min(), iy - iy.min()
    box = np.full((ix.max() + 1, iy.max() + 1), np.inf)
    out = np.empty(len(lines))
    for i, line in enumerate(lines.lines):
        values = cell_units(tubular_distances(centers, line), cell)
        box[ix, iy] = values
        _, births, deaths = sublevel_ph0_stack(box[None])
        out[i] = _second_persistence(births, deaths, float(values.max()))
    if normalize:
        out /= len(ix)
    return out


def _seed_601_rasters():
    config = ConvexityConfig()
    for kind in ("regular", "random"):
        ds = gen_convexity_dataset(kind, seed=601, points_per_cloud=1000, clouds_per_shape=2, polygons_per_class=12)
        for cloud in ds.items:
            yield fill_sampling_gaps(rasterize(cloud, config.grid_side), config.fill_neighbors)


def test_concavity_features_equal_per_line_sweeps():
    polygons = gen_polygon_masks(60, 30, 811)
    # convex mask 57 rasterizes its tip into a stray cell, so it scores above 0
    assert polygons.labels[57] == 1 and concavity_features(polygons.items[57]).max() > 0
    rasters = list(_seed_601_rasters())
    scores = []
    for mask in rasters + list(polygons.items):
        for normalize in (False, True):
            feats = concavity_features(mask, normalize)
            assert np.array_equal(feats, _per_line_concavity(mask, normalize))
        scores.append(feats.max())
    assert min(scores[: len(rasters)]) == 0 < max(scores[: len(rasters)])


def test_concavity_features_sweep_once_per_block(monkeypatch):
    calls = _count_calls(monkeypatch, pipelines, "sublevel_ph0_stack")

    def stack_shapes():
        shapes = [np.shape(args[0]) for args in calls]
        calls.clear()
        return shapes

    # 16,384 top cells per sweep: nine grids of 400 cells for each of 4 side-20
    # masks, or of 900 cells for each of 2 side-30 masks
    per_block = {s: pipelines._BLOCK_CELLS // (len(LINE_NAMES) * s * s) for s in (20, 30)}
    assert per_block == {20: 4, 30: 2}
    masks = gen_polygon_masks(12, 30, 811).items
    for mask in masks:
        concavity_features(mask)
    assert stack_shapes() == [(9, 30, 30)] * len(masks)
    # 10 side-20 rasters per corpus: two full blocks and a partial one of 2
    # masks, for each corpus alone, so no block spans the two
    config = ConvexityConfig(points_per_cloud=1000, polygons_per_class=5)
    dataset = _gen_convexity("random", config, 601)
    assert len(dataset.items) == 10
    convexity_experiment(config, 601, {"regular": dataset, "random": dataset})
    assert stack_shapes() == [(36, 20, 20), (36, 20, 20), (18, 20, 20)] * 2
    # 5 side-30 masks, then 15 side-20 ones: no block spans the change of side
    masks = list(gen_polygon_masks(5, 30, 811).items) + list(gen_polygon_masks(15, 20, 812).items)
    report = convexity_regression(masks)
    assert report.config["skipped_masks"] == []
    assert stack_shapes() == [(18, 30, 30)] * 2 + [(9, 30, 30)] + [(36, 20, 20)] * 3 + [(27, 20, 20)]


def test_concavity_blocks_equal_per_mask_routes():
    """Features swept block by block equal the per-line sweeps and the
    union-find route, mask by mask, wherever a mask sits in its block."""
    two_essential = gen_polygon_masks(60, 30, 603).items[24]  # two components
    stray_cell = gen_polygon_masks(60, 30, 811).items[57]  # convex, with a stray cell
    side_30 = gen_polygon_masks(4, 30, 7).items
    masks = list(_seed_601_rasters())[:3]
    masks += [side_30[0], two_essential, side_30[1], stray_cell, side_30[2]]
    masks += list(gen_polygon_masks(6, 20, 6).items)
    blocks = list(_blocks(masks, [m.side for m in masks]))
    assert [len(b) for b in blocks] == [3, 2, 2, 1, 4, 2]
    for normalize in (False, True):
        rows = np.concatenate([_concavity_block(block, normalize) for block in blocks])
        for mask, row in zip(masks, rows, strict=True):
            assert np.array_equal(row, _per_line_concavity(mask, normalize))
            union_find = _union_find_concavity(mask)
            assert np.array_equal(row, union_find / mask.cells.sum() if normalize else union_find)


@pytest.mark.parametrize("grid_side", [0, 1, -20])
def test_convexity_config_rejects_a_raster_side_below_2(monkeypatch, grid_side):
    # the config fails with the raster's own message, before a corpus is
    # generated or a block of masks is sized by the side
    generated = _count_calls(monkeypatch, datagen, "gen_convexity_dataset")
    with pytest.raises(ValueError, match="raster side must be at least 2"):
        convexity_experiment(ConvexityConfig(grid_side=grid_side), seed=0)
    assert generated == []


def test_normalize_divides_by_occupied_count():
    mask = _u_mask()
    raw = concavity_features(mask, normalize=False)
    normed = concavity_features(mask, normalize=True)
    assert np.allclose(normed, raw / mask.cells.sum())


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_is_stratified_and_deterministic():
    labels = np.repeat([0, 1, 2, 4, 9], 10)
    tr1, te1 = train_test_split_indices(labels, 0.2, seed=5)
    tr2, te2 = train_test_split_indices(labels, 0.2, seed=5)
    assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
    assert len(te1) == 10
    for cls in (0, 1, 2, 4, 9):
        assert np.sum(labels[te1] == cls) == 2
    assert len(np.intersect1d(tr1, te1)) == 0


def test_split_400_80_shape():
    labels = np.repeat([0.0, 1.0], 240)
    tr, te = train_test_split_indices(labels, 1.0 / 6.0, seed=0)
    assert len(tr) == 400 and len(te) == 80


# ---------------------------------------------------------------------------
# holes pipeline at toy scale
# ---------------------------------------------------------------------------


def _tiny_holes_config():
    return HolesConfig(subsample=60, knn_grid=(1, 3), topk=10)


def test_holes_pipeline_memorization():
    ds = gen_holes_dataset(clouds_per_shape=2, points_per_cloud=120, seed=1)
    config = HolesConfig(subsample=50, knn_grid=(1,), test_fraction=0.5)
    report = holes_pipeline(ds, transform=[], config=config, seed=0)
    assert report.regime("clean") >= 0.5  # sanity floor at toy scale
    assert report.experiment == "holes"
    assert len(report.items) == 20


def test_holes_feature_isometry_invariance():
    pts = gen_holes_dataset(1, 200, seed=2).items[2].points
    config = HolesConfig(subsample=80, dtm_mass=0.03, cap_factor=0.5)
    base = pipelines._holes_block(config, [(PointCloud(pts), 3, None, None)])[0]
    for kind in ("translation", "rotation"):
        moved = apply_transform(PointCloud(pts), TransformSpec(kind), seed=8)
        got = pipelines._holes_block(config, [(moved, 3, None, None)])[0]
        spans_a = np.sort(base[:, 1] - base[:, 0])[::-1][:10]
        spans_b = np.sort(got[:, 1] - got[:, 0])[::-1][:10]
        k = min(len(spans_a), len(spans_b))
        assert np.allclose(spans_a[:k], spans_b[:k], atol=1e-6)
        assert len(spans_a) == len(spans_b)


def _cap_then_retry(build, cap_factor, r_full):
    """Finite dim-1 pairs of build(cap), or of build(r_full) when the cap
    leaves a class essential; and whether it had to rebuild."""
    pd = compute_ph(build(cap_factor * r_full), max_dim=1)
    if np.all(np.isfinite(pd.in_dim(1)[:, 1])):
        return pd.finite_in_dim(1), False
    return compute_ph(build(r_full), max_dim=1).finite_in_dim(1), True


@pytest.mark.parametrize("shape, retries", [(0, False), (4, True)], ids=["disk", "one-hole-disk"])
def test_weighted_dim1_matches_cap_then_retry(shape, retries):
    points = sample_holes_shape(holes_catalog()[shape], 300, 5).points
    config = HolesConfig(subsample=100)
    dm = euclidean_distance_matrix(farthest_point_subsample(PointCloud(points), 100, 3))
    f = dtm(dm, config.dtm_mass)
    r_full = float(weighted_rips_complex(dm, f, max_dim=1).edge_values.max())
    expected, retried = _cap_then_retry(
        lambda r_max: weighted_rips_complex(dm, f, max_dim=2, r_max=r_max), config.cap_factor, r_full
    )
    assert retried == retries
    got = pipelines._holes_block(config, [(PointCloud(points), 3, None, None)])[0]
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("kappa, retries", [(2.0, False), (0.0, True)], ids=["sphere", "plane"])
def test_curvature_worker_matches_cap_then_retry(kappa, retries):
    cloud = sample_constant_curvature_disk(kappa, 50, 0)
    cap_factor = CurvatureConfig().cap_factor
    dm = geodesic_distance_matrix(cloud)
    expected1, retried = _cap_then_retry(
        lambda r_max: rips_complex(dm, max_dim=2, r_max=r_max), cap_factor, float(dm.values.max())
    )
    assert retried == retries
    expected0 = compute_ph(rips_complex(dm, max_dim=1), max_dim=0).finite_in_dim(0)
    got0, got1 = pipelines._curvature_block(CurvatureConfig(cap_factor=cap_factor), [cloud])[0]
    assert np.array_equal(got0, expected0)
    assert np.array_equal(got1, expected1)


def _count_calls(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` in the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("falls_back", [False, True], ids=["capped", "fallback"])
def test_one_spanning_forest_per_block(monkeypatch, falls_back):
    # a block of complete graphs finds its forests in one Prim, and each
    # graph its union-find pairs once: its prefix inherits them, and the
    # fallback on the complete graph reuses them; a cloud alone is a block
    # of one
    forests = _count_calls(monkeypatch, complexes, "_spanning_forest")
    union_finds = _count_calls(monkeypatch, complexes, "_elder_union_find")
    reductions = _count_calls(monkeypatch, pipelines, "flag_pairs")

    def clear():
        forests.clear()
        union_finds.clear()
        reductions.clear()

    kappa = 0.0 if falls_back else 2.0
    pipelines._curvature_block(CurvatureConfig(), [sample_constant_curvature_disk(kappa, 50, 0)])
    assert (len(forests), len(reductions)) == (1, 3 if falls_back else 2)
    assert len(union_finds) == 1
    clear()
    clouds = [sample_constant_curvature_disk(k, 50, 0) for k in (2.0, kappa, -1.0)]
    pipelines._curvature_block(CurvatureConfig(), clouds)
    assert (len(forests), len(reductions)) == (1, 7 if falls_back else 6)
    assert len(union_finds) == len(clouds)
    clear()
    shape = 4 if falls_back else 0
    points = sample_holes_shape(holes_catalog()[shape], 300, 5).points
    pipelines._holes_block(HolesConfig(subsample=100), [(PointCloud(points), 3, None, None)])
    assert (len(forests), len(reductions)) == (1, 2 if falls_back else 1)
    assert len(union_finds) == 1
    clear()
    items = [(sample_holes_shape(holes_catalog()[s], 300, 5), 3, None, None) for s in (0, shape, 2)]
    pipelines._holes_block(HolesConfig(subsample=100), items)
    assert (len(forests), len(reductions)) == (1, 4 if falls_back else 3)
    assert len(union_finds) == len(items)


def test_flag_block_workers_equal_one_item_blocks(monkeypatch):
    """Blocks of a few (n, n) tables over items whose (n, dim) changes
    mid-list, with a partial block last: each item's result equals that of
    the item alone, and lands at the item's place."""
    forests = _count_calls(monkeypatch, complexes, "_spanning_forest")

    def block_sizes():
        sizes = [len(args[0]) for args in forests]
        forests.clear()
        return sizes

    # holes: 30-vertex tables, three to a block; 80-point clouds alternate
    # 2-D and 3-D, then come two 60-point 2-D ones
    monkeypatch.setattr(pipelines, "_FLAG_BLOCK_CELLS", 3 * 30**2)
    config = HolesConfig(subsample=30)
    clouds = list(gen_holes_dataset(1, 80, seed=9).items[:7])
    clouds += [sample_holes_shape(holes_catalog()[i], 60, 9) for i in (0, 2)]
    specs = [None, "gaussian", None, "rotation", None, None, "outliers", None, "shear"]
    items = [
        (cloud, 100 + i, spec and TransformSpec(spec), 200 + i) for i, (cloud, spec) in enumerate(zip(clouds, specs))
    ]
    keys = [(30, cloud.n, cloud.dim) for cloud in clouds]
    got = pipelines._map_flag_blocks(partial(pipelines._holes_block, config), items, keys, 1)
    # 2-D at 80 points: items 0, 2, 4 and 6; 3-D: 1, 3 and 5; 2-D at 60: 7 and 8
    assert block_sizes() == [3, 1, 3, 2]
    want = [pipelines._holes_block(config, [item])[0] for item in items]
    assert block_sizes() == [1] * len(items)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
    # curvature: 40-point clouds three to a block, 30-point ones five, and a
    # 50-point one alone
    monkeypatch.setattr(pipelines, "_FLAG_BLOCK_CELLS", 3 * 40**2)
    config = CurvatureConfig()
    shapes = [(0.0, 50), (2.0, 40), (-1.0, 40), (1.0, 30), (0.0, 40), (-2.0, 40), (0.5, 30)]
    clouds = [sample_constant_curvature_disk(kappa, n, seed) for seed, (kappa, n) in enumerate(shapes)]
    reductions = _count_calls(monkeypatch, pipelines, "flag_pairs")
    got = pipelines._map_flag_blocks(partial(pipelines._curvature_block, config), clouds, [(c.n,) for c in clouds], 1)
    assert block_sizes() == [1, 3, 1, 2]
    assert len(reductions) > 2 * len(clouds)  # some clouds fall back to the complete graph
    want = [pipelines._curvature_block(config, [cloud])[0] for cloud in clouds]
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(8, 40),
    weighted=st.booleans(),
    tied=st.booleans(),
    cap_at=st.sampled_from(["edge", "below", "top", "above"]),
    pick=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_capped_prefix_matches_cap_then_retry(n, weighted, tied, cap_at, pick, seed):
    rng = np.random.default_rng(seed)
    if tied:  # lattice points: many distances tie
        cells = rng.choice(49, n, replace=False)
        points = np.column_stack([cells // 7, cells % 7]).astype(float)
    else:
        points = rng.random((n, 2))
    dm = euclidean_distance_matrix(PointCloud(points))
    if weighted:
        f = dtm(dm, 0.1)
        complete = weighted_rips_complex(dm, np.round(f * 2) / 2 if tied else f, max_dim=1)
    else:
        complete = rips_complex(dm, max_dim=1)
    # scaled so that the full radius is exactly 1.0: the reference then
    # builds at exactly the cap, and at the full radius on a retry
    top = float(complete.edge_values.max())
    vertices, edges, values = complete.vertex_values / top, complete.edges, complete.edge_values / top
    graph = FilteredComplex(vertices, edges, values)
    cap = {
        "edge": float(values[int(pick * (len(values) - 1))]),
        "below": float(np.nextafter(values.min(), -np.inf)),
        "top": 1.0,
        "above": 1.0 + pick,
    }[cap_at]
    expected, _ = _cap_then_retry(
        lambda r_max: FilteredComplex(vertices, edges[values <= r_max], values[values <= r_max]), cap, 1.0
    )
    # at a full radius of 1.0 the cap factor is the cap
    assert np.array_equal(_capped_dim1_pairs(graph, cap), expected)


@pytest.mark.parametrize("config", [HolesConfig, CurvatureConfig])
@pytest.mark.parametrize("cap_factor", [math.nan, 0.0, -0.5])
def test_config_rejects_bad_cap_factor(config, cap_factor):
    with pytest.raises(ValueError, match="cap_factor"):
        config(cap_factor=cap_factor)


def test_prefix_rejects_nan_cap():
    graph = rips_complex(euclidean_distance_matrix(PointCloud(np.random.default_rng(0).random((6, 2)))), max_dim=1)
    with pytest.raises(ValueError, match="cap must not be NaN"):
        graph.prefix(math.nan)


def test_holes_report_regenerates_bit_identically():
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=100, seed=3)
    config = HolesConfig(subsample=40, knn_grid=(1,), test_fraction=0.2)
    spec = TransformSpec("rotation")
    r1 = holes_pipeline(ds, spec, config, seed=4)
    r2 = holes_pipeline(ds, spec, config, seed=4)
    assert report_to_json(r1) == report_to_json(r2)
    assert [r.name for r in r1.regimes] == ["clean", "rotation"]


def test_holes_pipeline_auto_signature_grid():
    ds = gen_holes_dataset(clouds_per_shape=2, points_per_cloud=100, seed=6)
    config = HolesConfig(subsample=40, knn_grid=(1, 3), signature="auto", test_fraction=0.5)
    report = holes_pipeline(ds, [], config, seed=0)
    assert report.config["signature_chosen"] in ("lifespans", "pi", "pl")
    assert report.config["knn_k"] in (1, 3)
    assert 0.0 <= report.regime("clean") <= 1.0


def _per_config_search(diagrams, labels, dim, sig_configs, knn_grid, mode, seed):
    """The search as one evaluation per (signature, k, fold): vectorize one
    diagram at a time, rank neighbours anew for each k, mean over folds and
    keep the earliest best config."""
    classify = mode == "classify"

    def vectorize(diags, kind, params, fit_on):
        if kind == "lifespans":
            return np.stack([lifespans_topk(pd, dim, params["k"]).values for pd in diags])
        if kind == "pi":
            ranges = image_ranges(finite_points(fit_on, dim), params["sigma"])
            return np.stack([
                persistence_image(pd, dim, 10, params["sigma"], params["weight"], *ranges).values
                for pd in diags
            ])
        top = params["top"]
        t_range = landscape_range(finite_points(fit_on, dim))
        return np.stack([
            persistence_landscape(pd, dim, 100, min(top or 10, 10), top, t_range).values for pd in diags
        ])

    configs = [(sig, k) for sig in sig_configs for k in knn_grid]
    splits = kfold_splits(len(diagrams), 3, seed, labels if classify else None)
    scores = []
    for (kind, params), k in configs:
        vals = []
        for tr, va in splits:
            if k > len(tr):
                vals.append(-math.inf if classify else math.inf)
                continue
            fit_on = [diagrams[i] for i in tr]
            X_tr = vectorize(fit_on, kind, params, fit_on)
            X_va = vectorize([diagrams[i] for i in va], kind, params, fit_on)
            std = Standardizer.fit(X_tr)
            preds = knn_fit_predict(std.transform(X_tr), labels[tr], std.transform(X_va), k, mode)
            vals.append(accuracy(preds, labels[va]) if classify else mse(preds, labels[va]))
        scores.append(float(np.mean(vals)))
    best = int(np.argmax(scores)) if classify else int(np.argmin(scores))
    return configs[best], scores[best], scores


def _search_diagrams(rng, count, dim, scale):
    """Diagrams whose lifespans grow with the label, plus noise intervals."""
    diagrams = []
    for label in range(count):
        m = int(rng.integers(0, 25))
        births = rng.random(m)
        lives = rng.random(m) * (1 + scale * (label % 3))
        rows = [[dim, b, b + life] for b, life in zip(births, lives)] + [[dim, 0.0, math.inf]]
        diagrams.append(PersistenceDiagram(np.array(rows)))
    return diagrams


def _candidates(table, points):
    """Holes' and curvature's "auto" grid, or a curvature table: "simple"
    (k = the longest diagram), "simple10", or a k above every diagram."""
    longest = int(points.counts.max())
    ks = {"simple": longest, "simple10": 10, "above": longest + 15}
    return signature_grid() if table == "grid" else [("lifespans", {"k": ks[table]})]


@pytest.mark.parametrize(
    "mode, scale, knn_grid, table",
    [
        ("classify", 0.3, (1, 5, 9), "grid"),  # 9 exceeds every training fold of 8
        ("regress", 0.3, (1, 5, 9), "grid"),
        ("classify", 50.0, (1, 2, 3), "grid"),  # separable classes: many configs score 1.0
        ("regress", 0.3, (3, 3, 1, 20), "grid"),  # a repeated k ties with itself
        ("regress", 0.3, (1, 5, 9), "simple"),
        ("regress", 0.3, (1, 5, 9), "simple10"),
        ("regress", 0.3, (3, 3, 1, 20), "above"),
        ("classify", 0.3, (1, 2, 3), "above"),
    ],
    ids=[
        "classify-0.3-knn_grid0",
        "regress-0.3-knn_grid1",
        "classify-50.0-knn_grid2",
        "regress-0.3-knn_grid3",
        "regress-simple",
        "regress-simple10",
        "regress-above",
        "classify-above",
    ],
)
def test_knn_search_matches_per_config_loop(mode, scale, knn_grid, table):
    rng = np.random.default_rng(8)
    diagrams = _search_diagrams(rng, 12, 1, scale)
    labels = np.array([label % 3 for label in range(12)], dtype=float)
    if mode == "regress":
        labels = labels + rng.random(12)
    points = finite_points(diagrams, 1)
    sigs = _candidates(table, points)
    (sig, k), score, scores = _per_config_search(diagrams, labels, 1, sigs, knn_grid, mode, 5)
    best, best_k, best_score = _knn_search(points, labels, sigs, knn_grid, mode, 5)
    assert (sigs[best], best_k, best_score) == (sig, k, score)
    if (scale == 50.0 and table == "grid") or knn_grid.count(3) == 2:
        assert scores.count(score) > 1  # the tie the rule has to break
    if 9 in knn_grid or 20 in knn_grid:
        assert (-math.inf if mode == "classify" else math.inf) in scores


@pytest.mark.parametrize("mode", ["classify", "regress"])
def test_knn_search_images_of_one_sigma_together_equal_one_at_a_time(mode, monkeypatch):
    # the grid's three weights of each sigma share ranges and Gaussian
    # factors; each candidate vectorized alone gives the same fold scores
    rng = np.random.default_rng(21)
    diagrams = _search_diagrams(rng, 15, 1, 0.3)
    labels = np.array([label % 3 for label in range(15)], dtype=float)
    if mode == "regress":
        labels = labels + rng.random(15)
    points = finite_points(diagrams, 1)
    grid = signature_grid()
    runs = pipelines._signature_runs(grid)
    assert [len(run) for run in runs] == [1] + [len(pipelines.PI_WEIGHT_GRID)] * len(pipelines.PI_SIGMAS) + [1] * 3
    assert [c for run in runs for c in run] == grid
    fold_scores = _count_calls(monkeypatch, pipelines, "select_by_mean")
    together = _knn_search(points, labels, grid, (1, 3, 5), mode, 4)
    monkeypatch.setattr(pipelines, "_signature_runs", lambda candidates: [[c] for c in candidates])
    alone = _knn_search(points, labels, grid, (1, 3, 5), mode, 4)
    assert together == alone
    assert fold_scores[0] == fold_scores[1]


def test_knn_search_scores_matrices_standardized_by_transform(monkeypatch):
    # the search standardizes in place; what it scores equals
    # Standardizer.transform of the raw matrices, bit for bit
    rng = np.random.default_rng(22)
    diagrams = _search_diagrams(rng, 12, 1, 0.3)
    labels = np.array([label % 3 for label in range(12)], dtype=float)
    points = finite_points(diagrams, 1)
    grid = signature_grid()
    scored = _count_calls(monkeypatch, pipelines, "knn_grid_scores")
    _knn_search(points, labels, grid, (1, 3), "classify", 4)
    expected = []
    for tr, va in kfold_splits(len(labels), 3, 4, labels):
        fit_on, val = points.take(tr), points.take(va)
        for run in pipelines._signature_runs(grid):
            vectorize = pipelines._signatures(run, fit_on)
            for X_tr, X_va in zip(vectorize(fit_on), vectorize(val)):
                std = Standardizer.fit(X_tr)
                expected.append((std.transform(X_tr), std.transform(X_va)))
    assert len(scored) == len(expected) == 3 * len(grid)
    for args, (X_tr, X_va) in zip(scored, expected):
        assert np.array_equal(args[0], X_tr) and np.array_equal(args[2], X_va)


def test_landscape_signature_levels():
    # a landscape of the top 1 interval has one level; the top 10, or all
    # intervals, have ten
    diagrams = _search_diagrams(np.random.default_rng(9), 6, 1, 0.3)
    points = finite_points(diagrams, 1)
    assert (pipelines.PL_RESOLUTION, pipelines.PL_LEVELS) == (100, 10)
    for top, levels in ((1, 1), (10, 10), (None, 10)):
        (matrix,) = pipelines._signatures([("pl", {"top": top})], points)(points)
        assert matrix.shape == (len(diagrams), levels * pipelines.PL_RESOLUTION)


def test_worker_pairs_make_the_points_of_their_diagrams():
    # the workers' pair arrays come from flag_pairs, already in the
    # (birth, death) order a diagram sorts them into
    clouds = [sample_constant_curvature_disk(kappa, 40, 3) for kappa in (-2.0, 0.0, 2.0)]
    pairs = [pipelines._curvature_block(CurvatureConfig(), [cloud])[0] for cloud in clouds]
    for dim in (0, 1):
        arrays = [p[dim] for p in pairs] + [np.empty((0, 2))]
        diagrams = [PersistenceDiagram(np.column_stack([np.full(len(a), float(dim)), a])) for a in arrays]
        got, want = FinitePoints.from_pairs(arrays), finite_points(diagrams, dim)
        for a, b in ((got.births, want.births), (got.deaths, want.deaths), (got.bounds, want.bounds)):
            assert np.array_equal(a, b)
    assert len(FinitePoints.from_pairs([])) == 0


@pytest.mark.parametrize("mode", ["pi", "pl"])
def test_holes_pipeline_fixed_signature_modes(mode):
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=80, seed=7)
    config = HolesConfig(subsample=30, knn_grid=(1,), signature=mode, test_fraction=0.2)
    report = holes_pipeline(ds, [], config, seed=0)
    assert report.config["signature_chosen"] == mode


def test_curvature_pipeline_auto_variant():
    train, test = gen_curvature_dataset(
        seed=3, clouds_per_kappa=1, points_per_cloud=40, test_count=3
    )
    config = CurvatureConfig(knn_grid=(1, 3), variants=("simple", "auto"))
    report = curvature_pipeline(train, test, config, seed=0)
    assert math.isfinite(report.regime("0dim-auto"))
    assert math.isfinite(report.regime("1dim-auto"))


def test_convexity_report_regenerates_bit_identically():
    from tdalab.io import report_to_json

    config = ConvexityConfig(
        grid_side=16, points_per_cloud=300, clouds_per_shape=2, polygons_per_class=6
    )
    r1 = convexity_experiment(config, seed=3)
    r2 = convexity_experiment(config, seed=3)
    assert report_to_json(r1) == report_to_json(r2)


def _holes_with_jobs(jobs, transform=TransformSpec("shear")):
    # the transformed test clouds go through the same fan-out as the clean ones
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=80, seed=5)
    return holes_pipeline(ds, transform, HolesConfig(subsample=30, knn_grid=(1,), jobs=jobs), seed=0)


def _curvature_with_jobs(jobs):
    train, test = gen_curvature_dataset(
        seed=1, clouds_per_kappa=1, points_per_cloud=40, test_count=4
    )
    return curvature_pipeline(train, test, CurvatureConfig(knn_grid=(1, 3), jobs=jobs), seed=0)


# 16 clouds per corpus and 25 masks: 3 and 7 blocks, each with a partial last block
_JOBS_CONVEXITY = ConvexityConfig(grid_side=16, points_per_cloud=300, clouds_per_shape=2, polygons_per_class=8)


def _jobs_regression_masks():
    return list(gen_polygon_masks(25, 20, seed=4).items)


def _convexity_with_jobs(jobs):
    return convexity_experiment(dataclasses.replace(_JOBS_CONVEXITY, jobs=jobs), seed=3)


def _regression_with_jobs(jobs):
    return convexity_regression(_jobs_regression_masks(), seed=0, config=RegressionConfig(jobs=jobs))


def test_jobs_inputs_end_in_a_partial_block():
    for kind in ("regular", "random"):
        clouds = _gen_convexity(kind, _JOBS_CONVEXITY, 3).items
        assert [len(b) for b in _blocks(clouds, [16] * len(clouds))] == [7, 7, 2], kind
    masks = _jobs_regression_masks()
    for mask in masks:
        convexity_measure(mask)  # raises on a degenerate mask, which the regression would skip
    assert [len(b) for b in _blocks(masks, [20] * len(masks))] == [4] * 6 + [1]


@pytest.mark.parametrize(
    "run",
    [_holes_with_jobs, _curvature_with_jobs, _convexity_with_jobs, _regression_with_jobs],
    ids=["holes", "curvature", "convexity", "regression"],
)
def test_jobs_match_serial(run):
    """Two worker processes give the report of one, apart from the jobs echo."""
    serial, parallel = run(1), run(2)
    assert parallel.config["jobs"] == 2
    parallel = dataclasses.replace(parallel, config={**parallel.config, "jobs": 1})
    assert report_to_json(parallel) == report_to_json(serial)


@pytest.mark.parametrize(
    "run",
    [partial(_holes_with_jobs, transform=None), _curvature_with_jobs, _convexity_with_jobs, _regression_with_jobs],
    ids=["holes-all-transforms", "curvature", "convexity", "regression"],
)
def test_one_process_pool_per_run(monkeypatch, run):
    """Each experiment maps all its items, holes its clean clouds and the
    test clouds under all six transforms, in one fan-out over one pool."""
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    report = run(2)
    assert len(pools) == 1
    if report.experiment == "holes":
        assert [r.name for r in report.regimes] == ["clean", *TransformSpec.kinds()]


def test_jobs_match_serial_through_fallbacks(monkeypatch):
    """Corpora where clouds fall back to the complete graph: each worker
    process builds and caches its own complexes, so two workers give the
    report of one."""
    reductions = _count_calls(monkeypatch, pipelines, "flag_pairs")
    holes = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=300, seed=5)
    train, test = gen_curvature_dataset(seed=1, clouds_per_kappa=1, points_per_cloud=40, test_count=4)
    runs = {
        "holes": (
            lambda jobs: holes_pipeline(holes, [], HolesConfig(subsample=100, knn_grid=(1,), jobs=jobs), seed=0),
            len(holes),
        ),
        "curvature": (
            lambda jobs: curvature_pipeline(train, test, CurvatureConfig(knn_grid=(1, 3), jobs=jobs), seed=0),
            2 * (len(train) + len(test)),
        ),
    }
    for name, (run, without_fallback) in runs.items():
        reductions.clear()
        serial = run(1)
        assert len(reductions) > without_fallback, name
        parallel = run(2)
        parallel = dataclasses.replace(parallel, config={**parallel.config, "jobs": 1})
        assert report_to_json(parallel) == report_to_json(serial), name


# ---------------------------------------------------------------------------
# curvature pipeline at toy scale
# ---------------------------------------------------------------------------


def test_curvature_pipeline_toy():
    train, test = gen_curvature_dataset(
        seed=1, clouds_per_kappa=1, points_per_cloud=60, test_count=6
    )
    config = CurvatureConfig(knn_grid=(1, 3))
    report = curvature_pipeline(train, test, config, seed=0)
    names = [r.name for r in report.regimes]
    assert "0dim-simple" in names and "1dim-simple" in names
    mse0 = report.regime("0dim-simple")
    assert math.isfinite(mse0)
    assert len(report.items) == 6


def test_curvature_train_equals_test_knn1_is_exact():
    train, _ = gen_curvature_dataset(seed=2, clouds_per_kappa=1, points_per_cloud=50, test_count=1)
    config = CurvatureConfig(knn_grid=(1,))
    report = curvature_pipeline(train, train, config, seed=0)
    assert report.regime("0dim-simple") == pytest.approx(0.0, abs=1e-20)


# ---------------------------------------------------------------------------
# convexity pipelines at toy scale
# ---------------------------------------------------------------------------


def _toy_convexity_config():
    return ConvexityConfig(
        grid_side=20, points_per_cloud=800, clouds_per_shape=3, polygons_per_class=12
    )


def test_convexity_pipeline_single_regime():
    # one train/test pairing on the regular dataset alone, as the experiment runs it
    config = _toy_convexity_config()
    ds = _gen_convexity("regular", config, seed=0)
    scalars = {"regular": _convexity_scalars(config, ds.items)}
    labels = {"regular": np.asarray(ds.labels, dtype=float)}
    acc, test_idx, test_labels, preds = _convexity_regime(
        "regular", "regular", scalars, labels, config, seed=0
    )
    assert len(test_idx) == len(test_labels) == len(preds) > 0
    # a sanity floor only: the acceptance suite checks the real thresholds
    assert acc >= 0.5


def test_convexity_experiment_four_regimes():
    report = convexity_experiment(_toy_convexity_config(), seed=0)
    names = [r.name for r in report.regimes]
    assert names == ["regular/regular", "random/random", "regular/random", "random/regular"]
    # a sanity floor only: the acceptance suite checks the real thresholds
    assert report.regime("regular/regular") >= 0.5


# ---------------------------------------------------------------------------
# concavity-measure regression
# ---------------------------------------------------------------------------


def test_convexity_regression_all_convex_corpus():
    masks = list(gen_polygon_masks(24, 30, seed=1, concave_fraction=0.0).items)
    report = convexity_regression(masks, seed=0)
    assert report.regime("mse") <= 1e-4  # labels ~ 1, features ~ 0
    # every feature sum is 0, so the rank correlation is reported as 0, not nan
    assert report.regime("spearman") == 0.0


def _sample(n, ties):
    """n floats: drawn from four values when ``ties``, else all distinct."""
    if ties:
        return st.lists(st.sampled_from([-2.5, 0.0, 1.0, 7.25]), min_size=n, max_size=n)
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    return st.lists(finite, min_size=n, max_size=n, unique=True)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_spearman_equals_scipy(data):
    n = data.draw(st.integers(2, 40), label="n")
    x = np.array(data.draw(_sample(n, data.draw(st.booleans())), label="x"))
    y = np.array(data.draw(_sample(n, data.draw(st.booleans())), label="y"))
    assume(np.ptp(x) > 0 and np.ptp(y) > 0)
    assert _spearman(x, y) == stats.spearmanr(x, y).statistic


@pytest.mark.parametrize("n", [2, 3, 5, 60, 400])
def test_spearman_equals_scipy_on_random_samples(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        distinct = rng.permutation(n) + rng.random()
        tied = rng.integers(0, max(2, n // 4), n).astype(float)
        for x, y in ((distinct, rng.random(n)), (tied, rng.integers(0, 3, n) * 0.1), (tied, distinct)):
            if np.ptp(x) > 0 and np.ptp(y) > 0:
                assert _spearman(x, y) == stats.spearmanr(x, y).statistic


def test_convexity_regression_requires_enough_masks():
    masks = list(gen_polygon_masks(24, 30, seed=1).items)
    with pytest.raises(ValueError):
        convexity_regression(masks[:10], seed=0)


def _collinear_mask() -> BinaryMask:
    cells = np.zeros((30, 30), dtype=bool)
    cells[:, 4] = True  # collinear occupied centers: no convexity measure
    return BinaryMask(cells, (0.0, 0.0), 1.0)


def test_convexity_regression_skips_degenerate_masks():
    masks = list(gen_polygon_masks(24, 30, seed=2).items) + [_collinear_mask()]
    report = convexity_regression(masks, seed=0)
    assert report.config["skipped_masks"] == [24]


@pytest.mark.parametrize("usable", [0, 1])
def test_convexity_regression_floor_counts_usable_masks(usable):
    # 25 masks pass a floor of 20, but not once the degenerate ones are skipped
    masks = list(gen_polygon_masks(1, 30, seed=2).items[:usable])
    masks += [_collinear_mask()] * (25 - usable)
    with pytest.raises(ValueError, match=rf"need at least 20 usable masks, got {usable} \({25 - usable} skipped"):
        convexity_regression(masks, seed=0)


def test_report_json_schema():
    masks = list(gen_polygon_masks(20, 20, seed=4).items)
    report = convexity_regression(masks, seed=0, config=RegressionConfig())
    import json

    payload = json.loads(report_to_json(report))
    assert set(payload) == {"experiment", "config", "seed", "regimes", "items"}
    assert all(set(r) == {"name", "metric", "value"} for r in payload["regimes"])
    assert all(set(i) == {"id", "label", "prediction"} for i in payload["items"])


# ---------------------------------------------------------------------------
# report ids: each item names the dataset item it scores
# ---------------------------------------------------------------------------


def _assert_items_name(report, dataset, idx, id_pattern):
    """The report items are the dataset items at ``idx``, in order, as
    ``NNNN:<shape id>`` with their labels."""
    ids = [item.item_id for item in report.items]
    assert ids == [f"{i:04d}:{dataset.meta['shape_ids'][i]}" for i in idx]
    assert all(re.fullmatch(id_pattern, i) for i in ids)
    assert [item.label for item in report.items] == dataset.labels[idx].tolist()


def test_holes_report_ids():
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=80, seed=5)
    config = HolesConfig(subsample=30, knn_grid=(1,))
    report = holes_pipeline(ds, [], config, seed=0)
    _, test_idx = train_test_split_indices(ds.labels, config.test_fraction, 0)
    assert len(test_idx) == 5  # one cloud per hole count
    _assert_items_name(report, ds, test_idx, r"\d{4}:(disk|square)-[01249]-[23]d")


def test_curvature_report_ids():
    train, test = gen_curvature_dataset(seed=1, clouds_per_kappa=1, points_per_cloud=40, test_count=4)
    report = curvature_pipeline(train, test, CurvatureConfig(knn_grid=(1, 3)), seed=0)
    _assert_items_name(report, test, np.arange(4), r"\d{4}:kappa=[+-]\d\.\d{4}")


def test_convexity_report_ids_are_regular_test_items():
    config = ConvexityConfig(grid_side=16, points_per_cloud=300, clouds_per_shape=2, polygons_per_class=6)
    regular = _gen_convexity("regular", config, 3)
    report = convexity_experiment(config, seed=3)
    _, test_idx = train_test_split_indices(regular.labels, config.test_fraction, 3)
    shapes = "triangle|square|pentagon|disk|star[345]|wedge-disk"
    _assert_items_name(report, regular, test_idx, rf"\d{{4}}:({shapes})")


def test_convexity_measure_report_ids_are_kept_mask_indices():
    masks = list(gen_polygon_masks(24, 30, seed=2).items)
    masks[3:3] = [_collinear_mask()]
    report = convexity_regression(masks, seed=0)
    assert report.config["skipped_masks"] == [3]
    ids = [item.item_id for item in report.items]
    assert ids and all(re.fullmatch(r"\d{4}", i) for i in ids)
    assert "0003" not in ids and ids == sorted(ids)
    assert [item.label for item in report.items] == [convexity_measure(masks[int(i)]) for i in ids]
