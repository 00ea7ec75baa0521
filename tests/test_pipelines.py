import dataclasses
import math

import numpy as np
import pytest

from tdalab.complexes import rips_complex, weighted_rips_complex
from tdalab.datagen import (
    gen_convexity_dataset,
    gen_curvature_dataset,
    gen_holes_dataset,
    gen_polygon_masks,
    holes_catalog,
    sample_constant_curvature_disk,
    sample_holes_shape,
)
from tdalab.geometry import (
    BinaryMask,
    PointCloud,
    TransformSpec,
    apply_transform,
    dtm,
    euclidean_distance_matrix,
    farthest_point_subsample,
    geodesic_distance_matrix,
    rasterize,
)
from tdalab.io import report_to_json
from tdalab.learn import Standardizer, accuracy, kfold_splits, knn_fit_predict, mse
from tdalab.persistence import PersistenceDiagram, compute_ph
from tdalab.pipelines import (
    ConvexityConfig,
    CurvatureConfig,
    HolesConfig,
    RegressionConfig,
    _convexity_regime,
    _convexity_scalars,
    _curvature_worker,
    _gen_convexity,
    _knn_search,
    _signature_features,
    _weighted_dim1_diagram,
    concavity_features,
    convexity_experiment,
    convexity_regression,
    curvature_pipeline,
    default_lines,
    holes_pipeline,
    signature_grid,
    train_test_split_indices,
)
from tdalab.signatures import ImageScheme, LandscapeScheme, finite_points, lifespans_topk

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
    from tdalab.geometry import tubular_distance

    mask = _unit_mask()
    shift = np.array([5.0, -3.0])
    moved = BinaryMask(mask.cells, tuple(shift), 1.0)
    a = default_lines(mask)
    b = default_lines(moved)
    for la, lb in zip(a.lines, b.lines):
        assert np.allclose(la.direction, lb.direction)
        # the translated line is the original line shifted with the mask
        assert tubular_distance(la.anchor + shift, lb) == pytest.approx(0.0, abs=1e-9)


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
    base = _weighted_dim1_diagram(pts, 80, 0.03, 0.5, fps_seed=3)
    for kind in ("translation", "rotation"):
        moved = apply_transform(PointCloud(pts), TransformSpec(kind), seed=8)
        got = _weighted_dim1_diagram(moved.points, 80, 0.03, 0.5, fps_seed=3)
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
    config = HolesConfig()
    dm = euclidean_distance_matrix(farthest_point_subsample(PointCloud(points), 100, 3))
    f = dtm(dm, config.dtm_mass)
    r_full = float(weighted_rips_complex(dm, f, max_dim=1).edge_values.max())
    expected, retried = _cap_then_retry(
        lambda r_max: weighted_rips_complex(dm, f, max_dim=2, r_max=r_max), config.cap_factor, r_full
    )
    assert retried == retries
    got = _weighted_dim1_diagram(points, 100, config.dtm_mass, config.cap_factor, 3)
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
    got0, got1 = _curvature_worker(cloud.coords, kappa, cap_factor)
    assert np.array_equal(got0, expected0)
    assert np.array_equal(got1, expected1)


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
            scheme = ImageScheme(dim=dim, sigma=params["sigma"], weight=params["weight"])
        else:
            scheme = LandscapeScheme(dim=dim, top=params["top"])
        scheme = scheme.fit(fit_on)
        return np.stack([scheme.vector(pd).values for pd in diags])

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


@pytest.mark.parametrize(
    "mode, scale, knn_grid",
    [
        ("classify", 0.3, (1, 5, 9)),  # 9 exceeds every training fold of 8
        ("regress", 0.3, (1, 5, 9)),
        ("classify", 50.0, (1, 2, 3)),  # separable classes: many configs score 1.0
        ("regress", 0.3, (3, 3, 1, 20)),  # a repeated k ties with itself
    ],
)
def test_knn_search_matches_per_config_loop(mode, scale, knn_grid):
    rng = np.random.default_rng(8)
    diagrams = _search_diagrams(rng, 12, 1, scale)
    labels = np.array([label % 3 for label in range(12)], dtype=float)
    if mode == "regress":
        labels = labels + rng.random(12)
    sigs = signature_grid()
    (sig, k), score, scores = _per_config_search(diagrams, labels, 1, sigs, knn_grid, mode, 5)
    best, best_k, best_score = _knn_search(
        _signature_features(finite_points(diagrams, 1), sigs), labels, knn_grid, mode, 5
    )
    assert (sigs[best], best_k, best_score) == (sig, k, score)
    if scale == 50.0 or knn_grid.count(3) == 2:
        assert scores.count(score) > 1  # the tie the rule has to break
    if 9 in knn_grid or 20 in knn_grid:
        assert (-math.inf if mode == "classify" else math.inf) in scores


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


def _holes_with_jobs(jobs):
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=80, seed=5)
    return holes_pipeline(ds, [], HolesConfig(subsample=30, knn_grid=(1,), jobs=jobs), seed=0)


def _curvature_with_jobs(jobs):
    train, test = gen_curvature_dataset(
        seed=1, clouds_per_kappa=1, points_per_cloud=40, test_count=4
    )
    return curvature_pipeline(train, test, CurvatureConfig(knn_grid=(1, 3), jobs=jobs), seed=0)


def _convexity_with_jobs(jobs):
    config = ConvexityConfig(
        grid_side=16, points_per_cloud=300, clouds_per_shape=2, polygons_per_class=6, jobs=jobs
    )
    return convexity_experiment(config, seed=3)


def _regression_with_jobs(jobs):
    masks = list(gen_polygon_masks(20, 20, seed=4).items)
    return convexity_regression(masks, seed=0, config=RegressionConfig(jobs=jobs))


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
    scalars = {"regular": _convexity_scalars(ds, config)}
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


def test_convexity_regression_requires_enough_masks():
    masks = list(gen_polygon_masks(24, 30, seed=1).items)
    with pytest.raises(ValueError):
        convexity_regression(masks[:10], seed=0)


def test_convexity_regression_skips_degenerate_masks():
    cells = np.zeros((30, 30), dtype=bool)
    cells[:, 4] = True  # collinear occupied centers
    degenerate = BinaryMask(cells, (0.0, 0.0), 1.0)
    masks = list(gen_polygon_masks(24, 30, seed=2).items) + [degenerate]
    report = convexity_regression(masks, seed=0)
    assert report.config["skipped_masks"] == [24]


def test_report_json_schema():
    masks = list(gen_polygon_masks(20, 20, seed=4).items)
    report = convexity_regression(masks, seed=0, config=RegressionConfig())
    import json

    payload = json.loads(report_to_json(report))
    assert set(payload) == {"experiment", "config", "seed", "regimes", "items"}
    assert all(set(r) == {"name", "metric", "value"} for r in payload["regimes"])
    assert all(set(i) == {"id", "label", "prediction"} for i in payload["items"])
