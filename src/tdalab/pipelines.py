"""End-to-end experiments: hole-count classification, curvature regression,
convexity classification, and the concavity-measure regression on masks.

Each pipeline wires geometry -> complex -> persistence -> signature ->
learner and emits an ExperimentReport that regenerates bit-identically
from (config, seed). Per-item persistence computations fan out over
processes when jobs > 1; results are always reduced in item order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats

from . import datagen
from .complexes import cubical_complex, rips_complex, tubular_filtration, weighted_rips_complex
from .datagen import LabeledDataset
from .geometry import (
    BinaryMask,
    Line,
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
)
from .learn import (
    Standardizer,
    accuracy,
    kfold_splits,
    knn_fit_predict,
    knn_grid_scores,
    mse,
    ridge_fit,
    ridge_predict,
    select_by_mean,
    threshold_fit,
    threshold_predict,
)
from .persistence import PersistenceDiagram, compute_flag_ph, compute_ph0_unionfind
from .seeding import derive_seed, generator
from .signatures import FinitePoints, ImageScheme, LandscapeScheme, finite_points, lifespans_matrix

Array = np.ndarray


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regime:
    name: str
    metric: str
    value: float


@dataclass(frozen=True)
class ItemResult:
    item_id: str
    label: float
    prediction: float


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: dict
    seed: int
    regimes: tuple
    items: tuple
    wall_time: float

    def regime(self, name: str) -> float:
        for r in self.regimes:
            if r.name == name:
                return r.value
        raise KeyError(name)


def _item_results(ids, labels, preds) -> tuple:
    return tuple(
        ItemResult(str(i), float(l), float(p)) for i, l, p in zip(ids, labels, preds)
    )


def _map_items(func, args_list, jobs: int):
    """Apply func over argument tuples, preserving item order."""
    if jobs <= 1:
        return [func(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(func, *zip(*args_list), chunksize=4))


def train_test_split_indices(labels, test_fraction: float, seed: int, stratify: bool = True):
    """Deterministic (train_idx, test_idx); stratified per label by default."""
    labels = np.asarray(labels)
    n = len(labels)
    rng = generator(seed, 0x5811)
    if not stratify:
        perm = rng.permutation(n)
        n_test = int(round(test_fraction * n))
        return np.sort(perm[n_test:]), np.sort(perm[:n_test])
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        perm = idx[rng.permutation(len(idx))]
        n_test = int(round(test_fraction * len(idx)))
        test.extend(perm[:n_test])
        train.extend(perm[n_test:])
    return np.sort(np.array(train)), np.sort(np.array(test))


# ---------------------------------------------------------------------------
# signature grid ("PH" mode, shared by holes and curvature)
# ---------------------------------------------------------------------------

PI_SIGMAS = (0.1, 0.5, 1.0, 10.0)
PI_WEIGHT_GRID = ("1", "y", "y2")
PL_TOPS = (1, 10, None)


def signature_grid() -> list:
    """The 16 signature configurations searched in 'auto' mode."""
    grid = [("lifespans", {"k": 10})]
    grid += [("pi", {"sigma": s, "weight": w}) for s in PI_SIGMAS for w in PI_WEIGHT_GRID]
    grid += [("pl", {"top": t}) for t in PL_TOPS]
    return grid


def _vectorize(kind: str, params: dict, fit_on: FinitePoints, *batches) -> list:
    """One signature matrix per batch of diagram points; data-driven ranges
    are fit on ``fit_on``."""
    if kind == "lifespans":
        return [lifespans_matrix(points, params["k"]) for points in batches]
    if kind == "pi":
        scheme = ImageScheme(dim=fit_on.dim, sigma=params["sigma"], weight=params["weight"])
    elif kind == "pl":
        scheme = LandscapeScheme(dim=fit_on.dim, top=params["top"])
    else:
        raise ValueError(f"unknown signature kind: {kind!r}")
    scheme = scheme.fit(fit_on)
    return [scheme.matrix(points) for points in batches]


def _signature_features(points: FinitePoints, sig_configs):
    """Featurizer for ``_knn_search``: per fold, every signature's training
    and validation matrices, with ranges fit on the training fold."""

    def featurize(tr, va):
        fit_on, val = points.take(tr), points.take(va)
        for kind, params in sig_configs:
            yield _vectorize(kind, params, fit_on, fit_on, val)

    return featurize


def _knn_search(featurize, train_labels: Array, knn_grid, mode: str, seed: int, folds: int = 3):
    """Joint k-fold CV over (candidate, k) for k-NN on standardized features.

    ``featurize(train_idx, val_idx)`` yields one (train, validation) feature
    pair per candidate, always in the same order. Each validation row's
    neighbours are ranked once per (fold, candidate) and every k is scored
    from that ranking. Returns (candidate index, k, mean score); ties keep
    the earliest (candidate, k).
    """
    labels = np.asarray(train_labels, dtype=float)
    classify = mode == "classify"
    grid = list(knn_grid)
    fold_scores = []
    for tr, va in kfold_splits(len(labels), folds, seed, labels if classify else None):
        row = []
        for X_tr, X_va in featurize(tr, va):
            std = Standardizer.fit(X_tr)
            row += knn_grid_scores(
                std.transform(X_tr), labels[tr], std.transform(X_va), labels[va], grid, mode
            )
        fold_scores.append(row)
    best, score, _ = select_by_mean(fold_scores, maximize=classify)
    return best // len(grid), grid[best % len(grid)], score


# ---------------------------------------------------------------------------
# holes experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolesConfig:
    subsample: int = 150
    dtm_mass: float = 0.03
    topk: int = 10
    knn_grid: tuple = (1, 5, 15)
    signature: str = "lifespans"  # lifespans | pi | pl | auto
    test_fraction: float = 0.2
    cap_factor: float = 0.5
    jobs: int = 1


def _capped_dim1_pairs(pd: PersistenceDiagram, cap: float) -> Array:
    """Finite dim-1 (birth, death) pairs of the flag complex capped at ``cap``.

    ``pd`` is the diagram of the complete flag complex, which has no
    essential degree-1 class. The capped complex is a filtration prefix, so
    its pairs are the full pairs born at or below the cap; one that dies
    above the cap would turn essential there, and then all pairs are kept,
    as the complex rebuilt at the full radius would give.
    """
    pairs = pd.finite_in_dim(1)
    born = pairs[:, 0] <= cap
    if np.any(born & (pairs[:, 1] > cap)):
        return pairs
    return pairs[born]


def _weighted_dim1_diagram(points: Array, subsample: int, dtm_mass: float, cap_factor: float, fps_seed: int):
    """Finite dim-1 intervals of the DTM-weighted Rips filtration."""
    cloud = PointCloud(points)
    if subsample and subsample < cloud.n:
        cloud = farthest_point_subsample(cloud, subsample, fps_seed)
    dm = euclidean_distance_matrix(cloud)
    graph = weighted_rips_complex(dm, dtm(dm, dtm_mass), max_dim=1)
    r_full = float(graph.edge_values.max()) if len(graph.edge_values) else 0.0
    return _capped_dim1_pairs(compute_flag_ph(graph), cap_factor * r_full)


def _diagram_from_pairs(pairs: Array, dim: int) -> PersistenceDiagram:
    if not len(pairs):
        return PersistenceDiagram(np.empty((0, 3)))
    rows = np.column_stack([np.full(len(pairs), float(dim)), pairs])
    return PersistenceDiagram(rows)


def holes_pipeline(
    dataset: LabeledDataset,
    transform=None,
    config: HolesConfig | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Classify clouds by hole count; report clean accuracy plus accuracy
    under perturbations applied to the test clouds only.

    ``transform`` may be None (all six standard perturbations), a single
    TransformSpec, or a sequence of them.
    """
    t0 = time.perf_counter()
    config = config or HolesConfig()
    if transform is None:
        transforms = [TransformSpec(kind) for kind in TransformSpec.kinds()]
    elif isinstance(transform, TransformSpec):
        transforms = [transform]
    else:
        transforms = list(transform)

    labels = np.asarray(dataset.labels, dtype=float)
    train_idx, test_idx = train_test_split_indices(labels, config.test_fraction, seed)

    fps_seeds = [derive_seed(seed, 0xF5, i) for i in range(len(dataset))]
    args = [
        (dataset.items[i].points, config.subsample, config.dtm_mass, config.cap_factor, fps_seeds[i])
        for i in range(len(dataset))
    ]
    all_pairs = _map_items(_weighted_dim1_diagram, args, config.jobs)
    diagrams = [_diagram_from_pairs(p, 1) for p in all_pairs]

    train_diagrams = [diagrams[i] for i in train_idx]
    train_labels = labels[train_idx]

    if config.signature == "auto":
        sig_configs = signature_grid()
    elif config.signature == "lifespans":
        sig_configs = [("lifespans", {"k": config.topk})]
    elif config.signature == "pi":
        sig_configs = [("pi", {"sigma": 0.5, "weight": "y"})]
    elif config.signature == "pl":
        sig_configs = [("pl", {"top": 10})]
    else:
        raise ValueError(f"unknown signature mode: {config.signature!r}")

    train_points = finite_points(train_diagrams, 1)
    best, best_k, _ = _knn_search(
        _signature_features(train_points, sig_configs), train_labels, config.knn_grid, "classify", seed
    )
    kind, params = sig_configs[best]
    (X_train,) = _vectorize(kind, params, train_points, train_points)
    std = Standardizer.fit(X_train)
    X_train_std = std.transform(X_train)

    def predict(diags):
        (X,) = _vectorize(kind, params, train_points, finite_points(diags, 1))
        return knn_fit_predict(X_train_std, train_labels, std.transform(X), best_k, "classify")

    clean_preds = predict([diagrams[i] for i in test_idx])
    regimes = [Regime("clean", "accuracy", accuracy(clean_preds, labels[test_idx]))]

    for t_idx, spec in enumerate(transforms):
        t_args = []
        for i in test_idx:
            t_seed = derive_seed(seed, 0x7A, t_idx, int(i))
            moved = apply_transform(dataset.items[i], spec, t_seed)
            t_args.append(
                (moved.points, config.subsample, config.dtm_mass, config.cap_factor, fps_seeds[i])
            )
        t_pairs = _map_items(_weighted_dim1_diagram, t_args, config.jobs)
        t_preds = predict([_diagram_from_pairs(p, 1) for p in t_pairs])
        regimes.append(Regime(spec.kind, "accuracy", accuracy(t_preds, labels[test_idx])))

    ids = [f"{i:04d}:{dataset.meta['shape_ids'][i]}" for i in test_idx]
    report_config = asdict(config)
    report_config.update({"signature_chosen": kind, "signature_params": params, "knn_k": best_k})
    return ExperimentReport(
        "holes",
        report_config,
        int(seed),
        tuple(regimes),
        _item_results(ids, labels[test_idx], clean_preds),
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# curvature experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureConfig:
    knn_grid: tuple = (1, 5, 15)
    variants: tuple = ("simple",)  # simple | simple10 | auto
    cap_factor: float = 0.35
    sign_threshold: float = 0.25
    jobs: int = 1


def _curvature_worker(coords, kappa, cap_factor):
    """Finite (birth, death) pairs in dims 0 and 1 for one polar cloud."""
    from .geometry import PolarCloud  # local: workers receive plain arrays

    cloud = PolarCloud(coords, kappa)
    dm = geodesic_distance_matrix(cloud)
    pd = compute_flag_ph(rips_complex(dm, max_dim=1))
    return pd.finite_in_dim(0), _capped_dim1_pairs(pd, cap_factor * float(dm.values.max()))


def _span_matrix(pair_list, length: int) -> Array:
    """Descending lifespans per item, zero-padded/truncated to `length`."""
    out = np.zeros((len(pair_list), length))
    for i, pairs in enumerate(pair_list):
        if len(pairs):
            spans = np.sort(pairs[:, 1] - pairs[:, 0])[::-1]
            take = min(length, len(spans))
            out[i, :take] = spans[:take]
    return out


def curvature_pipeline(
    train: LabeledDataset,
    test: LabeledDataset,
    config: CurvatureConfig | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Regress curvature from geodesic Vietoris-Rips persistence.

    Regimes report test MSE per (homology dimension, feature variant) plus
    the sign accuracy of the 0-dim simple variant on clearly curved items.
    """
    t0 = time.perf_counter()
    config = config or CurvatureConfig()

    def extract(ds):
        args = [(item.coords, item.curvature, config.cap_factor) for item in ds.items]
        return _map_items(_curvature_worker, args, config.jobs)

    train_pairs = extract(train)
    test_pairs = extract(test)
    y_train = np.asarray(train.labels, dtype=float)
    y_test = np.asarray(test.labels, dtype=float)

    regimes = []
    key_preds = None
    for dim in (0, 1):
        tr = [p[dim] for p in train_pairs]
        te = [p[dim] for p in test_pairs]
        max_len = max(1, max((len(p) for p in tr), default=1))
        for variant in config.variants:
            if variant == "simple":
                length = max_len
            elif variant == "simple10":
                length = 10
            elif variant == "auto":
                length = None
            else:
                raise ValueError(f"unknown curvature variant: {variant!r}")
            if length is not None:
                X_tr = _span_matrix(tr, length)
                X_te = _span_matrix(te, length)
                _, best_k, _ = _knn_search(
                    lambda t, v: [(X_tr[t], X_tr[v])], y_train, config.knn_grid, "regress", seed
                )
            else:
                points_tr = finite_points([_diagram_from_pairs(p, dim) for p in tr], dim)
                points_te = finite_points([_diagram_from_pairs(p, dim) for p in te], dim)
                sigs = signature_grid()
                best, best_k, _ = _knn_search(
                    _signature_features(points_tr, sigs), y_train, config.knn_grid, "regress", seed
                )
                kind, params = sigs[best]
                X_tr, X_te = _vectorize(kind, params, points_tr, points_tr, points_te)
            std = Standardizer.fit(X_tr)
            preds = knn_fit_predict(
                std.transform(X_tr), y_train, std.transform(X_te), best_k, "regress"
            )
            regimes.append(Regime(f"{dim}dim-{variant}", "mse", mse(preds, y_test)))
            if dim == 0 and variant == "simple":
                key_preds = preds

    if key_preds is not None:
        clear = np.abs(y_test) > config.sign_threshold
        if np.any(clear):
            sign_acc = float(np.mean(np.sign(key_preds[clear]) == np.sign(y_test[clear])))
            regimes.append(Regime("0dim-simple-sign", "sign_accuracy", sign_acc))

    ids = [f"{i:04d}:{test.meta['shape_ids'][i]}" for i in range(len(test))]
    preds_out = key_preds if key_preds is not None else np.zeros(len(test))
    return ExperimentReport(
        "curvature",
        asdict(config),
        int(seed),
        tuple(regimes),
        _item_results(ids, y_test, preds_out),
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# tubular lines, concavity features, convexity experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineSet:
    """Named tubular-filtration lines derived from a mask's occupied box."""

    lines: tuple
    names: tuple

    def __post_init__(self):
        if len(self.lines) != len(self.names):
            raise ValueError("lines and names must align")

    def __len__(self) -> int:
        return len(self.lines)


LINE_NAMES = (
    "bottom",
    "hmid",
    "top",
    "left",
    "vmid",
    "right",
    "diag",
    "antidiag",
    "mid45",
)


def occupied_box(mask: BinaryMask) -> tuple:
    """Outer physical bounds (x0, x1, y0, y1) of the occupied cells."""
    ix, iy = np.nonzero(mask.cells)
    cell = mask.cell_size
    x0 = mask.origin[0] + ix.min() * cell
    x1 = mask.origin[0] + (ix.max() + 1) * cell
    y0 = mask.origin[1] + iy.min() * cell
    y1 = mask.origin[1] + (iy.max() + 1) * cell
    return float(x0), float(x1), float(y0), float(y1)


def default_lines(mask: BinaryMask) -> LineSet:
    """Nine lines spanning the occupied box: three horizontals, three
    verticals, diagonal lines through the lower corners, and a 45-degree
    line through the bottom-center.

    Oblique directions are fixed at exactly 45 degrees (not the box aspect)
    and anchored on the cell lattice: pixel distances to such lines tie
    along diagonal runs, so rasterization cannot split a convex shape into
    short-lived components.
    """
    x0, x1, y0, y1 = occupied_box(mask)
    xc, yc = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    s = math.sqrt(0.5)
    lines = (
        Line.horizontal(y0),
        Line.horizontal(yc),
        Line.horizontal(y1),
        Line.vertical(x0),
        Line.vertical(xc),
        Line.vertical(x1),
        Line((x0, y0), (s, s)),
        Line((x1, y0), (-s, s)),
        Line((xc, y0), (s, s)),
    )
    return LineSet(lines, LINE_NAMES)


def _second_persistence(pd: PersistenceDiagram, end_value: float) -> float:
    """Lifespan of the second most persisting degree-0 class.

    Essential classes outrank everything and their lifespan is measured to
    the end of the filtration, so a convex (single-component) diagram
    scores 0 while any transient component scores its true lifespan.
    """
    pts = pd.in_dim(0)
    if len(pts) < 2:
        return 0.0
    finite = np.isfinite(pts[:, 1])
    spans = np.where(finite, pts[:, 1] - pts[:, 0], np.maximum(end_value - pts[:, 0], 0.0))
    rank = np.argsort(np.where(finite, spans, np.inf))[::-1]
    return float(spans[rank[1]])


def concavity_features(
    mask: BinaryMask, lines: LineSet | None = None, normalize: bool = False
) -> Array:
    """Lifespan of the second most persisting tubular component, per line.

    Lifespans are measured in cell units, rounded to 1e-9 so that the exact
    value ties of lattice-aligned lines survive float rounding; the vector
    is invariant under translating or uniformly scaling the mask extent.
    ``normalize`` divides by the occupied-cell count (area-relative mode).
    """
    lines = lines or default_lines(mask)
    cell = mask.cell_size
    out = np.empty(len(lines))
    for i, line in enumerate(lines.lines):
        fn = tubular_filtration(line)
        grid = cubical_complex(mask, lambda centers: np.round(fn(centers) / cell, 9))
        pd = compute_ph0_unionfind(grid)
        end = float(grid.top_values[np.isfinite(grid.top_values)].max())
        out[i] = _second_persistence(pd, end)
    if normalize:
        out /= int(mask.cells.sum())
    return out


@dataclass(frozen=True)
class ConvexityConfig:
    grid_side: int = 20
    points_per_cloud: int = 5000
    clouds_per_shape: int = 60
    polygons_per_class: int = 240
    test_fraction: float = 1.0 / 6.0  # 480 -> 400 train / 80 test
    fill_neighbors: int = 5  # close sampling gaps in the raster; 0 disables
    jobs: int = 1


def _convexity_scalar_worker(points, grid_side, fill_neighbors=5):
    mask = rasterize(PointCloud(points), grid_side)
    mask = fill_sampling_gaps(mask, fill_neighbors)
    return float(concavity_features(mask).max())


def _convexity_scalars(dataset: LabeledDataset, config: ConvexityConfig) -> Array:
    args = [(item.points, config.grid_side, config.fill_neighbors) for item in dataset.items]
    return np.array(_map_items(_convexity_scalar_worker, args, config.jobs))


def _gen_convexity(kind: str, config: ConvexityConfig, seed: int) -> LabeledDataset:
    return datagen.gen_convexity_dataset(
        kind,
        seed=derive_seed(seed, 0xC0, 0 if kind == "regular" else 1),
        points_per_cloud=config.points_per_cloud,
        clouds_per_shape=config.clouds_per_shape,
        polygons_per_class=config.polygons_per_class,
    )


def _convexity_regime(train_kind, test_kind, scalars, labels, config, seed):
    """Accuracy of the threshold rule for one train/test kind pairing."""
    train_idx, _ = train_test_split_indices(labels[train_kind], config.test_fraction, seed)
    _, test_idx = train_test_split_indices(labels[test_kind], config.test_fraction, seed)
    test_labels = labels[test_kind][test_idx]
    model = threshold_fit(scalars[train_kind][train_idx], labels[train_kind][train_idx])
    preds = threshold_predict(model, scalars[test_kind][test_idx])
    return accuracy(preds, test_labels), test_idx, test_labels, preds


CONVEXITY_REGIMES = (
    ("regular", "regular"),
    ("random", "random"),
    ("regular", "random"),
    ("random", "regular"),
)


def convexity_experiment(
    config: ConvexityConfig | None = None, seed: int = 0, datasets: dict | None = None
) -> ExperimentReport:
    """All four convexity regimes on shared datasets and cached features."""
    t0 = time.perf_counter()
    config = config or ConvexityConfig()
    datasets = dict(datasets) if datasets else {}
    for kind in ("regular", "random"):
        if kind not in datasets:
            datasets[kind] = _gen_convexity(kind, config, seed)
    scalars = {k: _convexity_scalars(ds, config) for k, ds in datasets.items()}
    labels = {k: np.asarray(ds.labels, dtype=float) for k, ds in datasets.items()}
    regimes = []
    items = ()
    for train_kind, test_kind in CONVEXITY_REGIMES:
        acc, test_idx, test_labels, preds = _convexity_regime(
            train_kind, test_kind, scalars, labels, config, seed
        )
        regimes.append(Regime(f"{train_kind}/{test_kind}", "accuracy", acc))
        if (train_kind, test_kind) == ("regular", "regular"):
            ids = [f"{i:04d}:{datasets[test_kind].meta['shape_ids'][i]}" for i in test_idx]
            items = _item_results(ids, test_labels, preds)
    return ExperimentReport(
        "convexity",
        asdict(config),
        int(seed),
        tuple(regimes),
        items,
        time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# concavity-measure regression on masks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionConfig:
    train_fraction: float = 0.7
    ridge_lambda: float = 1e-6
    jobs: int = 1


def _mask_features_worker(cells, origin, width):
    mask = BinaryMask(cells, origin, width)
    return concavity_features(mask, normalize=True)


def convexity_regression(
    masks, seed: int = 0, config: RegressionConfig | None = None
) -> ExperimentReport:
    """Ridge-regress the area-ratio convexity measure from tubular features.

    Labels are computed from the masks themselves; degenerate masks are
    skipped and listed in the config echo. Also reports the Spearman rank
    correlation between concavity (1 - measure) and the feature sum.
    """
    config = config or RegressionConfig()
    t0 = time.perf_counter()
    masks = list(masks)
    if len(masks) < 20:
        raise ValueError("need at least 20 masks")
    labels = []
    kept = []
    skipped = []
    for i, mask in enumerate(masks):
        try:
            labels.append(convexity_measure(mask))
            kept.append(i)
        except ValueError:
            skipped.append(i)
    labels = np.array(labels)
    args = [(masks[i].cells, masks[i].origin, masks[i].width) for i in kept]
    X = np.stack(_map_items(_mask_features_worker, args, config.jobs))

    train_idx, test_idx = train_test_split_indices(
        labels, 1.0 - config.train_fraction, seed, stratify=False
    )
    std = Standardizer.fit(X[train_idx])
    model = ridge_fit(std.transform(X[train_idx]), labels[train_idx], config.ridge_lambda)
    preds = ridge_predict(model, std.transform(X[test_idx]))
    test_mse = mse(preds, labels[test_idx])
    concavity = 1.0 - labels
    feature_sum = X.sum(axis=1)
    if np.ptp(concavity) == 0 or np.ptp(feature_sum) == 0:
        rho = 0.0  # rank correlation undefined on a constant input
    else:
        rho = stats.spearmanr(concavity, feature_sum).statistic
    regimes = (
        Regime("mse", "mse", test_mse),
        Regime("spearman", "spearman", float(rho)),
    )
    ids = [f"{kept[i]:04d}" for i in test_idx]
    report_config = asdict(config)
    report_config["skipped_masks"] = skipped
    return ExperimentReport(
        "convexity-measure",
        report_config,
        int(seed),
        regimes,
        _item_results(ids, labels[test_idx], preds),
        time.perf_counter() - t0,
    )
