"""End-to-end experiments: hole-count classification, curvature regression,
convexity classification, and the concavity-measure regression on masks.

Each pipeline wires geometry -> complex -> persistence -> signature ->
learner and emits an ExperimentReport that regenerates bit-identically
from (config, seed). Each experiment makes one fan-out, ``_map_items``, of
one config-bound worker over all its items, on one pool of processes when
jobs > 1; results come back in item order. Holes maps its clean clouds and
then each transform's test clouds, curvature its training and test disks,
and convexity the blocks of both corpora. Both flag workers cap the complex
at a factor of its full radius in ``_capped_dim1_pairs``. Importing the
module loads numpy only: the Spearman correlation of the concavity-measure
report is computed in numpy, equal to the last bit to
``scipy.stats.spearmanr``, and ``scipy.ndimage`` loads at the first grid
sweep.

Holes and curvature choose a diagram signature and the k of k-NN through
one path, ``_fit_knn``: each mode is a table of (kind, params) signature
candidates, ``_knn_search`` scores every (candidate, k) by k-fold CV, and
the winner is refit on the training diagrams to predict the test ones.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import datagen
from .complexes import FilteredComplex, rips_complex, weighted_rips_complex
from .datagen import LabeledDataset
from .geometry import (
    BinaryMask,
    Line,
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
from .persistence import compute_ph, sublevel_ph0_stack
from .seeding import derive_seed, generator
from .signatures import (
    FinitePoints,
    image_ranges,
    image_stack,
    landscape_matrix,
    landscape_range,
    lifespans_matrix,
)

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


def _item_ids(dataset: LabeledDataset, idx) -> list:
    """Report ids of the dataset's items at ``idx``: ``NNNN:<shape id>``."""
    return [f"{i:04d}:{dataset.meta['shape_ids'][i]}" for i in idx]


def _report(experiment, config, seed, regimes, ids, labels, preds, t0) -> ExperimentReport:
    """The report of one run: its regimes, one ItemResult per (id, label,
    prediction), and the wall time since ``t0``."""
    items = tuple(ItemResult(i, float(l), float(p)) for i, l, p in zip(ids, labels, preds))
    return ExperimentReport(experiment, config, int(seed), tuple(regimes), items, time.perf_counter() - t0)


def _map_items(func, items, jobs: int) -> list:
    """``func`` of each item, in item order; over one pool of ``jobs``
    processes when jobs > 1."""
    if jobs <= 1:
        return [func(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(func, items, chunksize=4))


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
PI_RESOLUTION = 10  # image side, in cells
PL_TOPS = (1, 10, None)
PL_RESOLUTION = 100  # samples per landscape level
PL_LEVELS = 10  # levels of a landscape: min(top, PL_LEVELS), or PL_LEVELS uncut


def signature_grid() -> list:
    """The 16 signature configurations searched in 'auto' mode."""
    grid = [("lifespans", {"k": 10})]
    grid += [("pi", {"sigma": s, "weight": w}) for s in PI_SIGMAS for w in PI_WEIGHT_GRID]
    grid += [("pl", {"top": t}) for t in PL_TOPS]
    return grid


def _signature_runs(candidates) -> list:
    """The (kind, params) candidates in order, in runs: consecutive images
    of one sigma form a run, and every other candidate is a run alone."""

    def run_of(candidate):  # object() equals nothing, so no other candidate joins a run
        return candidate[1]["sigma"] if candidate[0] == "pi" else object()

    return [list(run) for _, run in itertools.groupby(candidates, run_of)]


def _signatures(run, fit_on: FinitePoints):
    """The points -> matrices function of a run of signatures
    (``_signature_runs``), one matrix per signature and one row per
    diagram; data-driven ranges are fit on ``fit_on``, once per run."""
    kind, params = run[0]
    if kind == "lifespans":
        return lambda points: [lifespans_matrix(points, params["k"])]
    if kind == "pi":
        sigma, weights = params["sigma"], [p["weight"] for _, p in run]
        ranges = image_ranges(fit_on, sigma)
        return lambda points: image_stack(points, PI_RESOLUTION, sigma, weights, *ranges)
    if kind == "pl":
        top = params["top"]
        levels = min(top or PL_LEVELS, PL_LEVELS)
        t_range = landscape_range(fit_on)
        return lambda points: [landscape_matrix(points.longest(top), PL_RESOLUTION, levels, t_range)]
    raise ValueError(f"unknown signature kind: {kind!r}")


def _knn_search(
    points: FinitePoints, labels: Array, candidates, knn_grid, mode: str, seed: int, folds: int = 3
):
    """Joint k-fold CV over (signature candidate, k) for k-NN on standardized
    signatures of ``points``, one diagram per label.

    Each candidate, a (kind, params) pair, is vectorized once per fold with
    its ranges fit on the training fold; a run of images of one sigma is
    vectorized together, sharing its ranges and Gaussian factors. Each
    validation row's neighbours are ranked once per (fold, candidate) and
    every k is scored from that ranking. Each matrix is standardized in
    place, with the operations of ``Standardizer.transform``, so no raw
    matrix is kept while it is scored. Returns (candidate index, k, mean
    score); ties keep the earliest (candidate, k).
    """
    labels = np.asarray(labels, dtype=float)
    classify = mode == "classify"
    grid = list(knn_grid)
    fold_scores = []
    for tr, va in kfold_splits(len(labels), folds, seed, labels if classify else None):
        fit_on, val = points.take(tr), points.take(va)
        row = []
        for run in _signature_runs(candidates):
            vectorize = _signatures(run, fit_on)
            for X_tr, X_va in zip(vectorize(fit_on), vectorize(val)):
                std = Standardizer.fit(X_tr)
                for X in (X_tr, X_va):
                    np.subtract(X, std.mean, out=X)
                    np.divide(X, std.std, out=X)
                row += knn_grid_scores(X_tr, labels[tr], X_va, labels[va], grid, mode)
        fold_scores.append(row)
    best, score, _ = select_by_mean(fold_scores, maximize=classify)
    return best // len(grid), grid[best % len(grid)], score


def _fit_knn(points: FinitePoints, labels: Array, candidates, knn_grid, mode: str, seed: int):
    """Select (signature, k) by ``_knn_search``, then refit on all of
    ``points``. Returns the chosen (kind, params), k, and ``predict``, which
    maps the FinitePoints of test diagrams to k-NN predictions."""
    best, k, _ = _knn_search(points, labels, candidates, knn_grid, mode, seed)
    kind, params = candidates[best]
    vectorize = _signatures([(kind, params)], points)
    X = vectorize(points)[0]
    std = Standardizer.fit(X)
    X_std = std.transform(X)

    def predict(test_points: FinitePoints) -> Array:
        return knn_fit_predict(X_std, labels, std.transform(vectorize(test_points)[0]), k, mode)

    return (kind, params), k, predict


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

    def __post_init__(self):
        _check_cap_factor(self.cap_factor)


def _check_cap_factor(cap_factor: float) -> None:
    """Reject a cap factor that is NaN or not positive, naming the field."""
    if not cap_factor > 0:
        raise ValueError(f"cap_factor must be positive, got {cap_factor!r}")


def _capped_dim1_pairs(graph: FilteredComplex, cap_factor: float) -> Array:
    """Finite dim-1 (birth, death) pairs of the flag complex capped at
    ``cap_factor`` times the full radius, its largest edge value.

    ``graph`` is the complete graph, whose flag complex has no essential
    degree-1 class. Only its prefix of edges valued at most the cap is
    reduced. The prefix's finite pairs are the full pairs that die at or
    below the cap, and its essential classes are the full pairs born at or
    below the cap that die above it. With no essential class the finite
    pairs are the answer; otherwise the complete graph is reduced and all
    its pairs are kept, as the complex rebuilt at the full radius would
    give.
    """
    pd = compute_ph(graph.prefix(cap_factor * graph.edge_values.max(initial=0.0)))
    if np.all(np.isfinite(pd.in_dim(1)[:, 1])):
        return pd.finite_in_dim(1)
    return compute_ph(graph).finite_in_dim(1)


def _weighted_dim1_diagram(config: HolesConfig, item) -> Array:
    """Finite dim-1 intervals of the DTM-weighted Rips filtration of one
    item, ``(cloud, fps_seed, spec, t_seed)``: the cloud perturbed by
    ``spec`` under ``t_seed`` unless ``spec`` is None, then subsampled."""
    cloud, fps_seed, spec, t_seed = item
    if spec is not None:
        cloud = apply_transform(cloud, spec, t_seed)
    if config.subsample and config.subsample < cloud.n:
        cloud = farthest_point_subsample(cloud, config.subsample, fps_seed)
    dm = euclidean_distance_matrix(cloud)
    graph = weighted_rips_complex(dm, dtm(dm, config.dtm_mass), max_dim=1)
    return _capped_dim1_pairs(graph, config.cap_factor)


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

    candidates = {
        "lifespans": [("lifespans", {"k": config.topk})],
        "pi": [("pi", {"sigma": 0.5, "weight": "y"})],
        "pl": [("pl", {"top": 10})],
        "auto": signature_grid(),
    }.get(config.signature)
    if candidates is None:
        raise ValueError(f"unknown signature mode: {config.signature!r}")

    labels = np.asarray(dataset.labels, dtype=float)
    train_idx, test_idx = train_test_split_indices(labels, config.test_fraction, seed)

    # the clean clouds, then each transform's test clouds, in one fan-out
    n, n_test = len(dataset), len(test_idx)
    fps_seeds = [derive_seed(seed, 0xF5, i) for i in range(n)]
    items = [(cloud, fps_seeds[i], None, None) for i, cloud in enumerate(dataset.items)]
    for t_idx, spec in enumerate(transforms):
        items += [(dataset.items[i], fps_seeds[i], spec, derive_seed(seed, 0x7A, t_idx, int(i))) for i in test_idx]
    all_pairs = _map_items(partial(_weighted_dim1_diagram, config), items, config.jobs)

    train_points = FinitePoints.from_pairs([all_pairs[i] for i in train_idx])
    (kind, params), best_k, predict = _fit_knn(
        train_points, labels[train_idx], candidates, config.knn_grid, "classify", seed
    )
    clean_preds = predict(FinitePoints.from_pairs([all_pairs[i] for i in test_idx]))
    regimes = [Regime("clean", "accuracy", accuracy(clean_preds, labels[test_idx]))]
    for t_idx, spec in enumerate(transforms):
        t_pairs = all_pairs[n + t_idx * n_test : n + (t_idx + 1) * n_test]
        t_preds = predict(FinitePoints.from_pairs(t_pairs))
        regimes.append(Regime(spec.kind, "accuracy", accuracy(t_preds, labels[test_idx])))

    ids = _item_ids(dataset, test_idx)
    report_config = asdict(config)
    report_config.update({"signature_chosen": kind, "signature_params": params, "knn_k": best_k})
    return _report("holes", report_config, seed, regimes, ids, labels[test_idx], clean_preds, t0)


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

    def __post_init__(self):
        _check_cap_factor(self.cap_factor)


def _curvature_worker(config: CurvatureConfig, cloud):
    """Finite (birth, death) pairs in dims 0 and 1 for one polar cloud."""
    graph = rips_complex(geodesic_distance_matrix(cloud), max_dim=1)
    pairs0 = compute_ph(graph, max_dim=0).finite_in_dim(0)
    return pairs0, _capped_dim1_pairs(graph, config.cap_factor)


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

    pairs = _map_items(partial(_curvature_worker, config), train.items + test.items, config.jobs)
    train_pairs, test_pairs = pairs[: len(train)], pairs[len(train) :]
    y_train = np.asarray(train.labels, dtype=float)
    y_test = np.asarray(test.labels, dtype=float)

    regimes = []
    key_preds = None
    for dim in (0, 1):
        points_tr = FinitePoints.from_pairs([p[dim] for p in train_pairs])
        points_te = FinitePoints.from_pairs([p[dim] for p in test_pairs])
        max_len = max(1, int(points_tr.counts.max(initial=0)))
        tables = {
            "simple": [("lifespans", {"k": max_len})],
            "simple10": [("lifespans", {"k": 10})],
            "auto": signature_grid(),
        }
        for variant in config.variants:
            if variant not in tables:
                raise ValueError(f"unknown curvature variant: {variant!r}")
            _, _, predict = _fit_knn(points_tr, y_train, tables[variant], config.knn_grid, "regress", seed)
            preds = predict(points_te)
            regimes.append(Regime(f"{dim}dim-{variant}", "mse", mse(preds, y_test)))
            if dim == 0 and variant == "simple":
                key_preds = preds

    if key_preds is not None:
        clear = np.abs(y_test) > config.sign_threshold
        if np.any(clear):
            sign_acc = float(np.mean(np.sign(key_preds[clear]) == np.sign(y_test[clear])))
            regimes.append(Regime("0dim-simple-sign", "sign_accuracy", sign_acc))

    ids = _item_ids(test, range(len(test)))
    preds_out = key_preds if key_preds is not None else np.zeros(len(test))
    return _report("curvature", asdict(config), seed, regimes, ids, y_test, preds_out, t0)


# ---------------------------------------------------------------------------
# tubular lines, concavity features, convexity experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineSet:
    """Named tubular-filtration lines derived from a mask's occupied box:
    row i is the line through ``anchor[i]`` along the unit ``direction[i]``."""

    anchor: Array
    direction: Array
    names: tuple

    def __len__(self) -> int:
        return len(self.names)

    @property
    def lines(self) -> tuple:
        """The lines as validated ``Line`` objects, in order."""
        return tuple(Line(a, d) for a, d in zip(self.anchor, self.direction))


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
_DIAG = math.sqrt(0.5)  # a unit vector's coordinates at 45 degrees
_LINE_DIRECTIONS = np.array([(1.0, 0.0)] * 3 + [(0.0, 1.0)] * 3 + [(_DIAG, _DIAG), (-_DIAG, _DIAG), (_DIAG, _DIAG)])
_LINE_DIRECTIONS.setflags(write=False)


def default_lines(mask: BinaryMask) -> LineSet:
    """Nine lines spanning the box of occupied cells, (x0, y0) to (x1, y1)
    at the cells' outer edges: three horizontals, three verticals, diagonal
    lines through the lower corners, and a 45-degree line through the
    bottom-center.

    Oblique directions are fixed at exactly 45 degrees (not the box aspect)
    and anchored on the cell lattice: pixel distances to such lines tie
    along diagonal runs, so rasterization cannot split a convex shape into
    short-lived components.
    """
    ix, iy = np.nonzero(mask.cells)
    x0, y0 = mask.origin + np.array([ix.min(), iy.min()]) * mask.cell_size
    x1, y1 = mask.origin + (np.array([ix.max(), iy.max()]) + 1) * mask.cell_size
    xc, yc = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    anchor = np.array(
        [(0.0, y0), (0.0, yc), (0.0, y1), (x0, 0.0), (xc, 0.0), (x1, 0.0), (x0, y0), (x1, y0), (xc, y0)]
    )
    anchor.setflags(write=False)
    return LineSet(anchor, _LINE_DIRECTIONS, LINE_NAMES)


def cell_units(values: Array, cell: float) -> Array:
    """Filtration values on a mask's cells, in units of the cell side and
    rounded to 1e-9, so that the exact value ties of lattice-aligned lines
    and directions survive float rounding."""
    return np.round(values / cell, 9)


def _second_persistence(births: Array, deaths: Array, end_value: float) -> float:
    """Lifespan of the second most persisting degree-0 class.

    Essential classes outrank everything and their lifespan is measured to
    the end of the filtration, so a convex (single-component) diagram
    scores 0 while any transient component scores its true lifespan. Equal
    ranks keep (birth, death) order, by a stable sort, which settles ties.
    """
    if len(births) < 2:
        return 0.0
    order = np.lexsort((deaths, births))
    births, deaths = births[order], deaths[order]
    finite = np.isfinite(deaths)
    spans = np.where(finite, deaths - births, np.maximum(end_value - births, 0.0))
    rank = np.argsort(np.where(finite, spans, np.inf), kind="stable")[::-1]
    return float(spans[rank[1]])


# Top cells per level sweep of a block of masks: larger blocks pay less per-call
# overhead but label more planes at once. A block holds 4 side-20 or 2 side-30 masks.
_BLOCK_CELLS = 1 << 14


def _blocks(items, sides):
    """Yield runs of consecutive items whose masks share a side, each of at
    least one item and at most ``_BLOCK_CELLS`` top cells over its line grids."""
    for side, run in itertools.groupby(zip(sides, items), key=lambda pair: pair[0]):
        run = [item for _, item in run]
        step = max(1, _BLOCK_CELLS // (len(LINE_NAMES) * side * side))
        yield from (run[i : i + step] for i in range(0, len(run), step))


def _concavity_block(masks: list, normalize: bool) -> Array:
    """``concavity_features`` of masks of one side, one row each, from one
    ``sublevel_ph0_stack`` call on all their line grids, split by grid index."""
    side = masks[0].side
    stack = np.full((len(masks) * len(LINE_NAMES), side, side), np.inf)
    for grids, mask in zip(stack.reshape(len(masks), -1, side, side), masks):
        values = tubular_distances(mask.occupied_centers(), default_lines(mask))
        grids[:, mask.cells] = cell_units(values, mask.cell_size)
    ends = stack.max(axis=(1, 2), where=stack < math.inf, initial=-math.inf).tolist()
    grid, births, deaths = sublevel_ph0_stack(stack)
    out = [_second_persistence(births[grid == i], deaths[grid == i], end) for i, end in enumerate(ends)]
    out = np.reshape(out, (len(masks), len(LINE_NAMES)))
    if normalize:
        out /= np.array([mask.cells.sum() for mask in masks])[:, None]
    return out


def concavity_features(mask: BinaryMask, normalize: bool = False) -> Array:
    """Lifespan of the second most persisting tubular component, per line.

    Lifespans are measured in ``cell_units``; the vector is invariant under
    translating or uniformly scaling the mask extent.
    ``normalize`` divides by the occupied-cell count (area-relative mode).
    The distances of the occupied cells to the nine lines fill nine grids,
    +inf off the mask, for one level sweep: the one-mask ``_concavity_block``;
    the pipelines sweep blocks of several masks at once.
    """
    return _concavity_block([mask], normalize)[0]


@dataclass(frozen=True)
class ConvexityConfig:
    grid_side: int = 20
    points_per_cloud: int = 5000
    clouds_per_shape: int = 60
    polygons_per_class: int = 240
    test_fraction: float = 1.0 / 6.0  # 480 -> 400 train / 80 test
    fill_neighbors: int = 5  # close sampling gaps in the raster; 0 disables
    jobs: int = 1

    def __post_init__(self):
        if self.grid_side < 2:
            raise ValueError("raster side must be at least 2")


def _convexity_scalars(config: ConvexityConfig, clouds) -> Array:
    """The largest concavity feature of each cloud of a block, rasterized
    at the config's side with its sampling gaps filled."""
    masks = [fill_sampling_gaps(rasterize(cloud, config.grid_side), config.fill_neighbors) for cloud in clouds]
    return _concavity_block(masks, False).max(axis=1)


def convexity_seed(seed: int, kind: str) -> int:
    """The seed that generates the ``kind`` shape family of the convexity
    corpus under master seed ``seed``, one per family so they are independent."""
    return derive_seed(seed, 0xC0, 0 if kind == "regular" else 1)


def _gen_convexity(kind: str, config: ConvexityConfig, seed: int) -> LabeledDataset:
    return datagen.gen_convexity_dataset(
        kind,
        seed=convexity_seed(seed, kind),
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
    # each corpus is cut into blocks on its own, so it sweeps the same blocks
    # whichever corpora run with it
    blocks = [block for ds in datasets.values() for block in _blocks(ds.items, itertools.repeat(config.grid_side))]
    flat = np.concatenate(_map_items(partial(_convexity_scalars, config), blocks, config.jobs))
    ends = np.cumsum([len(ds) for ds in datasets.values()])
    scalars = dict(zip(datasets, np.split(flat, ends[:-1])))
    labels = {k: np.asarray(ds.labels, dtype=float) for k, ds in datasets.items()}
    results = {
        kinds: _convexity_regime(*kinds, scalars, labels, config, seed) for kinds in CONVEXITY_REGIMES
    }
    regimes = [Regime(f"{tr}/{te}", "accuracy", res[0]) for (tr, te), res in results.items()]
    _, test_idx, test_labels, preds = results["regular", "regular"]
    ids = _item_ids(datasets["regular"], test_idx)
    return _report("convexity", asdict(config), seed, regimes, ids, test_labels, preds, t0)


# ---------------------------------------------------------------------------
# concavity-measure regression on masks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionConfig:
    train_fraction: float = 0.7
    ridge_lambda: float = 1e-6
    jobs: int = 1


def _spearman(x, y) -> float:
    """Spearman's rank correlation of two non-constant samples.

    Pearson's r of the ranks 1..n, ties sharing the mean of their ranks, by
    the ``np.corrcoef`` call that ``scipy.stats.spearmanr`` makes; the mean
    ranks are exact halves, so the two agree to the last bit.
    """
    ranks = []
    for sample in (x, y):
        _, inverse, counts = np.unique(sample, return_inverse=True, return_counts=True)
        ends = np.cumsum(counts)
        ranks.append(((ends - counts + 1 + ends) / 2)[inverse])
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


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
    labels = []
    kept = []
    skipped = []
    for i, mask in enumerate(masks):
        try:
            labels.append(convexity_measure(mask))
            kept.append(i)
        except ValueError:
            skipped.append(i)
    if len(kept) < 20:
        raise ValueError(
            f"need at least 20 usable masks, got {len(kept)} ({len(skipped)} skipped as degenerate)"
        )
    labels = np.array(labels)
    blocks = _blocks([masks[i] for i in kept], [masks[i].side for i in kept])
    X = np.concatenate(_map_items(partial(_concavity_block, normalize=True), blocks, config.jobs))

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
        rho = _spearman(concavity, feature_sum)
    regimes = (
        Regime("mse", "mse", test_mse),
        Regime("spearman", "spearman", float(rho)),
    )
    ids = [f"{kept[i]:04d}" for i in test_idx]
    report_config = asdict(config)
    report_config["skipped_masks"] = skipped
    return _report("convexity-measure", report_config, seed, regimes, ids, labels[test_idx], preds, t0)
