"""Minimal learners and model selection.

k-nearest-neighbor classification/regression, ridge regression with an
unpenalized intercept, a scalar threshold classifier, per-column
standardization fitted on training data only, deterministic k-fold splits,
and the rule that picks a config by its mean score over the folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import checked_array
from .seeding import generator

Array = np.ndarray


@dataclass(frozen=True)
class Standardizer:
    """Per-column mean/std fitted on the training rows only."""

    mean: Array
    std: Array

    @classmethod
    def fit(cls, X: Array) -> "Standardizer":
        X = checked_array(X, "X", ("n", "d"))
        if len(X) == 0:
            raise ValueError("X must be nonempty")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0, std, 1.0)  # constant columns pass through
        return cls(mean, std)

    def transform(self, X: Array) -> Array:
        return (checked_array(X, "X", ("n", len(self.mean))) - self.mean) / self.std


def neighbour_ranking(train_X: Array, train_y: Array, test_X: Array, k: int) -> Array:
    """Indices of the k nearest training rows of each test row, nearest first.

    Distance ties go to the smaller label (then to the earlier row), so
    predictions do not depend on the order of the training rows.
    """
    train_X = checked_array(train_X, "train_X", ("n", "d"))
    test_X = checked_array(test_X, "test_X", ("n", train_X.shape[1]))
    train_y = checked_array(train_y, "train_y", (len(train_X),), inf=True)
    d2 = (
        np.sum(test_X**2, axis=1)[:, None]
        - 2.0 * test_X @ train_X.T
        + np.sum(train_X**2, axis=1)[None, :]
    )
    return np.lexsort((np.broadcast_to(train_y, d2.shape), d2))[:, :k]


def knn_predict_ranked(ranking: Array, train_y: Array, k: int, mode: str) -> Array:
    """k-NN predictions from the first k columns of a neighbour ranking:
    majority vote (ties to the smallest label) or neighbour mean."""
    labels = np.asarray(train_y)[ranking[:, :k]]
    if mode == "regress":
        return labels.mean(axis=1)
    if mode != "classify":
        raise ValueError("mode must be 'classify' or 'regress'")
    classes = np.unique(labels)
    votes = (labels[:, :, None] == classes).sum(axis=1)
    return classes[np.argmax(votes, axis=1)].astype(float)


def knn_fit_predict(train_X: Array, train_y: Array, test_X: Array, k: int, mode: str) -> Array:
    """Plain k-NN: majority vote (ties to the smallest label) or neighbor mean."""
    train_X = checked_array(train_X, "train_X", ("n", "d"))
    if len(train_X) == 0:
        raise ValueError("train_X must be nonempty")
    if not 1 <= k <= len(train_X):
        raise ValueError(f"k must lie in [1, {len(train_X)}]")
    return knn_predict_ranked(neighbour_ranking(train_X, train_y, test_X, k), train_y, k, mode)


def knn_grid_scores(
    train_X: Array, train_y: Array, val_X: Array, val_y: Array, knn_grid, mode: str
) -> list:
    """Validation score of k-NN at every k of the grid, all from one
    neighbour ranking: accuracy (classify) or mse (regress). A k above the
    number of training rows scores -inf (classify) or +inf (regress)."""
    train_X = checked_array(train_X, "train_X", ("n", "d"))
    val_X = checked_array(val_X, "val_X", ("n", train_X.shape[1]))
    if mode not in ("classify", "regress"):
        raise ValueError("mode must be 'classify' or 'regress'")
    if min(knn_grid, default=1) < 1:
        raise ValueError("k must be at least 1")
    classify = mode == "classify"
    fitting = [k for k in knn_grid if k <= len(train_X)]
    ranking = neighbour_ranking(train_X, train_y, val_X, max(fitting)) if fitting else None
    scores = []
    for k in knn_grid:
        if k > len(train_X):
            scores.append(-math.inf if classify else math.inf)
            continue
        preds = knn_predict_ranked(ranking, train_y, k, mode)
        scores.append(accuracy(preds, val_y) if classify else mse(preds, val_y))
    return scores


@dataclass(frozen=True)
class RidgeModel:
    weights: Array
    intercept: float
    lam: float


def ridge_fit(X: Array, y: Array, lam: float) -> RidgeModel:
    """Least squares with an L2 penalty on the weights; intercept unpenalized.

    Solved by centered normal equations. A singular system at lam = 0 raises
    with a hint to use lam > 0.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    X = checked_array(X, "X", ("n", "d"))
    y = checked_array(y, "y", (len(X),))
    if len(y) == 0:
        raise ValueError("X and y must be nonempty")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    gram = Xc.T @ Xc + lam * np.eye(X.shape[1])
    rhs = Xc.T @ (y - y_mean)
    try:
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular normal equations; use a positive ridge penalty lam"
        ) from exc
    if not np.all(np.isfinite(w)):
        raise ValueError("singular normal equations; use a positive ridge penalty lam")
    return RidgeModel(w, float(y_mean - x_mean @ w), float(lam))


def ridge_predict(model: RidgeModel, X: Array) -> Array:
    return np.asarray(X, dtype=float) @ model.weights + model.intercept


@dataclass(frozen=True)
class ThresholdModel:
    """Predict ``high_label`` when the scalar exceeds the threshold."""

    threshold: float
    high_label: float
    low_label: float


def threshold_predict(model: ThresholdModel, scalars: Array) -> Array:
    s = np.asarray(scalars, dtype=float)
    return np.where(s > model.threshold, model.high_label, model.low_label)


def threshold_fit(scalars: Array, labels: Array) -> ThresholdModel:
    """Best single threshold and polarity on a scalar feature.

    Candidate thresholds sit midway between adjacent sorted values (plus one
    below the minimum); accuracy ties resolve to the smaller threshold, and
    at equal threshold to the polarity listed first.
    """
    s = checked_array(scalars, "scalars", ("n",))
    y = checked_array(labels, "labels", (len(s),))
    if len(s) == 0:
        raise ValueError("scalars and labels must be nonempty")
    classes = np.unique(y)
    if len(classes) != 2:
        raise ValueError("threshold_fit needs exactly two classes present")
    lo_cls, hi_cls = classes
    uniq = np.unique(s)
    candidates = [float(uniq[0] - 1.0)]
    candidates += [float(0.5 * (a + b)) for a, b in zip(uniq[:-1], uniq[1:])]
    best = None
    for t in candidates:
        above = s > t
        for high, low in ((hi_cls, lo_cls), (lo_cls, hi_cls)):
            preds = np.where(above, high, low)
            acc = float(np.mean(preds == y))
            key = (-acc, t)
            if best is None or key < best[0]:
                best = (key, ThresholdModel(t, float(high), float(low)))
    return best[1]


def accuracy(preds: Array, labels: Array) -> float:
    """Share of the (n,) numeric predictions equal to their labels, n >= 1."""
    preds = checked_array(preds, "preds", ("n",), inf=True)
    labels = checked_array(labels, "labels", (len(preds),), inf=True)
    if len(preds) == 0:
        raise ValueError("preds and labels must be nonempty")
    return float(np.mean(preds == labels))


def mse(preds: Array, labels: Array) -> float:
    """Mean squared error of (n,) predictions against their labels, n >= 1."""
    preds = checked_array(preds, "preds", ("n",), inf=True)
    labels = checked_array(labels, "labels", (len(preds),), inf=True)
    if len(preds) == 0:
        raise ValueError("preds and labels must be nonempty")
    return float(np.mean((preds - labels) ** 2))


def kfold_splits(n: int, folds: int, seed: int, labels: Array | None = None):
    """Deterministic fold assignment; stratified when labels are given."""
    if folds < 2:
        raise ValueError("folds must be at least 2")
    rng = generator(seed, 0xF01D)
    assign = np.empty(n, dtype=np.int64)
    if labels is None:
        perm = rng.permutation(n)
        assign[perm] = np.arange(n) % folds
    else:
        labels = np.asarray(labels)
        for cls in np.unique(labels):
            idx = np.nonzero(labels == cls)[0]
            if len(idx) < folds:
                raise ValueError(
                    f"class {cls!r} has fewer members ({len(idx)}) than folds ({folds})"
                )
            perm = idx[rng.permutation(len(idx))]
            assign[perm] = np.arange(len(idx)) % folds
    return [
        (np.nonzero(assign != f)[0], np.nonzero(assign == f)[0]) for f in range(folds)
    ]


def select_by_mean(fold_scores, maximize: bool = True):
    """The config with the best mean validation score over the folds.

    ``fold_scores[f][c]`` is config c's score on fold f, folds in order.
    Returns (index, score, scores), scores being every config's mean; ties
    keep the earliest config.
    """
    table = checked_array(fold_scores, "fold_scores", ("f", "c"), inf=True)
    if table.size == 0:
        raise ValueError("fold_scores must hold at least one fold and one config")
    scores = [float(np.mean(table[:, c])) for c in range(table.shape[1])]
    arr = np.array(scores)
    best = int(np.argmax(arr)) if maximize else int(np.argmin(arr))
    return best, scores[best], scores
