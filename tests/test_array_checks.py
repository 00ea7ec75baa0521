"""Every public entry that takes an array checks it with
``geometry.checked_array``: a wrong trailing axis, an extra leading axis, a
NaN and an empty array each raise a ValueError that names the argument, or
give what the entry documents. None of them reads a misshapen array as
something else."""

import math
import re

import numpy as np
import pytest

from tdalab.complexes import (
    FilteredComplex,
    FilteredCubicalGrid,
    cubical_complex,
    height_filtration,
    weighted_rips_complex,
)
from tdalab.geometry import (
    BinaryMask,
    DistanceMatrix,
    Line,
    PointCloud,
    PolarCloud,
    Polygon,
    checked_array,
    convex_hull,
    euclidean_distance_matrix,
    points_in_polygon,
    tubular_distances,
)
from tdalab.learn import (
    Standardizer,
    accuracy,
    knn_fit_predict,
    knn_grid_scores,
    mse,
    neighbour_ranking,
    ridge_fit,
    select_by_mean,
    threshold_fit,
)
from tdalab.persistence import PersistenceDiagram
from tdalab.signatures import SignatureVector

TRIANGLE = Polygon([[0, 0], [3, 0], [0, 3]])
LINE = Line([0, 0], [1, 0])
DM4 = euclidean_distance_matrix(PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]]))
FULL_MASK = BinaryMask(np.ones((2, 2), dtype=bool))
X6 = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2])
LABELS4 = np.array([0.0, 0.0, 1.0, 1.0])
Y6 = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
STD6 = Standardizer.fit(X6)


# (id, argument name, a valid value, the entry called on it, and the faults
# whose result the entry documents, each with a check of that result)
ENTRIES = [
    ("PointCloud", "points", np.zeros((4, 3)), PointCloud, {}),
    ("PolarCloud", "coords", [[0.5, 1.0], [0.2, 2.0]], lambda c: PolarCloud(c, 0.0), {}),
    ("DistanceMatrix", "values", DM4.values, DistanceMatrix, {}),
    ("Line.anchor", "anchor", [0.0, 0.0], lambda a: Line(a, [1.0, 0.0]), {}),
    ("Line.direction", "direction", [1.0, 0.0], lambda d: Line([0.0, 0.0], d), {}),
    ("Polygon", "vertices", TRIANGLE.vertices, Polygon, {}),
    ("BinaryMask.cells", "cells", np.ones((2, 2), dtype=bool), BinaryMask, {}),
    ("BinaryMask.origin", "origin", [0.0, 0.0], lambda o: BinaryMask(np.ones((2, 2), dtype=bool), o), {}),
    (
        "tubular_distances",
        "points",
        [[0.0, 1.0], [2.0, 3.0]],
        lambda p: tubular_distances(p, LINE),
        {"empty": lambda out: out.shape == (0,)},
    ),
    ("convex_hull", "points", [[0, 0], [1, 0], [1, 1], [0, 1]], convex_hull, {}),
    (
        "points_in_polygon",
        "points",
        [[1.0, 1.0], [4.0, 4.0]],
        lambda p: points_in_polygon(p, TRIANGLE),
        {"empty": lambda out: out.shape == (0,) and out.dtype == bool},
    ),
    (
        "FilteredComplex.vertex_values",
        "vertex_values",
        np.zeros(4),
        lambda v: FilteredComplex(v, [[0, 1], [1, 2]], [1.0, 1.0]),
        {},
    ),
    (
        "FilteredComplex.edges",
        "edges",
        np.array([[0, 1], [1, 2]]),
        lambda e: FilteredComplex(np.zeros(4), e, np.ones(len(e))),
        {"empty": lambda cx: cx.edges.shape == (0, 2)},
    ),
    (
        "FilteredComplex.edge_values",
        "edge_values",
        np.array([1.0, 2.0]),
        lambda ev: FilteredComplex(np.zeros(3), [[0, 1], [1, 2]], ev),
        {},
    ),
    ("weighted_rips_complex", "vertex_values", np.zeros(4), lambda f: weighted_rips_complex(DM4, f), {}),
    ("FilteredCubicalGrid", "top_values", [[0.0, math.inf], [1.0, 2.0]], FilteredCubicalGrid, {}),
    ("height_filtration", "height direction", [0.0, 1.0], height_filtration, {}),
    (
        "cubical_complex",
        "filtration values",
        np.arange(4.0),
        lambda values: cubical_complex(FULL_MASK, lambda centers: values),
        {},
    ),
    (
        "PersistenceDiagram",
        "intervals",
        [[0.0, 0.0, 1.0], [1.0, 0.5, math.inf]],
        PersistenceDiagram,
        {"empty": lambda pd: len(pd) == 0},
    ),
    (
        "SignatureVector",
        "values",
        [1.0, 2.0, 3.0, 4.0],
        SignatureVector,
        {"empty": lambda out: out.values.shape == (0,)},
    ),
    (
        "ridge_fit.X",
        "X",
        X6,
        lambda X: ridge_fit(X, np.arange(float(len(X))), 0.1),
        # a third feature column is a model with three weights
        {"trailing": lambda model: model.weights.shape == (3,)},
    ),
    ("ridge_fit.y", "y", np.arange(6.0), lambda y: ridge_fit(X6, y, 0.1), {}),
    ("threshold_fit.scalars", "scalars", [0.0, 1.0, 2.0, 3.0], lambda s: threshold_fit(s, LABELS4[: len(s)]), {}),
    ("threshold_fit.labels", "labels", LABELS4, lambda y: threshold_fit([0.0, 1.0, 2.0, 3.0], y), {}),
    ("accuracy.preds", "preds", LABELS4, lambda p: accuracy(p, LABELS4[: len(p)]), {}),
    ("accuracy.labels", "labels", LABELS4, lambda y: accuracy(LABELS4, y), {}),
    ("mse.preds", "preds", LABELS4, lambda p: mse(p, LABELS4[: len(p)]), {}),
    ("mse.labels", "labels", LABELS4, lambda y: mse(LABELS4, y), {}),
    (
        "Standardizer.fit",
        "X",
        X6,
        Standardizer.fit,
        # a third feature column is a third mean
        {"trailing": lambda std: std.mean.shape == (3,)},
    ),
    ("Standardizer.transform", "X", X6, STD6.transform, {"empty": lambda out: out.shape == (0, 2)}),
    (
        "neighbour_ranking.train_X",
        "train_X",
        X6,
        lambda X: neighbour_ranking(X, Y6[: len(X)], X[:2], 1),
        # a third feature column is one more coordinate of the train and test rows;
        # no training row ranks none
        {"trailing": lambda out: out.shape == (2, 1), "empty": lambda out: out.shape == (0, 0)},
    ),
    (
        "neighbour_ranking.test_X",
        "test_X",
        X6[:2],
        lambda T: neighbour_ranking(X6, Y6, T, 1),
        {"empty": lambda out: out.shape == (0, 1)},
    ),
    (
        "neighbour_ranking.train_y",
        "train_y",
        Y6,
        lambda y: neighbour_ranking(X6[: len(y)], y, X6[:2], 1),
        {"empty": lambda out: out.shape == (2, 0)},
    ),
    (
        "select_by_mean",
        "fold_scores",
        [[0.5, 0.7], [0.6, -math.inf]],
        select_by_mean,
        # a third config is one more mean
        {"trailing": lambda out: len(out[2]) == 3},
    ),
    (
        "knn_fit_predict.train_X",
        "train_X",
        X6,
        lambda X: knn_fit_predict(X, Y6[: len(X)], X[:2], 1, "regress"),
        # a third feature column is one more coordinate of the train and test rows
        {"trailing": lambda out: out.shape == (2,)},
    ),
    (
        "knn_fit_predict.test_X",
        "test_X",
        X6[:2],
        lambda T: knn_fit_predict(X6, Y6, T, 1, "regress"),
        {"empty": lambda out: out.shape == (0,)},
    ),
    (
        "knn_grid_scores.train_X",
        "train_X",
        X6,
        lambda X: knn_grid_scores(X, Y6[: len(X)], np.ones((2, X.shape[-1])), Y6[:2], (1,), "regress"),
        # no training row: the k above it scores +inf, as documented
        {"trailing": lambda scores: len(scores) == 1, "empty": lambda scores: scores == [math.inf]},
    ),
]


def _fault(good, kind: str) -> np.ndarray:
    good = np.asarray(good)
    if kind == "trailing":
        if good.ndim == 1 and len(good) != 2:
            # the same values laid out as (n/2, 2): what a ravel reads back
            return good.reshape(-1, 2)
        return np.concatenate([good, good[..., :1]], axis=-1)
    if kind == "leading":
        return good[None]
    if kind == "nan":
        bad = good.astype(float)
        bad.flat[0] = math.nan
        return bad
    return np.zeros((0,) + good.shape[1:], dtype=good.dtype)


@pytest.mark.parametrize("name, good, call", [e[1:4] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
def test_entry_accepts_its_valid_input(name, good, call):
    call(good)


@pytest.mark.parametrize("kind", ["trailing", "leading", "nan", "empty"])
@pytest.mark.parametrize("name, good, call, documented", [e[1:] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
def test_entry_rejects_or_documents_a_faulty_array(name, good, call, documented, kind):
    bad = _fault(good, kind)
    if kind in documented:
        assert documented[kind](call(bad))
        return
    with pytest.raises(ValueError, match=re.escape(name)):
        call(bad)


# faults each of these entries once read as some other, well-formed input
SILENT_FAULTS = [
    ("tubular_distances", "points", lambda: tubular_distances(np.array([[0.0, 1, 2], [3, 4, 5]]), LINE)),
    ("PersistenceDiagram", "intervals", lambda: PersistenceDiagram(np.zeros((1, 6)))),
    ("FilteredComplex.edges", "edges", lambda: FilteredComplex(np.zeros(4), [[0, 1, 2, 3]], [1.0, 1.0])),
    ("FilteredComplex.edge_values", "edge_values", lambda: FilteredComplex(np.zeros(2), [[0, 1]], [math.nan])),
    ("accuracy", "preds", lambda: accuracy(np.zeros((3, 2)), np.zeros(6))),
    ("mse", "preds", lambda: mse(np.zeros((3, 2)), np.zeros(6))),
    ("threshold_fit", "scalars", lambda: threshold_fit(np.arange(6.0).reshape(3, 2), [0, 0, 0, 1, 1, 1])),
    ("Line", "anchor", lambda: Line([[0.0, 0.0]], [[1.0, 0.0]])),
    ("weighted_rips_complex", "vertex_values", lambda: weighted_rips_complex(DM4, np.zeros((4, 1)))),
    ("Standardizer.transform", "X", lambda: Standardizer.fit(np.ones((5, 3))).transform(np.ones((2, 1)))),
    (
        "knn_fit_predict",
        "test_X",
        lambda: knn_fit_predict([[0.0], [1.0], [2.0]], [0.0, 1.0, 1.0], [[math.nan]], 1, "classify"),
    ),
    ("knn_grid_scores", "val_X", lambda: knn_grid_scores(X6, Y6, [[math.nan, 0.0]], [1.0], (1,), "classify")),
    ("Standardizer.fit", "X", lambda: Standardizer.fit([[1.0, math.nan], [2.0, 3.0]])),
    ("neighbour_ranking", "test_X", lambda: neighbour_ranking(X6, Y6, [[math.nan, 0.0]], 1)),
    # a (2,) array is not read as one point
    ("PointCloud.1-d", "points", lambda: PointCloud(np.array([0.0, 1.0]))),
    ("PolarCloud.1-d", "coords", lambda: PolarCloud(np.array([0.5, 1.0]), 0.0)),
]


@pytest.mark.parametrize("name, run", [f[1:] for f in SILENT_FAULTS], ids=[f[0] for f in SILENT_FAULTS])
def test_misshapen_array_is_not_reinterpreted(name, run):
    with pytest.raises(ValueError, match=re.escape(name)):
        run()


@pytest.mark.parametrize(
    "value, shape, message",
    [
        (np.zeros((2, 3)), ("n", 2), "points must have shape (n, 2), got (2, 3)"),
        (np.zeros(3), (2,), "points must have shape (2,), got (3,)"),
        ([[1.0, math.nan]], ("n", 2), "points must be finite"),
        ([[1.0, -math.inf]], ("n", 2), "points must be finite"),
    ],
)
def test_checked_array_names_the_argument_and_both_shapes(value, shape, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        checked_array(value, "points", shape)


def test_checked_array_casts_without_copying_a_matching_array():
    a = np.array([[1.0, math.inf]])
    assert checked_array(a, "points", ("n", 2), inf=True) is a
    with pytest.raises(ValueError, match="points must not contain nan"):
        checked_array([[math.nan, 1.0]], "points", ("n", 2), inf=True)
    # a NaN is caught before the cast to an integer dtype, not cast to garbage
    with pytest.raises(ValueError, match="edges must be finite"):
        checked_array(np.array([[0.0, math.nan]]), "edges", ("m", 2), dtype=np.int64)
    assert checked_array([[0, 1]], "edges", ("m", 2), dtype=np.int64).dtype == np.int64
