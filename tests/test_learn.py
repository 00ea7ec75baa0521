import numpy as np
import pytest

from tdalab.learn import (
    Standardizer,
    accuracy,
    kfold_splits,
    knn_fit_predict,
    knn_grid_scores,
    knn_predict_ranked,
    mse,
    neighbour_ranking,
    ridge_fit,
    ridge_predict,
    select_by_mean,
    threshold_fit,
    threshold_predict,
)

RNG = np.random.default_rng(5)


# ---------------------------------------------------------------------------
# k-NN
# ---------------------------------------------------------------------------


def test_knn_k_equals_n_regression_is_global_mean():
    X = RNG.random((12, 3))
    y = RNG.random(12)
    preds = knn_fit_predict(X, y, RNG.random((4, 3)), k=12, mode="regress")
    assert np.allclose(preds, y.mean())


def test_knn_k1_memorizes():
    X = RNG.random((10, 2))
    y = np.arange(10.0)
    preds = knn_fit_predict(X, y, X, k=1, mode="classify")
    assert np.array_equal(preds, y)


def test_knn_separable_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1, (40, 2))
    b = rng.normal(20, 1, (40, 2))
    X = np.vstack([a, b])
    y = np.array([0.0] * 40 + [1.0] * 40)
    test = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(20, 1, (10, 2))])
    labels = np.array([0.0] * 10 + [1.0] * 10)
    preds = knn_fit_predict(X, y, test, k=5, mode="classify")
    assert accuracy(preds, labels) == 1.0


def test_knn_tie_vote_prefers_smallest_label():
    X = np.array([[0.0], [2.0]])
    y = np.array([3.0, 1.0])
    preds = knn_fit_predict(X, y, np.array([[1.0]]), k=2, mode="classify")
    assert preds[0] == 1.0


def test_knn_permutation_invariance():
    X = RNG.random((30, 4))
    y = RNG.integers(0, 3, 30).astype(float)
    test = RNG.random((8, 4))
    p1 = knn_fit_predict(X, y, test, k=5, mode="classify")
    perm = RNG.permutation(30)
    p2 = knn_fit_predict(X[perm], y[perm], test, k=5, mode="classify")
    assert np.array_equal(p1, p2)


def test_knn_rejects_bad_k():
    X = RNG.random((5, 2))
    with pytest.raises(ValueError):
        knn_fit_predict(X, np.zeros(5), X, k=6, mode="classify")
    with pytest.raises(ValueError):
        knn_fit_predict(np.empty((0, 2)), np.empty(0), X, k=1, mode="classify")


def _knn_one_row_at_a_time(train_X, train_y, test_X, k, mode):
    """The per-row k-NN loop: lexsort by distance then label, vote or mean."""
    d2 = (
        np.sum(test_X**2, axis=1)[:, None]
        - 2.0 * test_X @ train_X.T
        + np.sum(train_X**2, axis=1)[None, :]
    )
    preds = np.empty(len(test_X))
    for i in range(len(test_X)):
        labels = train_y[np.lexsort((train_y, d2[i]))[:k]]
        if mode == "regress":
            preds[i] = labels.mean()
        else:
            uniq, counts = np.unique(labels, return_counts=True)
            preds[i] = uniq[counts == counts.max()].min()
    return preds


@pytest.mark.parametrize("mode", ["classify", "regress"])
def test_ranked_predictions_equal_knn_fit_predict_at_every_k(mode):
    rng = np.random.default_rng(11)
    # a coarse lattice makes distance ties common; three labels make vote ties common
    X = rng.integers(0, 3, (40, 2)).astype(float)
    y = rng.integers(0, 3, 40).astype(float) if mode == "classify" else rng.random(40)
    test = rng.integers(0, 3, (25, 2)).astype(float)
    ranking = neighbour_ranking(X, y, test, len(X))
    for k in range(1, len(X) + 1):
        ranked = knn_predict_ranked(ranking, y, k, mode)
        assert np.array_equal(ranked, knn_fit_predict(X, y, test, k, mode))
        assert np.array_equal(ranked, _knn_one_row_at_a_time(X, y, test, k, mode))


def test_ranked_vote_tie_goes_to_smallest_label():
    X = np.array([[0.0], [2.0], [-3.0], [3.0]])
    y = np.array([3.0, 1.0, 2.0, 2.0])
    ranking = neighbour_ranking(X, y, np.array([[1.0]]), 4)
    # k = 2: one vote each for 3 and 1; k = 4: two for 2, one each for 1 and 3
    assert knn_predict_ranked(ranking, y, 2, "classify")[0] == 1.0
    assert knn_predict_ranked(ranking, y, 4, "classify")[0] == 2.0
    assert knn_fit_predict(X, y, np.array([[1.0]]), 2, "classify")[0] == 1.0


def test_neighbour_ranking_breaks_distance_ties_by_label():
    X = np.array([[1.0], [-1.0], [1.0]])
    y = np.array([5.0, 4.0, 3.0])
    assert neighbour_ranking(X, y, np.array([[0.0]]), 3).tolist() == [[2, 1, 0]]


def test_knn_grid_scores_per_k():
    rng = np.random.default_rng(3)
    X, y = rng.random((12, 2)), rng.integers(0, 2, 12).astype(float)
    V, w = rng.random((5, 2)), rng.integers(0, 2, 5).astype(float)
    scores = knn_grid_scores(X, y, V, w, (1, 5, 13, 12), "classify")
    assert scores[2] == -np.inf
    for k, score in zip((1, 5, 12), (scores[0], scores[1], scores[3])):
        assert score == accuracy(knn_fit_predict(X, y, V, k, "classify"), w)
    assert knn_grid_scores(X, y, V, w, (13,), "regress") == [np.inf]
    assert knn_grid_scores(X, y, V, w, (2,), "regress") == [
        mse(knn_fit_predict(X, y, V, 2, "regress"), w)
    ]
    with pytest.raises(ValueError):
        knn_grid_scores(X, y, V, w, (0, 1), "classify")


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------


def test_ridge_exact_line():
    x = np.linspace(-1, 1, 20).reshape(-1, 1)
    y = 2 * x.ravel() + 1
    model = ridge_fit(x, y, lam=0.0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(1.0, abs=1e-9)


def test_ridge_large_lambda_shrinks_to_mean():
    X = RNG.random((30, 2))
    y = RNG.random(30)
    model = ridge_fit(X, y, lam=1e12)
    assert np.allclose(model.weights, 0, atol=1e-9)
    preds = ridge_predict(model, X)
    assert np.allclose(preds, y.mean(), atol=1e-6)


def test_ridge_optimality_condition():
    X = RNG.random((20, 3))
    y = RNG.random(20)
    lam = 1e-6
    model = ridge_fit(X, y, lam)
    resid = X @ model.weights + model.intercept - y
    grad_w = X.T @ resid + lam * model.weights
    assert np.linalg.norm(grad_w) <= 1e-6
    assert abs(resid.sum()) <= 1e-8  # intercept stationarity


def test_ridge_singular_at_zero_lambda():
    X = np.ones((10, 2))  # rank-deficient after centering
    y = RNG.random(10)
    with pytest.raises(ValueError, match="lam"):
        ridge_fit(X, y, lam=0.0)


def test_ridge_rejects_negative_lambda():
    with pytest.raises(ValueError):
        ridge_fit(RNG.random((5, 2)), RNG.random(5), lam=-1.0)


def test_ridge_permutation_invariance():
    X = RNG.random((25, 3))
    y = RNG.random(25)
    test = RNG.random((6, 3))
    m1 = ridge_fit(X, y, lam=0.01)
    perm = RNG.permutation(25)
    m2 = ridge_fit(X[perm], y[perm], lam=0.01)
    assert np.allclose(ridge_predict(m1, test), ridge_predict(m2, test), atol=1e-10)


# ---------------------------------------------------------------------------
# threshold classifier
# ---------------------------------------------------------------------------


def test_threshold_perfectly_separated():
    model = threshold_fit([0.0, 0.0, 5.0, 7.0], [1.0, 1.0, 0.0, 0.0])
    assert model.threshold == pytest.approx(2.5)
    assert model.high_label == 0.0
    preds = threshold_predict(model, [1.0, 6.0])
    assert preds.tolist() == [1.0, 0.0]


def test_threshold_constant_scalars_majority():
    scalars = np.zeros(10)
    labels = np.array([1.0] * 7 + [0.0] * 3)
    model = threshold_fit(scalars, labels)
    preds = threshold_predict(model, scalars)
    assert accuracy(preds, labels) == pytest.approx(0.7)


def test_threshold_accuracy_at_least_majority_share():
    rng = np.random.default_rng(3)
    scalars = rng.random(100)
    labels = (rng.random(100) > 0.4).astype(float)
    model = threshold_fit(scalars, labels)
    acc = accuracy(threshold_predict(model, scalars), labels)
    prior = max(labels.mean(), 1 - labels.mean())
    assert acc >= prior - 1e-12
    assert acc >= 0.5


def test_threshold_single_class_rejected():
    with pytest.raises(ValueError):
        threshold_fit([1.0, 2.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# metrics, standardization, grid search
# ---------------------------------------------------------------------------


def test_metrics_identical_inputs():
    y = RNG.random(10)
    assert accuracy(y, y) == 1.0
    assert mse(y, y) == 0.0


def test_mse_of_constant_mean_is_variance():
    y = RNG.random(50)
    assert mse(np.full(50, y.mean()), y) == pytest.approx(y.var())


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])


def test_standardizer_train_statistics_only():
    X = RNG.random((20, 3)) * 10 + 5
    std = Standardizer.fit(X)
    Z = std.transform(X)
    assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1, atol=1e-12)
    # test rows use the train statistics, not their own
    X_test = RNG.random((5, 3))
    Z_test = std.transform(X_test)
    assert np.allclose(Z_test, (X_test - X.mean(axis=0)) / X.std(axis=0))


def test_standardizer_constant_column():
    X = np.column_stack([np.ones(10), RNG.random(10)])
    Z = Standardizer.fit(X).transform(X)
    assert np.allclose(Z[:, 0], 0)


def test_kfold_splits_deterministic_and_disjoint():
    s1 = kfold_splits(20, 4, seed=7)
    s2 = kfold_splits(20, 4, seed=7)
    for (tr1, va1), (tr2, va2) in zip(s1, s2):
        assert np.array_equal(tr1, tr2) and np.array_equal(va1, va2)
    all_val = np.concatenate([va for _, va in s1])
    assert sorted(all_val.tolist()) == list(range(20))


def test_kfold_stratified_class_guard():
    labels = np.array([0, 0, 0, 1])
    with pytest.raises(ValueError):
        kfold_splits(4, 3, seed=0, labels=labels)


def test_grid_search_single_config():
    best, score, scores = select_by_mean([[0.5], [0.5], [0.5]])
    assert best == 0
    assert score == pytest.approx(0.5)
    assert scores == [pytest.approx(0.5)]


def test_grid_search_dominant_config():
    best, score, scores = select_by_mean([[0.1, 0.9], [0.1, 0.9], [0.1, 0.9]])
    assert best == 1
    assert scores == [pytest.approx(0.1), pytest.approx(0.9)]


def test_grid_search_minimize_mode():
    best, score, _ = select_by_mean([[2.0, 1.0]] * 3, maximize=False)
    assert best == 1
    assert score == 1.0


def test_grid_search_mean_over_folds_ties_to_earliest():
    # means 0.5, 0.6, 0.6, -inf: the earlier of the tied configs wins
    folds = [[0.5, 0.9, 0.6, 1.0], [0.5, 0.3, 0.6, 1.0], [0.5, 0.6, 0.6, -np.inf]]
    best, score, scores = select_by_mean(folds)
    assert best == 1 and score == pytest.approx(0.6)
    assert scores[3] == -np.inf
    assert select_by_mean([[np.inf, 1.0, 1.0]] * 3, maximize=False)[0] == 1


def test_grid_search_empty_grid_rejected():
    with pytest.raises(ValueError):
        select_by_mean([[], [], []])


def test_signature_grid_size():
    from tdalab.pipelines import signature_grid

    grid = signature_grid()
    assert len(grid) == 16  # 4 sigmas x 3 weights + 3 landscape tops + lifespans
