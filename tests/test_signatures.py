import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdalab.persistence import PersistenceDiagram
from tdalab.signatures import (
    BLOCK_ROWS,
    ImageScheme,
    LandscapeScheme,
    SignatureVector,
    finite_points,
    image_matrix,
    landscape_matrix,
    lifespans_matrix,
    lifespans_topk,
    persistence_image,
    persistence_landscape,
    scalar_summaries,
)


def _pd(rows):
    return PersistenceDiagram(np.array(rows, dtype=float) if rows else np.empty((0, 3)))


EMPTY = _pd([])


# ---------------------------------------------------------------------------
# top-k lifespans
# ---------------------------------------------------------------------------


def test_topk_sorts_and_drops_infinite():
    pd = _pd([[0, 0, 3], [0, 1, 2], [0, 0, math.inf]])
    vec = lifespans_topk(pd, 0, 2)
    assert vec.values.tolist() == [3.0, 1.0]


def test_topk_pads_empty():
    assert lifespans_topk(EMPTY, 0, 10).values.tolist() == [0.0] * 10


def test_topk_truncates():
    pd = _pd([[1, 0, 5], [1, 0, 4], [1, 0, 3]])
    assert lifespans_topk(pd, 1, 2).values.tolist() == [5.0, 4.0]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=1, max_size=20),
       st.floats(0.001, 0.5))
def test_topk_lipschitz_under_perturbation(intervals, eps):
    rows = [[0, b, b + l] for b, l in intervals]
    pd = _pd(rows)
    rng = np.random.default_rng(0)
    noise = rng.uniform(-eps, eps, size=(len(rows), 2))
    rows2 = [[0, b + db, max(b + db, d + dd)] for (_, b, d), (db, dd) in zip(rows, noise)]
    k = len(rows) + 2
    v1 = lifespans_topk(pd, 0, k).values
    v2 = lifespans_topk(_pd(rows2), 0, k).values
    assert np.all(np.abs(v1 - v2) <= 2 * eps + 1e-9)


def test_topk_reordering_invariance():
    rows = [[0, 0, 3], [0, 1, 5], [0, 2, 2.5]]
    a = lifespans_topk(_pd(rows), 0, 5).values
    b = lifespans_topk(_pd(rows[::-1]), 0, 5).values
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# persistence images
# ---------------------------------------------------------------------------


def test_image_empty_diagram_is_zero():
    vec = persistence_image(EMPTY, 0, resolution=10, sigma=0.5, weight="y")
    assert np.all(vec.values == 0)
    assert len(vec.values) == 100


def test_image_mass_matches_weight():
    # one interval with lifespan 2, weight y: total mass ~ 2 over a grid
    # covering +-4 sigma (center-point quadrature, fine grid)
    sigma = 0.25
    pd = _pd([[0, 1.0, 3.0]])
    vec = persistence_image(
        pd, 0, resolution=80, sigma=sigma, weight="y",
        birth_range=(1 - 4 * sigma, 1 + 4 * sigma),
        life_range=(2 - 4 * sigma, 2 + 4 * sigma),
    )
    assert vec.values.sum() == pytest.approx(2.0, rel=1e-3)


def test_image_additivity():
    scheme = dict(resolution=10, sigma=0.3, weight="y2", birth_range=(0, 2), life_range=(0, 3))
    a = persistence_image(_pd([[0, 0.5, 1.5]]), 0, **scheme)
    b = persistence_image(_pd([[0, 1.0, 3.0]]), 0, **scheme)
    both = persistence_image(_pd([[0, 0.5, 1.5], [0, 1.0, 3.0]]), 0, **scheme)
    assert np.allclose(both.values, a.values + b.values, atol=1e-9)


def test_image_two_identical_intervals_double():
    scheme = dict(resolution=10, sigma=0.5, weight="y", birth_range=(0, 2), life_range=(0, 2))
    one = persistence_image(_pd([[1, 0.5, 1.5]]), 1, **scheme)
    two = persistence_image(_pd([[1, 0.5, 1.5], [1, 0.5, 1.5]]), 1, **scheme)
    assert np.allclose(two.values, 2 * one.values)


def test_image_scheme_fit_reused_on_new_diagram():
    train = [_pd([[0, 0, 1], [0, 1, 4]]), _pd([[0, 0.5, 2]])]
    scheme = ImageScheme(dim=0, sigma=0.5, weight="1").fit(train)
    assert scheme.birth_range == (0.0, 1.0)
    assert scheme.life_range == (0.0, 3.0)
    vec = scheme.vector(_pd([[0, 10, 20]]))  # far outside the fitted range
    assert np.all(np.isfinite(vec.values))


def test_image_rejects_bad_params():
    with pytest.raises(ValueError):
        persistence_image(EMPTY, 0, sigma=0.0)
    with pytest.raises(ValueError):
        persistence_image(EMPTY, 0, weight="z")


# ---------------------------------------------------------------------------
# persistence landscapes
# ---------------------------------------------------------------------------


def test_landscape_triangle_peak_exact():
    pd = _pd([[0, 0, 2]])
    vec = persistence_landscape(pd, 0, resolution=5, levels=1)
    # samples at t = 0, .5, 1, 1.5, 2
    assert vec.values == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0], abs=1e-12)


def test_landscape_second_level_zero_for_single_interval():
    pd = _pd([[0, 0, 2]])
    vec = persistence_landscape(pd, 0, resolution=5, levels=2)
    assert np.all(vec.values[5:] == 0)


def test_landscape_nested_intervals():
    pd = _pd([[1, 0, 4], [1, 1, 3]])
    vec = persistence_landscape(pd, 1, resolution=5, levels=2)
    # t grid = 0, 1, 2, 3, 4; lambda_2(2) = min(2-1, 3-2) = 1
    lam2 = vec.values[5:]
    assert lam2[2] == pytest.approx(1.0, abs=1e-12)


def test_landscape_monotone_under_adding_intervals():
    base = [[0, 0.5, 2.0], [0, 1.0, 3.0]]
    bigger = base + [[0, 0.2, 2.8]]
    kw = dict(resolution=50, levels=3, t_range=(0.0, 3.0))
    v1 = persistence_landscape(_pd(base), 0, **kw).values
    v2 = persistence_landscape(_pd(bigger), 0, **kw).values
    assert np.all(v2 >= v1 - 1e-12)


def test_landscape_top_truncation():
    pd = _pd([[0, 0, 10], [0, 0, 1], [0, 5, 6]])
    vec = persistence_landscape(pd, 0, resolution=11, levels=1, top=1, t_range=(0, 10))
    # only the longest interval remains: peak 5 at t = 5
    assert vec.values[5] == pytest.approx(5.0)
    assert vec.values[1] == pytest.approx(1.0)  # t=1 on the long tent


def test_landscape_scheme_levels():
    assert LandscapeScheme(dim=0, top=1).levels == 1
    assert LandscapeScheme(dim=0, top=10).levels == 10
    assert LandscapeScheme(dim=0, top=None).levels == 10


def test_landscape_empty_diagram():
    vec = persistence_landscape(EMPTY, 1, resolution=10, levels=2)
    assert np.all(vec.values == 0)
    assert len(vec.values) == 20


# ---------------------------------------------------------------------------
# batches: one row per diagram, equal to the single-diagram vectors
# ---------------------------------------------------------------------------


def _random_diagrams(rng, dim=1):
    """Random diagrams of many sizes (one larger than a block), with an empty,
    a one-point, an essential-only, an equal-births and three tied-lifespans
    ones."""
    diagrams = []
    for m in [0, 1, 2, 3, 7, 30, 64, BLOCK_ROWS + 90] + list(rng.integers(0, 40, 12)):
        births = rng.random(m) * 2
        rows = [[dim, b, b + life] for b, life in zip(births, rng.random(m) * 3)]
        diagrams.append(_pd(rows + [[dim, 0.0, math.inf], [1 - dim, 0.0, 1.0]]))
    diagrams.append(_pd([[dim, 0.3, math.inf]]))
    diagrams.append(_pd([[dim, 0.5, 0.5 + life] for life in (1.0, 2.0, 0.25, 2.0)]))
    diagrams.append(_pd([[dim, b, b + 1.5] for b in (0.0, 0.7, 0.2, 1.1, 0.4)] + [[dim, 0, 0.1]]))
    # 60 distinct births, lifespans in {0, 1, 2, 3}: a cut at top falls inside a tie
    births = rng.permutation(60) / 30
    diagrams.append(_pd([[dim, b, b + life] for b, life in zip(births, rng.integers(0, 4, 60))]))
    return diagrams


def test_batch_lifespans_equal_single_rows():
    diagrams = _random_diagrams(np.random.default_rng(0))
    points = finite_points(diagrams, 1)
    for k in (1, 3, 10, 700):
        rows = np.stack([lifespans_topk(pd, 1, k).values for pd in diagrams])
        assert np.array_equal(lifespans_matrix(points, k), rows)


@pytest.mark.parametrize("weight", ["1", "y", "y2"])
@pytest.mark.parametrize("sigma", [0.1, 1.0])
def test_batch_images_equal_single_rows(weight, sigma):
    diagrams = _random_diagrams(np.random.default_rng(1))
    points = finite_points(diagrams, 1)
    scheme = ImageScheme(dim=1, sigma=sigma, weight=weight).fit(points)
    assert scheme == ImageScheme(dim=1, sigma=sigma, weight=weight).fit(diagrams)
    rows = np.stack([scheme.vector(pd).values for pd in diagrams])
    assert np.array_equal(scheme.matrix(points), rows)
    # the per-diagram arithmetic the batch replaces: one einsum per diagram
    (b_lo, b_hi), (l_lo, l_hi) = scheme.birth_range, scheme.life_range
    bw, lw = (b_hi - b_lo) / 10, (l_hi - l_lo) / 10
    bc = b_lo + (np.arange(10) + 0.5) * bw
    lc = l_lo + (np.arange(10) + 0.5) * lw
    for pd, row in zip(diagrams, rows):
        pts = pd.finite_in_dim(1)
        image = np.zeros((10, 10))
        if len(pts):
            life = pts[:, 1] - pts[:, 0]
            w = {"1": np.ones_like(life), "y": life, "y2": life**2}[weight]
            gb = np.exp(-((bc[None, :] - pts[:, 0:1]) ** 2) / (2 * sigma**2))
            gl = np.exp(-((lc[None, :] - life[:, None]) ** 2) / (2 * sigma**2))
            norm = 1.0 / (2.0 * np.pi * sigma**2)
            image = norm * np.einsum("k,kb,kl->bl", w, gb, gl) * (bw * lw)
        assert np.array_equal(row, image.ravel())


def test_batch_image_equal_births_degenerate_range():
    diagrams = [_pd([[1, 0.5, 1.0], [1, 0.5, 2.0]]), _pd([[1, 0.5, 0.75]]), EMPTY]
    points = finite_points(diagrams, 1)
    scheme = ImageScheme(dim=1, sigma=0.25, weight="y").fit(points)
    assert scheme.birth_range == (-0.5, 1.5)
    rows = np.stack([scheme.vector(pd).values for pd in diagrams])
    assert np.array_equal(scheme.matrix(points), rows)
    assert np.array_equal(
        image_matrix(points, 10, 0.25, "y", scheme.birth_range, scheme.life_range), rows
    )


@pytest.mark.parametrize("top", [1, 2, 3, 10, None])
def test_batch_landscapes_equal_single_rows(top):
    diagrams = _random_diagrams(np.random.default_rng(2))
    points = finite_points(diagrams, 1)
    scheme = LandscapeScheme(dim=1, top=top).fit(points)
    rows = np.stack([scheme.vector(pd).values for pd in diagrams])
    assert np.array_equal(scheme.matrix(points), rows)
    # the per-diagram arithmetic the batch replaces, with its own cut among
    # tied lifespans (the last three diagrams tie)
    ts = np.linspace(*scheme.t_range, scheme.resolution)
    for pd, row in zip(diagrams, rows):
        pts = pd.finite_in_dim(1)
        if top is not None and len(pts) > top:
            pts = pts[np.argsort(pts[:, 1] - pts[:, 0])[::-1][:top]]
        out = np.zeros((scheme.levels, scheme.resolution))
        if len(pts):
            tent = np.maximum(0.0, np.minimum(ts[None, :] - pts[:, 0:1], pts[:, 1:2] - ts[None, :]))
            take = min(scheme.levels, len(pts))
            out[:take] = -np.sort(-tent, axis=0)[:take]
        assert np.array_equal(row, out.ravel())
    assert np.array_equal(
        landscape_matrix(points.longest(top), 100, scheme.levels, scheme.t_range), rows
    )


def test_finite_points_take_and_longest():
    diagrams = _random_diagrams(np.random.default_rng(3))
    points = finite_points(diagrams, 1)
    rows = [5, 0, 22, 5, 1]
    part = points.take(rows)
    whole = finite_points([diagrams[i] for i in rows], 1)
    for a, b in ((part.births, whole.births), (part.deaths, whole.deaths), (part.bounds, whole.bounds)):
        assert np.array_equal(a, b)
    cut = points.longest(2)
    assert cut.counts.tolist() == np.minimum(points.counts, 2).tolist()
    with pytest.raises(ValueError):
        ImageScheme(dim=0).fit(points)


# ---------------------------------------------------------------------------
# scalar summaries
# ---------------------------------------------------------------------------


def test_scalars_infinite_only():
    assert scalar_summaries(_pd([[0, 0, math.inf]]), 0) == (0, 0.0, 0.0, 0.0)


def test_scalars_mixed():
    pd = _pd([[0, 0, math.inf], [0, 0, 5], [0, 0, 2]])
    assert scalar_summaries(pd, 0) == (2, 5.0, 7.0, 2.0)


def test_scalars_max_across_lines_example():
    seconds = [0.63, 0.3, 0.21, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert max(seconds) == pytest.approx(0.63)


def test_scalars_cardinality_exact():
    rows = [[1, i, i + 1.5] for i in range(7)]
    assert scalar_summaries(_pd(rows), 1)[0] == 7


def test_signature_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        SignatureVector(np.array([1.0, math.nan]), {"kind": "x"})


def test_all_signatures_reordering_invariant():
    rows = [[0, 0.2, 1.0], [0, 0.5, 2.5], [0, 1.0, 1.3]]
    fwd, rev = _pd(rows), _pd(rows[::-1])
    kw_img = dict(resolution=8, sigma=0.4, weight="y", birth_range=(0, 2), life_range=(0, 3))
    assert np.array_equal(
        persistence_image(fwd, 0, **kw_img).values,
        persistence_image(rev, 0, **kw_img).values,
    )
    kw_pl = dict(resolution=20, levels=3, t_range=(0.0, 3.0))
    assert np.array_equal(
        persistence_landscape(fwd, 0, **kw_pl).values,
        persistence_landscape(rev, 0, **kw_pl).values,
    )
    assert scalar_summaries(fwd, 0) == scalar_summaries(rev, 0)
