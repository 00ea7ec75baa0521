import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdalab.persistence import PersistenceDiagram
from tdalab.signatures import (
    BLOCK_ROWS,
    FinitePoints,
    PI_WEIGHTS,
    SignatureVector,
    _blocks,
    finite_points,
    image_ranges,
    image_stack,
    landscape_matrix,
    landscape_range,
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


def test_image_ranges_reused_on_new_diagram():
    train = [_pd([[0, 0, 1], [0, 1, 4]]), _pd([[0, 0.5, 2]])]
    birth_range, life_range = image_ranges(finite_points(train, 0), 0.5)
    assert birth_range == (0.0, 1.0)
    assert life_range == (0.0, 3.0)
    far = finite_points([_pd([[0, 10, 20]])], 0)  # far outside the fitted range
    row = image_stack(far, 10, 0.5, ("1",), birth_range, life_range)[0]
    assert np.all(np.isfinite(row))


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


@pytest.mark.parametrize("t_range", [None, (0.0, 2.0)])
@pytest.mark.parametrize("top", [0, -1])
def test_landscape_rejects_top_below_one(top, t_range):
    # a cut to no interval was a zero vector when t_range was given
    pd = _pd([[0, 0, 2], [0, 0.5, 1]])
    with pytest.raises(ValueError, match="top must be at least 1"):
        persistence_landscape(pd, 0, resolution=5, levels=1, top=top, t_range=t_range)
    with pytest.raises(ValueError, match="top must be at least 1"):
        finite_points([pd], 0).longest(top)


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


def _image_rows(diagrams, sigma, weight, birth_range, life_range):
    """The single-diagram images of dimension 1 at the given ranges."""
    return np.stack([
        persistence_image(pd, 1, 10, sigma, weight, birth_range, life_range).values
        for pd in diagrams
    ])


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
    ranges = image_ranges(points, sigma)
    rows = _image_rows(diagrams, sigma, weight, *ranges)
    assert np.array_equal(image_stack(points, 10, sigma, (weight,), *ranges)[0], rows)
    # the per-diagram arithmetic the batch replaces: one einsum per diagram
    (b_lo, b_hi), (l_lo, l_hi) = ranges
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
    ranges = image_ranges(points, 0.25)
    assert ranges[0] == (-0.5, 1.5)
    rows = _image_rows(diagrams, 0.25, "y", *ranges)
    assert np.array_equal(image_stack(points, 10, 0.25, ("y",), *ranges)[0], rows)


def _three_operand_images(points, resolution, sigma, weight, birth_range, life_range):
    """Reference: one weight's images with the weights, birth factors and
    lifespan factors of each padded block summed by one three-operand
    einsum, as images were computed one weight at a time."""
    (b_lo, b_hi), (l_lo, l_hi) = birth_range, life_range
    bw, lw = (b_hi - b_lo) / resolution, (l_hi - l_lo) / resolution
    bc = b_lo + (np.arange(resolution) + 0.5) * bw
    lc = l_lo + (np.arange(resolution) + 0.5) * lw
    sums = np.zeros((len(points), resolution, resolution))
    for lo, hi, width, rows, at in _blocks(points):
        births, lives, weights = np.zeros((3, hi - lo, width))
        births[at] = points.births[rows]
        lives[at] = points.lives[rows]
        weights[at] = {"1": np.ones_like, "y": lambda x: x, "y2": lambda x: x**2}[weight](points.lives[rows])
        gb = np.exp(-((bc - births[:, :, None]) ** 2) / (2 * sigma**2))
        gl = np.exp(-((lc - lives[:, :, None]) ** 2) / (2 * sigma**2))
        sums[lo:hi] = np.einsum("dk,dkb,dkl->dbl", weights, gb, gl)
    norm = 1.0 / (2.0 * np.pi * sigma**2)
    return (norm * sums * (bw * lw)).reshape(len(points), resolution**2)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(
        st.sampled_from([0, 1, 2, 3, 15, 16, 17, 64, BLOCK_ROWS // 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
        max_size=24,
    ),
    weights=st.lists(st.sampled_from(PI_WEIGHTS), min_size=1, max_size=4),
    sigma=st.sampled_from([0.05, 0.3, 1.0]),
    resolution=st.sampled_from([1, 2, 4, 10]),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_image_stack_equals_three_operand_einsum(sizes, weights, sigma, resolution, tied, seed):
    # empty diagrams, one point, blocks padded to their widest diagram and
    # diagrams that fill a block exactly or spill one point past it
    rng = np.random.default_rng(seed)
    diagrams = []
    for m in sizes:
        births, lives = rng.random(m) * 2, rng.random(m) * 3
        if tied:
            births, lives = np.round(births * 4) / 4, np.round(lives * 4) / 4
        diagrams.append(_pd([[1, b, b + life] for b, life in zip(births, lives)]))
    points = finite_points(diagrams, 1)
    ranges = image_ranges(points, sigma)
    stack = image_stack(points, resolution, sigma, weights, *ranges)
    assert stack.shape == (len(weights), len(diagrams), resolution**2)
    for weight, images in zip(weights, stack):
        reference = _three_operand_images(points, resolution, sigma, weight, *ranges)
        if resolution > 1:
            assert np.array_equal(images, reference)
        else:  # a one-cell image sums its points in numpy's unrolled order
            np.testing.assert_allclose(images, reference, rtol=1e-13, atol=0.0)
        assert np.array_equal(image_stack(points, resolution, sigma, (weight,), *ranges)[0], images)


def test_image_stack_rejects_each_bad_weight():
    points = finite_points([_pd([[1, 0.0, 1.0]])], 1)
    with pytest.raises(ValueError, match="weight must be one of"):
        image_stack(points, 10, 0.1, ("y", "y3"), (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("top", [1, 2, 3, 10, None])
def test_batch_landscapes_equal_single_rows(top):
    diagrams = _random_diagrams(np.random.default_rng(2))
    points = finite_points(diagrams, 1)
    t_range = landscape_range(points)
    levels = min(top or 10, 10)
    rows = np.stack([
        persistence_landscape(pd, 1, 100, levels, top, t_range).values for pd in diagrams
    ])
    assert np.array_equal(landscape_matrix(points.longest(top), 100, levels, t_range), rows)
    # the per-diagram arithmetic the batch replaces, with its own cut among
    # tied lifespans (the last three diagrams tie): a stable sort keeps the
    # earlier of equal lifespans
    ts = np.linspace(*t_range, 100)
    for pd, row in zip(diagrams, rows):
        pts = pd.finite_in_dim(1)
        if top is not None and len(pts) > top:
            pts = pts[np.argsort(pts[:, 0] - pts[:, 1], kind="stable")[:top]]
        out = np.zeros((levels, 100))
        if len(pts):
            tent = np.maximum(0.0, np.minimum(ts[None, :] - pts[:, 0:1], pts[:, 1:2] - ts[None, :]))
            take = min(levels, len(pts))
            out[:take] = -np.sort(-tent, axis=0)[:take]
        assert np.array_equal(row, out.ravel())
        # without a t_range, one diagram's landscape is the one-row case of the
        # range and the kernel: the span covers all its finite intervals, cut or not
        alone = finite_points([pd], 1)
        assert np.array_equal(
            persistence_landscape(pd, 1, levels=levels, top=top).values,
            landscape_matrix(alone.longest(top), 100, levels, landscape_range(alone))[0],
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


def _longest_reference(births, deaths, top):
    """A diagram's ``top`` longest points by a stable sort: of equal
    lifespans, the earlier point is kept."""
    rows = sorted(range(len(births)), key=lambda i: -(deaths[i] - births[i]))[:top]
    return sorted((births[i], deaths[i]) for i in rows)


def test_longest_keeps_the_earlier_of_equal_lifespans():
    # tie-heavy diagrams: lifespans on a step of 0.5, distinct births on a
    # step of 1/8, so every lifespan is exact and each point is told apart
    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(200):
        births = rng.permutation(64)[: rng.integers(0, 13)] / 8
        pairs.append(np.column_stack([births, births + rng.integers(1, 4, len(births)) / 2]))
    points = FinitePoints.from_pairs(pairs)
    for top in (1, 2, 3, 5):
        cut = points.longest(top)
        for i, p in enumerate(pairs):
            lo, hi = cut.bounds[i], cut.bounds[i + 1]
            got = sorted(zip(cut.births[lo:hi].tolist(), cut.deaths[lo:hi].tolist()))
            assert got == _longest_reference(p[:, 0].tolist(), p[:, 1].tolist(), top), (top, i)


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
        SignatureVector(np.array([1.0, math.nan]))


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
