import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdalab import datagen, geometry
from tdalab.complexes import absolute_height_filtration, height_filtration
from tdalab.datagen import (
    gen_convexity_dataset,
    gen_holes_dataset,
    gen_polygon_masks,
    gen_random_concave_polygon,
    gen_random_convex_polygon,
)
from tdalab.geometry import (
    BinaryMask,
    Line,
    PointCloud,
    PolarCloud,
    Polygon,
    TransformSpec,
    _is_simple,
    apply_transform,
    convex_hull,
    convexity_measure,
    dtm,
    euclidean_distance_matrix,
    farthest_point_subsample,
    farthest_point_subsamples,
    fill_sampling_gaps,
    geodesic_distance_matrix,
    points_in_polygon,
    polygon_area,
    rasterize,
    tubular_distances,
)
from tdalab.seeding import generator

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# euclidean distances
# ---------------------------------------------------------------------------


def test_euclidean_345_triangle():
    dm = euclidean_distance_matrix(PointCloud([[0, 0], [3, 4]]))
    assert dm.values[0, 1] == pytest.approx(5.0)


def test_euclidean_single_point():
    dm = euclidean_distance_matrix(PointCloud([[1.0, 2.0]]))
    assert dm.values.shape == (1, 1)
    assert dm.values[0, 0] == 0.0


def test_euclidean_collinear():
    dm = euclidean_distance_matrix(PointCloud([[0, 0], [1, 0], [3, 0]]))
    assert dm.values[0, 1] == pytest.approx(1.0)
    assert dm.values[1, 2] == pytest.approx(2.0)
    assert dm.values[0, 2] == pytest.approx(3.0)


def test_euclidean_triangle_inequality_random_triples():
    pts = RNG.random((40, 3))
    d = euclidean_distance_matrix(PointCloud(pts)).values
    n = len(pts)
    idx = RNG.integers(0, n, size=(1000, 3))
    i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
    assert np.all(d[i, k] <= d[i, j] + d[j, k] + 1e-12)


def test_distance_matrix_symmetric_zero_diagonal():
    d = euclidean_distance_matrix(PointCloud(RNG.random((25, 2)))).values
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    assert np.all(d >= 0)


# ---------------------------------------------------------------------------
# geodesic distances
# ---------------------------------------------------------------------------


def _polar(coords, kappa):
    return PolarCloud(np.array(coords, dtype=float), kappa)


@pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
def test_geodesic_through_pole(kappa):
    # two points on opposite azimuths pass through the pole: d = rho1 + rho2
    cloud = _polar([[0.5, 0.0], [0.5, math.pi]], kappa)
    d = geodesic_distance_matrix(cloud).values[0, 1]
    assert d == pytest.approx(1.0, abs=1e-12)


def test_geodesic_sphere_right_angle():
    # law of cosines on the unit sphere: cos d = cos^2(0.5)
    cloud = _polar([[0.5, 0.0], [0.5, math.pi / 2]], 1.0)
    d = geodesic_distance_matrix(cloud).values[0, 1]
    expected = math.acos(math.cos(0.5) ** 2)
    assert d == pytest.approx(expected, abs=1e-12)
    # frozen from a Dijkstra oracle on a 400-radius grid graph over the
    # metric ds^2 = drho^2 + sin(rho)^2 dphi^2 (32 move directions,
    # ~0.1% metrication error)
    assert d == pytest.approx(0.69233, rel=5e-3)


def test_geodesic_flat_equals_euclidean_embedding():
    rng = np.random.default_rng(7)
    rho = rng.uniform(0, 1, 30)
    phi = rng.uniform(0, 2 * math.pi, 30)
    cloud = _polar(np.column_stack([rho, phi]), 0.0)
    xy = np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])
    expected = euclidean_distance_matrix(PointCloud(xy)).values
    got = geodesic_distance_matrix(cloud).values
    assert np.allclose(got, expected, atol=1e-12)


def test_geodesic_rejects_bad_curvature():
    with pytest.raises(ValueError):
        PolarCloud(np.array([[0.5, 0.0]]), 2.5)


# ---------------------------------------------------------------------------
# dtm
# ---------------------------------------------------------------------------


def test_dtm_two_points():
    dm = euclidean_distance_matrix(PointCloud([[0, 0], [2, 0]]))
    assert np.allclose(dtm(dm, 0.5), [2.0, 2.0])


def test_dtm_k1_is_nearest_neighbor_distance():
    pts = RNG.random((12, 2))
    dm = euclidean_distance_matrix(PointCloud(pts))
    vals = dtm(dm, 1e-9)  # k = ceil(tiny * n) = 1
    d = dm.values + np.diag(np.full(12, np.inf))
    assert np.allclose(vals, d.min(axis=1))


def test_dtm_matches_bruteforce_knn_rms():
    pts = np.stack(np.meshgrid(np.arange(5), np.arange(2)), axis=-1).reshape(-1, 2).astype(float)
    dm = euclidean_distance_matrix(PointCloud(pts))
    m = 0.3
    k = math.ceil(m * len(pts))
    expected = []
    for i in range(len(pts)):
        dists = sorted(np.linalg.norm(pts - pts[i], axis=1))[1 : k + 1]
        expected.append(math.sqrt(np.mean(np.square(dists))))
    assert np.allclose(dtm(dm, m), expected)


def test_dtm_rejects_bad_mass():
    dm = euclidean_distance_matrix(PointCloud(RNG.random((5, 2))))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            dtm(dm, bad)


# ---------------------------------------------------------------------------
# tubular distances, heights
# ---------------------------------------------------------------------------


def test_tubular_vertical_drop():
    assert tubular_distances([[3, 4]], Line((0.0, 0.0), (1.0, 0.0))).tolist() == pytest.approx([4.0])


def test_tubular_point_on_line():
    line = Line((0, 0), np.array([2.0, 1.0]) / math.sqrt(5))
    assert tubular_distances([[4, 2]], line)[0] == pytest.approx(0.0, abs=1e-12)


def test_tubular_diagonal_projection():
    line = Line((0, 0), np.array([1.0, 1.0]) / math.sqrt(2))
    assert tubular_distances([[1, 0]], line)[0] == pytest.approx(math.sqrt(2) / 2)


@settings(deadline=None, max_examples=50)
@given(
    st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
    st.floats(0, 2 * math.pi),
)
def test_tubular_translation_invariance(px, py, tx, ty, angle):
    direction = (math.cos(angle), math.sin(angle))
    line = Line((0.0, 0.0), direction)
    moved = Line((tx, ty), direction)
    d0 = tubular_distances([[px, py]], line)[0]
    d1 = tubular_distances([[px + tx, py + ty]], moved)[0]
    assert d1 == pytest.approx(d0, abs=1e-9)


def test_tubular_reflection_invariance():
    line = Line((0.0, 1.0), (1.0, 0.0))
    p = RNG.uniform(-3, 3, (20, 2))
    mirrored = np.column_stack([p[:, 0], 2.0 - p[:, 1]])
    assert np.allclose(tubular_distances(p, line), tubular_distances(mirrored, line))


def test_height_examples():
    points = np.array([[0.0, 5.0], [3.0, -2.0], [1.0, -1.0]])
    assert height_filtration((0, 1))(points).tolist() == pytest.approx([5.0, -2.0, -1.0])
    assert height_filtration((1, 0))(points).tolist() == pytest.approx([0.0, 3.0, 1.0])
    assert absolute_height_filtration((0, 1))(points).tolist() == pytest.approx([5.0, 2.0, 1.0])
    assert absolute_height_filtration((1, 0))(points).tolist() == pytest.approx([0.0, 3.0, 1.0])


def test_height_rejects_non_unit_vector():
    with pytest.raises(ValueError):
        height_filtration((1, 1))
    with pytest.raises(ValueError):
        absolute_height_filtration((1, 1))


# ---------------------------------------------------------------------------
# farthest point subsampling
# ---------------------------------------------------------------------------


def test_fps_full_size_is_permutation():
    pts = RNG.random((9, 2))
    sub = farthest_point_subsample(PointCloud(pts), 9, seed=3)
    assert sorted(map(tuple, sub.points)) == sorted(map(tuple, pts))


def test_fps_single_point_seeded():
    pts = RNG.random((6, 2))
    sub = farthest_point_subsample(PointCloud(pts), 1, seed=11)
    assert sub.n == 1
    assert any(np.allclose(sub.points[0], p) for p in pts)


def test_fps_square_corners_beat_center():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    for seed in range(8):
        sub = farthest_point_subsample(PointCloud(pts), 4, seed=seed)
        got = {tuple(p) for p in sub.points}
        if (0.5, 0.5) not in got:
            assert got == {(0, 0), (1, 0), (1, 1), (0, 1)}
        else:
            # center can only be selected if it was the seeded start
            assert np.allclose(sub.points[0], [0.5, 0.5])


def test_fps_greedy_rule_exhaustive():
    pts = RNG.random((7, 2))
    sub = farthest_point_subsample(PointCloud(pts), 5, seed=0)
    chosen = [tuple(p) for p in sub.points]
    # replay the greedy rule directly
    all_pts = [tuple(p) for p in pts]
    current = [chosen[0]]
    for step in range(1, 5):
        best = max(
            all_pts,
            key=lambda q: min(math.dist(q, c) for c in current),
        )
        best_gap = min(math.dist(best, c) for c in current)
        got_gap = min(math.dist(chosen[step], c) for c in current)
        assert got_gap == pytest.approx(best_gap)
        current.append(chosen[step])


def test_fps_deterministic_and_bounds():
    pts = RNG.random((20, 3))
    a = farthest_point_subsample(PointCloud(pts), 8, seed=5)
    b = farthest_point_subsample(PointCloud(pts), 8, seed=5)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(ValueError):
        farthest_point_subsample(PointCloud(pts), 21, seed=0)


def _fps_norm_loop(cloud, k, seed):
    """Reference: the greedy rule with one np.linalg.norm per step."""
    pts = cloud.points
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = generator(seed).integers(cloud.n)
    best = np.linalg.norm(pts - pts[chosen[0]], axis=1)
    for i in range(1, k):
        chosen[i] = int(np.argmax(best))
        best = np.minimum(best, np.linalg.norm(pts - pts[chosen[i]], axis=1))
    return pts[chosen]


def _fps_clouds():
    rng = np.random.default_rng(404)
    for dim in (2, 3):
        yield np.stack(np.meshgrid(*[np.arange(5.0)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        dup = rng.random((40, dim))
        yield np.vstack([dup, dup[:15], dup[:3]])  # duplicate points
        yield rng.normal(size=(120, dim)) * 10.0 ** rng.integers(-8, 9, size=dim)  # widely scaled axes
        yield np.round(rng.random((150, dim)) * 4.0) / 4.0  # exact lattice ties
        # ties in exact arithmetic that rounding breaks by the order of the sum
        for _ in range(6):
            yield np.round(rng.random((int(rng.integers(10, 60)), dim)) * 5.0) / 3.0
        yield rng.random((200, dim))
    yield np.zeros((6, 2))  # one point, six times


def test_fps_equals_the_norm_loop_bit_for_bit():
    for i, pts in enumerate(_fps_clouds()):
        cloud = PointCloud(pts)
        for k in sorted({1, 2, max(1, cloud.n // 3), cloud.n}):
            got = farthest_point_subsample(cloud, k, seed=i)
            assert np.array_equal(got.points, _fps_norm_loop(cloud, k, i)), (i, k)


def test_fps_block_equals_one_cloud_at_a_time():
    # one sweep serves a block of clouds of one size and dimension, each
    # with its own seed: bit for bit, each subsample is that of the norm
    # loop on its cloud alone, whatever shares its block
    rng = np.random.default_rng(25)
    for dim in (2, 3):
        lattice = np.round(rng.random((30, dim)) * 3.0) / 3.0
        clouds = [PointCloud(np.vstack([lattice, lattice[:10]]))]  # tied and duplicate points
        clouds += [PointCloud(rng.random((40, dim)) * 10.0 ** rng.integers(-3, 4, size=dim)) for _ in range(3)]
        clouds.append(clouds[1])  # the same cloud again, under another seed
        seeds = [int(seed) for seed in rng.integers(0, 2**63, size=len(clouds))]
        for k in (1, 2, 13, 40):
            block = farthest_point_subsamples(clouds, k, seeds)
            for cloud, seed, sub in zip(clouds, seeds, block, strict=True):
                want = _fps_norm_loop(cloud, k, seed)
                assert np.array_equal(sub.points, want), (dim, k)
                assert np.array_equal(farthest_point_subsample(cloud, k, seed).points, want), (dim, k)


def test_fps_block_rejects_clouds_of_another_shape():
    clouds = [PointCloud(RNG.random((10, 2))), PointCloud(RNG.random((10, 3)))]
    with pytest.raises(ValueError, match="must all have 10 points in 2 dimensions"):
        farthest_point_subsamples(clouds, 3, [0, 1])
    with pytest.raises(ValueError, match="must all have 10 points"):
        farthest_point_subsamples([clouds[0], PointCloud(RNG.random((9, 2)))], 3, [0, 1])


def test_fps_equals_the_norm_loop_on_holes_clouds():
    for seed in range(2):
        for i, cloud in enumerate(gen_holes_dataset(2, 300, seed).items):
            got = farthest_point_subsample(cloud, 100, seed=i)
            assert np.array_equal(got.points, _fps_norm_loop(cloud, 100, i)), (seed, i)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_transform_rotation_matches_matrix():
    cloud = PointCloud([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    spec = TransformSpec("rotation")
    moved = apply_transform(cloud, spec, seed=4)
    # recover the drawn angle from the first point and check the rest
    x, y = moved.points[0]
    theta = math.atan2(-y, x)
    assert -math.radians(20) <= theta <= math.radians(20)
    c, s = math.cos(theta), math.sin(theta)
    expected = cloud.points @ np.array([[c, -s], [s, c]])
    assert np.allclose(moved.points, expected, atol=1e-12)


def test_transform_stretch_identity_range():
    cloud = PointCloud(RNG.random((10, 2)))
    spec = TransformSpec("stretch", low=1.0, high=1.0)
    moved = apply_transform(cloud, spec, seed=0)
    assert np.allclose(moved.points, cloud.points)


def test_transform_outliers_zero_fraction():
    cloud = PointCloud(RNG.random((10, 2)))
    spec = TransformSpec("outliers", low=0.0, high=0.0)
    moved = apply_transform(cloud, spec, seed=0)
    assert np.array_equal(moved.points, cloud.points)


def test_transform_shear_turns_horizontal_line():
    # a shearing factor maps (x, y) to (x, y + f*x)
    cloud = PointCloud([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    moved = apply_transform(cloud, TransformSpec("shear", low=0.2, high=0.2), seed=1)
    assert np.allclose(moved.points[:, 1], [1.0, 1.2, 1.4])
    assert np.allclose(moved.points[:, 0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("kind", ["translation", "rotation"])
def test_isometries_preserve_distances(kind):
    cloud = PointCloud(RNG.random((30, 2)))
    before = euclidean_distance_matrix(cloud).values
    moved = apply_transform(cloud, TransformSpec(kind), seed=9)
    after = euclidean_distance_matrix(moved).values
    assert np.allclose(after, before, atol=1e-9)


def test_transform_3d_acts_on_xy_only():
    cloud = PointCloud(RNG.random((10, 3)))
    moved = apply_transform(cloud, TransformSpec("rotation"), seed=2)
    assert np.allclose(moved.points[:, 2], cloud.points[:, 2])
    moved = apply_transform(cloud, TransformSpec("stretch"), seed=2)
    assert np.allclose(moved.points[:, 1:], cloud.points[:, 1:])


def test_transform_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TransformSpec("scale")


# ---------------------------------------------------------------------------
# convex hull, polygon predicates
# ---------------------------------------------------------------------------


def test_hull_square_with_center():
    hull = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert hull.n == 4
    assert {tuple(v) for v in hull.vertices} == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_hull_preserves_convex_ccw_input():
    angles = np.linspace(0, 2 * math.pi, 7, endpoint=False)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    hull = convex_hull(pts)
    assert {tuple(np.round(v, 12)) for v in hull.vertices} == {
        tuple(np.round(p, 12)) for p in pts
    }


def _bruteforce_hull_vertices(pts):
    """O(n^3) extreme-edge test: a point is a hull vertex iff it is not
    strictly inside the hull; an edge (i, j) is extreme iff all points lie
    on one side."""
    n = len(pts)
    on_hull = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[j] - pts[i]
            rel = pts - pts[i]
            cross = d[0] * rel[:, 1] - d[1] * rel[:, 0]
            if np.all(cross <= 1e-12):
                on_hull.add(i)
                on_hull.add(j)
    return {tuple(pts[i]) for i in on_hull}


def test_hull_matches_bruteforce_on_random_points():
    pts = RNG.random((50, 2))
    hull = convex_hull(pts)
    assert {tuple(v) for v in hull.vertices} == _bruteforce_hull_vertices(pts)
    inside = points_in_polygon(pts, hull)
    assert inside.all()


def _segments_cross_loop(p1, p2, q1, q2) -> bool:
    """Reference: the scalar test of two open segments for an intersection."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def on_open_segment(a, b, c):
        if orient(a, b, c) != 0:
            return False
        return min(a[0], b[0]) < c[0] < max(a[0], b[0]) or min(a[1], b[1]) < c[1] < max(a[1], b[1])

    return (
        on_open_segment(p1, p2, q1)
        or on_open_segment(p1, p2, q2)
        or on_open_segment(q1, q2, p1)
        or on_open_segment(q1, q2, p2)
    )


def _is_simple_loop(vertices) -> bool:
    """Reference: every pair of non-adjacent edges, one pair at a time."""
    m = len(vertices)
    segs = [(vertices[i], vertices[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 2, m):
            if not (i == 0 and j == m - 1) and _segments_cross_loop(*segs[i], *segs[j]):
                return False
    return True


def _polygon_inputs(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4)
    if kind == "tied":
        return rng.integers(0, 4, size=(n, 2)).astype(float)
    # near-collinear: a line with a few points nudged off it by ~1e-9
    x = rng.random(n)
    nudge = rng.normal(0.0, 1e-9, n) * (rng.random(n) < 0.3)
    return np.column_stack([x, 0.3 * x + 0.1 + nudge])


def _polygons(kind, n, seed):
    """The points in their drawn order (mostly self-intersecting), in angular
    order about their mean (often simple), and their hull when it exists."""
    pts = _polygon_inputs(kind, n, seed)
    yield pts
    rel = pts - pts.mean(axis=0)
    yield pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]), kind="stable")]
    try:
        yield convex_hull(pts).vertices
    except ValueError:
        pass


# the monotone-chain hull of _polygon_inputs("near-collinear", 5, 382): each
# turn of the chain is a left turn, yet by the rounded orientation test its
# edges 0 and 2 meet
_SLIVER_HULL = np.array(
    [
        [0.2663534143994054, 0.1799060243198216],
        [0.8420023371519494, 0.35260070114558484],
        [0.8223510653216209, 0.3467053195964863],
        [0.5252267308448616, 0.2575680192534585],
    ]
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["random", "tied", "near-collinear"]),
    n=st.integers(3, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="near-collinear", n=5, seed=382)
def test_is_simple_equals_the_segment_loop(kind, n, seed):
    for vertices in _polygons(kind, n, seed):
        assert _is_simple(vertices) == _is_simple_loop(vertices)


def test_is_simple_in_blocks_equals_the_segment_loop(monkeypatch):
    monkeypatch.setattr(geometry, "_EDGE_PAIR_BLOCK", 7)  # a few edge pairs per block
    rng = np.random.default_rng(55)
    for trial in range(60):
        kind = ("random", "tied", "near-collinear")[trial % 3]
        for vertices in _polygons(kind, int(rng.integers(3, 30)), trial):
            assert _is_simple(vertices) == _is_simple_loop(vertices)


def test_hull_of_a_sliver_keeps_the_simplicity_test():
    # a hull is not simple by construction in floating point: convex_hull
    # rejects this one as the segment loop does
    assert not _is_simple_loop(_SLIVER_HULL) and not _is_simple(_SLIVER_HULL)
    with pytest.raises(ValueError, match="simple"):
        convex_hull(_SLIVER_HULL)
    with pytest.raises(ValueError, match="simple"):
        convex_hull(_polygon_inputs("near-collinear", 5, 382))


def test_hull_rejects_collinear():
    with pytest.raises(ValueError):
        convex_hull([[0, 0], [1, 1], [2, 2], [3, 3]])


def test_polygon_area_unit_square():
    poly = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert polygon_area(poly) == pytest.approx(1.0)


def test_point_in_polygon_centroid_and_boundary():
    tri = Polygon([[0, 0], [3, 0], [0, 3]])
    # the centroid, a boundary point, a vertex (boundary counts as inside), outside
    queries = [[1, 1], [1.5, 0], [0, 0], [2, 2]]
    assert points_in_polygon(queries, tri).tolist() == [True, True, True, False]


def _winding_number_inside(q, verts):
    total = 0.0
    m = len(verts)
    for i in range(m):
        a = verts[i] - q
        b = verts[(i + 1) % m] - q
        total += math.atan2(a[0] * b[1] - a[1] * b[0], np.dot(a, b))
    return abs(total) > math.pi


def test_point_in_polygon_matches_winding_oracle():
    poly = Polygon([[0, 0], [2, 0], [2, 1], [1, 0.5], [0.5, 1.5], [0, 1]])
    queries = RNG.uniform(-0.5, 2.5, size=(1000, 2))
    assert np.array_equal(
        points_in_polygon(queries, poly),
        np.array([_winding_number_inside(q, poly.vertices) for q in queries]),
    )


def _ray_cast_loop(points, polygon):
    """Reference: the crossing parity and the boundary test, one edge at a time."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x = pts[:, 0]
    y = pts[:, 1]
    verts = polygon.vertices
    m = len(verts)
    inside = np.zeros(len(pts), dtype=bool)
    boundary = np.zeros(len(pts), dtype=bool)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        on = (
            (cross == 0)
            & (np.minimum(x1, x2) <= x)
            & (x <= np.maximum(x1, x2))
            & (np.minimum(y1, y2) <= y)
            & (y <= np.maximum(y1, y2))
        )
        boundary |= on
        hits = (y1 > y) != (y2 > y)
        if np.any(hits):
            x_cross = x1 + (y[hits] - y1) * (x2 - x1) / (y2 - y1)
            flip = np.zeros(len(pts), dtype=bool)
            flip[hits] = x[hits] < x_cross
            inside ^= flip
    return inside | boundary


# axis-aligned, so its horizontal edges have dy = 0 and points on its edges
# are exact
_L_SHAPE = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])


def _ray_cast_queries(polygon, rng, extra):
    """Vertices, edge midpoints, points on edges, points level with a vertex
    (their rays pass through it) and uniform points around the polygon, in
    random order: two full blocks of points_in_polygon and a part block."""
    v = polygon.vertices
    nxt = np.roll(v, -1, axis=0)
    lo, hi = v.min(axis=0), v.max(axis=0)
    frac = rng.integers(0, 5, size=(len(v), 1)) / 4.0
    level = np.column_stack([rng.uniform(lo[0] - 0.5, hi[0] + 0.5, len(v)), v[:, 1]])
    special = np.concatenate([v, (v + nxt) / 2, v + frac * (nxt - v), level])
    step = geometry._EDGE_POINT_BLOCK // len(v)
    n = 2 * step + 1 + extra % (step - 1)
    queries = np.concatenate([special, rng.uniform(lo - 0.5, hi + 0.5, size=(n - len(special), 2))])
    return queries[rng.permutation(n)]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["convex", "concave", "L"]),
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 2**16),
)
def test_points_in_polygon_equals_the_ray_cast_loop(shape, seed, extra):
    if shape == "L":
        poly = _L_SHAPE
    else:
        poly = (gen_random_convex_polygon if shape == "convex" else gen_random_concave_polygon)(seed)
    queries = _ray_cast_queries(poly, np.random.default_rng(seed), extra)
    assert np.array_equal(points_in_polygon(queries, poly), _ray_cast_loop(queries, poly))


def test_points_in_polygon_on_horizontal_edges_warns_nothing():
    v = _L_SHAPE.vertices
    queries = np.concatenate([v, (v + np.roll(v, -1, axis=0)) / 2, [[0.5, 1.0], [1.5, 1.0], [3.0, 1.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = points_in_polygon(queries, _L_SHAPE)
    assert inside[:-1].all() and not inside[-1]


def test_points_in_polygon_takes_one_point():
    tri = Polygon([[0, 0], [3, 0], [0, 3]])
    assert points_in_polygon([1.0, 1.0], tri).tolist() == [True]
    assert points_in_polygon(np.empty((0, 2)), tri).shape == (0,)


@pytest.mark.parametrize("shape", [(2, 3), (4, 1), (3,), (2, 2, 2)])
def test_points_in_polygon_rejects_other_shapes(shape):
    tri = Polygon([[0, 0], [3, 0], [0, 3]])
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        points_in_polygon(np.zeros(shape), tri)


@pytest.mark.parametrize("point", [[math.nan, 0.5], [0.5, math.inf], [-math.inf, 0.5]])
def test_points_in_polygon_rejects_non_finite_points(point):
    tri = Polygon([[0, 0], [3, 0], [0, 3]])
    with pytest.raises(ValueError, match="finite"):
        points_in_polygon([[1.0, 1.0], point], tri)


@pytest.mark.parametrize(
    "points", [[[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1]], [0, 0, 1, 0, 0, 1], [[[0, 0], [1, 0], [0, 1]]]]
)
def test_hull_rejects_other_shapes(points):
    with pytest.raises(ValueError, match=re.escape(str(np.shape(points)))):
        convex_hull(points)


@pytest.mark.parametrize("seed", [0, 811])
def test_convexity_corpora_equal_the_ray_cast_loop(monkeypatch, seed):
    sizes = dict(points_per_cloud=50, clouds_per_shape=1, polygons_per_class=4)
    fast = [gen_convexity_dataset(kind, seed, **sizes) for kind in ("regular", "random")]
    fast_masks = gen_polygon_masks(6, 30, seed)
    # datagen samples through its own name, rasterize through geometry's
    monkeypatch.setattr(datagen, "points_in_polygon", _ray_cast_loop)
    monkeypatch.setattr(geometry, "points_in_polygon", _ray_cast_loop)
    loop = [gen_convexity_dataset(kind, seed, **sizes) for kind in ("regular", "random")]
    loop_masks = gen_polygon_masks(6, 30, seed)
    for a, b in zip(fast, loop):
        assert all(np.array_equal(x.points, y.points) for x, y in zip(a.items, b.items))
    assert all(np.array_equal(x.cells, y.cells) for x, y in zip(fast_masks.items, loop_masks.items))


def test_polygon_rejects_cw_and_self_intersecting():
    with pytest.raises(ValueError):
        Polygon([[0, 0], [0, 1], [1, 1], [1, 0]])  # clockwise
    with pytest.raises(ValueError):
        Polygon([[0, 0], [1, 1], [1, 0], [0, 1]])  # bow tie


# ---------------------------------------------------------------------------
# rasterization and convexity measure
# ---------------------------------------------------------------------------


def test_rasterize_corner_points():
    pts = PointCloud([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    mask = rasterize(pts, 2)
    assert mask.cells.all()


def test_rasterize_polygon_full_extent():
    poly = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    mask = rasterize(poly, 4)
    assert mask.cells.all()


def test_rasterize_l_shape_area_ratio():
    # L = 3 quadrants of the unit square: area ratio 0.75
    poly = Polygon([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]])
    mask = rasterize(poly, 20)
    ratio = mask.cells.sum() / mask.side**2
    assert ratio == pytest.approx(0.75, abs=0.75 * 0.05)


def test_rasterize_pads_extent_to_square():
    pts = PointCloud(np.column_stack([np.linspace(0, 4, 50), np.linspace(0, 1, 50)]))
    mask = rasterize(pts, 10)
    assert mask.width == pytest.approx(4.0)
    assert mask.origin[1] == pytest.approx(0.5 - 2.0)


def test_rasterize_rejects_3d_clouds():
    with pytest.raises(ValueError):
        rasterize(PointCloud(RNG.random((10, 3))), 8)


def test_convexity_measure_full_square():
    mask = BinaryMask(np.ones((8, 8), dtype=bool), (0, 0), 1.0)
    assert convexity_measure(mask) == pytest.approx(1.0)


def test_convexity_measure_l_shape():
    # L = 3 quadrants of the unit square. Its hull is the pentagon obtained
    # by cutting the notch corner, area 7/8, so the analytic measure is
    # (3/4) / (7/8) = 6/7. The cell-center hull shrinks the denominator a
    # little, biasing the raster estimate upward.
    poly = Polygon([[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]])
    mask = rasterize(poly, 40)
    assert convexity_measure(mask) == pytest.approx(6.0 / 7.0, abs=0.06)


def test_convexity_measure_convex_rasterization_tolerance():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        hull = convex_hull(rng.random((10, 2)))
        mask = rasterize(hull, 40)
        assert convexity_measure(mask) >= 0.97


def test_convexity_measure_equals_hull_of_every_center():
    # the measure takes the hull of each row's end centers; the hull of all
    # occupied centers gives the same float, also on masks with ragged rows
    masks = list(gen_polygon_masks(60, 30, 811).items)
    rng = np.random.default_rng(7)
    masks += [BinaryMask(rng.random((9, 9)) < 0.4, (0.3, -1.7), 2.9) for _ in range(40)]
    for mask in masks:
        centers = mask.occupied_centers()
        expected = min(1.0, len(centers) * mask.cell_size**2 / polygon_area(convex_hull(centers)))
        assert convexity_measure(mask) == expected


def test_convexity_measure_degenerate_mask():
    cells = np.zeros((4, 4), dtype=bool)
    cells[:, 1] = True  # a single column: collinear centers
    with pytest.raises(ValueError):
        convexity_measure(BinaryMask(cells, (0, 0), 1.0))


def test_fill_sampling_gaps_closes_isolated_hole():
    cells = np.ones((6, 6), dtype=bool)
    cells[3, 3] = False
    filled = fill_sampling_gaps(BinaryMask(cells, (0, 0), 1.0))
    assert filled.cells.all()


def test_fill_sampling_gaps_keeps_wide_dents():
    cells = np.ones((8, 8), dtype=bool)
    cells[3:5, 4:] = False  # 2-wide groove from the top edge
    filled = fill_sampling_gaps(BinaryMask(cells, (0, 0), 1.0))
    assert not filled.cells[3:5, 5:].any()
