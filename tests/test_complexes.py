import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdalab.complexes as complexes
from tdalab.complexes import (
    FilteredComplex,
    FilteredCubicalGrid,
    absolute_height_filtration,
    cubical_complex,
    height_filtration,
    rips_complex,
    rips_complexes,
    tubular_filtration,
    weighted_rips_complex,
    weighted_rips_complexes,
    _build_flag,
)
from tdalab.geometry import BinaryMask, Line, PointCloud, dtm, euclidean_distance_matrix
from tdalab.persistence import _oracle_cells, compute_ph

RNG = np.random.default_rng(11)


def _dm(points):
    return euclidean_distance_matrix(PointCloud(points))


def _assert_filtration(cx):
    """Edges in (value, vertex tuple) order, each no earlier than its vertices."""
    below = np.maximum(cx.vertex_values[cx.edges[:, 0]], cx.vertex_values[cx.edges[:, 1]])
    assert np.all(cx.edge_values >= below)
    edges = [(v, *map(int, e)) for e, v in zip(cx.edges, cx.edge_values)]
    assert edges == sorted(edges) and all(i < j for _, i, j in edges)


def _triangles(cx):
    """(vertex tuple, value) of the triangles the oracle enumerates."""
    return [(key, value) for key, dim, value, _ in _oracle_cells(cx) if dim == 2]


# ---------------------------------------------------------------------------
# Vietoris-Rips
# ---------------------------------------------------------------------------


def test_rips_two_points():
    cx = rips_complex(_dm([[0, 0], [0, 3]]))
    assert np.allclose(cx.vertex_values, [0, 0])
    assert cx.edges.tolist() == [[0, 1]]
    assert cx.edge_values[0] == pytest.approx(3.0)
    assert cx.n_simplices == 3


def test_rips_unit_square_triangle_values():
    cx = rips_complex(_dm([[0, 0], [1, 0], [1, 1], [0, 1]]))
    # every triangle contains a diagonal, so all 4 triangle values are sqrt(2)
    assert cx.n_simplices == 4 + 6 + 4
    triangles = _triangles(cx)
    assert len(triangles) == 4
    assert np.allclose([value for _, value in triangles], math.sqrt(2))
    # edge values: 4 sides at 1, 2 diagonals at sqrt(2)
    assert sorted(np.round(cx.edge_values, 12).tolist()) == pytest.approx(
        [1, 1, 1, 1, math.sqrt(2), math.sqrt(2)]
    )


def test_rips_full_simplex_counts():
    n = 10
    cx = rips_complex(_dm(RNG.random((n, 2))))
    assert len(cx.edges) == math.comb(n, 2)
    assert cx.n_simplices == n + math.comb(n, 2) + math.comb(n, 3)
    assert len(_triangles(cx)) == math.comb(n, 3)
    _assert_filtration(cx)


def test_rips_r_max_truncates():
    pts = [[0, 0], [1, 0], [0.5, 5.0]]
    cx = rips_complex(_dm(pts), r_max=2.0)
    assert len(cx.edges) == 1
    assert cx.n_simplices == 4


def test_rips_monotonicity_random():
    cx = rips_complex(_dm(RNG.random((12, 3))))
    _assert_filtration(cx)
    lookup = {tuple(e): v for e, v in zip(map(tuple, cx.edges), cx.edge_values)}
    triangles = _triangles(cx)
    assert len(triangles) == math.comb(12, 3)
    for (a, b, c), v in triangles:
        assert v == max(lookup[(a, b)], lookup[(a, c)], lookup[(b, c)])


def test_rips_guard_and_force():
    pts = RNG.random((401, 2))
    dm = _dm(pts)
    with pytest.raises(ValueError):
        rips_complex(dm, max_dim=2)
    # edges-only and forced builds are allowed
    rips_complex(dm, max_dim=1)


def test_rips_ordering_sorted():
    cx = rips_complex(_dm(RNG.random((8, 2))))
    assert np.all(np.diff(cx.edge_values) >= 0)


# ---------------------------------------------------------------------------
# weighted Rips
# ---------------------------------------------------------------------------


def test_weighted_rips_zero_weights_halves_distances():
    pts = RNG.random((6, 2))
    dm = _dm(pts)
    cx = weighted_rips_complex(dm, np.zeros(6))
    plain = rips_complex(dm)
    assert np.allclose(np.sort(cx.edge_values), np.sort(plain.edge_values / 2.0))


def test_weighted_rips_swallowed_vertex():
    # d(u, v) = 3 <= |0 - 5|: the edge appears when the later vertex does
    dm = _dm([[0, 0], [3, 0]])
    cx = weighted_rips_complex(dm, [0.0, 5.0])
    assert cx.edge_values[0] == pytest.approx(5.0)


def test_weighted_rips_meeting_balls():
    dm = _dm([[0, 0], [4, 0]])
    cx = weighted_rips_complex(dm, [1.0, 2.0])
    assert cx.edge_values[0] == pytest.approx((1.0 + 2.0 + 4.0) / 2.0)


def test_weighted_rips_edges_dominate_vertices():
    f = RNG.random(10)
    cx = weighted_rips_complex(_dm(RNG.random((10, 2))), f)
    below = np.maximum(f[cx.edges[:, 0]], f[cx.edges[:, 1]])
    assert np.all(cx.edge_values >= below - 1e-15)
    _assert_filtration(cx)


def test_weighted_rips_constant_weights_shift():
    pts = RNG.random((7, 2))
    dm = _dm(pts)
    c = 0.8
    cx = weighted_rips_complex(dm, np.full(7, c))
    # |f(u)-f(v)| = 0, so every edge value is (2c + d)/2 = c + d/2
    plain = rips_complex(dm)
    assert np.allclose(np.sort(cx.edge_values), np.sort(plain.edge_values / 2.0 + c))


def test_weighted_rips_length_mismatch():
    with pytest.raises(ValueError):
        weighted_rips_complex(_dm(RNG.random((5, 2))), np.zeros(4))


# ---------------------------------------------------------------------------
# cubical grids
# ---------------------------------------------------------------------------


def _mask(cells, width=None):
    cells = np.asarray(cells, dtype=bool)
    return BinaryMask(cells, (0.0, 0.0), float(width or cells.shape[0]))


def test_cubical_tubular_orders_rows():
    mask = _mask(np.ones((2, 2)))
    grid = cubical_complex(mask, tubular_filtration(Line((0.0, 0.0), (1.0, 0.0))))
    # bottom row (iy = 0) closer to the line than the top row
    assert np.all(grid.top_values[:, 0] < grid.top_values[:, 1])


def test_cubical_single_cell_t_construction():
    cells = np.zeros((3, 3), dtype=bool)
    cells[1, 1] = True
    grid = cubical_complex(_mask(cells), tubular_filtration(Line((0.0, 0.0), (1.0, 0.0))))
    v = grid.top_values[1, 1]
    assert np.isfinite(v)
    assert np.isinf(grid.top_values[0, 0])
    # the four corner vertices inherit exactly v
    vv = grid.vertex_values()
    assert np.count_nonzero(np.isfinite(vv)) == 4
    assert np.allclose(vv[np.isfinite(vv)], v)
    # one class; with zero-length pairs kept, three corners merge into it
    # and the square fills the cycle its four edges close, all at v
    assert compute_ph(grid, 1).multiset() == ((0.0, v, math.inf),)
    assert compute_ph(grid, 1, drop_zero=False).multiset() == (
        (0.0, v, v), (0.0, v, v), (0.0, v, v), (0.0, v, math.inf), (1.0, v, v)
    )


def test_cubical_lower_cells_are_min_of_tops():
    vals = RNG.random((5, 5))
    vals[RNG.random((5, 5)) < 0.3] = np.inf
    if not np.isfinite(vals).any():
        vals[0, 0] = 0.5
    grid = FilteredCubicalGrid(vals)
    vv = grid.vertex_values()
    for i in range(6):
        for j in range(6):
            incident = [
                vals[a, b]
                for a, b in ((i - 1, j - 1), (i, j - 1), (i - 1, j), (i, j))
                if 0 <= a < 5 and 0 <= b < 5
            ]
            assert vv[i, j] == min(incident) if incident else np.isinf(vv[i, j])


def test_cubical_diagonal_cells_share_vertex():
    cells = np.zeros((2, 2), dtype=bool)
    cells[0, 0] = cells[1, 1] = True
    grid = cubical_complex(_mask(cells), height_filtration((1.0, 0.0)))
    vv = grid.vertex_values()
    # the shared center vertex carries the min of the two diagonal cells
    assert vv[1, 1] == min(grid.top_values[0, 0], grid.top_values[1, 1])


def test_height_and_absolute_height_filtrations():
    mask = _mask(np.ones((2, 2)))
    up = cubical_complex(mask, height_filtration((0.0, 1.0)))
    assert np.all(up.top_values[:, 0] < up.top_values[:, 1])
    absf = cubical_complex(mask, absolute_height_filtration((0.0, 1.0)))
    assert np.all(absf.top_values >= 0)


def test_cubical_rejects_unit_direction_violation():
    for v in ((1.0, 1.0), (math.nan, 0.0), (math.nan, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite unit vector"):
            height_filtration(v)
        with pytest.raises(ValueError, match="finite unit vector"):
            absolute_height_filtration(v)


def test_filtered_complex_validate_catches_bad_edge():
    # an edge below an endpoint would kill that vertex's class before its
    # birth; the constructor rejects it and names the edge
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is valued below a vertex"):
        FilteredComplex(np.array([0.0, 1.0]), np.array([[0, 1]]), np.array([0.5]))  # below 1.0


@pytest.mark.parametrize(
    "edge, message",
    [([0, -1], r"edge \(0, -1\) has a vertex outside 0..2"), ([3, 0], r"edge \(3, 0\) has a vertex outside 0..2")],
    ids=["negative", "too-large"],
)
def test_filtered_complex_rejects_vertex_out_of_range(edge, message):
    with pytest.raises(ValueError, match=message):
        FilteredComplex(np.zeros(3), [[0, 1], edge], np.ones(2))


def test_filtered_complex_rejects_self_loop():
    with pytest.raises(ValueError, match=r"edge \(1, 1\) repeats a vertex"):
        FilteredComplex(np.zeros(3), [[0, 1], [1, 1]], np.ones(2))


@pytest.mark.parametrize("r_max", [None, 0.3, 0.6, 2.0])
def test_n_simplices_counts_flag_triangles(r_max):
    # the count from the adjacency matrix against the oracle's enumeration
    dm = _dm(np.random.default_rng(13).random((14, 2)))
    for cx in (rips_complex(dm, r_max=r_max), weighted_rips_complex(dm, np.linspace(0.0, 0.2, 14), r_max=r_max)):
        assert cx.n_simplices == cx.n_vertices + len(cx.edges) + len(_triangles(cx))


def test_rips_rejects_nan_r_max():
    with pytest.raises(ValueError, match="r_max must not be NaN"):
        rips_complex(_dm(RNG.random((5, 2))), r_max=math.nan)


def test_weighted_rips_rejects_nan_r_max():
    with pytest.raises(ValueError, match="r_max must not be NaN"):
        weighted_rips_complex(_dm(RNG.random((5, 2))), np.zeros(5), r_max=math.nan)


def test_filtered_complex_rejects_repeated_edge():
    # (1, 0) copies (0, 1); the copies are not adjacent in value order
    edges = [[0, 1], [1, 2], [0, 2], [1, 0]]
    with pytest.raises(ValueError, match=r"edge \(1, 0\) repeats an edge"):
        FilteredComplex(np.zeros(3), edges, [1.0, 1.0, 1.0, 2.0])


def test_cubical_grid_rejects_minus_inf():
    with pytest.raises(ValueError, match=r"top cell values must be finite or \+inf"):
        FilteredCubicalGrid([[0.0, -np.inf], [1.0, 2.0]])


@pytest.mark.parametrize(
    "build",
    [lambda dm, **kw: rips_complex(dm, **kw), lambda dm, **kw: weighted_rips_complex(dm, np.zeros(dm.n), **kw)],
    ids=["rips", "weighted"],
)
def test_builders_read_max_dim_alike(build):
    dm = _dm(RNG.random((3, 2)))
    assert len(build(dm, max_dim=0).edges) == 0
    assert len(build(dm, max_dim=1).edges) == 3
    for max_dim in (-1, 3, 7):
        with pytest.raises(ValueError, match="max_dim must be 0, 1 or 2"):
            build(dm, max_dim=max_dim)


# ---------------------------------------------------------------------------
# builder output and prefixes against the checked constructor
# ---------------------------------------------------------------------------


def _flag_inputs():
    """Tied lattice points and random points, unweighted and DTM-weighted,
    the weights of the lattice rounded so that they tie too."""
    lattice = np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), -1).reshape(-1, 2)
    for points, tied in ((lattice, True), (np.random.default_rng(21).random((25, 2)), False)):
        dm = _dm(points)
        f = dtm(dm, 0.1)
        yield dm, None
        yield dm, np.round(f * 2) / 2 if tied else f


def _build(dm, weights, r_max=None):
    if weights is None:
        return rips_complex(dm, max_dim=1, r_max=r_max)
    return weighted_rips_complex(dm, weights, max_dim=1, r_max=r_max)


@pytest.mark.parametrize("capped", [False, True], ids=["full", "capped"])
def test_builder_output_equals_checked_constructor(capped):
    # the builders sort their edges by one stable argsort and skip the
    # constructor; handing the constructor the same edges shuffled, with
    # rows reversed, gives the same arrays
    rng = np.random.default_rng(3)
    ties = 0
    for dm, weights in _flag_inputs():
        r_max = float(np.median(_build(dm, weights).edge_values)) if capped else None
        built = _build(dm, weights, r_max)
        order = rng.permutation(len(built.edges))
        checked = FilteredComplex(built.vertex_values, built.edges[order][:, ::-1], built.edge_values[order])
        for name in ("vertex_values", "edges", "edge_values"):
            got, want = getattr(built, name), getattr(checked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        _assert_filtration(built)
        ties += len(built.edge_values) - len(np.unique(built.edge_values))
    assert ties > 100


def test_builder_keeps_the_vertex_check():
    values = np.array([[math.inf, 0.5], [0.5, math.inf]])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is valued below a vertex"):
        _build_flag(np.array([0.0, 1.0]), values, 1.0, 1)


@pytest.mark.parametrize("weighted", [False, True], ids=["rips", "weighted"])
def test_block_builders_equal_one_graph_builds(weighted):
    # one stable sort orders the edges of a whole block of graphs, and one
    # Prim finds their forests: each graph equals the graph built alone, its
    # position table read with every position from its edge count up as
    # absent, and the block's tables are views of one stack
    rng = np.random.default_rng(26)
    lattice = np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), -1).reshape(-1, 2) / 4.0
    clouds = [lattice, rng.random((20, 2)), lattice[rng.permutation(20)], rng.random((20, 2)) * 3.0]
    matrices = [_dm(points) for points in clouds]
    weights = [np.round(dtm(dm, 0.1) * 8) / 8 for dm in matrices]  # tied weights
    for max_dim, r_max in ((1, None), (2, 0.4), (0, None)):
        if weighted:
            block = weighted_rips_complexes(zip(matrices, weights), max_dim, r_max)
            alone = [weighted_rips_complex(dm, f, max_dim, r_max) for dm, f in zip(matrices, weights)]
        else:
            block = rips_complexes(iter(matrices), max_dim, r_max)
            alone = [rips_complex(dm, max_dim, r_max) for dm in matrices]
        for got, want in zip(block, alone, strict=True):
            for name in ("vertex_values", "edges", "edge_values", "elder_pairs"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            m = len(want.edges)
            assert np.array_equal(np.minimum(got.positions, m), np.minimum(want.positions, m))
        assert all(graph.positions.base is block[0].positions.base is not None for graph in block)
    assert rips_complexes([]) == []


def test_block_builders_reject_graphs_of_another_size():
    matrices = [_dm(RNG.random((6, 2))), _dm(RNG.random((7, 2)))]
    with pytest.raises(ValueError, match="must all have 6 vertices, got 7"):
        rips_complexes(matrices)
    with pytest.raises(ValueError, match="must all have 6 vertices, got 7"):
        weighted_rips_complexes((dm, np.zeros(dm.n)) for dm in matrices)


def test_prefix_forest_is_its_own_forest():
    # the prefix inherits the complex's forest cut at its edge count: the
    # same as the forest computed on the prefix alone
    for dm, weights in _flag_inputs():
        graph = _build(dm, weights)
        values = graph.edge_values
        ties = np.flatnonzero(values[1:] == values[:-1])
        caps = [np.nextafter(values[0], -np.inf), values[0], values[len(values) // 3], values[-1], values[-1] + 1.0]
        if len(ties):
            caps.append(values[ties[len(ties) // 2]])
        for cap in caps:
            sub = graph.prefix(float(cap))
            assert np.array_equal(sub.elder_pairs[:, 1], complexes._spanning_forest(sub.positions, len(sub.edges)))
        assert np.array_equal(graph.prefix(float(values[-1])).elder_pairs[:, 1], graph.elder_pairs[:, 1])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    weighted=st.booleans(),
    tied=st.booleans(),
    pick=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_order_equals_the_rebuilt_prefix(n, weighted, tied, pick, seed):
    # a prefix shares its complex's position table and inherits its pairs;
    # read with every position from its edge count up as absent, they are
    # the table and pairs of the same complex built through the constructor
    rng = np.random.default_rng(seed)
    if tied:  # lattice points: many distances tie
        cells = rng.choice(49, n, replace=False)
        points = np.column_stack([cells // 7, cells % 7]).astype(float)
    else:
        points = rng.random((n, 2))
    dm = _dm(points)
    f = dtm(dm, 0.1)
    graph = _build(dm, (np.round(f * 2) / 2 if tied else f) if weighted else None)
    sub = graph.prefix(float(graph.edge_values[int(pick * (len(graph.edges) - 1))]))
    rebuilt = FilteredComplex(sub.vertex_values, sub.edges, sub.edge_values)
    m = len(sub.edges)
    assert sub.positions is graph.positions
    assert rebuilt.positions.dtype == np.int32 and rebuilt.positions.shape == (n, n)
    assert np.array_equal(np.minimum(sub.positions, m), rebuilt.positions)
    assert np.array_equal(sub.elder_pairs, rebuilt.elder_pairs)
