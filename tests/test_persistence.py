import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

import tdalab.complexes as complexes
import tdalab.persistence as persistence
from tdalab.complexes import (
    FilteredComplex,
    FilteredCubicalGrid,
    cubical_complex,
    height_filtration,
    rips_complex,
    tubular_filtration,
    weighted_rips_complex,
)
from tdalab.datagen import gen_convexity_dataset, gen_polygon_masks, gen_random_concave_polygon
from tdalab.geometry import BinaryMask, PointCloud, dtm, euclidean_distance_matrix, fill_sampling_gaps, rasterize
from tdalab.pipelines import default_lines
from tdalab.persistence import (
    PersistenceDiagram,
    compute_ph,
    compute_ph0_unionfind,
    naive_reduction_oracle,
    sublevel_ph0_stack,
)

Array = np.ndarray

RNG = np.random.default_rng(99)


def _dm(points):
    return euclidean_distance_matrix(PointCloud(points))


def _random_weighted_complex(rng, max_points=12):
    n = int(rng.integers(3, max_points + 1))
    pts = rng.random((n, 2))
    f = rng.random(n)
    return weighted_rips_complex(_dm(pts), f)


def _explicit_cells(cx):
    """Per-dimension sorted values and boundary rows of a flag complex with
    its triangles listed here: every vertex triple whose three edges are
    present, valued at the largest of them, in (value, i, j, k) order."""
    n = cx.n_vertices
    a, b = cx.edges.T
    e_index = np.full((n, n), -1)
    e_index[a, b] = e_index[b, a] = np.arange(len(a))
    common = (e_index[a] >= 0) & (e_index[b] >= 0) & (np.arange(n) > b[:, None])
    at, c = np.nonzero(common)
    a, b = a[at], b[at]
    facets = np.column_stack([e_index[a, b], e_index[a, c], e_index[b, c]])
    tri_values = cx.edge_values[facets].max(axis=1)
    order = np.lexsort((c, b, a, tri_values))
    v_order = np.lexsort((np.arange(n), cx.vertex_values))
    v_row = np.empty(n, dtype=np.int64)
    v_row[v_order] = np.arange(n)
    values = [cx.vertex_values[v_order], cx.edge_values, tri_values[order]]
    return values, [None, v_row[cx.edges], facets[order]]


class _BoundaryCofacets:
    """Cofacets of edges read off the boundary rows of 2-cells (squares).

    A cofacet's key is its position in the filtration order of the 2-cells,
    so keys sort in filtration order.
    """

    def __init__(self, facets: Array, values: Array, n_edges: int):
        flat_e = facets.ravel()
        flat_p = np.repeat(np.arange(len(facets)), facets.shape[1])
        order = np.lexsort((flat_p, flat_e))
        self._keys = flat_p[order]
        self._starts = np.searchsorted(flat_e[order], np.arange(n_edges + 1))
        self._latest_facet = facets.max(axis=1)
        self._values = values

    def cofacets(self, e: int) -> Array:
        return self._keys[self._starts[e] : self._starts[e + 1]]

    def earliest(self, edges: Array) -> tuple:
        """(key of each edge's earliest cofacet, mask of apparent pairs)."""
        starts = self._starts[edges]
        has = self._starts[edges + 1] > starts
        keys = self._keys[np.minimum(starts, len(self._keys) - 1)]
        return keys, has & (self._latest_facet[keys] == edges)

    def values(self, keys: Array) -> Array:
        return self._values[keys]


def _reduce_cells(values, boundaries, drop_zero=True):
    """The engine on listed 2-cells: cofacets read off their boundary rows
    by ``_BoundaryCofacets``, not enumerated from the edges, and degree-0
    pairs from the plain edge loop, not from the spanning forest."""
    cof = None
    if len(values[2]):
        cof = _BoundaryCofacets(boundaries[2], values[2], len(values[1]))
    pairs0, _ = _edge_loop_union_find(len(values[0]), boundaries[1])
    return persistence._ph(values[0], values[1], pairs0, cof, 1, drop_zero)


def _random_grid(rng, max_side=8):
    side = int(rng.integers(2, max_side + 1))
    vals = rng.random((side, side))
    vals[rng.random((side, side)) < 0.35] = np.inf
    if not np.isfinite(vals).any():
        vals[0, 0] = 0.5
    return FilteredCubicalGrid(vals)


# ---------------------------------------------------------------------------
# basic diagrams
# ---------------------------------------------------------------------------


def test_single_vertex():
    pd = compute_ph(rips_complex(_dm([[0.0, 0.0]])))
    assert pd.multiset() == ((0.0, 0.0, math.inf),)


def test_two_points_one_merge():
    pd = compute_ph(rips_complex(_dm([[0, 0], [2, 0]])))
    assert pd.multiset() == ((0.0, 0.0, 2.0), (0.0, 0.0, math.inf))


def test_unit_square_dim1():
    pd = compute_ph(rips_complex(_dm([[0, 0], [1, 0], [1, 1], [0, 1]])))
    d1 = pd.in_dim(1)
    assert d1.shape == (1, 2)
    assert d1[0, 0] == pytest.approx(1.0)
    assert d1[0, 1] == pytest.approx(math.sqrt(2))
    # cross-check against the naive oracle
    oracle = naive_reduction_oracle(rips_complex(_dm([[0, 0], [1, 0], [1, 1], [0, 1]])))
    assert pd.multiset() == oracle.multiset()


def test_chain_of_three_union_find():
    pd = compute_ph0_unionfind(rips_complex(_dm([[0, 0], [1, 0], [3, 0]]), max_dim=1))
    assert pd.multiset() == ((0.0, 0.0, 1.0), (0.0, 0.0, 2.0), (0.0, 0.0, math.inf))


def test_isolated_vertices_oracle():
    cx = rips_complex(_dm(RNG.random((5, 2))), r_max=1e-9)
    pd = naive_reduction_oracle(cx)
    assert len(pd.in_dim(0)) == 5
    assert np.all(np.isinf(pd.in_dim(0)[:, 1]))


def test_diagram_requires_death_after_birth():
    with pytest.raises(ValueError):
        PersistenceDiagram(np.array([[0.0, 2.0, 1.0]]))


@pytest.mark.parametrize("row", [[0.0, math.nan, 1.0], [1.0, 0.5, math.nan], [math.nan, 0.0, 1.0]])
def test_diagram_rejects_nan(row):
    with pytest.raises(ValueError, match="nan"):
        PersistenceDiagram(np.array([row]))


def test_connected_complex_one_essential_component():
    for _ in range(5):
        cx = rips_complex(_dm(RNG.random((8, 2))))
        pd = compute_ph(cx)
        d0 = pd.in_dim(0)
        assert np.sum(np.isinf(d0[:, 1])) == 1


# ---------------------------------------------------------------------------
# oracle equality (the dual-route check)
# ---------------------------------------------------------------------------


def test_oracle_equality_weighted_rips():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        cx = _random_weighted_complex(rng)
        fast = compute_ph(cx, 1)
        slow = naive_reduction_oracle(cx, 1)
        uf = compute_ph0_unionfind(cx)
        assert fast.multiset() == slow.multiset()
        d0 = tuple(row for row in fast.multiset() if row[0] == 0)
        assert d0 == uf.multiset()


def test_oracle_equality_cubical():
    rng = np.random.default_rng(4321)
    for _ in range(15):
        grid = _random_grid(rng)
        fast = compute_ph(grid, 1)
        slow = naive_reduction_oracle(grid, 1)
        uf = compute_ph0_unionfind(grid)
        assert fast.multiset() == slow.multiset()
        d0 = tuple(row for row in fast.multiset() if row[0] == 0)
        assert d0 == uf.multiset()


def test_oracle_size_guard():
    cx = rips_complex(_dm(RNG.random((25, 2))))  # 25 + 300 + 2300 simplices
    with pytest.raises(ValueError):
        naive_reduction_oracle(cx)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_tie_permutation_invariance():
    # permuting equal-value cells in the reduction order must not change the
    # interval multiset; grid points produce plenty of exact ties
    pts = np.stack(np.meshgrid(np.arange(3.0), np.arange(3.0)), -1).reshape(-1, 2)
    cx = rips_complex(_dm(pts))
    values, boundaries = _explicit_cells(cx)
    base = _reduce_cells(values, boundaries).multiset()
    assert base == compute_ph(cx).multiset()
    rng = np.random.default_rng(0)
    for _ in range(6):
        perm_values = [v.copy() for v in values]
        perm_boundaries = [None if b is None else b.copy() for b in boundaries]
        for d in (1, 2):
            v = perm_values[d]
            order = np.arange(len(v))
            # shuffle within blocks of equal value
            for val in np.unique(v):
                block = np.nonzero(v == val)[0]
                order[block] = rng.permutation(block)
            perm_values[d] = v[order]
            perm_boundaries[d] = perm_boundaries[d][order]
            if d == 1:
                # renumber edge rows inside triangle boundaries
                inverse = np.empty(len(order), dtype=np.int64)
                inverse[order] = np.arange(len(order))
                perm_boundaries[2] = inverse[boundaries[2]]
        got = _reduce_cells(perm_values, perm_boundaries).multiset()
        assert got == base


def test_euler_consistency_full_filtration():
    # chi = V - E + T must equal b0 - b1 + b2 at the end of a full
    # filtration, with b2 = #triangles - #degree-1 deaths (nothing kills a
    # 2-cycle in a complex capped at dimension 2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        cx = rips_complex(_dm(rng.random((n, 2))))
        pd = compute_ph(cx, 1, drop_zero=False)
        d0, d1 = pd.in_dim(0), pd.in_dim(1)
        b0 = int(np.sum(np.isinf(d0[:, 1])))
        b1 = int(np.sum(np.isinf(d1[:, 1])))
        deaths1 = int(np.sum(np.isfinite(d1[:, 1])))
        triangles = len(_explicit_cells(cx)[0][2])
        b2 = triangles - deaths1
        chi = cx.n_vertices - len(cx.edges) + triangles
        assert b0 - b1 + b2 == chi


def test_euler_consistency_at_intermediate_scales():
    rng = np.random.default_rng(77)
    n = 8
    pts = rng.random((n, 2))
    full = rips_complex(_dm(pts))
    pd = compute_ph(full, 1, drop_zero=False)
    tri_values = _explicit_cells(full)[0][2]
    for r in np.quantile(full.edge_values, [0.3, 0.6, 0.9]):
        v = n
        e = int(np.sum(full.edge_values <= r))
        t = int(np.sum(tri_values <= r))
        d0, d1 = pd.in_dim(0), pd.in_dim(1)
        alive0 = int(np.sum((d0[:, 0] <= r) & (d0[:, 1] > r)))
        alive1 = int(np.sum((d1[:, 0] <= r) & (d1[:, 1] > r)))
        killed1 = int(np.sum(np.isfinite(d1[:, 1]) & (d1[:, 1] <= r)))
        b2 = t - killed1
        assert alive0 - alive1 + b2 == v - e + t


def test_zero_persistence_dropped_by_default():
    pts = np.stack(np.meshgrid(np.arange(3.0), np.arange(3.0)), -1).reshape(-1, 2)
    cx = rips_complex(_dm(pts))
    pd = compute_ph(cx, 1)
    assert np.all(pd.intervals[:, 2] != pd.intervals[:, 1])
    raw = compute_ph(cx, 1, drop_zero=False)
    assert len(raw) >= len(pd)


def test_unionfind_matches_reduction_on_mask_components():
    cells = np.zeros((6, 6))
    cells[:] = np.inf
    cells[0:2, 0:2] = 1.0
    cells[4:6, 4:6] = 2.0  # second component, never merged
    grid = FilteredCubicalGrid(cells)
    pd = compute_ph0_unionfind(grid)
    d0 = pd.in_dim(0)
    assert len(d0) == 2
    assert np.all(np.isinf(d0[:, 1]))


# ---------------------------------------------------------------------------
# cubical grids: the level sweeps against the flag engine
# ---------------------------------------------------------------------------


def _pixel_flag_complex(grid):
    """Flag complex of a grid's finite pixels: a vertex per pixel at its
    value, an edge per 8-adjacent pair at the larger of the two. Pixels that
    are pairwise 8-adjacent share a corner, so by the persistent nerve lemma
    its diagram is the grid's."""
    top = grid.top_values
    i, j = np.nonzero(np.isfinite(top))
    near = (np.abs(i[:, None] - i) <= 1) & (np.abs(j[:, None] - j) <= 1)
    a, b = np.nonzero(np.triu(near, 1))
    values = top[i, j]
    return FilteredComplex(values, np.column_stack([a, b]), np.maximum(values[a], values[b]))


def _cell_counts(grid):
    """Finite corner vertices, edges and squares of a grid: a cell is finite
    when one of its incident pixels is."""
    f = np.pad(np.isfinite(grid.top_values), 1)
    vertices = f[:-1, :-1] | f[1:, :-1] | f[:-1, 1:] | f[1:, 1:]
    edges = int(np.sum(f[1:-1, :-1] | f[1:-1, 1:])) + int(np.sum(f[:-1, 1:-1] | f[1:, 1:-1]))
    return int(vertices.sum()), edges, int(f.sum())


def _tubular_grids(mask):
    cell = mask.cell_size
    for line in default_lines(mask).lines:
        fn = tubular_filtration(line)
        yield cubical_complex(mask, lambda c, fn=fn: np.round(fn(c) / cell, 9))


def _tied_grids(rng, count):
    """Random grids with values on a 0.5 step and about a third +inf."""
    for _ in range(count):
        side = int(rng.integers(1, 13))
        vals = np.round(rng.uniform(0.0, 5.0, (side, side)) * 2.0) / 2.0
        vals[rng.random((side, side)) < 0.3] = np.inf
        if not np.isfinite(vals).any():
            vals[0, 0] = 1.0
        yield FilteredCubicalGrid(vals)


def _assert_sweep_equals_union_find(grid):
    # the grid's sweeps against the flag engine on its pixel flag complex:
    # the union-find over the spanning forest for degree 0, the coboundary
    # reduction for degree 1
    pd = compute_ph(grid, 1)
    flag = compute_ph(_pixel_flag_complex(grid), 1).multiset()
    assert pd.multiset() == flag
    assert compute_ph(grid, 0).multiset() == tuple(r for r in flag if r[0] == 0)
    # every vertex starts a class; every edge kills a degree-0 class or
    # starts a degree-1 one; every square kills a degree-1 class
    raw = compute_ph(grid, 1, drop_zero=False)
    v, e, s = _cell_counts(grid)
    assert len(raw.in_dim(0)) == v
    assert len(raw.finite_in_dim(0)) + len(raw.in_dim(1)) == e
    assert len(raw.finite_in_dim(1)) == s
    assert len(pd) <= len(raw)
    assert compute_ph(grid, 0, drop_zero=False).multiset() == tuple(r for r in raw.multiset() if r[0] == 0)


def test_sweep_equals_union_find_on_tubular_grids():
    for mask in gen_polygon_masks(60, 30, 601).items:
        for grid in _tubular_grids(mask):
            _assert_sweep_equals_union_find(grid)


def test_sweep_equals_union_find_on_cloud_rasters():
    for kind in ("regular", "random"):
        ds = gen_convexity_dataset(kind, seed=601, points_per_cloud=1000, clouds_per_shape=1, polygons_per_class=4)
        for cloud in ds.items:
            for grid in _tubular_grids(fill_sampling_gaps(rasterize(cloud, 20), 5)):
                _assert_sweep_equals_union_find(grid)


def test_sweep_equals_union_find_on_tied_grids():
    for grid in _tied_grids(np.random.default_rng(602), 240):
        _assert_sweep_equals_union_find(grid)


def test_sweep_in_blocks_equals_one_stack(monkeypatch):
    rng = np.random.default_rng(603)
    grids = list(_tied_grids(rng, 40)) + list(_tubular_grids(rasterize(gen_random_concave_polygon(3), 30)))
    whole = [compute_ph(g, 0, drop_zero=False).multiset() for g in grids]
    for cells in (1, 30, 500):
        monkeypatch.setattr(persistence, "_SWEEP_CELLS", cells)
        assert [compute_ph(g, 0, drop_zero=False).multiset() for g in grids] == whole


@pytest.mark.parametrize(
    "top, expected",
    [
        ([[2.5]], [(0.0, 2.5, math.inf)]),  # a 1x1 grid
        ([[np.inf, np.inf], [np.inf, 1.0]], [(0.0, 1.0, math.inf)]),  # one finite cell
        ([[3.0, 3.0], [3.0, np.inf]], [(0.0, 3.0, math.inf)]),  # one level: no parents
        ([[1.0, np.inf, 2.0], [np.inf, np.inf, np.inf], [2.0, np.inf, 0.5]],  # four islands
         [(0.0, 0.5, math.inf), (0.0, 1.0, math.inf), (0.0, 2.0, math.inf), (0.0, 2.0, math.inf)]),
        ([[1.0, 4.0, 2.0], [np.inf] * 3, [np.inf] * 3], [(0.0, 1.0, math.inf), (0.0, 2.0, 4.0)]),  # the elder lives on
        ([[2.0, 4.0, 1.0], [np.inf] * 3, [np.inf] * 3], [(0.0, 1.0, math.inf), (0.0, 2.0, 4.0)]),
        ([[1.0, 3.0], [3.0, 1.0]], [(0.0, 1.0, math.inf)]),  # diagonal cells touch at a corner
    ],
)
def test_sweep_edge_cases(top, expected):
    grid = FilteredCubicalGrid(np.array(top, dtype=float))
    assert compute_ph(grid, 0).multiset() == tuple(expected)
    _, births, deaths = sublevel_ph0_stack(grid.top_values[None])
    assert PersistenceDiagram(np.column_stack([np.zeros(len(births)), births, deaths])).multiset() == tuple(expected)
    for drop_zero in (True, False):
        oracle = naive_reduction_oracle(grid, 0, drop_zero=drop_zero).multiset()
        assert compute_ph(grid, 0, drop_zero=drop_zero).multiset() == oracle


@pytest.mark.parametrize(
    "values, message",
    [
        ([[1.0, np.nan], [0.0, 1.0]], "values must not contain nan"),
        ([[1.0, -np.inf], [0.0, 1.0]], "finite or \\+inf cells"),
        ([[np.inf, np.inf], [np.inf, np.inf]], "grid 0 has no finite cell"),
        ([1.0, 2.0], "values must have shape \\(g, h, w\\)"),
    ],
    ids=["nan", "-inf", "no-finite-cell", "1-d"],
)
def test_sweep_rejects_bad_values(values, message):
    # a stack of the one grid
    with pytest.raises(ValueError, match=message):
        sublevel_ph0_stack(np.array(values)[None])


def _tied_stacks(rng, count):
    """Random (g, side, side) stacks of 1 to 6 grids, sides 1 to 8, values
    on a 0.5 step. Each grid has its own box of cells that may be finite,
    with about a third of them +inf, and +inf outside it."""
    for _ in range(count):
        g, side = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        stack = np.full((g, side, side), np.inf)
        for grid in stack:
            r0, r1 = np.sort(rng.choice(side + 1, 2, replace=False))
            c0, c1 = np.sort(rng.choice(side + 1, 2, replace=False))
            box = np.round(rng.uniform(0.0, 5.0, (r1 - r0, c1 - c0)) * 2.0) / 2.0
            box[rng.random(box.shape) < 0.3] = np.inf
            box[rng.integers(r1 - r0), rng.integers(c1 - c0)] = 2.5
            grid[r0:r1, c0:c1] = box
        yield stack


def _classes(births, deaths):
    return sorted(zip(births.tolist(), deaths.tolist()))


def test_stacked_sweep_equals_each_grid_alone(monkeypatch):
    stacks = list(_tied_stacks(np.random.default_rng(604), 150))
    assert any(stack.shape[1] == 1 for stack in stacks)
    expected = []
    for stack in stacks:
        per_grid = []
        for values in stack:
            classes = _classes(*sublevel_ph0_stack(values[None])[1:])
            grid = FilteredCubicalGrid(values)
            assert classes == sorted(map(tuple, compute_ph(grid, 1).in_dim(0).tolist()))
            if len(values) <= 5:
                assert classes == sorted(map(tuple, naive_reduction_oracle(grid, 0).in_dim(0).tolist()))
            per_grid.append(classes)
        expected.append(per_grid)
    # 1 cell: two planes per block, so block edges fall on every grid boundary
    for cells in (None, 1, 30, 500):
        if cells is not None:
            monkeypatch.setattr(persistence, "_SWEEP_CELLS", cells)
        for stack, per_grid in zip(stacks, expected):
            grid, births, deaths = sublevel_ph0_stack(stack)
            assert len(grid) == sum(map(len, per_grid))
            assert [_classes(births[grid == k], deaths[grid == k]) for k in range(len(stack))] == per_grid


@pytest.mark.parametrize(
    "values, message",
    [
        (np.ones((3, 3)), "values must have shape \\(g, h, w\\)"),
        (np.ones((1, 2, 2, 2)), "values must have shape \\(g, h, w\\)"),
        (np.ones((0, 2, 2)), "at least one grid"),
        (np.array([[[1.0, np.nan]]]), "values must not contain nan"),
        (np.array([[[1.0, -np.inf]]]), "finite or \\+inf cells"),
        (np.array([[[1.0, 2.0]], [[1.0, np.inf]], [[np.inf, np.inf]]]), "grid 2 has no finite cell"),
    ],
    ids=["2-d", "4-d", "no-grid", "nan", "-inf", "grid-2-empty"],
)
def test_stacked_sweep_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        sublevel_ph0_stack(values)


def test_sweep_on_disconnected_mask():
    cells = np.zeros((12, 12), dtype=bool)
    cells[1:4, 1:5] = True
    cells[7:11, 6:10] = True
    cells[0, 11] = True
    grids = list(_tubular_grids(BinaryMask(cells, (0.0, 0.0), 12.0)))
    for grid in grids:
        _assert_sweep_equals_union_find(grid)
        assert int(np.isinf(compute_ph(grid, 0).in_dim(0)[:, 1]).sum()) == 3


# ---------------------------------------------------------------------------
# grid degree 1 by duality
# ---------------------------------------------------------------------------


def _nerve_grids():
    """Tied random grids of sides 1 to 15 with up to half their cells +inf,
    then the tubular and height grids of ten polygon masks."""
    rng = np.random.default_rng(611)
    for _ in range(110):
        side = int(rng.integers(1, 16))
        vals = np.round(rng.uniform(0.0, 5.0, (side, side)) * 2.0) / 2.0
        vals[rng.random((side, side)) < rng.uniform(0.0, 0.5)] = np.inf
        if not np.isfinite(vals).any():
            vals[0, 0] = 1.0
        yield FilteredCubicalGrid(vals)
    for mask in gen_polygon_masks(10, 30, 611).items:
        yield from _tubular_grids(mask)
        for v in ((0.0, 1.0), (1.0, 0.0), (0.6, 0.8), (-0.8, 0.6)):
            fn = height_filtration(v)
            yield cubical_complex(mask, lambda c, fn=fn: np.round(fn(c) / mask.cell_size, 9))


def test_grid_ph_equals_pixel_flag_complex_and_counts_cells():
    sizes = []
    for grid in _nerve_grids():
        _assert_sweep_equals_union_find(grid)
        sizes.append(int(np.isfinite(grid.top_values).sum()))
    assert max(sizes) > 600  # far beyond the oracle's reach


_I = np.inf
_MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "top, holes",
    [
        ([[2.5]], []),
        ([[1.0, 2.0], [3.0, 4.0]], []),
        # closed pixels touching at corners enclose the +inf center
        ([[_I, 1.0, _I], [2.0, _I, 3.0], [_I, 4.0, _I]], [(4.0, math.inf)]),
        ([[1.0, 1.0, 1.0], [1.0, _I, 1.0], [1.0, _I, 1.0]], []),
        # the hole's one pixel enters at 2, the level that closes it
        ([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 1.0, 1.0]], []),
        # the pixel at 2 splits one hole in two: (2, 4) dies first
        ([[_I] * 5, [1.0] * 5, [1.0, 5.0, 2.0, 4.0, 1.0], [1.0] * 5, [_I] * 5], [(1.0, 5.0), (2.0, 4.0)]),
        # the +inf cell enters the dual at -inf, below every finite cell: a
        # floor of min - 1 would equal -3e20 in floating point, and the
        # float one step below -_MAX is -inf itself
        ([[1e20, 3e20, 1e20], [3e20, _I, 3e20], [1e20, 3e20, 1e20]], [(3e20, math.inf)]),
        ([[-_MAX, _MAX, -_MAX], [_MAX, _I, _MAX], [-_MAX, _MAX, -_MAX]], [(_MAX, math.inf)]),
    ],
    ids=[
        "1x1", "no-hole", "corners-enclose", "open-to-border", "fills-as-it-closes", "two-holes-merge",
        "large-values", "float-range",
    ],
)
def test_grid_dim1_duality_edge_cases(top, holes):
    grid = FilteredCubicalGrid(np.array(top, dtype=float))
    for drop_zero in (True, False):
        oracle = naive_reduction_oracle(grid, 1, drop_zero=drop_zero).multiset()
        assert compute_ph(grid, 1, drop_zero=drop_zero).multiset() == oracle
    assert list(map(tuple, compute_ph(grid, 1).in_dim(1).tolist())) == holes


# ---------------------------------------------------------------------------
# degree-0 and edge-count checks beyond the oracle's size limit
# ---------------------------------------------------------------------------


def _spanning_tree_weights(cx):
    n = cx.n_vertices
    graph = csr_matrix((cx.edge_values, (cx.edges[:, 0], cx.edges[:, 1])), shape=(n, n))
    return np.sort(minimum_spanning_tree(graph).data)


@pytest.mark.parametrize("weighted", [False, True], ids=["rips", "dtm-rips"])
def test_dim0_deaths_are_spanning_tree_weights(weighted):
    # every edge value is positive, so scipy keeps every edge of the graph
    dm = _dm(np.random.default_rng(150).random((150, 2)))
    if weighted:
        cx = weighted_rips_complex(dm, dtm(dm, 0.03), max_dim=1)
    else:
        cx = rips_complex(dm, max_dim=1)
    assert len(cx.edges) == 150 * 149 // 2
    deaths = compute_ph(cx, max_dim=0, drop_zero=False).finite_in_dim(0)[:, 1]
    assert np.array_equal(np.sort(deaths), _spanning_tree_weights(cx))


def test_dim0_classes_are_tubular_components():
    # a class is alive at level t iff it is one 8-connected component of the
    # cells at or below t, and it was born at the component's lowest cell
    # (the elder rule); checked on every tubular line of concave shapes
    for seed in range(3):
        for grid in _tubular_grids(rasterize(gen_random_concave_polygon(seed), 30)):
            top = grid.top_values
            pts = compute_ph(grid, max_dim=0).in_dim(0)
            for t in np.unique(top[np.isfinite(top)]):
                alive = pts[(pts[:, 0] <= t) & (pts[:, 1] > t), 0]
                labels, count = ndimage.label(top <= t, structure=np.ones((3, 3), dtype=bool))
                minima = ndimage.minimum(top, labels, np.arange(1, count + 1))
                assert np.array_equal(np.sort(alive), np.sort(minima))


def test_every_edge_pairs_once_on_large_capped_complex():
    # an edge either kills a degree-0 class or creates a degree-1 class; the
    # cap keeps the circle's class essential, so both kinds of creator count
    rng = np.random.default_rng(61)
    theta = rng.uniform(0.0, 2.0 * math.pi, 100)
    pts = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, 0.03, (100, 2))
    cx = rips_complex(_dm(pts), r_max=1.0)
    assert cx.n_simplices - cx.n_vertices - len(cx.edges) > 10_000
    pd = compute_ph(cx, max_dim=1, drop_zero=False)
    d1 = pd.in_dim(1)
    assert int(np.sum(np.isinf(d1[:, 1]))) == 1
    assert len(pd.finite_in_dim(0)) + len(d1) == len(cx.edges)


def test_dim0_births_are_component_minima():
    # at each level the classes alive are born at the lowest vertex of their
    # component (the elder rule); scipy finds the components independently
    dm = _dm(np.random.default_rng(152).random((150, 2)))
    f = dtm(dm, 0.03)
    graph = weighted_rips_complex(dm, f, max_dim=1)
    pts = compute_ph(graph, max_dim=0).in_dim(0)
    for t in np.quantile(graph.edge_values, np.linspace(0.0, 0.05, 20)):
        alive = pts[(pts[:, 0] <= t) & (pts[:, 1] > t), 0]
        born = np.nonzero(f <= t)[0]
        keep = (graph.edge_values <= t)
        sub = csr_matrix(
            (np.ones(int(keep.sum())), tuple(graph.edges[keep].T)), shape=(150, 150)
        )[born][:, born]
        _, labels = connected_components(sub, directed=False)
        minima = np.full(labels.max() + 1, np.inf)
        np.minimum.at(minima, labels, f[born])
        assert np.array_equal(np.sort(alive), np.sort(minima))


# ---------------------------------------------------------------------------
# the union-find over the minimum spanning forest's edges
# ---------------------------------------------------------------------------


def _edge_loop_union_find(n, edge_rows):
    """Reference: the elder rule over every edge in filtration order, with
    no compression and no early exit. Returns (death pairs, cycle mask)."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    pairs, cycle = [], []
    for j, (a, b) in enumerate(edge_rows.tolist()):
        ra, rb = find(a), find(b)
        cycle.append(ra == rb)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
            pairs.append((max(ra, rb), j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), np.array(cycle, dtype=bool)


def _random_graph(rng, n, density, tied):
    """A flag complex on a random subset of the n-vertex graph's edges; with
    ``tied``, vertex and edge values on a coarse step."""
    f = rng.random(n)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < density
    values = np.maximum(f[iu], f[ju])[keep] + rng.random(int(keep.sum()))
    if tied:
        f, values = np.floor(f * 3) / 3, np.ceil(values * 3) / 3
    return FilteredComplex(f, np.column_stack([iu[keep], ju[keep]]), values)


def _forest_graphs():
    rng = np.random.default_rng(2021)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        yield _random_graph(rng, n, float(rng.choice([0.05, 0.15, 0.5, 1.0])), tied=trial % 2 == 0)
    # disconnected: two Rips complexes side by side, plus isolated vertices
    pts = np.vstack([rng.random((15, 2)), rng.random((12, 2)) + 10.0, [[50.0, 50.0], [-50.0, 0.0]]])
    yield rips_complex(_dm(pts), max_dim=1, r_max=3.0)
    yield FilteredComplex([0.5], np.empty((0, 2)), [])  # a single vertex
    yield FilteredComplex([0.0, 1.0, 1.0, 0.0], np.empty((0, 2)), [])  # no edges


def test_forest_union_find_equals_edge_loop():
    for cx in _forest_graphs():
        n = cx.n_vertices
        rows = np.empty(n, dtype=np.int64)
        rows[np.lexsort((np.arange(n), cx.vertex_values))] = np.arange(n)
        rows = rows[cx.edges]
        forest = complexes._spanning_forest(cx.positions, len(cx.edges))
        pairs = complexes._elder_union_find(n, rows, forest)
        ref_pairs, ref_cycle = _edge_loop_union_find(n, rows)
        assert pairs.dtype == np.int64 and pairs.shape == ref_pairs.shape
        assert np.array_equal(pairs, ref_pairs) and np.array_equal(cx.elder_pairs, ref_pairs)
        assert np.array_equal(forest, np.nonzero(~ref_cycle)[0])
        # scipy agrees on the forest when each edge weighs its position + 1
        graph = csr_matrix((np.arange(1.0, len(rows) + 1), tuple(cx.edges.T)), shape=(n, n))
        assert np.array_equal(np.sort(minimum_spanning_tree(graph).data) - 1, forest)


def test_forest_union_find_keeps_the_diagrams():
    for cx in list(_forest_graphs())[::4]:
        if cx.n_simplices <= persistence.ORACLE_MAX_SIMPLICES:
            for drop_zero in (True, False):
                oracle = naive_reduction_oracle(cx, drop_zero=drop_zero).multiset()
                assert compute_ph(cx, drop_zero=drop_zero).multiset() == oracle


def test_grid_dim1_never_builds_the_dense_forest(monkeypatch):
    # both degrees of a grid come from level sweeps over its cells: a dense
    # forest of a 200-side mask's pixels would take gigabytes
    def dense(*args):
        raise AssertionError("dense spanning forest built")

    monkeypatch.setattr(complexes, "_spanning_forest", dense)
    with pytest.raises(AssertionError, match="dense spanning forest"):
        compute_ph(rips_complex(_dm(RNG.random((5, 2)))), max_dim=0)
    rng = np.random.default_rng(77)
    for _ in range(10):
        grid = _random_grid(rng)
        assert compute_ph(grid, 1).multiset() == naive_reduction_oracle(grid, 1).multiset()
    cells = np.zeros((200, 200), dtype=bool)
    cells[20:180, 30:170] = True
    cells[90:110, 90:110] = False
    for grid in list(_tubular_grids(BinaryMask(cells, (0.0, 0.0), 200.0)))[:1]:
        pd = compute_ph(grid, 1)
        assert int(np.isinf(pd.in_dim(1)[:, 1]).sum()) == 1


@pytest.mark.parametrize("max_dim", [0, 1])
def test_grid_ph_never_runs_the_union_find(monkeypatch, max_dim):
    # the union-find serves flag complexes only; the recorder is live, as
    # the flag complex's one call shows
    calls = []
    real = complexes._elder_union_find
    monkeypatch.setattr(complexes, "_elder_union_find", lambda *args: calls.append(args) or real(*args))
    compute_ph(rips_complex(_dm(RNG.random((5, 2)))), max_dim=max_dim)
    assert len(calls) == 1
    grids = list(_tied_grids(np.random.default_rng(78), 20))
    grids += list(_tubular_grids(rasterize(gen_random_concave_polygon(2), 30)))
    for grid in grids:
        compute_ph(grid, max_dim)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# flag complexes from their 1-skeleton
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# triangle keys from the code tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 10))
def test_code_tables_give_the_sorted_triple(n):
    iu, ju = np.triu_indices(n, 1)
    cof = persistence._FlagCofacets(FilteredComplex(np.zeros(n), np.column_stack([iu, ju]), np.ones(len(iu))))
    for a in range(n):
        for b in range(a + 1, n):
            for k in set(range(n)) - {a, b}:
                lo, mid, hi = sorted((a, b, k))
                assert cof._u[a, k] + cof._v[b, k] == (lo * n + mid) * n + hi


def test_value_ranks_equal_unique_on_ties():
    rng = np.random.default_rng(8)
    for trial in range(20):
        cx = _random_graph(rng, int(rng.integers(2, 30)), 0.5, tied=trial % 2 == 0)
        cof = persistence._FlagCofacets(cx)
        levels, rank = np.unique(cx.edge_values, return_inverse=True)
        assert np.array_equal(cof._levels, levels)
        a, b = cx.edges.T
        assert np.array_equal(cof._rank[a, b], rank) and np.array_equal(cof._rank[b, a], rank)
        key = rank * cx.n_vertices**3
        assert np.array_equal(cof._key[a, b], key) and np.array_equal(cof._key[b, a], key)


def _old_keys(cx, e):
    """Reference keys of edge e's cofacets, one per third vertex k, by the
    packed (rank, lo, mid, hi) formula on np.unique ranks; and the filtration
    position of each cofacet's latest facet."""
    n = cx.n_vertices
    _, rank = np.unique(cx.edge_values, return_inverse=True)
    at = {tuple(edge): i for i, edge in enumerate(cx.edges.tolist())}
    a, b = (int(x) for x in cx.edges[e])
    keys, latest = [], []
    for k in range(n):
        facets = [at.get(tuple(sorted(pair))) for pair in ((a, b), (a, k), (b, k))]
        if k in (a, b) or None in facets:
            continue
        lo, hi = min(a, k), max(b, k)
        top = max(int(rank[f]) for f in facets)
        keys.append(((top * n + lo) * n + (a + b + k - lo - hi)) * n + hi)
        latest.append(max(facets))
    return keys, latest


def test_cofacet_keys_equal_the_packed_formula():
    rng = np.random.default_rng(31)
    for trial in range(24):
        cx = _random_graph(rng, int(rng.integers(3, 25)), float(rng.choice([0.3, 0.7, 1.0])), tied=trial % 2 == 0)
        cof = persistence._FlagCofacets(cx)
        edges = np.arange(len(cx.edges))
        first, apparent = cof.earliest(edges)
        for e in edges.tolist():
            keys, latest = _old_keys(cx, e)
            assert cof.cofacets(e).tolist() == sorted(keys)
            if keys:
                j = int(np.argmin(keys))
                assert first[e] == keys[j] and apparent[e] == (latest[j] == e)
            else:
                assert not apparent[e]


@pytest.mark.parametrize(
    "col, other",
    [
        ([], []),
        ([], [3, 7]),
        ([2, 5, 9], []),
        ([1, 4, 6], [1, 4, 6]),  # identical: the sum is empty
        ([1, 2, 3], [10, 11]),  # disjoint
        ([10, 11], [1, 2, 3]),
        ([0, 2, 4, 6, 8], [1, 2, 5, 6, 9, 12]),  # interleaved, two shared
        ([-(2**62), 0, 2**62], [-(2**62), 5, 2**62 + 1]),
    ],
    ids=["empty", "empty-left", "empty-right", "identical", "disjoint", "disjoint-reversed", "interleaved", "wide-keys"],
)
def test_column_addition_equals_setxor1d(col, other):
    col, other = np.array(col, dtype=np.int64), np.array(other, dtype=np.int64)
    got = persistence._add_columns(col, other)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.setxor1d(col, other, assume_unique=True))


def test_column_addition_equals_setxor1d_on_long_columns():
    rng = np.random.default_rng(23)
    for shared in (0.0, 0.3, 1.0):
        col = np.unique(rng.integers(0, 10**12, 15_000))
        common = rng.choice(col, int(shared * len(col)), replace=False)
        other = np.unique(np.concatenate([common, rng.integers(0, 10**12, 15_000 - len(common))]))
        assert len(col) == 15_000
        want = np.setxor1d(col, other, assume_unique=True)
        assert np.array_equal(persistence._add_columns(col, other), want)
        assert np.array_equal(persistence._add_columns(other, col), want)


def _enumeration_graphs():
    rng = np.random.default_rng(47)
    for trial in range(16):
        n = int(rng.integers(3, 30))
        yield _random_graph(rng, n, float(rng.choice([0.3, 0.7, 1.0])), tied=trial % 2 == 0)


def _rank_table_cofacets(cx):
    """Reference: each edge's cofacet keys and its (earliest key, apparent)
    from an int32 table of np.unique value ranks, absent edges ranked one
    above the top, maxed out of place, and the sorted triples' codes
    computed directly."""
    n = cx.n_vertices
    levels, rank = np.unique(cx.edge_values, return_inverse=True)
    table = np.full((n, n), len(levels), dtype=np.int32)
    pos = np.full((n, n), -1)
    a, b = cx.edges.T
    table[a, b] = table[b, a] = rank
    pos[a, b] = pos[b, a] = np.arange(len(a))
    k = np.arange(n)
    columns, earliest = [], []
    for e, (a, b) in enumerate(cx.edges.tolist()):
        top = np.maximum(np.maximum(table[a], table[b]), table[a, b])
        lo, hi = np.minimum(a, k), np.maximum(b, k)
        keys = ((top.astype(np.int64) * n + lo) * n + (a + b + k - lo - hi)) * n + hi
        columns.append(np.sort(keys[top < len(levels)]))
        j = int(top.argmin())
        earliest.append((keys[j], bool(top[j] < len(levels)) and pos[a, j] < e and pos[b, j] < e))
    return columns, earliest


def test_cofacet_ranks_equal_the_nested_maximum():
    # the keys as the rank table's nested np.maximum gives them, out of place
    for cx in _enumeration_graphs():
        cof = persistence._FlagCofacets(cx)
        columns, earliest = _rank_table_cofacets(cx)
        for e, keys in enumerate(columns):
            assert np.array_equal(cof.cofacets(e), keys)
        first, apparent = cof.earliest(np.arange(len(cx.edges)))
        assert list(zip(first.tolist(), apparent.tolist())) == [(int(k), bool(x)) for k, x in earliest]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 30),
    density=st.sampled_from([0.2, 0.6, 1.0]),
    tied=st.booleans(),
    cap=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cofacets_equal_the_rank_table_on_prefixes(n, density, tied, cap, seed):
    # the int64 key table against the rank-table reference, on random flag
    # complexes and on their prefixes, whose missing edges are absent
    graph = _random_graph(np.random.default_rng(seed), n, density, tied)
    prefixes = [graph.prefix(float(np.quantile(graph.edge_values, cap)))] if len(graph.edges) else []
    for cx in [graph, *prefixes]:
        cof = persistence._FlagCofacets(cx)
        columns, earliest = _rank_table_cofacets(cx)
        for e, keys in enumerate(columns):
            got = cof.cofacets(e)
            assert got.dtype == np.int64 and np.array_equal(got, keys)
        first, apparent = cof.earliest(np.arange(len(cx.edges)))
        assert list(zip(first.tolist(), apparent.tolist())) == [(int(k), bool(x)) for k, x in earliest]


def test_key_range_guard_covers_absent_cofacets():
    # absent cofacets' keys reach (levels + 1)·n³: the guard counts them
    n = 2**10  # n³ = 2**30
    persistence._check_key_range(n, 2**33 - 2)
    with pytest.raises(ValueError, match=f"{n} vertices and {2**33 - 1} edge values overflow a triangle key"):
        persistence._check_key_range(n, 2**33 - 1)
    persistence._check_key_range(1, 2**63 - 2)
    with pytest.raises(ValueError, match="overflow a triangle key"):
        persistence._check_key_range(1, 2**63 - 1)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_code_tables_are_shared_read_only(n):
    u, v = persistence._code_tables(n)
    assert persistence._code_tables(n)[0] is u
    graph = FilteredComplex(np.zeros(n), np.empty((0, 2)), [])
    assert persistence._FlagCofacets(graph)._u is u and persistence._FlagCofacets(graph)._v is v
    for table in (u, v):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


def test_enumeration_leaves_the_rank_table_unchanged(monkeypatch):
    # cofacets takes rows of the table as views: a maximum written into one
    # would change the table
    monkeypatch.setattr(persistence, "_FLAG_BLOCK", 64)  # several blocks per earliest call
    for cx in _enumeration_graphs():
        cof = persistence._FlagCofacets(cx)
        tables = {name: getattr(cof, name).copy() for name in ("_rank", "_key", "_pos", "_u", "_v")}
        edges = np.arange(len(cx.edges))
        for _ in range(3):
            for e in edges.tolist()[::-1]:
                cof.cofacets(e)
            cof.earliest(edges)
            cof.earliest(edges[::2])
        for name, table in tables.items():
            assert np.array_equal(getattr(cof, name), table), name


def _flag_builders(points, weighted):
    dm = _dm(points)
    if weighted:
        f = dtm(dm, 0.1)
        return lambda r_max=None, max_dim=2: weighted_rips_complex(dm, f, max_dim, r_max)
    return lambda r_max=None, max_dim=2: rips_complex(dm, max_dim, r_max)


@pytest.mark.parametrize("weighted", [False, True], ids=["rips", "dtm-rips"])
@pytest.mark.parametrize("capped", [False, True], ids=["full", "capped"])
def test_flag_ph_equals_explicit_at_scale(weighted, capped):
    # compute_ph enumerates each edge's cofacets from the edge values; the
    # reference lists the triangles and reads cofacets off boundary rows
    rng = np.random.default_rng(17)
    theta = rng.uniform(0.0, 2.0 * math.pi, 110 if capped else 70)
    points = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, 0.1, (len(theta), 2))
    build = _flag_builders(points, weighted)
    r_max = float(np.quantile(build().edge_values, 0.3)) if capped else None
    graph = build(r_max)
    values, boundaries = _explicit_cells(graph)
    assert 10_000 <= len(values[2]) <= 100_000
    for drop_zero in (True, False):
        explicit = _reduce_cells(values, boundaries, drop_zero).multiset()
        assert compute_ph(graph, drop_zero=drop_zero).multiset() == explicit


def test_flag_ph_equals_oracle_small():
    rng = np.random.default_rng(12)
    lattice = np.stack(np.meshgrid(np.arange(4.0), np.arange(3.0)), -1).reshape(-1, 2)
    for trial in range(12):
        points = lattice if trial < 2 else rng.random((12, 2))
        build = _flag_builders(points, weighted=trial % 2 == 1)
        r_max = float(np.quantile(build().edge_values, 0.5)) if trial % 3 == 0 else None
        graph = build(r_max)
        # max_dim 1 and 2 build the same complex
        one = build(r_max, max_dim=1)
        assert np.array_equal(one.edges, graph.edges) and np.array_equal(one.edge_values, graph.edge_values)
        values, boundaries = _explicit_cells(graph)
        for drop_zero in (True, False):
            oracle = naive_reduction_oracle(graph, drop_zero=drop_zero).multiset()
            assert compute_ph(graph, drop_zero=drop_zero).multiset() == oracle
            assert _reduce_cells(values, boundaries, drop_zero).multiset() == oracle
        assert compute_ph(graph, max_dim=0).multiset() == naive_reduction_oracle(graph, 0).multiset()


def _scrambled(cx, rng):
    """The same complex given with its edges shuffled and every row reversed."""
    order = rng.permutation(len(cx.edges))
    return FilteredComplex(cx.vertex_values, cx.edges[order][:, ::-1], cx.edge_values[order])


@pytest.mark.parametrize("weighted", [False, True], ids=["rips", "dtm-rips"])
def test_direct_complex_in_any_order_equals_builder(weighted):
    rng = np.random.default_rng(5)
    lattice = np.stack(np.meshgrid(np.arange(4.0), np.arange(3.0)), -1).reshape(-1, 2)
    for points in (lattice, rng.random((12, 2))):
        graph = _flag_builders(points, weighted)()
        for drop_zero in (True, False):
            oracle = naive_reduction_oracle(graph, drop_zero=drop_zero).multiset()
            assert compute_ph(graph, drop_zero=drop_zero).multiset() == oracle
            direct = _scrambled(graph, rng)
            for name in ("edges", "edge_values"):
                assert np.array_equal(getattr(direct, name), getattr(graph, name))
            assert compute_ph(direct, drop_zero=drop_zero).multiset() == oracle
            assert naive_reduction_oracle(direct, drop_zero=drop_zero).multiset() == oracle


def test_lifespans_sorted_descending():
    cx = rips_complex(_dm(RNG.random((10, 2))))
    spans = compute_ph(cx).lifespans(0)
    assert np.all(np.diff(spans) <= 0)
