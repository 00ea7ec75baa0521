"""Persistence diagrams in degrees 0 and 1 over Z/2.

Both degrees of a cubical grid come from a level sweep (Wagner, Chen &
Vuçini, 2012) over a stack of grids: one ``scipy.ndimage.label`` call over
every grid's sublevel sets at the levels where its components can start
or merge, planes of one array grid after grid, with each component's
parent one plane up within its own grid and the elder rule applied per
parent. A single grid is a stack of one. Degree 0 is the 8-connected sweep
of the top cells. Degree 1 comes from Alexander duality (Garin, Heiss,
Maggs, Bleile & Robins, 2020): the degree-1 pairs of the 8-connected
closed-pixel sublevel filtration are the degree-0 pairs, negated and
swapped, of the 4-connected superlevel filtration of its complement, with
the outside of the grid as the eldest component. So it is the 4-connected
sweep of the negated grid ringed with the outside, and no cell beyond the
pixels is built. ``scipy.ndimage`` loads at the first sweep, not with this
module, so flag-complex work never imports scipy.
Degree 0 of a flag complex is its elder-rule union-find pairs,
``FilteredComplex.elder_pairs``; the edges they leave out close a cycle
and are the degree-1 creators. Degree-1 deaths come from the coboundary (cohomology) reduction of the edge-triangle block, after
Ripser (Bauer, 2021): the edges that kill a degree-0 class are cleared
(skipped), apparent pairs -- an edge whose earliest cofacet has the edge
as its latest facet -- are found for all edges at once with numpy, and
only the few remaining columns are reduced. A column is an ascending
array of distinct keys, and adding two columns is one stable merge: a
timsort of their concatenation, which finds the two sorted runs, keeping
the keys that occur once. An edge's cofacets are enumerated on demand from
the edge-value ranks, keyed by one order-preserving int64, value rank
times n^3 plus the code of the sorted vertex triple: rows of an (n, n)
table of rank times n^3, gathered once per complex from the complex's
``positions``, plus rows of two (n, n)
code tables built once per vertex count; so the triangles are never
built. A deliberately unoptimized textbook reduction of the whole boundary
matrix, with the flag triangles listed by brute force and a grid's
vertices, edges and squares listed cell by cell, is the reference oracle.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex, FilteredCubicalGrid
from .geometry import checked_array

Array = np.ndarray

ORACLE_MAX_SIMPLICES = 2000


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (dim, birth, death) intervals; death may be +inf."""

    intervals: Array  # (k, 3) float, sorted by (dim, birth, death)

    def __post_init__(self):
        iv = checked_array(self.intervals, "intervals", ("k", 3), inf=True)
        if iv.size and np.any(iv[:, 2] < iv[:, 1]):
            raise ValueError("interval death must be >= birth")
        order = np.lexsort((iv[:, 2], iv[:, 1], iv[:, 0]))
        iv = iv[order]
        iv.setflags(write=False)
        object.__setattr__(self, "intervals", iv)

    def in_dim(self, dim: int) -> Array:
        """(m, 2) births/deaths of the given dimension."""
        sel = self.intervals[:, 0] == dim
        return self.intervals[sel][:, 1:]

    def finite_in_dim(self, dim: int) -> Array:
        pts = self.in_dim(dim)
        return pts[np.isfinite(pts[:, 1])]

    def lifespans(self, dim: int) -> Array:
        """Finite lifespans of the dimension, sorted descending."""
        pts = self.finite_in_dim(dim)
        return np.sort(pts[:, 1] - pts[:, 0])[::-1]

    def multiset(self) -> tuple:
        """Hashable canonical form for exact multiset comparison."""
        return tuple(map(tuple, self.intervals))

    def __len__(self) -> int:
        return len(self.intervals)


def _diagram(rows) -> PersistenceDiagram:
    if not rows:
        return PersistenceDiagram(np.empty((0, 3)))
    return PersistenceDiagram(np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# cubical grids: level sweeps
# ---------------------------------------------------------------------------

# a cell's eight neighbours as (row, column) offsets; the first four come
# before the cell in raster order
_RING = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@functools.cache
def _connectivity(eight: bool) -> tuple:
    """(planes, table) of 8-connected cells, or of 4-connected ones, built
    at the first sweep of each and shared read-only after that.

    ``planes`` links the cells of a (levels, h, w) stack within each plane
    and not across planes. ``table`` holds, per subset of a cell's eight
    neighbours (bit k for ``_RING[k]``), False when exactly one of the
    groups they form holds a neighbour linked to the cell, so that a cell
    entering after just those joins one component without starting or
    merging any.
    """
    from scipy import ndimage

    square = ndimage.generate_binary_structure(2, 2 if eight else 1)
    planes = np.zeros((3, 3, 3), dtype=bool)
    planes[1] = square
    patches = np.zeros((256, 3, 3), dtype=bool)
    for k, (di, dj) in enumerate(_RING):
        patches[:, 1 + di, 1 + dj] = (np.arange(256) >> k) & 1
    labels, _ = ndimage.label(patches, structure=planes)
    square[1, 1] = False  # the neighbours linked to the cell
    table = np.array([len(set(groups) - {0}) != 1 for groups in labels[:, square].tolist()])
    planes.setflags(write=False)
    table.setflags(write=False)
    return planes, table


# cells of the (planes, h, w) stack labelled per ndimage.label call: the
# planes' values, the sublevel sets and their int32 labels then take about
# 13 MB however many levels a noisy grid has
_SWEEP_CELLS = 1 << 20


def _box(v: Array) -> Array:
    """A (g, h, w) stack cut to the box of the cells below +inf in some grid."""
    present = v < math.inf
    rows = np.flatnonzero(present.any(axis=(0, 2)))
    cols = np.flatnonzero(present.any(axis=(0, 1)))
    return v[:, rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def _critical_levels(v: Array, table: Array) -> tuple:
    """(grid, level) of each plane of the sweep of a (g, h, w) stack:
    ascending within each grid, grids in order.

    A grid's levels are those at which the components of its sublevel sets
    can change. Cells below +inf enter in the order (value, raster
    position). A cell starts a component when none of its linked
    neighbours entered before it, and can merge components only when the
    neighbours that did form two or more groups holding a linked one
    (``table``, from ``_connectivity``). At every other level each entering
    cell joins one existing component, so the components one level down map
    one to one onto those at the level.
    """
    g, h, w = v.shape
    pad = np.full((g, h + 2, w + 2), np.inf)
    pad[:, 1:-1, 1:-1] = v
    code = np.zeros(v.shape, dtype=np.uint8)
    for k, (di, dj) in enumerate(_RING):
        nb = pad[:, 1 + di : 1 + di + h, 1 + dj : 1 + dj + w]
        earlier = nb <= v if k < 4 else nb < v
        code |= earlier.astype(np.uint8) << k
    critical = table[code] & (v < math.inf)
    grid = np.nonzero(critical)[0]  # ascending
    level = v[critical]
    order = np.lexsort((level, grid))
    grid, level = grid[order], level[order]
    new = np.ones(len(grid), dtype=bool)
    new[1:] = (grid[1:] != grid[:-1]) | (level[1:] != level[:-1])
    return grid[new], level[new]


def sublevel_ph0_stack(values) -> tuple:
    """Degree-0 persistence of the 8-connected sublevel sets of each grid
    of a (g, h, w) stack.

    Each grid holds top-cell values, +inf outside its shape, and at least
    one finite cell. Returns (grid, births, deaths), one entry per class, in
    no particular order: the index of the class's grid, and its birth and
    death, +inf for the essential classes, with no zero-length pairs. The
    classes of grid k are the degree-0 diagram of ``compute_ph`` on it.

    Every grid's sublevel sets at each level where its components can
    start or merge are planes of one (planes, h, w) boolean array over the
    box of cells finite in some grid, grid after grid, labelled by one
    ``scipy.ndimage.label`` call, 8-connected within a plane and unlinked
    across planes, so labels grow plane by plane. A component's parent is
    the label of any of its cells one plane up, when that plane belongs to
    the same grid; of the children of one parent the earliest-born lives on
    and the others die at the parent's level. The components of a grid's
    last plane are essential. A stack of more than ``_SWEEP_CELLS`` cells
    is labelled in blocks of planes, each block starting at the plane where
    the previous one ended, wherever the grids begin and end. The work is
    the number of planes times the box's cells: small for distances to a
    line or heights over a shape, large for noise.
    """
    v = checked_array(values, "values", ("g", "h", "w"), inf=True)
    if len(v) == 0:
        raise ValueError("values must hold at least one grid")
    if np.any(v == -math.inf):
        raise ValueError("values must hold finite or +inf cells")
    empty = np.flatnonzero(~np.isfinite(v).any(axis=(1, 2)))
    if len(empty):
        raise ValueError(f"grid {empty[0]} has no finite cell")
    return _sweep(v, eight=True)


def _sweep(v: Array, eight: bool) -> tuple:
    """``sublevel_ph0_stack`` on a float stack each of whose grids has a
    cell below +inf, 8-connected or 4-connected; cells at -inf enter first.
    """
    from scipy import ndimage

    planes, table = _connectivity(eight)
    v = _box(v)
    cells = v[0].size
    grid, level = _critical_levels(v, table)
    # a plane's components are essential when it is its grid's last
    last_of_grid = np.ones(len(grid), dtype=bool)
    last_of_grid[:-1] = grid[1:] != grid[:-1]
    step = max(1, _SWEEP_CELLS // cells - 1)
    out_grid, births, deaths = [], [], []
    lo = 0
    while True:
        hi = min(lo + step, len(level) - 1)
        block = v[grid[lo : hi + 1]]
        labels, n = ndimage.label(block <= level[lo : hi + 1, None, None], structure=planes)
        flat = labels.ravel()
        member = np.flatnonzero(flat)
        comp = flat[member]
        birth = np.full(n + 1, np.inf)
        np.minimum.at(birth, comp, block.ravel()[member])
        rep = np.empty(n + 1, dtype=np.int64)
        rep[comp] = member
        ids = np.arange(1, n + 1)
        plane = lo + np.searchsorted(labels.reshape(hi + 1 - lo, -1).max(axis=1), np.arange(n + 1))
        # the block's last plane waits for the next block, unless it ends the stack
        done = (plane[ids] < hi) | (hi == len(level) - 1)
        essential = done & last_of_grid[plane[ids]]
        child = ids[done & ~essential]
        parent = flat[rep[child] + cells]  # the same cell one plane up
        order = np.lexsort((birth[child], parent))
        elder = np.ones(len(order), dtype=bool)
        elder[1:] = parent[order[1:]] != parent[order[:-1]]
        dying = child[order[~elder]]
        ending = np.concatenate([dying, ids[essential]])
        out_grid.append(grid[plane[ending]])
        births.append(birth[ending])
        deaths.append(np.concatenate([level[plane[dying] + 1], np.full(int(essential.sum()), math.inf)]))
        if hi == len(level) - 1:
            return np.concatenate(out_grid), np.concatenate(births), np.concatenate(deaths)
        lo = hi


def _grid_rows(dim: int, births: Array, deaths: Array, cells: Array, drop_zero: bool) -> Array:
    """(k, 3) rows of degree ``dim`` of a cubical grid from its classes of
    positive length, given by their births and deaths.

    With drop_zero=False, each finite cell of ``cells`` that enters at a
    level without ending one of those classes there pairs with itself at
    that level: the corner vertices in degree 0, each the birth of a class,
    and the squares in degree 1, each the death of one.
    """
    if not drop_zero:
        levels, entering = np.unique(cells[np.isfinite(cells)], return_counts=True)
        ends = births if dim == 0 else deaths[np.isfinite(deaths)]
        taken = np.bincount(np.searchsorted(levels, ends), minlength=len(levels))
        zero = np.repeat(levels, entering - taken)
        births, deaths = np.concatenate([births, zero]), np.concatenate([deaths, zero])
    return np.column_stack([np.full(len(births), float(dim)), births, deaths])


def _grid_ph(grid: FilteredCubicalGrid, max_dim: int, drop_zero: bool) -> PersistenceDiagram:
    """Degrees 0..max_dim of a cubical grid, each from a level sweep.

    Degree 0 is the 8-connected sweep of the top cells. Degree 1 is, by
    duality, the 4-connected sweep of the box of finite cells, negated and
    ringed with the outside: the +inf cells and the ring enter first, at
    -inf. A dual pair (b, d) is the degree-1 pair (-d, -b), so a region of
    +inf cells the shape encloses, born at -inf, gives an essential hole.
    The dual's one essential class holds the ring and is dropped.
    """
    top = grid.top_values
    _, births, deaths = _sweep(top[None], eight=True)
    rows = [_grid_rows(0, births, deaths, grid.vertex_values(), drop_zero)]
    if max_dim == 1:
        dual = -np.pad(_box(top[None]), ((0, 0), (1, 1), (1, 1)), constant_values=math.inf)
        _, births, deaths = _sweep(dual, eight=False)
        dies = deaths < math.inf
        rows.append(_grid_rows(1, -deaths[dies], -births[dies], top, drop_zero))
    return PersistenceDiagram(np.concatenate(rows))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


# elements of the (edges x vertices) arrays built per block in _FlagCofacets
_FLAG_BLOCK = 1 << 18


@functools.lru_cache(maxsize=16)
def _code_tables(n: int) -> tuple:
    """(U, V): the code i·n² + j·n + k of the sorted triple {a, b, k},
    a < b, is ``U[a, k] + V[b, k]``. k below a gives (k, a, b), k between
    them (a, k, b), k above b (a, b, k). Built once per vertex count and
    shared read-only."""
    row, k = np.arange(n, dtype=np.int64)[:, None], np.arange(n, dtype=np.int64)
    u = np.where(k <= row, (k * n + row) * n, (row * n + k) * n)
    v = np.where(k <= row, row, (row - k) * n + k)
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v


def _check_key_range(n: int, n_levels: int) -> None:
    """Reject a complex whose triangle keys, the absent cofacets' too, can
    reach 2**63: they lie below (n_levels + 1)·n³."""
    if (n_levels + 1) * n**3 >= 2**63:
        raise ValueError(f"{n} vertices and {n_levels} edge values overflow a triangle key")


class _FlagCofacets:
    """Triangles of the flag complex spanned by a graph, never stored.

    Triangles are ordered by (value, sorted vertex tuple), as edges are
    within a ``FilteredComplex``. A triangle's key packs
    (value rank, i, j, k) with i < j < k into one int64,
    rank·n³ + i·n² + j·n + k, whose integer order is that filtration order;
    its value is the largest of its three edge values. Two (n, n) tables
    hold each edge's rank, an absent edge's one above every present one's:
    an int32 one, whose smaller rows ``earliest`` scans, and an int64 one
    of rank·n³, from which ``cofacets`` adds up keys. For an edge (a, b),
    a < b, the code i·n² + j·n + k of the sorted triple {a, b, k} is
    ``U[a, k] + V[b, k]`` of the two code tables of n (``_code_tables``),
    and it is monotone in k, so the earliest cofacet is the least k of
    least value rank. The graph's edges are in filtration order with sorted
    rows, as every ``FilteredComplex`` holds them, so the value ranks come
    from one pass over the sorted edge values, gathered through ``positions``.
    """

    def __init__(self, graph: FilteredComplex):
        n = graph.n_vertices
        values = graph.edge_values
        new = np.ones(len(values), dtype=bool)
        new[1:] = values[1:] != values[:-1]
        self._levels = values[new]
        _check_key_range(n, len(self._levels))
        self._n, self._n3 = n, n**3
        self._a, self._b = graph.edges.T
        # value rank of each position, an absent edge's (position len(values)
        # or more) one above every present one's; int32 holds it, as keys
        # only fit int64 below about 7,000 points
        self._absent = len(self._levels)
        ranks = np.append(np.cumsum(new) - 1, self._absent).astype(np.int32)
        self._pos = graph.positions
        self._rank = ranks[np.minimum(self._pos, len(values))]
        # every key of a cofacet with an absent edge is at least _absent_key
        self._key = self._rank * np.int64(self._n3)
        self._absent_key = self._absent * self._n3
        self._u, self._v = _code_tables(n)

    def cofacets(self, e: int) -> Array:
        # one call per reduced column: Python ints and row views keep the
        # numpy calls few and cheap
        a, b = int(self._a[e]), int(self._b[e])
        # the rows are views of the tables: only the first maximum's own
        # result is written in place
        keys = np.maximum(self._key[a], self._key[b])
        np.maximum(keys, self._key[a, b], out=keys)
        keys += self._u[a]
        keys += self._v[b]
        keys.sort()
        return keys[: keys.searchsorted(self._absent_key)]

    def earliest(self, edges: Array) -> tuple:
        """(key of each edge's earliest cofacet, mask of apparent pairs).

        The pair is apparent when the earliest cofacet's latest facet, by
        edge position, is the edge itself; an absent facet's never is.
        """
        keys = np.zeros(len(edges), dtype=np.int64)
        apparent = np.zeros(len(edges), dtype=bool)
        step = max(1, _FLAG_BLOCK // self._n)
        for s in range(0, len(edges), step):
            e = edges[s : s + step]
            a, b = self._a[e], self._b[e]
            rank = self._rank[a]  # a fancy-indexed copy, maxed in place
            np.maximum(rank, self._rank[b], out=rank)
            np.maximum(rank, self._rank[a, b][:, None], out=rank)
            k = rank.argmin(axis=1)  # the first minimum: the least k among ties
            rank = rank[np.arange(len(e)), k]
            keys[s : s + step] = rank.astype(np.int64) * self._n3 + self._u[a, k] + self._v[b, k]
            apparent[s : s + step] = (self._pos[a, k] < e) & (self._pos[b, k] < e)
        return keys, apparent

    def values(self, keys: Array) -> Array:
        return self._levels[keys // self._n3]


def _add_columns(col: Array, other: Array) -> Array:
    """Sum over Z/2 of two ascending columns of distinct keys: one stable
    sort of their concatenation, which timsort merges as two sorted runs in
    linear time, keeping the keys unequal to both neighbours. It equals
    ``np.setxor1d(col, other, assume_unique=True)``."""
    keys = np.concatenate((col, other))
    keys.sort(kind="stable")
    single = np.ones(len(keys), dtype=bool)
    differ = keys[1:] != keys[:-1]
    single[1:] = differ
    single[:-1] &= differ
    return keys[single]


def _reduce_coboundaries(columns, cofacets, pivots: dict) -> list:
    """Reduce edge coboundary columns, latest edge first.

    ``cofacets(e)`` gives the ascending cofacet keys of edge e, so a
    column's pivot is its first key. Adding two columns is one stable
    merge of their sorted keys (``_add_columns``). ``pivots`` maps the
    pivot of each apparent pair to its edge; those columns need no
    reduction, are not in ``columns``, and are enumerated only when a
    column collides with one.
    Returns the (edge, pivot key) pairs of ``columns``; an edge with no pair
    is essential.
    """
    reduced = {}  # pivot key -> reduced column
    pairs = []
    for j in columns:
        col = cofacets(j)
        while len(col):
            low = int(col[0])
            other = reduced.get(low)
            if other is None:
                holder = pivots.get(low)
                if holder is None:
                    reduced[low] = col
                    pairs.append((j, low))
                    break
                other = reduced[low] = cofacets(holder)
            col = _add_columns(col, other)
    return pairs


def _ph(v_values, e_values, pairs0, cof, max_dim: int, drop_zero: bool):
    """Assemble the intervals of a flag complex from its sorted vertex and
    edge values.

    Degree 0 comes from ``pairs0``, the (vertex row, edge) death pairs of
    the elder-rule union-find. The edges it pairs with vertices are
    cleared: their coboundary columns reduce to zero. Every other edge
    closes a cycle and creates a degree-1 class. Of those, apparent pairs
    are found at once from ``cof.earliest``; only the rest are reduced.
    ``cof`` gives the edges' cofacets through ``cofacets``, ``earliest``
    and ``values``, as ``_FlagCofacets`` does; None means no 2-cells.
    """
    alive = np.ones(len(v_values), dtype=bool)
    alive[pairs0[:, 0]] = False
    blocks = [
        (0, v_values[pairs0[:, 0]], e_values[pairs0[:, 1]]),
        (0, v_values[alive], math.inf),
    ]
    if max_dim >= 1:
        cycle = np.ones(len(e_values), dtype=bool)
        cycle[pairs0[:, 1]] = False
        creators = np.nonzero(cycle)[0]
        killed = np.zeros(len(e_values), dtype=bool)
        if cof is not None and len(creators):
            first, apparent = cof.earliest(creators)
            pairs = _reduce_coboundaries(
                creators[~apparent][::-1].tolist(),
                cof.cofacets,
                dict(zip(first[apparent].tolist(), creators[apparent].tolist())),
            )
            edges = np.concatenate([creators[apparent], np.array([e for e, _ in pairs], dtype=np.int64)])
            keys = np.concatenate([first[apparent], np.array([k for _, k in pairs], dtype=np.int64)])
            killed[edges] = True
            blocks.append((1, e_values[edges], cof.values(keys)))
        blocks.append((1, e_values[creators[~killed[creators]]], math.inf))
    rows = []
    for dim, births, deaths in blocks:
        deaths = np.broadcast_to(deaths, births.shape)
        keep = deaths != births if drop_zero else slice(None)
        rows.append(np.column_stack([np.full(len(births), float(dim)), births, deaths])[keep])
    return PersistenceDiagram(np.concatenate(rows))


def compute_ph(cx, max_dim: int = 1, drop_zero: bool = True) -> PersistenceDiagram:
    """Persistence diagram of a complex in degrees 0..max_dim.

    ``cx`` is a ``FilteredComplex``, whose triangles the reduction
    enumerates from its edges and never builds, keyed through two code
    tables, and whose union-find pairs, ``elder_pairs``, are computed once
    per complex and inherited by its prefixes; or a ``FilteredCubicalGrid``,
    whose degrees both come from level sweeps: degree 0 from the
    8-connected one of ``sublevel_ph0_stack``, degree 1 from a 4-connected
    one by duality. No coboundary of a grid is reduced.
    Zero-length intervals are dropped by default; pass drop_zero=False to
    keep them (Euler-characteristic bookkeeping).
    """
    if not 0 <= max_dim <= 1:
        raise ValueError("max_dim must be 0 or 1")
    if isinstance(cx, FilteredComplex):
        cof = _FlagCofacets(cx) if max_dim >= 1 else None
        return _ph(np.sort(cx.vertex_values, kind="stable"), cx.edge_values, cx.elder_pairs, cof, max_dim, drop_zero)
    if isinstance(cx, FilteredCubicalGrid):
        return _grid_ph(cx, max_dim, drop_zero)
    raise TypeError(f"cannot compute persistence of {type(cx).__name__}")


def compute_ph0_unionfind(cx) -> PersistenceDiagram:
    """Degree-0 persistence: ``compute_ph(cx, max_dim=0)``, by union-find on a
    flag complex and by the level sweep on a grid."""
    return compute_ph(cx, max_dim=0)


# ---------------------------------------------------------------------------
# naive oracle (tests only)
# ---------------------------------------------------------------------------


def _oracle_flag_cells(cx: FilteredComplex):
    """Vertices, edges and every triangle whose three edges are present, each
    valued at its largest edge, as (key, dim, value, facet keys)."""
    for i, v in enumerate(cx.vertex_values.tolist()):
        yield (i,), 0, v, []
    value = {}
    for (a, b), v in zip(cx.edges.tolist(), cx.edge_values.tolist()):
        a, b = min(a, b), max(a, b)
        value[a, b] = v
        yield (a, b), 1, v, [(a,), (b,)]
    later = {}  # vertex -> its neighbours of higher index
    for a, b in value:
        later.setdefault(a, set()).add(b)
    for a, b in value:
        for c in sorted(later.get(a, set()) & later.get(b, set())):
            faces = [(a, b), (a, c), (b, c)]
            yield (a, b, c), 2, max(value[f] for f in faces), faces


def _oracle_cells(cx):
    """Independent cell enumeration: (key, dim, value, facet keys)."""
    if isinstance(cx, FilteredComplex):
        return _oracle_flag_cells(cx)
    cells = []
    if isinstance(cx, FilteredCubicalGrid):
        top = cx.top_values
        c = cx.side
        vertex_vals = {}
        edge_vals = {}
        for i in range(c):
            for j in range(c):
                v = top[i, j]
                if not math.isfinite(v):
                    continue
                corners = [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]
                for corner in corners:
                    key = ("v", corner)
                    vertex_vals[key] = min(vertex_vals.get(key, math.inf), v)
                sides = [
                    (("v", (i, j)), ("v", (i + 1, j))),
                    (("v", (i, j + 1)), ("v", (i + 1, j + 1))),
                    (("v", (i, j)), ("v", (i, j + 1))),
                    (("v", (i + 1, j)), ("v", (i + 1, j + 1))),
                ]
                for a, b in sides:
                    key = ("e", (a[1], b[1]))
                    edge_vals[key] = min(edge_vals.get(key, math.inf), v)
                cells_facets = [("e", (a[1], b[1])) for a, b in sides]
                cells.append((("s", (i, j)), 2, float(v), cells_facets))
        for key, v in vertex_vals.items():
            cells.append((key, 0, float(v), []))
        for key, v in edge_vals.items():
            (a, b) = key[1]
            cells.append((key, 1, float(v), [("v", a), ("v", b)]))
        return cells
    raise TypeError(f"cannot compute persistence of {type(cx).__name__}")


def naive_reduction_oracle(cx, max_dim: int = 1, drop_zero: bool = True) -> PersistenceDiagram:
    """Textbook left-to-right reduction without optimizations. Tests only."""
    cells = []
    for cell in _oracle_cells(cx):
        cells.append(cell)
        if len(cells) > ORACLE_MAX_SIMPLICES:
            raise ValueError(f"oracle limited to {ORACLE_MAX_SIMPLICES} simplices")
    cells.sort(key=lambda cell: (cell[2], cell[1], cell[0]))
    index = {cell[0]: i for i, cell in enumerate(cells)}
    columns = [set(index[f] for f in cell[3]) for cell in cells]
    lows = {}  # low row -> column index, filled left to right
    pair_of = {}
    for j in range(len(cells)):
        col = columns[j]
        while col:
            low = max(col)
            other = lows.get(low)
            if other is None:
                lows[low] = j
                pair_of[low] = j
                break
            col ^= columns[other]
    rows = []
    dead = set(pair_of.values())
    for i, (_, dim, value, _) in enumerate(cells):
        if dim > max_dim:
            continue
        if i in pair_of:
            death = cells[pair_of[i]][2]
            if not drop_zero or death != value:
                rows.append((dim, value, death))
        elif i not in dead:
            rows.append((dim, value, math.inf))
    return _diagram(rows)
