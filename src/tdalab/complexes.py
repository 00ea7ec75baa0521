"""Filtered complexes: flag complexes from distance matrices and cubical grids.

A flag complex is held as its 1-skeleton, a filtered graph: its triangles
are the graph's 3-cliques, each valued at the largest of its three edges,
and are never stored; persistence enumerates them on demand. Up to
dimension 2 that is all that homology in degrees 0 and 1 needs. Cubical
grids use the top-cell construction: occupied cells carry the filtration
value, lower cells inherit the minimum over their incident top cells,
which makes diagonally adjacent cells connected (8-connectivity).

A flag complex also owns its filtration order: ``positions``, one (n, n)
table of edge positions shared by its prefixes, which both persistence
engines read. Degree 0 comes from an elder-rule union-find over the edges
in filtration order, which gives the pairing of the vertex-edge boundary
reduction; the edges it leaves out close a cycle and are the degree-1
creators. The minimum spanning forest comes first, by a dense numpy Prim
over that table: the positions are distinct, so the forest is exactly the
set of edges that merge, and the union-find visits its at most n - 1 edges
alone. Both run once per complex, at the first read, and a filtration
prefix inherits the pairs whose edge is among its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import BinaryMask, DistanceMatrix, Line, checked_array, tubular_distances

Array = np.ndarray

# Guard: a full flag complex on n points has ~n^3/6 triangles; beyond this
# its reduction is almost certainly a mistake at desk scale.
MAX_FLAG_POINTS = 400


@dataclass(frozen=True)
class FilteredComplex:
    """Flag complex of a filtered graph, up to dimension 2.

    It holds vertex values, edges and edge values; its triangles are the
    3-cliques of the edges, each valued at the largest of its three edges.
    The constructor puts the edges in filtration order, whatever order they
    are given in: each row is sorted ascending and the rows are ordered by
    (value, i, j). It rejects, naming the edge, a vertex index out of range,
    a repeated vertex, a repeated edge and an edge valued below one of its
    vertices.
    """

    vertex_values: Array  # (n,)
    edges: Array  # (m, 2) int
    edge_values: Array  # (m,)

    def __post_init__(self):
        vertex_values = checked_array(self.vertex_values, "vertex_values", ("n",), inf=True)
        given_edges = checked_array(self.edges, "edges", ("m", 2), dtype=np.int64)
        edge_values = checked_array(self.edge_values, "edge_values", (len(given_edges),), inf=True)
        if vertex_values.size < 1:
            raise ValueError("vertex_values must be nonempty")
        n = vertex_values.size
        edges = np.sort(given_edges, axis=1)
        _reject(given_edges, (edges[:, 0] < 0) | (edges[:, 1] >= n), f"has a vertex outside 0..{n - 1}")
        _reject(given_edges, edges[:, 0] == edges[:, 1], "repeats a vertex")
        # copies need not be adjacent in value order: compare the sorted rows
        _, first = np.unique(edges[:, 0] * n + edges[:, 1], return_index=True)
        repeat = np.ones(len(edges), dtype=bool)
        repeat[first] = False
        _reject(given_edges, repeat, "repeats an edge")
        below = edge_values < np.maximum(vertex_values[edges[:, 0]], vertex_values[edges[:, 1]])
        _reject(given_edges, below, "is valued below a vertex")
        order = np.lexsort((edges[:, 1], edges[:, 0], edge_values))
        object.__setattr__(self, "vertex_values", vertex_values)
        object.__setattr__(self, "edges", edges[order])
        object.__setattr__(self, "edge_values", edge_values[order])

    @classmethod
    def _in_order(cls, vertex_values: Array, edges: Array, edge_values: Array, **cached) -> FilteredComplex:
        """A complex of arrays already as the constructor leaves them: float
        values, edges with sorted rows in filtration order. It skips the
        constructor's checks and sort. ``cached`` gives its ``positions``
        and ``elder_pairs``, when known."""
        cx = object.__new__(cls)
        object.__setattr__(cx, "vertex_values", vertex_values)
        object.__setattr__(cx, "edges", edges)
        object.__setattr__(cx, "edge_values", edge_values)
        cx.__dict__.update(cached)
        return cx

    @property
    def n_vertices(self) -> int:
        return self.vertex_values.size

    @functools.cached_property
    def positions(self) -> Array:
        """(n, n) int32 table of each edge's filtration position, both ways
        round, computed at the first read; ``len(edges)`` or more where
        there is no edge, the diagonal too. A prefix shares its complex's
        table: the complex's later edges sit at the prefix's edge count or more."""
        n, m = self.n_vertices, len(self.edges)
        pos = np.full((n, n), m, dtype=np.int32)
        pos[self.edges[:, 0], self.edges[:, 1]] = pos[self.edges[:, 1], self.edges[:, 0]] = np.arange(m)
        return pos

    @functools.cached_property
    def elder_pairs(self) -> Array:
        """(k, 2) degree-0 death pairs (vertex row, edge position) of the
        elder-rule union-find, in edge order, computed at the first read. A
        vertex's row is its position in (value, index) order. The
        union-find visits only the edges of the minimum spanning forest
        (``_spanning_forest``), so the edge column is the forest."""
        n = self.n_vertices
        rows = np.empty(n, dtype=np.int64)
        rows[np.argsort(self.vertex_values, kind="stable")] = np.arange(n)
        return _elder_union_find(n, rows[self.edges], _spanning_forest(self.positions, len(self.edges)))

    def prefix(self, cap: float) -> FilteredComplex:
        """The flag complex of the edges valued at most ``cap``, with every
        vertex: a filtration prefix. The edges are already in filtration
        order, so it is a slice of them, and it shares this complex's
        ``positions``. Kruskal's order reaches the same state on a prefix,
        so its union-find pairs are this complex's pairs whose edge is among
        them."""
        if math.isnan(cap):
            raise ValueError("cap must not be NaN")
        m = int(np.searchsorted(self.edge_values, cap, side="right"))
        pairs = self.elder_pairs
        cached = {"positions": self.positions, "elder_pairs": pairs[pairs[:, 1] < m]}
        return FilteredComplex._in_order(self.vertex_values, self.edges[:m], self.edge_values[:m], **cached)

    @property
    def n_simplices(self) -> int:
        """Vertices, edges and triangles, counted from the adjacency matrix."""
        adj = (self.positions < len(self.edges)).astype(float)
        # each triangle closes six walks of length 3
        triangles = int(np.sum((adj @ adj) * adj)) // 6
        return self.n_vertices + len(self.edges) + triangles


def _spanning_forest(pos: Array, m: int) -> Array:
    """Ascending positions of the edges of the minimum spanning forest of
    the graph of the first ``m`` edges of a ``positions`` table.

    Dense Prim over the edges' positions, restarted at a vertex no edge
    reaches from the trees grown so far. The positions are distinct, so the
    forest is unique: it is exactly the set of edges on which Kruskal's
    order, and so the elder-rule union-find, merges two components. Reads
    the (n, n) table, so only flag complexes call it.
    """
    n = len(pos)
    best = np.full(n, m, dtype=np.int64)  # least edge from the trees; m: none
    free = np.ones(n, dtype=bool)
    forest = []
    v = 0
    for _ in range(n - 1):
        # v joins a tree: it is no longer free, and m + 1 keeps it from being picked again
        free[v] = False
        np.minimum(best, pos[v], out=best, where=free)
        best[v] = m + 1
        v = int(best.argmin())
        edge = int(best[v])
        if edge < m:
            forest.append(edge)
    return np.sort(np.array(forest, dtype=np.int64))


def _elder_union_find(n_vertices: int, edge_rows: Array, forest: Array) -> Array:
    """Elder-rule union-find over the edges of a minimum spanning forest.

    ``edge_rows`` are a graph's edges in filtration order and ``forest`` the
    ascending positions of its minimum spanning forest's edges
    (``_spanning_forest``): only they merge two components, and in that
    order. Vertex rows are in filtration order too, so of two roots the
    smaller row is the elder; each root is the oldest vertex of its
    component. Returns the (k, 2) array of (vertex row, edge) death pairs,
    exactly those of the left-to-right reduction of the vertex-edge
    boundary block.
    """
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    dying = []
    for a, b in edge_rows[forest].tolist():
        ra, rb = find(a), find(b)
        elder, younger = (ra, rb) if ra < rb else (rb, ra)
        parent[younger] = elder
        dying.append(younger)
    return np.column_stack([np.array(dying, dtype=np.int64), forest])


def _reject(given: Array, bad: Array, what: str) -> None:
    """Raise naming the first edge of ``given`` flagged in ``bad``."""
    if np.any(bad):
        row = tuple(int(x) for x in given[int(np.argmax(bad))])
        raise ValueError(f"edge {row} {what}")


def _check_dim(n: int, max_dim: int, force: bool) -> None:
    if not 0 <= max_dim <= 2:
        raise ValueError("max_dim must be 0, 1 or 2")
    if max_dim == 2 and n > MAX_FLAG_POINTS and not force:
        raise ValueError(
            f"{n} points exceed the {MAX_FLAG_POINTS}-point budget for a "
            "2-dimensional flag complex; pass force=True to override"
        )


def _build_flag(vertex_values: Array, edge_value: Array, r_max: float, max_dim: int) -> FilteredComplex:
    """The graph of the edges valued at most r_max in a dense (n, n) matrix;
    at max_dim 0, the vertices alone.

    The upper-triangle edges are distinct, in range and in (i, j) order, so
    one stable sort by value puts them in the constructor's (value, i, j)
    order, and only the check on values is left to make.
    """
    if math.isnan(r_max):
        raise ValueError("r_max must not be NaN")
    iu, ju = np.triu_indices(len(vertex_values), 1)
    vals = edge_value[iu, ju]
    keep = (vals <= r_max) & (max_dim > 0)
    edges, vals = np.column_stack([iu[keep], ju[keep]]), vals[keep]
    below = vals < np.maximum(vertex_values[edges[:, 0]], vertex_values[edges[:, 1]])
    _reject(edges, below, "is valued below a vertex")
    order = np.argsort(vals, kind="stable")
    return FilteredComplex._in_order(vertex_values, edges[order], vals[order])


def rips_complex(
    matrix: DistanceMatrix, max_dim: int = 2, r_max: float | None = None, force: bool = False
) -> FilteredComplex:
    """Vietoris-Rips flag complex: vertices at 0, edges at their distance,
    truncated at r_max. At max_dim 1 and 2 it is the same complex, whose
    triangles take the maximum of their three edges; max_dim=0 keeps the
    vertices alone."""
    n = matrix.n
    _check_dim(n, max_dim, force)
    d = matrix.values
    if r_max is None:
        r_max = float(d.max()) if n > 1 else 0.0
    if n > 1 and r_max <= 0:
        raise ValueError("r_max must be positive")
    return _build_flag(np.zeros(n), d, r_max, max_dim)


def weighted_rips_complex(
    matrix: DistanceMatrix,
    vertex_values,
    max_dim: int = 2,
    r_max: float | None = None,
    force: bool = False,
) -> FilteredComplex:
    """Flag complex of a vertex-weighted metric.

    A vertex appears at its weight f(v). An edge (u, v) appears at
    max(f(u), f(v)) when one growing ball swallows the other's birth
    (d <= |f(u) - f(v)|), else at (f(u) + f(v) + d) / 2, the radius at which
    the two balls first meet. Triangles take the maximum of their edges.
    ``max_dim``, ``r_max`` and ``force`` read as in ``rips_complex``.
    """
    n = matrix.n
    f = checked_array(vertex_values, "vertex_values", (n,))
    _check_dim(n, max_dim, force)
    d = matrix.values
    fi = f[:, None]
    fj = f[None, :]
    swallowed = d <= np.abs(fi - fj)
    w = np.where(swallowed, np.maximum(fi, fj), (fi + fj + d) / 2.0)
    np.fill_diagonal(w, np.inf)
    if r_max is None:
        r_max = float(w[np.isfinite(w)].max()) if n > 1 else float(f.max())
    return _build_flag(f, w, r_max, max_dim)


# ---------------------------------------------------------------------------
# cubical grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilteredCubicalGrid:
    """Square grid of top cells; unoccupied cells sit at +inf.

    Lower cells take the minimum over their incident top cells;
    ``vertex_values`` derives the corner vertices' on demand.
    """

    top_values: Array  # (c, c), +inf allowed

    def __post_init__(self):
        v = checked_array(self.top_values, "top_values", ("c", "c"), inf=True)
        if v.shape[0] != v.shape[1] or v.shape[0] < 1:
            raise ValueError(f"top_values must form a square grid, got {v.shape}")
        if np.any(v == -np.inf):
            raise ValueError("top cell values must be finite or +inf")
        if not np.any(np.isfinite(v)):
            raise ValueError("grid must contain at least one finite top cell")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "top_values", v)

    @property
    def side(self) -> int:
        return self.top_values.shape[0]

    def vertex_values(self) -> Array:
        """(c+1, c+1) corner-vertex values: min over <=4 incident top cells."""
        c = self.side
        padded = np.full((c + 2, c + 2), np.inf)
        padded[1:-1, 1:-1] = self.top_values
        return np.minimum.reduce(
            [padded[:-1, :-1], padded[1:, :-1], padded[:-1, 1:], padded[1:, 1:]]
        )


def tubular_filtration(line: Line) -> Callable[[Array], Array]:
    """Filtration callable: distance of cell centers to the line."""
    return lambda centers: tubular_distances(centers, line)


def height_filtration(v) -> Callable[[Array], Array]:
    """Filtration callable: scalar product of cell centers with unit v."""
    # NaN and +-inf fail the comparison as well
    if not abs(float(np.linalg.norm(v)) - 1.0) <= 1e-12:
        raise ValueError("height direction must be a finite unit vector")
    v = checked_array(v, "height direction", (2,))
    return lambda centers: centers @ v


def absolute_height_filtration(v) -> Callable[[Array], Array]:
    """Filtration callable: |scalar product| of cell centers with unit v."""
    base = height_filtration(v)
    return lambda centers: np.abs(base(centers))


def cubical_complex(mask: BinaryMask, fn: Callable[[Array], Array]) -> FilteredCubicalGrid:
    """Evaluate a filtration function on occupied cell centers.

    Occupied top cells take fn(center); unoccupied cells are +inf and never
    enter the filtration.
    """
    occ = mask.cells
    values = np.full(occ.shape, np.inf)
    values[occ] = checked_array(fn(mask.occupied_centers()), "filtration values", (int(occ.sum()),))
    return FilteredCubicalGrid(values)
