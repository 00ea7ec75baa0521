"""Filtered complexes: flag complexes from distance matrices and cubical grids.

Flag complexes are capped at dimension 2 (triangles), which is all that is
needed to compute homology in degrees 0 and 1. Cubical grids use the
top-cell construction: occupied cells carry the filtration value, lower
cells inherit the minimum over their incident top cells, which makes
diagonally adjacent cells connected (8-connectivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import BinaryMask, DistanceMatrix, Line, tubular_distances

Array = np.ndarray

# Guard: a full 2-skeleton on n points has ~n^3/6 triangles; beyond this the
# build is almost certainly a mistake at desk scale.
MAX_FLAG_POINTS = 400


@dataclass(frozen=True)
class FilteredComplex:
    """Flag complex up to dimension 2 with monotone filtration values.

    The constructor puts the simplices in filtration order, whatever order
    they are given in: each edge and triangle row is sorted ascending, edges
    are ordered by (value, i, j) and triangles by (value, i, j, k). Faces of
    equal value sort before cofaces globally because lower dimensions come
    first. It rejects, naming the simplex, a vertex index out of range, a
    repeated vertex, a triangle without one of its edges, and a simplex
    valued below one of its faces.
    """

    vertex_values: Array  # (n,)
    edges: Array  # (m, 2) int
    edge_values: Array  # (m,)
    triangles: Array  # (t, 3) int
    triangle_values: Array  # (t,)

    def __post_init__(self):
        vertex_values = np.asarray(self.vertex_values, dtype=float)
        given_edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        edge_values = np.asarray(self.edge_values, dtype=float)
        given_tris = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        tri_values = np.asarray(self.triangle_values, dtype=float)
        if vertex_values.size < 1:
            raise ValueError("complex needs at least one vertex")
        if len(given_edges) != len(edge_values) or len(given_tris) != len(tri_values):
            raise ValueError("simplex and value arrays must align")
        n = vertex_values.size
        edges = np.sort(given_edges, axis=1)
        tris = np.sort(given_tris, axis=1)
        _reject("edge", given_edges, (edges[:, 0] < 0) | (edges[:, 1] >= n), f"has a vertex outside 0..{n - 1}")
        _reject("edge", given_edges, edges[:, 0] == edges[:, 1], "repeats a vertex")
        below = edge_values < np.maximum(vertex_values[edges[:, 0]], vertex_values[edges[:, 1]])
        _reject("edge", given_edges, below, "is valued below a vertex")
        if len(tris):
            _reject("triangle", given_tris, (tris[:, 0] < 0) | (tris[:, 2] >= n), f"has a vertex outside 0..{n - 1}")
            _reject("triangle", given_tris, np.any(tris[:, 1:] == tris[:, :-1], axis=1), "repeats a vertex")
            key = edges[:, 0] * n + edges[:, 1]
            faces = tris[:, [0, 0, 1]] * n + tris[:, [1, 2, 2]]
            _reject("triangle", given_tris, ~np.isin(faces, key).all(axis=1), "has a missing edge")
            by_key = np.argsort(key)
            at = by_key[np.searchsorted(key, faces, sorter=by_key)]
            _reject("triangle", given_tris, tri_values < edge_values[at].max(axis=1), "is valued below an edge")
        e_order = np.lexsort((edges[:, 1], edges[:, 0], edge_values))
        t_order = np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0], tri_values))
        object.__setattr__(self, "vertex_values", vertex_values)
        object.__setattr__(self, "edges", edges[e_order])
        object.__setattr__(self, "edge_values", edge_values[e_order])
        object.__setattr__(self, "triangles", tris[t_order])
        object.__setattr__(self, "triangle_values", tri_values[t_order])

    @property
    def n_vertices(self) -> int:
        return self.vertex_values.size

    @property
    def n_simplices(self) -> int:
        return self.vertex_values.size + len(self.edges) + len(self.triangles)

    def simplices(self):
        """Yield (vertex tuple, dim, value) in global filtration order."""
        items = [((i,), 0, float(v)) for i, v in enumerate(self.vertex_values)]
        items += [
            (tuple(int(x) for x in e), 1, float(v))
            for e, v in zip(self.edges, self.edge_values)
        ]
        items += [
            (tuple(int(x) for x in t), 2, float(v))
            for t, v in zip(self.triangles, self.triangle_values)
        ]
        items.sort(key=lambda s: (s[2], s[1], s[0]))
        return items


def _reject(kind: str, given: Array, bad: Array, what: str) -> None:
    """Raise naming the first ``kind`` row of ``given`` flagged in ``bad``."""
    if np.any(bad):
        row = tuple(int(x) for x in given[int(np.argmax(bad))])
        raise ValueError(f"{kind} {row} {what}")


def _flag_triangles(n: int, edge_value: Array, r_max: float):
    """Enumerate triangles of the flag complex whose max edge value is <= r_max.

    ``edge_value`` is a dense (n, n) matrix of edge filtration values with
    +inf where the edge is absent.
    """
    adj = edge_value <= r_max
    np.fill_diagonal(adj, False)
    tri_list = []
    val_list = []
    for k in range(2, n):
        nbrs = np.nonzero(adj[k, :k])[0]
        if len(nbrs) < 2:
            continue
        sub = adj[np.ix_(nbrs, nbrs)]
        ii, jj = np.nonzero(np.triu(sub, 1))
        if len(ii) == 0:
            continue
        a = nbrs[ii]
        b = nbrs[jj]
        vals = np.maximum(
            edge_value[a, b], np.maximum(edge_value[a, k], edge_value[b, k])
        )
        keep = vals <= r_max
        if np.any(keep):
            tri = np.column_stack([a[keep], b[keep], np.full(keep.sum(), k)])
            tri_list.append(tri)
            val_list.append(vals[keep])
    if not tri_list:
        return np.empty((0, 3), dtype=np.int64), np.empty(0)
    return np.concatenate(tri_list).astype(np.int64), np.concatenate(val_list)


def _build_flag(vertex_values: Array, edge_value: Array, max_dim: int, r_max: float) -> FilteredComplex:
    n = len(vertex_values)
    iu, ju = np.triu_indices(n, 1)
    vals = edge_value[iu, ju]
    keep = vals <= r_max
    edges = np.column_stack([iu[keep], ju[keep]]).astype(np.int64)
    evals = vals[keep]
    if max_dim >= 2:
        tris, tvals = _flag_triangles(n, edge_value, r_max)
    else:
        tris = np.empty((0, 3), dtype=np.int64)
        tvals = np.empty(0)
    return FilteredComplex(vertex_values, edges, evals, tris, tvals)


def _guard(n: int, max_dim: int, force: bool):
    if max_dim >= 2 and n > MAX_FLAG_POINTS and not force:
        raise ValueError(
            f"{n} points exceed the {MAX_FLAG_POINTS}-point budget for a "
            "2-dimensional flag complex; pass force=True to override"
        )


def rips_complex(
    matrix: DistanceMatrix, max_dim: int = 2, r_max: float | None = None, force: bool = False
) -> FilteredComplex:
    """Vietoris-Rips flag complex: vertices at 0, edges at their distance,
    triangles at the maximum of their three edges, truncated at r_max."""
    if not 0 <= max_dim <= 2:
        raise ValueError("max_dim must be 0, 1 or 2")
    n = matrix.n
    _guard(n, max_dim, force)
    d = matrix.values
    if r_max is None:
        r_max = float(d.max()) if n > 1 else 0.0
    if n > 1 and r_max <= 0:
        raise ValueError("r_max must be positive")
    if max_dim == 0:
        return FilteredComplex(
            np.zeros(n), np.empty((0, 2), dtype=np.int64), np.empty(0),
            np.empty((0, 3), dtype=np.int64), np.empty(0),
        )
    return _build_flag(np.zeros(n), d, max_dim, r_max)


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
    """
    f = np.asarray(vertex_values, dtype=float).ravel()
    n = matrix.n
    if len(f) != n:
        raise ValueError("vertex_values length must match the matrix size")
    if not np.all(np.isfinite(f)):
        raise ValueError("vertex values must be finite")
    _guard(n, max_dim, force)
    d = matrix.values
    fi = f[:, None]
    fj = f[None, :]
    swallowed = d <= np.abs(fi - fj)
    w = np.where(swallowed, np.maximum(fi, fj), (fi + fj + d) / 2.0)
    np.fill_diagonal(w, np.inf)
    if r_max is None:
        r_max = float(w[np.isfinite(w)].max()) if n > 1 else float(f.max())
    return _build_flag(f, w, max_dim, r_max)


# ---------------------------------------------------------------------------
# cubical grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilteredCubicalGrid:
    """Square grid of top cells; unoccupied cells sit at +inf.

    Lower cells (edges, vertices) take the minimum over their incident top
    cells, derived on demand.
    """

    top_values: Array  # (c, c), +inf allowed

    def __post_init__(self):
        v = np.asarray(self.top_values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 1:
            raise ValueError("top cell values must form a square grid")
        if np.any(np.isnan(v)):
            raise ValueError("top cell values must not be NaN")
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

    def edge_values_x(self) -> Array:
        """(c, c+1) values of edges parallel to the x-axis: cells (i, j-1)|(i, j)."""
        c = self.side
        padded = np.full((c, c + 2), np.inf)
        padded[:, 1:-1] = self.top_values
        return np.minimum(padded[:, :-1], padded[:, 1:])

    def edge_values_y(self) -> Array:
        """(c+1, c) values of edges parallel to the y-axis: cells (i-1, j)|(i, j)."""
        c = self.side
        padded = np.full((c + 2, c), np.inf)
        padded[1:-1, :] = self.top_values
        return np.minimum(padded[:-1, :], padded[1:, :])


def tubular_filtration(line: Line) -> Callable[[Array], Array]:
    """Filtration callable: distance of cell centers to the line."""
    return lambda centers: tubular_distances(centers, line)


def height_filtration(v) -> Callable[[Array], Array]:
    """Filtration callable: scalar product of cell centers with unit v."""
    v = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(v)) or abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
        raise ValueError("height direction must be a finite unit vector")
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
    centers = mask.cell_centers()
    c = mask.side
    values = np.full((c, c), np.inf)
    occ = mask.cells
    vals = np.asarray(fn(centers[occ].reshape(-1, 2)), dtype=float).ravel()
    if vals.shape[0] != int(occ.sum()):
        raise ValueError("filtration function returned the wrong number of values")
    if not np.all(np.isfinite(vals)):
        raise ValueError("filtration values on occupied cells must be finite")
    values[occ] = vals
    return FilteredCubicalGrid(values)
