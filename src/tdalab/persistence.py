"""Persistence diagrams in degrees 0 and 1 over Z/2.

One engine serves both complex types. Degree-0 pairs come from an
elder-rule union-find over the edges in filtration order, which gives the
pairing of the vertex-edge boundary reduction; the edges it finds closing a
cycle are the degree-1 creators. Degree-1 deaths come from the
anti-transposed edge-triangle block, reduced with columns held as Python
integers used as bit sets; its pairing is identical but its column count is
the number of edges rather than triangles, so the huge kernel of the
triangle boundary is never reduced. Columns whose initial pivot is
unclaimed are kept unreduced until someone collides with them, exactly as
the textbook algorithm would leave them. A deliberately unoptimized
textbook reduction of the whole boundary matrix is the reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import FilteredComplex, FilteredCubicalGrid

Array = np.ndarray

ORACLE_MAX_SIMPLICES = 2000


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (dim, birth, death) intervals; death may be +inf."""

    intervals: Array  # (k, 3) float, sorted by (dim, birth, death)

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float).reshape(-1, 3)
        if np.isnan(iv).any():
            raise ValueError("intervals must not contain nan")
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
# cell extraction: one representation for both complex types
# ---------------------------------------------------------------------------


def _flag_cells(cx: FilteredComplex, max_dim: int):
    """Per-dimension sorted values and boundary row indices for a flag complex."""
    n = cx.n_vertices
    v_order = np.lexsort((np.arange(n), cx.vertex_values))
    v_row = np.empty(n, dtype=np.int64)
    v_row[v_order] = np.arange(n)
    values = [cx.vertex_values[v_order]]
    boundaries = [None]

    # re-sort defensively so directly constructed complexes reduce correctly
    e_order = np.lexsort((cx.edges[:, 1], cx.edges[:, 0], cx.edge_values))
    edges = cx.edges[e_order]
    values.append(cx.edge_values[e_order])
    boundaries.append(np.column_stack([v_row[edges[:, 0]], v_row[edges[:, 1]]]))

    if max_dim >= 1 and len(cx.triangles):
        e_index = np.full((n, n), -1, dtype=np.int64)
        e_index[edges[:, 0], edges[:, 1]] = np.arange(len(edges))
        t_order = np.lexsort(
            (cx.triangles[:, 2], cx.triangles[:, 1], cx.triangles[:, 0], cx.triangle_values)
        )
        tris = cx.triangles[t_order]
        rows = np.column_stack(
            [
                e_index[tris[:, 0], tris[:, 1]],
                e_index[tris[:, 0], tris[:, 2]],
                e_index[tris[:, 1], tris[:, 2]],
            ]
        )
        if rows.size and rows.min() < 0:
            raise ValueError("triangle has a missing edge face")
        values.append(cx.triangle_values[t_order])
        boundaries.append(rows)
    return values, boundaries


def _cubical_cells(grid: FilteredCubicalGrid, max_dim: int):
    """Per-dimension sorted values and boundary rows for a cubical grid.

    Cells with +inf values never enter the filtration. Ties are broken by
    cell coordinates, vertices-first within an edge family split.
    """
    c = grid.side
    vv = grid.vertex_values()
    ex = grid.edge_values_x()  # (c, c+1): vertex (i,j) -> (i+1,j)
    ey = grid.edge_values_y()  # (c+1, c): vertex (i,j) -> (i,j+1)
    top = grid.top_values

    vi, vj = np.nonzero(np.isfinite(vv))
    v_vals = vv[vi, vj]
    order = np.lexsort((vj, vi, v_vals))
    vi, vj, v_vals = vi[order], vj[order], v_vals[order]
    v_row = -np.ones((c + 1, c + 1), dtype=np.int64)
    v_row[vi, vj] = np.arange(len(vi))

    # edge key: (value, v0_i, v0_j, family) with the y-family first on ties,
    # matching lexicographic comparison of vertex pairs
    xi, xj = np.nonzero(np.isfinite(ex))
    yi, yj = np.nonzero(np.isfinite(ey))
    e_vals = np.concatenate([ex[xi, xj], ey[yi, yj]])
    e_i0 = np.concatenate([xi, yi])
    e_j0 = np.concatenate([xj, yj])
    e_fam = np.concatenate([np.ones(len(xi), dtype=np.int64), np.zeros(len(yi), dtype=np.int64)])
    order = np.lexsort((e_fam, e_j0, e_i0, e_vals))
    e_vals, e_i0, e_j0, e_fam = e_vals[order], e_i0[order], e_j0[order], e_fam[order]
    e_end_i = np.where(e_fam == 1, e_i0 + 1, e_i0)
    e_end_j = np.where(e_fam == 1, e_j0, e_j0 + 1)
    e_bnd = np.column_stack([v_row[e_i0, e_j0], v_row[e_end_i, e_end_j]])
    if max_dim == 0:
        return [v_vals, e_vals], [None, e_bnd]

    ex_row = -np.ones((c, c + 1), dtype=np.int64)
    ey_row = -np.ones((c + 1, c), dtype=np.int64)
    fam_x = e_fam == 1
    ex_row[e_i0[fam_x], e_j0[fam_x]] = np.nonzero(fam_x)[0]
    fam_y = ~fam_x
    ey_row[e_i0[fam_y], e_j0[fam_y]] = np.nonzero(fam_y)[0]

    si, sj = np.nonzero(np.isfinite(top))
    s_vals = top[si, sj]
    order = np.lexsort((sj, si, s_vals))
    si, sj, s_vals = si[order], sj[order], s_vals[order]
    s_bnd = np.column_stack(
        [ex_row[si, sj], ex_row[si, sj + 1], ey_row[si, sj], ey_row[si + 1, sj]]
    )

    values = [v_vals, e_vals, s_vals]
    boundaries = [None, e_bnd, s_bnd]
    return values, boundaries


def _cells_of(cx, max_dim: int):
    """Cells up to dimension 2, or only vertices and edges when max_dim is 0."""
    if isinstance(cx, FilteredComplex):
        return _flag_cells(cx, max_dim)
    if isinstance(cx, FilteredCubicalGrid):
        return _cubical_cells(cx, max_dim)
    raise TypeError(f"cannot compute persistence of {type(cx).__name__}")


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _elder_union_find(n_vertices: int, edge_rows: Array) -> tuple:
    """Elder-rule union-find over edges given in filtration order.

    Vertex rows are in filtration order too, so of two roots the smaller
    row is the elder; each root is the oldest vertex of its component.
    Returns (pairs, cycle): the (vertex row, edge) death pairs and a mask of
    the edges that close a cycle. The pairs are exactly those of the
    left-to-right reduction of the vertex-edge boundary block.
    """
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = []
    cycle = np.zeros(len(edge_rows), dtype=bool)
    for j, (a, b) in enumerate(edge_rows.tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            cycle[j] = True
            continue
        elder, younger = (ra, rb) if ra < rb else (rb, ra)
        parent[younger] = elder
        pairs.append((younger, j))
    return pairs, cycle


class _BitColumns:
    """Builds bit-set integers over a fixed row range with a reused buffer."""

    def __init__(self, width_bits: int):
        self.width = ((width_bits + 7) // 8) * 8
        self._buf = np.zeros(self.width, dtype=np.uint8)

    def build(self, rows: Array) -> int:
        buf = self._buf
        idx = self.width - 1 - rows
        buf[idx] = 1
        start = (int(idx.min()) // 8) * 8  # bytes above the top bit are zero
        out = int.from_bytes(np.packbits(buf[start:]).tobytes(), "big")
        buf[idx] = 0
        return out


def _reduce_dual_block(cofacets, n_cofacets: int) -> list:
    """Reduce the anti-transposed (d, d+1) boundary block.

    ``cofacets[j]`` lists, in ascending filtration position, the (d+1)-cells
    incident to d-cell j. Columns are processed in reverse filtration order;
    the resulting (d-cell, (d+1)-cell) pairs form exactly the degree-d
    persistence pairs. Columns whose initial pivot is unclaimed are stored
    unreduced and only materialized as bit sets when a later column
    collides, which is what makes this block cheap.
    """
    T = n_cofacets
    bits = _BitColumns(T)
    raw = {}  # pivot row -> column index stored unreduced
    reduced = {}  # pivot row -> bit-set column
    pairs = []

    def build(j) -> int:
        return bits.build(T - 1 - cofacets[j])

    for j in range(len(cofacets) - 1, -1, -1):
        cof = cofacets[j]
        if len(cof) == 0:
            continue
        low0 = T - 1 - int(cof[0])
        if low0 not in raw and low0 not in reduced:
            raw[low0] = j
            pairs.append((j, int(cof[0])))
            continue
        col = build(j)
        while col:
            low = col.bit_length() - 1
            other = reduced.get(low)
            if other is not None:
                col ^= other
                continue
            holder = raw.pop(low, None)
            if holder is not None:
                other = build(holder)
                reduced[low] = other
                col ^= other
                continue
            reduced[low] = col
            pairs.append((j, T - 1 - low))
            break
    return pairs


def _ph_from_cells(values, boundaries, max_dim: int, drop_zero: bool):
    """Assemble intervals from per-dimension cell orders and boundaries."""
    rows = []
    pairs0, cycle = _elder_union_find(len(values[0]), boundaries[1])
    alive = np.ones(len(values[0]), dtype=bool)
    for r, j in pairs0:
        alive[r] = False
        birth, death = values[0][r], values[1][j]
        if not drop_zero or death != birth:
            rows.append((0, birth, death))
    for r in np.nonzero(alive)[0]:
        rows.append((0, values[0][r], math.inf))

    if max_dim >= 1:
        n_edges = len(values[1])
        edge_killed = np.zeros(n_edges, dtype=bool)
        if len(values) > 2 and len(values[2]):
            T = len(values[2])
            flat_e = boundaries[2].ravel()
            flat_p = np.repeat(np.arange(T), boundaries[2].shape[1])
            order = np.lexsort((flat_p, flat_e))
            fe, fp = flat_e[order], flat_p[order]
            starts = np.searchsorted(fe, np.arange(n_edges))
            ends = np.searchsorted(fe, np.arange(n_edges) + 1)
            cofacets = [fp[s:e] for s, e in zip(starts, ends)]
            for e, p in _reduce_dual_block(cofacets, T):
                edge_killed[e] = True
                birth, death = values[1][e], values[2][p]
                if not drop_zero or death != birth:
                    rows.append((1, birth, death))
        for e in np.nonzero(cycle & ~edge_killed)[0]:
            rows.append((1, values[1][e], math.inf))
    return _diagram(rows)


def compute_ph(cx, max_dim: int = 1, drop_zero: bool = True) -> PersistenceDiagram:
    """Persistence diagram of a filtered complex in degrees 0..max_dim.

    Degree 0 comes from an elder-rule union-find over the edges in
    filtration order; the edges it finds closing a cycle create the degree-1
    classes, whose deaths come from the anti-transposed edge-triangle block,
    which skips the huge kernel of the triangle boundary. With max_dim=0 no
    triangles or squares are extracted. Zero-length intervals are dropped by
    default; pass drop_zero=False to keep them (Euler-characteristic
    bookkeeping).
    """
    if not 0 <= max_dim <= 1:
        raise ValueError("max_dim must be 0 or 1")
    values, boundaries = _cells_of(cx, max_dim)
    return _ph_from_cells(values, boundaries, max_dim, drop_zero)


def compute_ph0_unionfind(cx) -> PersistenceDiagram:
    """Degree-0 persistence: ``compute_ph(cx, max_dim=0)``."""
    return compute_ph(cx, max_dim=0)


# ---------------------------------------------------------------------------
# naive oracle (tests only)
# ---------------------------------------------------------------------------


def _oracle_cells(cx):
    """Independent cell enumeration: (key, dim, value, facet keys)."""
    cells = []
    if isinstance(cx, FilteredComplex):
        for verts, dim, value in cx.simplices():
            facets = [f for f in combinations(verts, dim)] if dim > 0 else []
            cells.append((verts, dim, value, facets))
        return cells
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
    cells = _oracle_cells(cx)
    if len(cells) > ORACLE_MAX_SIMPLICES:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_SIMPLICES} simplices, got {len(cells)}"
        )
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
