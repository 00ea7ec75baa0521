"""Output checks made apart from the program under test.

Each check compares tdalab with an independent computation (scipy's minimum
spanning tree and connected-component labelling, the naive reduction
oracle) or with a property the method must have. None compares with a
stored copy of earlier output. Every function returns ``(ok, detail)``.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from tdalab.persistence import compute_ph, compute_ph0_unionfind, naive_reduction_oracle

EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def spanning_tree_weights(cx):
    """Ascending edge weights of scipy's minimum spanning forest of the
    complex's edges (all edge values are positive in these workloads)."""
    n = len(cx.vertex_values)
    graph = csr_matrix((cx.edge_values, (cx.edges[:, 0], cx.edges[:, 1])), shape=(n, n))
    return np.sort(minimum_spanning_tree(graph).data)


def mst_deaths(cx) -> tuple:
    """Degree-0 finite deaths (zero-length pairs kept) equal the edge
    weights of a minimum spanning forest of the complex's edge graph."""
    expected = spanning_tree_weights(cx)
    got = np.sort(compute_ph(cx, max_dim=0, drop_zero=False).finite_in_dim(0)[:, 1])
    ok = np.array_equal(got, expected)
    return ok, f"{len(got)} deaths vs {len(expected)} spanning-tree edges"


def unionfind_mst_deaths(cx) -> tuple:
    """On a Rips complex (every vertex born at 0, so no pair has zero
    length) the union-find engine's finite deaths equal the spanning-tree
    weights as well."""
    if np.any(cx.vertex_values != 0):
        return False, "vertex values must all be 0"
    expected = spanning_tree_weights(cx)
    got = np.sort(compute_ph0_unionfind(cx).finite_in_dim(0)[:, 1])
    ok = np.array_equal(got, expected)
    return ok, f"{len(got)} deaths vs {len(expected)} spanning-tree edges"


def edge_pairing(cx) -> tuple:
    """Every edge of a flag complex either kills a degree-0 class or creates
    a degree-1 class, which then dies or stays essential."""
    pd = compute_ph(cx, max_dim=1, drop_zero=False)
    finite0 = len(pd.finite_in_dim(0))
    dim1 = len(pd.in_dim(1))
    ok = finite0 + dim1 == len(cx.edges)
    return ok, f"{finite0} + {dim1} pairs vs {len(cx.edges)} edges"


def oracle_equal(cx, max_dim: int) -> tuple:
    """The library's diagrams equal the textbook reduction's, with and
    without zero-length intervals; degree 0 also by union-find."""
    ok = True
    for drop_zero in (True, False):
        got = compute_ph(cx, max_dim=max_dim, drop_zero=drop_zero).multiset()
        ok &= got == naive_reduction_oracle(cx, max_dim=max_dim, drop_zero=drop_zero).multiset()
    oracle0 = naive_reduction_oracle(cx, max_dim=0).multiset()
    ok &= compute_ph0_unionfind(cx).multiset() == oracle0
    return ok, f"{len(oracle0)} degree-0 intervals"


def grid_components(grid) -> tuple:
    """At every filtration value, the degree-0 classes alive equal the
    8-connected components of the sublevel set, for both engines."""
    top = grid.top_values
    levels = np.unique(top[np.isfinite(top)])
    ok = True
    for engine in (compute_ph0_unionfind, lambda g: compute_ph(g, max_dim=0)):
        pts = engine(grid).in_dim(0)
        for t in levels:
            alive = int(np.sum((pts[:, 0] <= t) & (pts[:, 1] > t)))
            _, components = ndimage.label(top <= t, structure=EIGHT_CONNECTED)
            ok &= alive == components
    return ok, f"{len(levels)} levels"


def at_least(value: float, floor: float, what: str) -> tuple:
    return value >= floor, f"{what} {value:.4f} (need >= {floor:.4f})"


def above(value: float, baseline: float, what: str) -> tuple:
    return value > baseline, f"{what} {value:.4f} (baseline {baseline:.4f})"


def below(value: float, ceiling: float, what: str) -> tuple:
    return value < ceiling, f"{what} {value:.4f} (need < {ceiling:.4f})"
