"""Stability of persistence past the oracle's sizes: the rank inequality of
Cohen-Steiner, Edelsbrunner and Harer (2007) on perturbed flag complexes and
grids. If two filtrations f and g of one complex are within eps in the sup
norm, then for every s + 2 eps < t Dgm(f) has no more points born by s that
die after t than Dgm(g) has born by s + eps that die after t - eps. A class
that is lost, made up or shifted by more than eps breaks it."""

import numpy as np
import pytest

from tdalab.complexes import FilteredCubicalGrid, cubical_complex, rips_complex, tubular_filtration, weighted_rips_complex
from tdalab.datagen import gen_polygon_masks, holes_catalog, sample_holes_shape
from tdalab.geometry import BinaryMask, PointCloud, dtm, euclidean_distance_matrix
from tdalab.persistence import compute_ph
from tdalab.pipelines import default_lines


def rank_violations(dgm_f: np.ndarray, dgm_g: np.ndarray, eps: float) -> list:
    """The (s, t), s + 2 eps < t, at which #{(b, d) in dgm_f : b <= s, d > t}
    exceeds #{(b, d) in dgm_g : b <= s + eps, d > t - eps}, for (m, 2)
    (birth, death) arrays. Both counts grow with s and shrink with t, so s
    runs over the births of dgm_f and t over the values just below its finite
    deaths, and one t above every finite value, where only the essential
    classes count: each count is constant between those values."""
    (b_f, d_f), (b_g, d_g) = dgm_f.T, dgm_g.T
    finite = np.concatenate([dgm_f[np.isfinite(dgm_f)], dgm_g[np.isfinite(dgm_g)]])
    below_deaths = np.nextafter(d_f[np.isfinite(d_f)], -np.inf)
    ts = np.unique(np.append(below_deaths, finite.max(initial=0.0) + 2 * eps + 1.0))
    out = []
    for s in np.unique(b_f):
        t = ts[s + 2 * eps < ts]
        rank_f = ((b_f <= s) & (d_f > t[:, None])).sum(axis=1)
        rank_g = ((b_g <= s + eps) & (d_g > t[:, None] - eps)).sum(axis=1)
        out += [(float(s), float(u)) for u in t[rank_f > rank_g]]
    return out


def _check_both_ways(cx_f, cx_g, eps: float):
    """The rank inequality each way in degrees 0 and 1; returns the diagram
    of ``cx_f``."""
    pd_f, pd_g = compute_ph(cx_f), compute_ph(cx_g)
    for dim in (0, 1):
        f, g = pd_f.in_dim(dim), pd_g.in_dim(dim)
        assert rank_violations(f, g, eps) == [], dim
        assert rank_violations(g, f, eps) == [], dim
    return pd_f


def _value_table(graph) -> np.ndarray:
    """(n, n) values of a complete flag complex: vertices on the diagonal,
    edges off it. Triangles take their largest edge, so the sup-norm distance
    of two such filtrations is that of their tables."""
    table = np.diag(graph.vertex_values)
    i, j = graph.edges.T
    table[i, j] = table[j, i] = graph.edge_values
    return table


# a slack far above the rounding of the values and far below the perturbation
SLACK = 1 + 1e-9


@pytest.mark.parametrize("weighted", [False, True], ids=["rips", "dtm-rips"])
@pytest.mark.parametrize("shape, seed", [(4, 0), (10, 1)], ids=["one-hole-disk", "two-hole-square"])
def test_rank_inequality_on_perturbed_flag_complexes(weighted, shape, seed):
    # about 120 points: complete complexes of 7,140 edges and 280,840 implicit triangles
    rng = np.random.default_rng(seed)
    points = sample_holes_shape(holes_catalog()[shape], 120, seed).points[:, :2]
    moved = points + rng.uniform(-0.01, 0.01, points.shape)
    graphs = []
    for cloud in (points, moved):
        dm = euclidean_distance_matrix(PointCloud(cloud))
        graphs.append(weighted_rips_complex(dm, dtm(dm, 0.03), max_dim=1) if weighted else rips_complex(dm, max_dim=1))
    assert len(graphs[0].edges) == 120 * 119 // 2
    eps = float(np.abs(_value_table(graphs[0]) - _value_table(graphs[1])).max()) * SLACK
    dim1 = _check_both_ways(*graphs, eps).in_dim(1)
    # a hole's class outlives 2 eps, so the degree-1 counts are not all 0
    assert np.any(dim1[:, 1] - dim1[:, 0] > 2 * eps)


def _holed_mask(side: int) -> BinaryMask:
    """A disk with two round holes, one off-center, on a side x side raster."""
    centers = (np.indices((side, side)).transpose(1, 2, 0) + 0.5) / side
    r = np.linalg.norm(centers - 0.5, axis=2)
    off = np.linalg.norm(centers - (0.5, 0.72), axis=2)
    return BinaryMask((r < 0.48) & (r > 0.14) & (off > 0.06))


HOLED = _holed_mask(100)


@pytest.mark.parametrize(
    "mask",
    [HOLED, *gen_polygon_masks(2, 100, seed=5, concave_fraction=1.0).items],
    ids=["two-holes", "concave-0", "concave-1"],
)
def test_rank_inequality_on_perturbed_tubular_grids(mask):
    # side-100 tubular grids, each top cell moved by at most 0.4 cell
    rng = np.random.default_rng(mask.side)
    delta = 0.4 * mask.cell_size
    long_components = 0
    for line in default_lines(mask).lines:
        grid = cubical_complex(mask, tubular_filtration(line))
        top = grid.top_values
        moved = np.where(mask.cells, top + delta * rng.integers(-1, 2, top.shape), np.inf)
        eps = float(np.abs(top[mask.cells] - moved[mask.cells]).max()) * SLACK
        pd = _check_both_ways(grid, FilteredCubicalGrid(moved), eps)
        # a hole of the mask is an essential class; a shape without one has none
        assert np.sum(pd.in_dim(1)[:, 1] == np.inf) == (2 if mask is HOLED else 0)
        dim0 = pd.finite_in_dim(0)
        long_components += np.sum(dim0[:, 1] - dim0[:, 0] > 2 * eps)
    # some line splits the shape for longer than 2 eps, so not every finite count is 0
    assert long_components > 0
