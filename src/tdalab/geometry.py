"""Point-cloud and mask primitives.

Metrics (Euclidean and constant-curvature geodesic), distance-to-measure,
distances to a line, random transforms, convex hulls, rasterization, and
the area-ratio convexity measure.

Conventions:
  - point clouds are float arrays of shape (n, d) with d in {2, 3};
  - geodesic-polar samples carry (rho, phi) with rho <= 1 plus a curvature;
  - masks index cells as cells[ix, iy] with x increasing along axis 0 and y
    along axis 1; cell (ix, iy) covers a square of side width/c whose center
    is origin + ((ix + .5) * cell, (iy + .5) * cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import generator

Array = np.ndarray

_UNIT_TOL = 1e-12


def _frozen_array(values, dtype=float) -> Array:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def checked_array(value, name: str, shape: tuple, dtype=float, inf: bool = False) -> Array:
    """``value`` as an array of ``dtype``, whose shape must match ``shape``
    and whose values must not be NaN, nor +-inf unless ``inf``, before the
    cast, so that an integer or boolean array cannot hide a NaN. An axis of
    ``shape`` is an int length or a name, such as ``"n"``, for any length.
    A ValueError names the argument: ``points must have shape (n, 2), got (2, 3)``.
    """
    a = np.asarray(value)
    if a.ndim != len(shape) or any(isinstance(s, int) and s != t for s, t in zip(shape, a.shape)):
        want = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} must have shape ({want}), got {a.shape}")
    if a.dtype.kind == "f" and inf and np.isnan(a).any():
        raise ValueError(f"{name} must not contain nan")
    if a.dtype.kind == "f" and not inf and not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of points in R^2 or R^3."""

    points: Array

    def __post_init__(self):
        pts = checked_array(self.points, "points", ("n", "d"))
        if pts.shape[0] < 1:
            raise ValueError("points must be nonempty")
        if pts.shape[1] not in (2, 3):
            raise ValueError(f"points must have 2 or 3 coordinates, got {pts.shape[1]}")
        object.__setattr__(self, "points", _frozen_array(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class PolarCloud:
    """Geodesic-polar samples (rho, phi) on a constant-curvature unit disk."""

    coords: Array  # (n, 2): rho in [0, 1], phi in [0, 2*pi)
    curvature: float

    def __post_init__(self):
        c = checked_array(self.coords, "coords", ("n", 2))
        if c.shape[0] < 1:
            raise ValueError("coords must be nonempty")
        rho, phi = c[:, 0], c[:, 1]
        if np.any(rho < 0) or np.any(rho > 1 + 1e-12):
            raise ValueError("geodesic radius rho must lie in [0, 1]")
        if np.any(phi < 0) or np.any(phi >= 2 * math.pi):
            raise ValueError("azimuth phi must lie in [0, 2*pi)")
        kappa = float(self.curvature)
        if not math.isfinite(kappa) or not -2.0 <= kappa <= 2.0:
            raise ValueError("curvature must be finite and in [-2, 2]")
        object.__setattr__(self, "coords", _frozen_array(c))
        object.__setattr__(self, "curvature", kappa)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative pairwise-distance matrix with zero diagonal."""

    values: Array

    def __post_init__(self):
        v = checked_array(self.values, "values", ("n", "n"))
        if v.shape[0] != v.shape[1] or v.shape[0] < 1:
            raise ValueError(f"values must be a square nonempty matrix, got {v.shape}")
        if np.any(v < 0):
            raise ValueError("distance matrix entries must be nonnegative")
        if np.any(np.diag(v) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if not np.array_equal(v, v.T):
            raise ValueError("distance matrix must be symmetric")
        object.__setattr__(self, "values", _frozen_array(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Line:
    """Infinite line in the plane given by an anchor point and a unit direction."""

    anchor: Array
    direction: Array

    def __post_init__(self):
        a = checked_array(self.anchor, "anchor", (2,))
        d = checked_array(self.direction, "direction", (2,))
        if abs(float(np.hypot(d[0], d[1])) - 1.0) > _UNIT_TOL:
            raise ValueError("line direction must be a unit vector (within 1e-12)")
        object.__setattr__(self, "anchor", _frozen_array(a))
        object.__setattr__(self, "direction", _frozen_array(d))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counter-clockwise vertices (signed area > 0)."""

    vertices: Array

    def __post_init__(self):
        v = checked_array(self.vertices, "vertices", ("n", 2))
        if v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if _signed_area(v) <= 0:
            raise ValueError("polygon vertices must be counter-clockwise")
        if not _is_simple(v):
            raise ValueError("polygon must be simple (no self-intersection)")
        object.__setattr__(self, "vertices", _frozen_array(v))

    @property
    def n(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class BinaryMask:
    """Square occupancy grid with a physical extent.

    ``cells[ix, iy]`` covers the square of side ``width / side`` whose center
    is ``origin + ((ix + .5) * cell, (iy + .5) * cell)``.
    """

    cells: Array
    origin: Array = field(default_factory=lambda: np.zeros(2))
    width: float = 1.0

    def __post_init__(self):
        c = checked_array(self.cells, "cells", ("c", "c"), dtype=bool)
        if c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise ValueError(f"cells must be square with side >= 2, got {c.shape}")
        if not c.any():
            raise ValueError("mask must contain at least one occupied cell")
        o = checked_array(self.origin, "origin", (2,))
        w = float(self.width)
        if not (math.isfinite(w) and w > 0):
            raise ValueError("mask width must be finite and positive")
        object.__setattr__(self, "cells", _frozen_array(c, dtype=bool))
        object.__setattr__(self, "origin", _frozen_array(o))
        object.__setattr__(self, "width", w)

    @property
    def side(self) -> int:
        return self.cells.shape[0]

    @property
    def cell_size(self) -> float:
        return self.width / self.side

    def cell_centers(self) -> Array:
        """Centers of all cells, shape (side, side, 2)."""
        return self.origin + (np.indices(self.cells.shape).transpose(1, 2, 0) + 0.5) * self.cell_size

    def occupied_centers(self) -> Array:
        """Centers of occupied cells in raster order, shape (k, 2)."""
        return self.origin + (np.argwhere(self.cells) + 0.5) * self.cell_size


_TABLE_RANGES = {
    "translation": (-1.0, 1.0),
    "rotation": (-20.0, 20.0),  # degrees, applied clockwise
    "stretch": (0.8, 1.2),  # x-axis scale factor
    "shear": (-0.2, 0.2),
    "gaussian": (0.0, 0.1),  # noise standard deviation
    "outliers": (0.0, 0.1),  # replaced fraction
}


@dataclass(frozen=True)
class TransformSpec:
    """One of the six point-cloud perturbations with its magnitude range."""

    kind: str
    low: float = math.nan
    high: float = math.nan

    def __post_init__(self):
        if self.kind not in _TABLE_RANGES:
            raise ValueError(f"unknown transform kind: {self.kind!r}")
        lo, hi = _TABLE_RANGES[self.kind]
        low = lo if math.isnan(self.low) else float(self.low)
        high = hi if math.isnan(self.high) else float(self.high)
        if not low <= high:
            raise ValueError("transform range must satisfy low <= high")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @staticmethod
    def kinds() -> tuple:
        return tuple(_TABLE_RANGES)


# ---------------------------------------------------------------------------
# metrics and filtration functions
# ---------------------------------------------------------------------------


def euclidean_distance_matrix(cloud: PointCloud) -> DistanceMatrix:
    """All pairwise Euclidean distances."""
    pts = cloud.points
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    d = 0.5 * (d + d.T)  # kill asymmetric rounding
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def geodesic_distance_matrix(cloud: PolarCloud) -> DistanceMatrix:
    """Pairwise geodesic distances on the constant-curvature disk.

    Uses the spherical / planar / hyperbolic law of cosines on the intrinsic
    polar coordinates, so no embedding is ever constructed.
    """
    kappa = cloud.curvature
    rho = cloud.coords[:, 0]
    phi = cloud.coords[:, 1]
    cos_dphi = np.cos(phi[:, None] - phi[None, :])
    if kappa > 0:
        r = 1.0 / math.sqrt(kappa)
        a = rho[:, None] / r
        b = rho[None, :] / r
        cos_d = np.cos(a) * np.cos(b) + np.sin(a) * np.sin(b) * cos_dphi
        d = r * np.arccos(np.clip(cos_d, -1.0, 1.0))
    elif kappa < 0:
        r = 1.0 / math.sqrt(-kappa)
        a = rho[:, None] / r
        b = rho[None, :] / r
        cosh_d = np.cosh(a) * np.cosh(b) - np.sinh(a) * np.sinh(b) * cos_dphi
        d = r * np.arccosh(np.maximum(cosh_d, 1.0))
    else:
        sq = rho[:, None] ** 2 + rho[None, :] ** 2 - 2.0 * np.outer(rho, rho) * cos_dphi
        d = np.sqrt(np.maximum(sq, 0.0))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def dtm(matrix: DistanceMatrix, m: float) -> Array:
    """Distance-to-measure values: per-point RMS distance to the k nearest neighbors.

    k = ceil(m * n) with the point itself excluded, capped at n - 1.
    """
    if not 0.0 < m <= 1.0:
        raise ValueError("dtm mass fraction m must lie in (0, 1]")
    n = matrix.n
    if n < 2:
        raise ValueError("dtm needs at least two points")
    k = min(max(1, math.ceil(m * n)), n - 1)
    d = matrix.values
    rows = np.sort(d, axis=1)[:, 1 : k + 1]  # drop the zero self-distance
    return np.sqrt(np.mean(rows**2, axis=1))


def tubular_distances(points: Array, line) -> Array:
    """Euclidean distances from an (n, 2) array of planar points to an
    infinite line: (n,) for a ``Line``, and (m, n) for lines given as (m, 2)
    arrays ``anchor`` and unit ``direction``, such as a ``LineSet``."""
    rel = checked_array(points, "points", ("n", 2)) - line.anchor[..., None, :]
    return np.abs(rel[..., 0] * line.direction[..., 1, None] - rel[..., 1] * line.direction[..., 0, None])


# ---------------------------------------------------------------------------
# subsampling and transforms
# ---------------------------------------------------------------------------


def farthest_point_subsample(cloud: PointCloud, k: int, seed: int) -> PointCloud:
    """Greedy maximin subsample of k points; the first point is drawn by seed.

    The sweep of ``farthest_point_subsamples`` on a block of one cloud.
    """
    return farthest_point_subsamples([cloud], k, [seed])[0]


def farthest_point_subsamples(clouds, k: int, seeds) -> list:
    """``farthest_point_subsample`` of each cloud of a block of clouds of one
    size and dimension, one seed each, by one sweep over the block.

    The clouds are stacked coordinate-major, (b, d, n), and each step's
    distances go into one preallocated buffer, every cloud's distances to
    its own last choice at once. The squares are summed left to right,
    (dx² + dy²) + dz², as ``np.linalg.norm(pts - p, axis=1)`` sums the rows
    of an (n, d) array, so each subsample is that of the norm loop, bit for
    bit, whatever else shares its block.
    """
    clouds = list(clouds)
    n, d = clouds[0].n, clouds[0].dim
    if any((cloud.n, cloud.dim) != (n, d) for cloud in clouds):
        raise ValueError(f"the clouds of a block must all have {n} points in {d} dimensions")
    if not 1 <= k <= n:
        raise ValueError(f"subsample size must lie in [1, {n}], got {k}")
    coords = np.stack([cloud.points.T for cloud in clouds])
    rows = np.arange(len(clouds))
    chosen = np.empty((len(clouds), k), dtype=np.int64)
    chosen[:, 0] = [generator(seed).integers(n) for seed in seeds]
    best = np.full((len(clouds), n), math.inf)
    diff = np.empty_like(coords)
    for i in range(1, k):
        np.subtract(coords, coords[rows, :, chosen[:, i - 1]][:, :, None], out=diff)
        np.multiply(diff, diff, out=diff)
        dist = np.add(diff[:, 0], diff[:, 1], out=diff[:, 0])
        if d == 3:
            dist += diff[:, 2]
        np.minimum(best, np.sqrt(dist, out=dist), out=best)
        chosen[:, i] = best.argmax(axis=1)  # argmax takes the first max: deterministic ties
    return [PointCloud(cloud.points[idx]) for cloud, idx in zip(clouds, chosen)]


def apply_transform(cloud: PointCloud, spec: TransformSpec, seed: int) -> PointCloud:
    """Apply one random transform drawn from the spec's magnitude range.

    Rotation, stretch and shear act on the (x, y) coordinates; a third
    coordinate is left unchanged. Rotation is clockwise.
    """
    rng = generator(seed)
    pts = cloud.points.copy()
    kind = spec.kind
    if kind == "translation":
        pts += rng.uniform(spec.low, spec.high, size=cloud.dim)
    elif kind == "rotation":
        theta = math.radians(rng.uniform(spec.low, spec.high))
        c, s = math.cos(theta), math.sin(theta)
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        pts[:, 0] = c * x + s * y
        pts[:, 1] = -s * x + c * y
    elif kind == "stretch":
        pts[:, 0] *= rng.uniform(spec.low, spec.high)
    elif kind == "shear":
        factor = rng.uniform(spec.low, spec.high)
        pts[:, 1] += factor * pts[:, 0]
    elif kind == "gaussian":
        sigma = rng.uniform(spec.low, spec.high)
        if sigma > 0:
            pts += rng.normal(0.0, sigma, size=pts.shape)
    elif kind == "outliers":
        frac = rng.uniform(spec.low, spec.high)
        count = int(round(frac * cloud.n))
        if count > 0:
            idx = rng.choice(cloud.n, size=count, replace=False)
            lo = pts.min(axis=0)
            hi = pts.max(axis=0)
            pts[idx] = rng.uniform(lo, hi, size=(count, cloud.dim))
    else:  # pragma: no cover - TransformSpec already validates
        raise ValueError(f"unknown transform kind: {kind!r}")
    return PointCloud(pts)


# ---------------------------------------------------------------------------
# hulls, polygons, rasterization
# ---------------------------------------------------------------------------


def _signed_area(vertices: Array) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# pairs of polygon edges tested per block in _is_simple
_EDGE_PAIR_BLOCK = 1 << 16


def _is_simple(vertices: Array) -> bool:
    """No two edges of the closed chain meet, but adjacent ones at their
    shared vertex. Every pair of non-adjacent edges p, q is tested at once,
    a block of pairs at a time: p and q cross properly when each edge's
    ends lie strictly on opposite sides of the other, and they touch when
    an end of one is collinear with the other and strictly inside its x or
    y span."""
    m = len(vertices)
    step = max(1, _EDGE_PAIR_BLOCK // m)
    cols = np.arange(m)
    for s in range(0, m, step):
        rows = np.arange(s, min(s + step, m))[:, None]
        # j >= i + 2 skips adjacent edges; j - i = m - 1 is the closing pair (0, m - 1)
        i, j = np.nonzero((cols >= rows + 2) & (cols - rows < m - 1))
        i += s
        i2, j2 = (i + 1) % m, (j + 1) % m
        # the orientation of p's ends against q, then of q's ends against p
        a = vertices[np.stack([j, j, i, i])]
        b = vertices[np.stack([j2, j2, i2, i2])]
        c = vertices[np.stack([i, i2, j, j2])]
        d = (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])
        above = d > 0
        proper = (above[0] != above[1]) & (above[2] != above[3]) & (d != 0).all(axis=0)
        inside = ((np.minimum(a, b) < c) & (c < np.maximum(a, b))).any(axis=2)
        if np.any(proper | ((d == 0) & inside).any(axis=0)):
            return False
    return True


def convex_hull(points: Array) -> Polygon:
    """Counter-clockwise convex hull via the monotone chain sweep.

    Raises ValueError when the input is degenerate (fewer than 3 distinct
    non-collinear points).
    """
    pts = checked_array(points, "points", ("n", 2))
    uniq = sorted({(float(x), float(y)) for x, y in pts})
    if len(uniq) < 3:
        raise ValueError("convex hull needs at least 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("convex hull is degenerate: input points are collinear")
    return Polygon(np.array(hull))


def polygon_area(polygon: Polygon) -> float:
    """Shoelace area (positive for the CCW polygons this module constructs)."""
    return _signed_area(polygon.vertices)


# (edge, point) pairs tested per block in points_in_polygon
_EDGE_POINT_BLOCK = 1 << 16


def points_in_polygon(points: Array, polygon: Polygon) -> Array:
    """Ray-casting containment test for an (n, 2) array or one (2,) point;
    boundary points count as inside.

    Every edge is tested against a block of points at once. A point is
    inside when its rightward ray crosses an odd number of edges, and on the
    boundary when its cross product with an edge is exactly 0 and it lies in
    that edge's bounding box.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape == (2,):
        pts = pts[None, :]
    pts = checked_array(pts, "points", ("n", 2))
    chain = np.vstack([polygon.vertices, polygon.vertices[:1]])
    lo, hi = np.minimum(chain[:-1], chain[1:]), np.maximum(chain[:-1], chain[1:])
    # (m, 1) columns: each edge runs from (x1, y1) by (dx, dy)
    xs, ys = chain[:, :1], chain[:, 1:]
    x1, y1 = xs[:-1], ys[:-1]
    dx, dy = xs[1:] - x1, ys[1:] - y1
    step = max(1, _EDGE_POINT_BLOCK // len(x1))
    inside = np.empty(len(pts), dtype=bool)
    for s in range(0, len(pts), step):
        block = pts[s : s + step]
        x, y = block.T.copy()  # contiguous rows broadcast faster than strided columns
        # bit for bit, t is (x2 - x1) * (y - y1), x_cross is
        # x1 + (y - y1) * (x2 - x1) / (y2 - y1) and cross is t - (y2 - y1) * (x - x1):
        # operands are only swapped where IEEE arithmetic commutes
        t = y - y1
        t *= dx
        # x_cross is read only where the edge spans y, so where dy != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = t / dy
        x_cross += x1
        above = ys > y
        hits = above[:-1] != above[1:]
        hits &= x < x_cross
        odd = np.bitwise_xor.reduce(hits, axis=0)
        cross = x - x1
        cross *= dy
        np.subtract(t, cross, out=cross)
        on_line = cross == 0
        if on_line.any():
            e, p = np.nonzero(on_line)
            q = block[p]
            odd[p[((lo[e] <= q) & (q <= hi[e])).all(axis=1)]] = True
        inside[s : s + step] = odd
    return inside


def _square_extent(lo: Array, hi: Array) -> tuple:
    """Tight bounding box padded symmetrically to a square (origin, width)."""
    span = hi - lo
    width = float(max(span[0], span[1]))
    if width <= 0:
        width = 1.0  # degenerate source: give it a unit extent
    pad = (width - span) / 2.0
    return lo - pad, width


def rasterize(source, side: int) -> BinaryMask:
    """Occupancy grid over the source's bounding box padded to a square.

    A cell is occupied when it contains at least one point (point cloud) or
    its center lies inside the polygon.
    """
    if side < 2:
        raise ValueError("raster side must be at least 2")
    if isinstance(source, PointCloud):
        if source.dim != 2:
            raise ValueError("rasterization is 2-D only")
        pts = source.points
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        origin, width = _square_extent(lo, hi)
        cell = width / side
        ij = np.floor((pts - origin) / cell).astype(int)
        ij = np.clip(ij, 0, side - 1)  # points on the far extent edge
        cells = np.zeros((side, side), dtype=bool)
        cells[ij[:, 0], ij[:, 1]] = True
        return BinaryMask(cells, origin, width)
    if isinstance(source, Polygon):
        verts = source.vertices
        origin, width = _square_extent(verts.min(axis=0), verts.max(axis=0))
        centers = origin + (np.argwhere(np.ones((side, side), dtype=bool)) + 0.5) * (width / side)
        occupied = points_in_polygon(centers, source).reshape(side, side)
        return BinaryMask(occupied, origin, width)
    raise TypeError(f"cannot rasterize {type(source).__name__}")


def fill_sampling_gaps(mask: BinaryMask, min_neighbors: int = 5) -> BinaryMask:
    """Occupy empty cells with at least ``min_neighbors`` occupied 8-neighbors.

    Finite point samples leave isolated empty cells inside and along the rim
    of a shape; those gaps read as short-lived tubular components. One fill
    pass removes them without touching dents wider than one cell.
    """
    if min_neighbors < 1:
        return mask
    c = mask.side
    padded = np.zeros((c + 2, c + 2), dtype=np.int64)
    padded[1:-1, 1:-1] = mask.cells
    counts = sum(
        padded[1 + di : c + 1 + di, 1 + dj : c + 1 + dj]
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        if (di, dj) != (0, 0)
    )
    filled = mask.cells | (counts >= min_neighbors)
    return BinaryMask(filled, mask.origin, mask.width)


def convexity_measure(mask: BinaryMask) -> float:
    """Occupied area divided by the hull area of the occupied cell centers.

    Clamped to at most 1 (the center hull slightly underestimates the true
    region, so ratios marginally above 1 occur for convex shapes). The hull
    is taken of the first and last occupied center of each row of cells
    alone: every other center lies on the segment between them, strictly
    inside the hull or on an edge along the row.
    """
    cells = mask.cells
    rows = np.flatnonzero(cells.any(axis=1))
    first = cells[rows].argmax(axis=1)
    last = cells.shape[1] - 1 - cells[rows, ::-1].argmax(axis=1)
    ends = mask.cell_centers()[np.concatenate([rows, rows]), np.concatenate([first, last])]
    try:
        hull = convex_hull(ends)
    except ValueError as exc:
        raise ValueError(f"degenerate mask for convexity measure: {exc}") from exc
    area = int(np.count_nonzero(cells)) * mask.cell_size**2
    return min(1.0, area / polygon_area(hull))
