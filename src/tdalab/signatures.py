"""Fixed-length vectorizations of persistence diagrams.

Top-k lifespans, persistence images (Gaussian bumps on the
birth/lifespan plane), persistence landscapes (stacked triangle
functions), and scalar summaries. Infinite intervals are dropped by every
vectorization: the one essential degree-0 class is shared by all shapes
and carries no signal.

Each vectorization has a batch form (``lifespans_matrix``,
``image_stack``, ``landscape_matrix``) over the ``FinitePoints`` of a list
of diagrams, one row per diagram; ``image_stack`` computes the images of
several weights at once. Data-driven value ranges come from
``image_ranges`` and ``landscape_range``, fit on the points of training
diagrams and reused unchanged at test time. The single-diagram functions
are the one-row case of the same range function and batch kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import checked_array
from .persistence import PersistenceDiagram

Array = np.ndarray

PI_WEIGHTS = ("1", "y", "y2")
# Diagram points, padding included, per numpy pass of the image and landscape
# kernels. Larger blocks make larger temporaries: at 512 the curvature
# search's peak traced allocation was 3.0 MB, against 2.7 MB when diagrams
# were vectorized one at a time; at 256 it is 2.6 MB, and no slower.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class SignatureVector:
    """Fixed-length feature vector of one diagram."""

    values: Array

    def __post_init__(self):
        v = checked_array(self.values, "values", ("d",)).view()  # freeze a view, not the caller's array
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


class FinitePoints:
    """The finite (birth, death) points of a list of diagrams in one
    dimension, as ``finite_points`` extracts them.

    Points are concatenated in diagram order, each diagram's in its own
    sorted order; diagram i owns rows ``bounds[i]:bounds[i + 1]``. Every
    vectorization below takes one of these and returns one row per diagram.
    """

    def __init__(self, births: Array, deaths: Array, bounds: Array):
        self.births = births
        self.deaths = deaths
        self.lives = deaths - births
        self.bounds = bounds

    @classmethod
    def from_pairs(cls, pairs) -> "FinitePoints":
        """The points of diagrams given as arrays of finite (birth, death)
        pairs, one array per diagram, each in the (birth, death) order
        ``PersistenceDiagram.finite_in_dim`` returns."""
        flat = np.concatenate(pairs) if len(pairs) else np.empty((0, 2))
        bounds = np.zeros(len(pairs) + 1, dtype=np.int64)
        bounds[1:] = np.cumsum([len(p) for p in pairs])
        return cls(flat[:, 0].copy(), flat[:, 1].copy(), bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    @property
    def counts(self) -> Array:
        return np.diff(self.bounds)

    def positions(self) -> tuple:
        """(diagram index, index within the diagram) of every point."""
        seg = np.repeat(np.arange(len(self)), self.counts)
        return seg, np.arange(len(seg)) - self.bounds[seg]

    def _select(self, idx: Array, counts: Array) -> "FinitePoints":
        bounds = np.zeros(len(counts) + 1, dtype=np.int64)
        bounds[1:] = np.cumsum(counts)
        return FinitePoints(self.births[idx], self.deaths[idx], bounds)

    def take(self, rows) -> "FinitePoints":
        """The points of the diagrams ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.counts[rows]
        firsts = np.cumsum(counts) - counts
        idx = np.repeat(self.bounds[rows] - firsts, counts) + np.arange(counts.sum())
        return self._select(idx, counts)

    def longest(self, top: int | None) -> "FinitePoints":
        """Each diagram cut to its ``top`` longest intervals (None keeps all),
        by the order of ``lifespans_matrix``."""
        if top is not None and top < 1:
            raise ValueError("top must be at least 1")
        if top is None or not np.any(self.counts > top):
            return self
        # lifespans descending within each diagram, equal ones in point order
        seg, rank = self.positions()
        order = np.lexsort((-self.lives, seg))
        return self._select(order[rank < top], np.minimum(self.counts, top))


def finite_points(diagrams, dim: int) -> FinitePoints:
    """The finite points of the diagrams in one dimension, extracted once."""
    return FinitePoints.from_pairs([pd.finite_in_dim(dim) for pd in diagrams])


def _blocks(points: FinitePoints):
    """Consecutive diagram ranges [lo, hi) laid out padded, one row per
    diagram and one column per point of the largest, in at most BLOCK_ROWS
    cells (or one diagram per block). Yields (lo, hi, width, rows, at):
    ``rows`` slices the block's points and ``at`` indexes them in the layout."""
    seg, rank = points.positions()
    counts = points.counts.tolist()
    lo = 0
    while lo < len(counts):
        hi, width = lo + 1, counts[lo]
        while hi < len(counts) and (hi + 1 - lo) * max(width, counts[hi]) <= BLOCK_ROWS:
            width = max(width, counts[hi])
            hi += 1
        rows = slice(points.bounds[lo], points.bounds[hi])
        yield lo, hi, width, rows, (seg[rows] - lo, rank[rows])
        lo = hi


def lifespans_matrix(points: FinitePoints, k: int) -> Array:
    """Per diagram, the k largest finite lifespans, sorted descending and zero-padded."""
    if k < 1:
        raise ValueError("k must be at least 1")
    seg, rank = points.positions()
    order = np.lexsort((-points.lives, seg))
    keep = rank < k
    out = np.zeros((len(points), k))
    out[seg[keep], rank[keep]] = points.lives[order][keep]
    return out


def lifespans_topk(pd: PersistenceDiagram, dim: int, k: int) -> SignatureVector:
    """The k largest finite lifespans, sorted descending and zero-padded."""
    values = lifespans_matrix(finite_points([pd], dim), k)[0]
    return SignatureVector(values)


# ---------------------------------------------------------------------------
# persistence images
# ---------------------------------------------------------------------------


def _weight_values(weight: str, lifespans: Array) -> Array:
    if weight == "1":
        return np.ones_like(lifespans)
    if weight == "y":
        return lifespans
    if weight == "y2":
        return lifespans**2
    raise ValueError(f"weight must be one of {PI_WEIGHTS}, got {weight!r}")


def _check_image(resolution: int, sigma: float, weight: str) -> None:
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    _weight_values(weight, np.zeros(1))


def image_ranges(points: FinitePoints, sigma: float) -> tuple:
    """(birth_range, life_range) of persistence images covering the points:
    births from least to greatest, lifespans from 0 to the longest, each
    widened by 4 sigma when it is empty."""
    if len(points.births):
        b_lo, b_hi = float(points.births.min()), float(points.births.max())
        l_hi = float(points.lives.max())
    else:
        b_lo = b_hi = 0.0
        l_hi = 0.0
    if b_hi <= b_lo:
        b_lo, b_hi = b_lo - 4 * sigma, b_hi + 4 * sigma
    if l_hi <= 0:
        l_hi = 4 * sigma
    return (b_lo, b_hi), (0.0, l_hi)


def image_stack(
    points: FinitePoints,
    resolution: int,
    sigma: float,
    weights,
    birth_range: tuple,
    life_range: tuple,
) -> Array:
    """Per weight and diagram, the sum of weighted Gaussian bumps on the
    (birth, lifespan) plane, integrated per grid cell by center-point
    evaluation times cell area and flattened birth-major: an array of
    shape (weights, diagrams, resolution²).

    Each diagram's bumps are summed point by point in its point order, as
    the single-diagram image always summed them. Per block of diagrams laid
    out padded, the Gaussian factors are computed once, and each weight's
    image is one einsum of the weighted birth factors with the lifespan
    factors. From resolution 2 up, that einsum adds each cell's products
    point by point, as the einsum of weights and both factors did; at
    resolution 1 numpy's unrolled kernel adds them, which can change the
    last bits.
    """
    for weight in weights:
        _check_image(resolution, sigma, weight)
    b_lo, b_hi = map(float, birth_range)
    l_lo, l_hi = map(float, life_range)
    bw = (b_hi - b_lo) / resolution
    lw = (l_hi - l_lo) / resolution
    bc = b_lo + (np.arange(resolution) + 0.5) * bw
    lc = l_lo + (np.arange(resolution) + 0.5) * lw
    sums = np.zeros((len(weights), len(points), resolution, resolution))
    for lo, hi, width, rows, at in _blocks(points):
        # padding points have weight 0, so their bumps are exact zeros
        births, lives, w = np.zeros((3, hi - lo, width))
        births[at] = points.births[rows]
        lives[at] = points.lives[rows]
        db = bc - births[:, :, None]
        dl = lc - lives[:, :, None]
        gb = np.exp(-(db**2) / (2 * sigma**2))
        gl = np.exp(-(dl**2) / (2 * sigma**2))
        for i, weight in enumerate(weights):
            w[at] = _weight_values(weight, points.lives[rows])
            sums[i, lo:hi] = np.einsum("dkb,dkl->dbl", w[:, :, None] * gb, gl)
    norm = 1.0 / (2.0 * np.pi * sigma**2)
    image = (norm * sums * (bw * lw)).reshape(len(weights), len(points), resolution**2)
    if not np.all(np.isfinite(image)):
        raise ValueError("signature values must be finite")
    return image


def persistence_image(
    pd: PersistenceDiagram,
    dim: int,
    resolution: int = 10,
    sigma: float = 0.1,
    weight: str = "y",
    birth_range: tuple | None = None,
    life_range: tuple | None = None,
) -> SignatureVector:
    """Sum of weighted Gaussian bumps on the (birth, lifespan) plane,
    integrated per grid cell by center-point evaluation times cell area.
    A missing range is fitted on the diagram itself by ``image_ranges``."""
    pts = finite_points([pd], dim)
    if birth_range is None or life_range is None:
        fitted_birth, fitted_life = image_ranges(pts, sigma)
        birth_range = birth_range or fitted_birth
        life_range = life_range or fitted_life
    values = image_stack(pts, resolution, sigma, (weight,), birth_range, life_range)[0, 0]
    return SignatureVector(values)


# ---------------------------------------------------------------------------
# persistence landscapes
# ---------------------------------------------------------------------------


def landscape_range(points: FinitePoints) -> tuple:
    """The span (t_lo, t_hi) of landscape samples covering the points: from
    the least birth to the greatest death, or (0, 1) when that is empty."""
    if len(points.births):
        lo, hi = float(points.births.min()), float(points.deaths.max())
    if not len(points.births) or hi <= lo:
        lo, hi = 0.0, 1.0
    return lo, hi


def landscape_matrix(points: FinitePoints, resolution: int, levels: int, t_range: tuple) -> Array:
    """Per diagram, landscape levels sampled at ``resolution`` points of
    ``t_range`` and concatenated in order k = 1..levels.

    lambda_k(t) is the k-th largest of max(0, min(t - b, d - t)) over the
    diagram's points.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    ts = np.linspace(t_range[0], t_range[1], resolution)
    out = np.zeros((len(points), levels, resolution))
    for lo, hi, width, rows, at in _blocks(points):
        if not width:
            continue
        # padding points are (0, 0), whose tent is 0 everywhere; tents are
        # nonnegative, so zeros do not change a diagram's top values
        births, deaths = np.zeros((2, hi - lo, 1, width))
        births[:, 0][at] = points.births[rows]
        deaths[:, 0][at] = points.deaths[rows]
        tent = ts[:, None] - births
        np.minimum(tent, deaths - ts[:, None], out=tent)
        np.maximum(0.0, tent, out=tent)
        # negated and sorted in place, largest first
        np.negative(tent, out=tent)
        tent.sort(axis=2)
        take = min(levels, width)
        out[lo:hi, :take] = -tent[:, :, :take].transpose(0, 2, 1)
    return out.reshape(len(points), -1)


def persistence_landscape(
    pd: PersistenceDiagram,
    dim: int,
    resolution: int = 100,
    levels: int = 1,
    top: int | None = None,
    t_range: tuple | None = None,
) -> SignatureVector:
    """Landscape levels sampled on a uniform grid over ``t_range``, of the
    diagram's ``top`` longest finite intervals (None keeps all).

    lambda_k(t) is the k-th largest of max(0, min(t - b, d - t)); levels are
    concatenated in order k = 1..levels. A missing ``t_range`` is fitted by
    ``landscape_range`` on all finite intervals before the cut.
    """
    pts = finite_points([pd], dim)
    if t_range is None:
        t_range = landscape_range(pts)
    values = landscape_matrix(pts.longest(top), resolution, levels, t_range)[0]
    return SignatureVector(values)


def scalar_summaries(pd: PersistenceDiagram, dim: int) -> tuple:
    """(cardinality, max, total, second-longest) over finite intervals."""
    spans = pd.lifespans(dim)
    n = len(spans)
    return (
        n,
        float(spans[0]) if n else 0.0,
        float(spans.sum()) if n else 0.0,
        float(spans[1]) if n >= 2 else 0.0,
    )
