"""tdalab: persistent-homology shape analysis for point clouds and masks.

Library layout:
  geometry     metrics, distance-to-measure, transforms, hulls, rasterization
  datagen      deterministic labeled corpora (holes / curvature / convexity)
  complexes    Vietoris-Rips, weighted Rips, and cubical filtrations
  persistence  diagrams: union-find (degree 0), coboundary reduction (degree 1)
  signatures   lifespans, persistence images, landscapes (one diagram or a batch), scalar summaries
  learn        k-NN, ridge, threshold rule, k-fold selection by mean score
  pipelines    the end-to-end experiments
  io           CSV / PBM / JSON formats
  cli          command-line front end (generate / ph / run)

The package exports the names the README and the demos use; everything else
is imported from its module.
"""

from .geometry import (
    BinaryMask,
    PointCloud,
    convexity_measure,
    dtm,
    euclidean_distance_matrix,
    farthest_point_subsample,
    geodesic_distance_matrix,
    rasterize,
)
from .complexes import rips_complex, weighted_rips_complex
from .persistence import compute_ph, compute_ph0_unionfind
from .signatures import lifespans_topk, persistence_landscape, scalar_summaries
from .datagen import (
    gen_curvature_dataset,
    gen_holes_dataset,
    gen_polygon_masks,
    gen_random_concave_polygon,
    gen_random_convex_polygon,
    sample_constant_curvature_disk,
)
from .pipelines import (
    ConvexityConfig,
    CurvatureConfig,
    HolesConfig,
    concavity_features,
    convexity_experiment,
    convexity_regression,
    curvature_pipeline,
    default_lines,
    holes_pipeline,
)

__version__ = "0.1.0"
