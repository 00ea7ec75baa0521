"""tdalab: persistent-homology shape analysis for point clouds and masks.

Library layout:
  geometry     metrics, filtration functions, transforms, hulls, rasterization
  datagen      deterministic labeled corpora (holes / curvature / convexity)
  complexes    Vietoris-Rips, weighted Rips, and cubical filtrations
  persistence  diagrams: union-find (degree 0), coboundary reduction (degree 1)
  signatures   lifespans, persistence images, landscapes, scalar summaries
  learn        k-NN, ridge, threshold rule, k-fold grid search
  pipelines    the end-to-end experiments
  io           CSV / PBM / JSON formats
  cli          command-line front end (generate / ph / run)
"""

from .geometry import (
    BinaryMask,
    DistanceMatrix,
    Line,
    PointCloud,
    PolarCloud,
    Polygon,
    TransformSpec,
    absolute_height,
    apply_transform,
    convex_hull,
    convexity_measure,
    dtm,
    euclidean_distance_matrix,
    farthest_point_subsample,
    geodesic_distance_matrix,
    height,
    point_in_polygon,
    polygon_area,
    rasterize,
    tubular_distance,
)
from .complexes import (
    FilteredComplex,
    FilteredCubicalGrid,
    cubical_complex,
    rips_complex,
    weighted_rips_complex,
)
from .persistence import (
    PersistenceDiagram,
    compute_flag_ph,
    compute_ph,
    compute_ph0_unionfind,
    naive_reduction_oracle,
)
from .signatures import (
    SignatureVector,
    lifespans_topk,
    persistence_image,
    persistence_landscape,
    scalar_summaries,
)
from .datagen import (
    LabeledDataset,
    ShapeSpec,
    gen_convexity_dataset,
    gen_curvature_dataset,
    gen_holes_dataset,
    gen_polygon_masks,
    gen_random_concave_polygon,
    gen_random_convex_polygon,
    sample_constant_curvature_disk,
)
from .learn import (
    Standardizer,
    accuracy,
    kfold_grid_search,
    knn_fit_predict,
    mse,
    ridge_fit,
    ridge_predict,
    threshold_fit,
    threshold_predict,
)
from .pipelines import (
    ConvexityConfig,
    CurvatureConfig,
    ExperimentReport,
    HolesConfig,
    LineSet,
    RegressionConfig,
    concavity_features,
    convexity_experiment,
    convexity_regression,
    curvature_pipeline,
    default_lines,
    holes_pipeline,
)

__version__ = "0.1.0"
