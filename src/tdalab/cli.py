"""Command-line front end: generate corpora, compute diagrams, run experiments.

Subcommands:
  generate  write a labeled dataset (manifest + one file per item)
  ph        persistence diagram of a single cloud CSV or mask PBM/CSV (mask
            diagrams in cell units, as the concavity features read them)
  run       one of the four experiments, emitting a report

Only the options the user sets reach the library; an unset one takes the
default of the generator or config it feeds. Corpora are desk-sized unless
--paper-scale is given, which passes no size, so the generators' own
defaults (the paper's sizes) apply. Zero counts are rejected, and
`--subsample 0` keeps every point.

The master seed comes from --seed, falling back to the TDA_LAB_SEED
environment variable, then 0. Exit code is 0 iff no error occurred;
warnings go to stderr, data goes to files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import datagen, io, pipelines
from .complexes import (
    MAX_FLAG_POINTS,
    absolute_height_filtration,
    cubical_complex,
    height_filtration,
    rips_complex,
    tubular_filtration,
    weighted_rips_complex,
)
from .geometry import Line, dtm, euclidean_distance_matrix, farthest_point_subsample
from .persistence import compute_ph
from .pipelines import LINE_NAMES, cell_units, default_lines

# Desk-scale corpus sizes, keyed by the generators' parameter names. At
# --paper-scale none is passed, so the generators' own defaults apply.
DESK = {
    "holes": {"clouds_per_shape": 10, "points_per_cloud": 300},
    "curvature": {"clouds_per_kappa": 3, "points_per_cloud": 200, "test_count": 30},
    "convexity": {"points_per_cloud": 1000},
}
# per experiment, each dataset subdirectory and the generator its manifest names
LAYOUT = {
    "holes": {"": "holes"},
    "curvature": {"train": "curvature", "test": "curvature"},
    "convexity": {"regular": "convexity-regular", "random": "convexity-random"},
    "convexity-measure": {"": "polygon-masks"},
}


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TDA_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(f"TDA_LAB_SEED must be an integer, got {env!r}")
    return 0


def _given(args, *names) -> dict:
    """The named options the user set; the library's defaults fill in the rest."""
    values = vars(args)
    return {name: values[name] for name in names if values.get(name) is not None}


def _sizes(args, kind: str, *names) -> dict:
    """The DESK sizes of a corpus (none at --paper-scale), under the size flags set."""
    return {**({} if args.paper_scale else DESK[kind]), **_given(args, *names)}


def _corpus(args, kind: str, seed: int) -> dict:
    """An experiment's datasets keyed by subdirectory: read from --data, each
    manifest naming the expected generator, or else generated from the seed."""
    if vars(args).get("data"):
        datasets = {}
        for sub, generator in LAYOUT[kind].items():
            ds = datasets[sub] = io.read_dataset(Path(args.data) / sub)
            found = ds.meta.get("generator", "")
            if not found.startswith(generator):
                raise SystemExit(
                    f"dataset at {args.data} was generated by {found!r}, expected {generator!r}"
                )
        return datasets
    if kind == "holes":
        sizes = _sizes(args, kind, "clouds_per_shape", "points_per_cloud")
        return {"": datagen.gen_holes_dataset(seed=seed, **sizes)}
    if kind == "curvature":
        sizes = _sizes(args, kind, "clouds_per_kappa", "points_per_cloud", "test_count")
        return dict(zip(("train", "test"), datagen.gen_curvature_dataset(seed=seed, **sizes)))
    if kind == "convexity":
        sizes = _sizes(args, kind, "clouds_per_shape", "points_per_cloud", "polygons_per_class")
        shapes = ("regular", "random") if args.shape_kind == "both" else (args.shape_kind,)
        return {
            shape: datagen.gen_convexity_dataset(
                shape, seed=pipelines.convexity_seed(seed, shape), **sizes
            )
            for shape in shapes
        }
    side = {} if args.grid_side is None else {"side": args.grid_side}
    return {"": datagen.gen_polygon_masks(seed=seed, **side)}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    out = Path(args.out)
    for sub, ds in _corpus(args, args.kind, _seed_from(args)).items():
        io.write_dataset(ds, out / sub)
        print(f"{ds.meta['generator']} dataset: {len(ds)} items -> {out / sub}")
    return 0


# ---------------------------------------------------------------------------
# ph
# ---------------------------------------------------------------------------


def _floats(flag: str, text: str, count: int, expected: str) -> np.ndarray:
    """``count`` comma-separated finite numbers, else an error naming the flag."""
    try:
        values = np.array([float(p) for p in text.split(",")])
    except ValueError:
        values = np.empty(0)
    if len(values) != count or not np.all(np.isfinite(values)):
        raise ValueError(f"{flag} must be {expected}, got {text!r}")
    return values


def _parse_line(text: str, mask) -> Line:
    if text in LINE_NAMES:
        lines = default_lines(mask)
        return lines.lines[lines.names.index(text)]
    parts = _floats("--line", text, 4, f"one of {', '.join(LINE_NAMES)} or 'ax,ay,dx,dy'")
    d = parts[2:]
    norm = float(np.hypot(d[0], d[1]))
    if norm == 0:
        raise SystemExit("--line direction must be nonzero")
    return Line(parts[:2], d / norm)


def _diagram_svg(pd, width: int = 360) -> str:
    """Minimal birth/death scatter with the diagonal; essentials on the top edge."""
    pts = pd.intervals
    finite = pts[np.isfinite(pts[:, 2])]
    hi = float(max(finite[:, 2].max() if len(finite) else 1.0, 1e-9)) * 1.05
    colors = {0: "#1f77b4", 1: "#d62728"}

    def sx(v):
        return 30 + (v / hi) * (width - 50)

    def sy(v):
        return width - 30 - (v / hi) * (width - 50)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{width}" '
        f'viewBox="0 0 {width} {width}">',
        f'<rect width="{width}" height="{width}" fill="white"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(hi)}" y2="{sy(hi)}" stroke="#999"/>',
    ]
    for dim, b, d in pts:
        color = colors.get(int(dim), "#333")
        if math.isinf(d):
            parts.append(
                f'<path d="M {sx(b) - 4} 24 L {sx(b) + 4} 24 L {sx(b)} 14 Z" fill="{color}"/>'
            )
        else:
            parts.append(f'<circle cx="{sx(b)}" cy="{sy(d)}" r="3" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_ph(args) -> int:
    seed = _seed_from(args)
    path = Path(args.input)
    if not path.exists():
        raise SystemExit(f"input file not found: {path}")
    mask_mode = args.filtration in ("tubular", "height", "abs-height")
    if mask_mode:
        mask = io.read_mask(path)
        if args.filtration == "tubular":
            fn = tubular_filtration(_parse_line(args.line or "bottom", mask))
        else:
            v = _floats("--vector", args.vector or "0,1", 2, "'vx,vy'")
            norm = float(np.linalg.norm(v))
            if norm == 0:
                raise SystemExit("--vector must be nonzero")
            v = v / norm
            fn = height_filtration(v) if args.filtration == "height" else absolute_height_filtration(v)
        cx = cubical_complex(mask, lambda centers: cell_units(fn(centers), mask.cell_size))
        pd = compute_ph(cx, max_dim=args.max_dim)
    else:
        cloud = io.read_cloud_csv(path)
        if args.subsample and args.subsample < cloud.n:
            cloud = farthest_point_subsample(cloud, args.subsample, seed)
        if cloud.n > MAX_FLAG_POINTS:
            raise SystemExit(
                f"{cloud.n} points exceed the {MAX_FLAG_POINTS}-point flag-complex "
                "budget; pass --subsample to reduce the cloud first"
            )
        dm = euclidean_distance_matrix(cloud)
        if args.filtration == "dtm":
            graph = weighted_rips_complex(dm, dtm(dm, args.m), max_dim=1, r_max=args.r_max)
        else:
            graph = rips_complex(dm, max_dim=1, r_max=args.r_max)
        pd = compute_ph(graph, max_dim=args.max_dim)
    out = Path(args.out) if args.out else path.with_suffix(".diagram.csv")
    io.write_diagram_csv(out, pd)
    if args.svg:
        Path(args.svg).write_text(_diagram_svg(pd))
    counts = {d: int(np.sum(pd.intervals[:, 0] == d)) for d in range(args.max_dim + 1)}
    summary = ", ".join(f"dim {d}: {c} intervals" for d, c in counts.items())
    print(f"{out}: {summary}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _print_regimes(report) -> None:
    width = max(len(r.name) for r in report.regimes)
    print(f"experiment: {report.experiment} (seed {report.seed}, {report.wall_time:.1f}s)")
    for r in report.regimes:
        print(f"  {r.name:<{width}}  {r.metric} = {r.value:.4f}")


def _write_report(report, args) -> None:
    out = Path(args.out) if args.out else Path(f"{report.experiment}_report.json")
    if args.format == "json":
        io.write_report_json(out, report)
    else:
        lines = ["name,metric,value"]
        lines += [f"{r.name},{r.metric},{r.value!r}" for r in report.regimes]
        out.write_text("\n".join(lines) + "\n")
    print(f"report -> {out}")


def _convexity_sizes(datasets: dict) -> dict:
    """The sizes a convexity corpus was generated at, read off its items and
    manifests, for the report to echo."""
    points = {sub: ds.meta.get("points_per_cloud") for sub, ds in datasets.items()}
    if points["regular"] != points["random"]:
        raise SystemExit(f"the convexity manifests disagree on points_per_cloud: {points}")
    per_shape = set(Counter(datasets["regular"].meta["shape_ids"]).values())
    if len(per_shape) != 1:
        raise SystemExit(f"the regular convexity shapes hold unequal cloud counts: {sorted(per_shape)}")
    return {
        "points_per_cloud": points["regular"],
        "clouds_per_shape": per_shape.pop(),
        "polygons_per_class": len(datasets["random"]) // 2,
    }


def _cmd_run(args) -> int:
    seed = _seed_from(args)
    jobs = args.jobs
    if args.experiment == "holes":
        config = pipelines.HolesConfig(**_given(args, "subsample", "signature"), jobs=jobs)
        report = pipelines.holes_pipeline(_corpus(args, "holes", seed)[""], None, config, seed)
    elif args.experiment == "curvature":
        data = _corpus(args, "curvature", seed)
        variants = ("simple", "simple10", "auto") if args.signature == "auto" else ("simple", "simple10")
        config = pipelines.CurvatureConfig(variants=variants, jobs=jobs)
        report = pipelines.curvature_pipeline(data["train"], data["test"], config, seed)
    elif args.experiment == "convexity":
        # without --data the experiment generates its corpus at these sizes,
        # as `generate convexity` does
        datasets, sizes = None, _sizes(args, "convexity")
        if args.data:
            datasets = _corpus(args, "convexity", seed)
            sizes = _convexity_sizes(datasets)
        config = pipelines.ConvexityConfig(**sizes, **_given(args, "grid_side"), jobs=jobs)
        report = pipelines.convexity_experiment(config, seed, datasets)
    elif args.experiment == "convexity-measure":
        root = Path(args.data) if args.data else None
        if root and not (root / "manifest.json").exists():
            files = sorted(root.glob("*.pbm")) + sorted(root.glob("*.csv"))
            if not files:
                raise SystemExit(f"no .pbm or .csv masks under {root}")
            masks = [io.read_mask(f) for f in files]
        else:
            masks = list(_corpus(args, "convexity-measure", seed)[""].items)
        config = pipelines.RegressionConfig(jobs=jobs)
        report = pipelines.convexity_regression(masks, seed, config)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {args.experiment!r}")
    _print_regimes(report)
    _write_report(report, args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdalab",
        description="Persistent-homology shape analysis: datasets, diagrams, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a labeled dataset to a directory")
    gen.add_argument("kind", choices=("holes", "curvature", "convexity"))
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--paper-scale", action="store_true", help="full-size datasets")
    gen.add_argument("--clouds-per-shape", type=int, default=None)
    gen.add_argument(
        "--points", dest="points_per_cloud", type=int, default=None, help="points per cloud"
    )
    gen.add_argument("--clouds-per-kappa", type=int, default=None)
    gen.add_argument("--test-kappas", dest="test_count", type=int, default=None)
    gen.add_argument("--polygons-per-class", type=int, default=None)
    gen.add_argument(
        "--kind", dest="shape_kind", choices=("regular", "random", "both"), default="both",
        help="convexity only: which shape family to write",
    )
    gen.set_defaults(func=_cmd_generate)

    ph = sub.add_parser("ph", help="persistence diagram of one cloud CSV or mask PBM/CSV")
    ph.add_argument("input")
    ph.add_argument(
        "--filtration",
        choices=("rips", "dtm", "tubular", "height", "abs-height"),
        default="rips",
    )
    ph.add_argument("--out", default=None, help="diagram CSV path")
    ph.add_argument("--svg", default=None, help="also write an SVG scatter")
    ph.add_argument("--line", default=None, help=f"tubular line: {', '.join(LINE_NAMES)} or ax,ay,dx,dy")
    ph.add_argument("--vector", default=None, help="height direction 'vx,vy'")
    ph.add_argument("--m", type=float, default=pipelines.HolesConfig.dtm_mass, help="DTM mass fraction")
    ph.add_argument("--max-dim", type=int, choices=(0, 1), default=1)
    ph.add_argument("--r-max", type=float, default=None)
    ph.add_argument("--subsample", type=int, default=None)
    ph.add_argument("--seed", type=int, default=None)
    ph.set_defaults(func=_cmd_ph)

    run = sub.add_parser("run", help="run an experiment and write its report")
    run.add_argument(
        "experiment", choices=("holes", "curvature", "convexity", "convexity-measure")
    )
    run.add_argument("--data", default=None, help="dataset directory (generated fresh when omitted)")
    run.add_argument("--out", default=None, help="report path")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--jobs", type=int, default=1, help="parallel workers for per-item stages")
    run.add_argument("--grid-side", type=int, default=None)
    run.add_argument("--subsample", type=int, default=None)
    run.add_argument("--signature", choices=("lifespans", "pi", "pl", "auto"), default=None)
    run.add_argument("--paper-scale", action="store_true")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
