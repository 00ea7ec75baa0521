"""Command-line front end: generate corpora, compute diagrams, run experiments.

Subcommands:
  generate  write a labeled dataset (manifest + one file per item)
  ph        persistence diagram of a single cloud CSV or mask PBM/CSV (mask
            diagrams in cell units, as the concavity features read them)
  run       one of the four experiments, emitting a report

The master seed comes from --seed, falling back to the TDA_LAB_SEED
environment variable, then 0. Exit code is 0 iff no error occurred;
warnings go to stderr, data goes to files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
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

DESK = {
    "holes": {"clouds_per_shape": 10, "points": 300},
    "curvature": {"clouds_per_kappa": 3, "points": 200, "test_kappas": 30},
    "convexity": {"points": 1000},
}
PAPER = {
    "holes": {"clouds_per_shape": 50, "points": 1000},
    "curvature": {"clouds_per_kappa": 10, "points": 500, "test_kappas": 100},
    "convexity": {"points": 5000},
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


def _scale(args, kind: str, key: str, flag_value):
    if flag_value is not None:
        return flag_value
    table = PAPER if getattr(args, "paper_scale", False) else DESK
    return table[kind][key]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    seed = _seed_from(args)
    out = Path(args.out)
    if args.kind == "holes":
        ds = datagen.gen_holes_dataset(
            clouds_per_shape=_scale(args, "holes", "clouds_per_shape", args.clouds_per_shape),
            points_per_cloud=_scale(args, "holes", "points", args.points),
            seed=seed,
        )
        io.write_dataset(ds, out)
        print(f"holes dataset: {len(ds)} clouds -> {out}")
    elif args.kind == "curvature":
        train, test = datagen.gen_curvature_dataset(
            seed=seed,
            clouds_per_kappa=_scale(args, "curvature", "clouds_per_kappa", args.clouds_per_kappa),
            points_per_cloud=_scale(args, "curvature", "points", args.points),
            test_count=_scale(args, "curvature", "test_kappas", args.test_kappas),
        )
        io.write_dataset(train, out / "train")
        io.write_dataset(test, out / "test")
        print(f"curvature dataset: {len(train)} train / {len(test)} test -> {out}")
    elif args.kind == "convexity":
        kinds = ("regular", "random") if args.shape_kind == "both" else (args.shape_kind,)
        for kind in kinds:
            ds = datagen.gen_convexity_dataset(
                kind,
                seed=seed,
                points_per_cloud=_scale(args, "convexity", "points", args.points),
                clouds_per_shape=args.clouds_per_shape or 60,
                polygons_per_class=args.polygons_per_class or 240,
            )
            io.write_dataset(ds, out / kind)
            print(f"convexity dataset ({kind}): {len(ds)} clouds -> {out / kind}")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown dataset kind {args.kind!r}")
    return 0


# ---------------------------------------------------------------------------
# ph
# ---------------------------------------------------------------------------


def _parse_line(text: str, mask) -> Line:
    if text in LINE_NAMES:
        lines = default_lines(mask)
        return lines.lines[lines.names.index(text)]
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise SystemExit(
            f"--line must be one of {', '.join(LINE_NAMES)} or 'ax,ay,dx,dy', got {text!r}"
        )
    d = np.array(parts[2:])
    norm = float(np.hypot(d[0], d[1]))
    if norm == 0:
        raise SystemExit("--line direction must be nonzero")
    return Line(np.array(parts[:2]), d / norm)


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
            v = np.array([float(p) for p in (args.vector or "0,1").split(",")])
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


def _check_manifest(ds, expected_prefix: str, where):
    gen = ds.meta.get("generator", "")
    if not gen.startswith(expected_prefix):
        raise SystemExit(
            f"dataset at {where} was generated by {gen!r}, expected {expected_prefix!r}"
        )


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


def _cmd_run(args) -> int:
    seed = _seed_from(args)
    jobs = args.jobs
    if args.experiment == "holes":
        if args.data:
            ds = io.read_dataset(args.data)
            _check_manifest(ds, "holes", args.data)
        else:
            sizes = PAPER["holes"] if args.paper_scale else DESK["holes"]
            ds = datagen.gen_holes_dataset(
                sizes["clouds_per_shape"], sizes["points"], seed=seed
            )
        config = pipelines.HolesConfig(
            subsample=args.subsample or 150, signature=args.signature, jobs=jobs
        )
        report = pipelines.holes_pipeline(ds, None, config, seed)
    elif args.experiment == "curvature":
        if args.data:
            train = io.read_dataset(Path(args.data) / "train")
            test = io.read_dataset(Path(args.data) / "test")
            _check_manifest(train, "curvature", args.data)
            _check_manifest(test, "curvature", args.data)
        else:
            sizes = PAPER["curvature"] if args.paper_scale else DESK["curvature"]
            train, test = datagen.gen_curvature_dataset(
                seed=seed,
                clouds_per_kappa=sizes["clouds_per_kappa"],
                points_per_cloud=sizes["points"],
                test_count=sizes["test_kappas"],
            )
        variants = ("simple", "simple10", "auto") if args.signature == "auto" else ("simple", "simple10")
        config = pipelines.CurvatureConfig(variants=variants, jobs=jobs)
        report = pipelines.curvature_pipeline(train, test, config, seed)
    elif args.experiment == "convexity":
        datasets = None
        if args.data:
            datasets = {
                "regular": io.read_dataset(Path(args.data) / "regular"),
                "random": io.read_dataset(Path(args.data) / "random"),
            }
            for kind, ds in datasets.items():
                _check_manifest(ds, f"convexity-{kind}", args.data)
        points = PAPER["convexity"]["points"] if args.paper_scale else DESK["convexity"]["points"]
        config = pipelines.ConvexityConfig(
            grid_side=args.grid_side or 20, points_per_cloud=points, jobs=jobs
        )
        report = pipelines.convexity_experiment(config, seed, datasets)
    elif args.experiment == "convexity-measure":
        side = args.grid_side or 30
        if args.data:
            root = Path(args.data)
            if (root / "manifest.json").exists():
                ds = io.read_dataset(root)
                _check_manifest(ds, "polygon-masks", args.data)
                masks = list(ds.items)
            else:
                files = sorted(root.glob("*.pbm")) + sorted(root.glob("*.csv"))
                if not files:
                    raise SystemExit(f"no .pbm or .csv masks under {root}")
                masks = [io.read_mask(f) for f in files]
        else:
            masks = list(datagen.gen_polygon_masks(200, side, seed).items)
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
    gen.add_argument("--points", type=int, default=None, help="points per cloud")
    gen.add_argument("--clouds-per-kappa", type=int, default=None)
    gen.add_argument("--test-kappas", type=int, default=None)
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
    ph.add_argument("--m", type=float, default=0.03, help="DTM mass fraction")
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
    run.add_argument(
        "--signature", choices=("lifespans", "pi", "pl", "auto"), default="lifespans"
    )
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
