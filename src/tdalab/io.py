"""File formats: point-cloud CSV, P1 PBM and 0/1 CSV masks, diagram CSV,
dataset directories with manifests, and report JSON.

All writers are deterministic: rerunning with the same data produces
byte-identical files. Readers reject malformed input with a ValueError that
names the file, and the line where the format has lines.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .datagen import LabeledDataset
from .geometry import BinaryMask, PointCloud, PolarCloud
from .persistence import PersistenceDiagram

Array = np.ndarray


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form."""
    if math.isinf(x):
        return "inf"
    return repr(float(x))


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------


def write_cloud_csv(path, cloud) -> None:
    pts = cloud.points if isinstance(cloud, PointCloud) else cloud.coords
    rows = [",".join(_fmt(v) for v in row) for row in pts]
    Path(path).write_text("\n".join(rows) + "\n")


def read_cloud_csv(path) -> PointCloud:
    """Read `x,y[,z]` rows without a header."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 coordinates, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: coordinates must be finite, got {line!r}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty point-cloud file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent coordinate counts {sorted(widths)}")
    return PointCloud(np.array(rows))


# ---------------------------------------------------------------------------
# masks: plain-text PBM (P1) and 0/1 CSV grids
# ---------------------------------------------------------------------------


def write_mask_pbm(path, mask: BinaryMask) -> None:
    c = mask.side
    lines = ["P1", f"# extent {_fmt(mask.origin[0])} {_fmt(mask.origin[1])} {_fmt(mask.width)}"]
    lines.append(f"{c} {c}")
    for j in range(c - 1, -1, -1):  # raster rows run top to bottom
        lines.append(" ".join("1" if mask.cells[i, j] else "0" for i in range(c)))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_extent(path, parts) -> tuple:
    """(x0, y0, width) of an ``# extent`` comment: finite, with positive width."""
    try:
        x0, y0, width = map(float, parts)
    except ValueError:
        x0 = y0 = width = math.nan
    if not (all(map(math.isfinite, (x0, y0, width))) and width > 0):
        raise ValueError(f"{path}: extent must be finite 'x0 y0 width' with width > 0, got {' '.join(parts)!r}")
    return x0, y0, width


def read_mask_pbm(path) -> BinaryMask:
    """Plain-text P1 PBM, raster rows top to bottom, with one 0/1 token per
    pixel; an ``# extent x0 y0 width`` comment sets the physical extent,
    unit cells at the origin otherwise."""
    text = Path(path).read_text()
    extent = None
    tokens = []
    for line in text.splitlines():
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 4 and parts[0] == "extent":
                extent = _parse_extent(path, parts[1:])
            continue
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P1":
        raise ValueError(f"{path}: not a plain-text P1 PBM file")
    if len(tokens) < 3:
        raise ValueError(f"{path}: truncated PBM header")
    try:
        w, h = int(tokens[1]), int(tokens[2])
    except ValueError:
        w = h = 0
    if w < 1 or h < 1:
        raise ValueError(f"{path}: width and height must be positive integers, got {tokens[1]!r} {tokens[2]!r}")
    bits = tokens[3:]
    if len(bits) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixels, got {len(bits)}")
    if w != h:
        raise ValueError(f"{path}: mask grids must be square, got {w}x{h}")
    bad = [b for b in bits if b not in ("0", "1")]
    if bad:
        raise ValueError(f"{path}: pixels must be 0 or 1, got {bad[0]!r}")
    cells = _raster_cells(np.reshape([b == "1" for b in bits], (h, w)))
    if extent is not None:
        return BinaryMask(cells, (extent[0], extent[1]), extent[2])
    return BinaryMask(cells, (0.0, 0.0), float(w))


def read_mask_csv(path) -> BinaryMask:
    """0/1 CSV grid, raster rows top to bottom, unit cells."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        row = [p.strip() for p in line.split(",")]
        bad = [p for p in row if p not in ("0", "1")]
        if bad:
            raise ValueError(f"{path}:{lineno}: cells must be 0 or 1, got {bad[0]!r}")
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} cells, got {len(row)}")
        rows.append([p == "1" for p in row])
    if not rows:
        raise ValueError(f"{path}: empty mask file")
    if len(rows) != len(rows[0]):
        raise ValueError(f"{path}: mask grids must be square, got {len(rows)}x{len(rows[0])}")
    c = len(rows)
    return BinaryMask(_raster_cells(rows), (0.0, 0.0), float(c))


def _raster_cells(rows) -> Array:
    """cells[ix, iy] from raster rows of pixels given top to bottom."""
    return np.array(rows, dtype=bool).T[:, ::-1]


def read_mask(path) -> BinaryMask:
    path = Path(path)
    if path.suffix.lower() == ".pbm":
        return read_mask_pbm(path)
    return read_mask_csv(path)


# ---------------------------------------------------------------------------
# persistence diagrams
# ---------------------------------------------------------------------------


def write_diagram_csv(path, pd: PersistenceDiagram) -> None:
    lines = [
        f"{int(dim)},{_fmt(birth)},{_fmt(death)}"
        for dim, birth, death in pd.intervals
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_diagram_csv(path) -> PersistenceDiagram:
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected dim,birth,death")
        try:
            dim = int(parts[0])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: dimension must be an integer, got {parts[0]!r}"
            ) from None
        try:
            birth, death = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if math.isnan(birth) or math.isnan(death):
            raise ValueError(f"{path}:{lineno}: birth and death must not be nan")
        rows.append((dim, birth, death))
    return PersistenceDiagram(np.array(rows, dtype=float) if rows else np.empty((0, 3)))


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_dataset(dataset: LabeledDataset, out_dir) -> Path:
    """Write one file per item plus a manifest.json; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    kinds = set()
    for idx, item in enumerate(dataset.items):
        if isinstance(item, BinaryMask):
            name = f"mask_{idx:04d}.pbm"
            write_mask_pbm(out / name, item)
            kinds.add("mask")
        elif isinstance(item, PolarCloud):
            name = f"cloud_{idx:04d}.csv"
            write_cloud_csv(out / name, item)
            kinds.add("polar")
        else:
            name = f"cloud_{idx:04d}.csv"
            write_cloud_csv(out / name, item)
            kinds.add("cloud")
        files.append(name)
    if len(kinds) != 1:
        raise ValueError(f"datasets must be homogeneous, got kinds {sorted(kinds)}")
    manifest = dict(dataset.meta)
    manifest["labels"] = [float(x) for x in dataset.labels]
    manifest["files"] = files
    manifest["item_kind"] = kinds.pop()
    path = out / "manifest.json"
    path.write_text(_json_dumps(manifest))
    return path


def read_dataset(dataset_dir) -> LabeledDataset:
    root = Path(dataset_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {root}")
    manifest = json.loads(manifest_path.read_text())
    kind = manifest.get("item_kind", "cloud")
    labels = np.array(manifest["labels"], dtype=float)
    items = []
    for idx, name in enumerate(manifest["files"]):
        path = root / name
        if kind == "mask":
            items.append(read_mask_pbm(path))
        elif kind == "polar":
            cloud = read_cloud_csv(path)
            items.append(PolarCloud(cloud.points, float(labels[idx])))
        else:
            items.append(read_cloud_csv(path))
    meta = {k: v for k, v in manifest.items() if k not in ("labels", "files", "item_kind")}
    return LabeledDataset(items, labels, meta)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report_to_json(report) -> str:
    """Serialize an ExperimentReport per the fixed schema (no wall time)."""
    payload = {
        "experiment": report.experiment,
        "config": report.config,
        "seed": report.seed,
        "regimes": [
            {"name": r.name, "metric": r.metric, "value": r.value} for r in report.regimes
        ],
        "items": [
            {"id": i.item_id, "label": i.label, "prediction": i.prediction}
            for i in report.items
        ],
    }
    return _json_dumps(payload)


def write_report_json(path, report) -> None:
    Path(path).write_text(report_to_json(report))
