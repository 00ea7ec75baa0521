import math

import numpy as np
import pytest

from tdalab import io
from tdalab.datagen import gen_curvature_dataset, gen_holes_dataset, gen_polygon_masks
from tdalab.geometry import BinaryMask, PointCloud, PolarCloud
from tdalab.persistence import PersistenceDiagram

RNG = np.random.default_rng(8)


def test_cloud_csv_roundtrip(tmp_path):
    cloud = PointCloud(RNG.random((15, 3)))
    path = tmp_path / "cloud.csv"
    io.write_cloud_csv(path, cloud)
    back = io.read_cloud_csv(path)
    assert np.array_equal(back.points, cloud.points)
    assert path.read_text().splitlines()[0].count(",") == 2  # x,y,z with no header


def test_cloud_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        io.read_cloud_csv(path)


@pytest.mark.parametrize("row", ["1,nan", "1,inf", "-inf,2", "0.5,0.5,nan"])
def test_cloud_csv_rejects_non_finite(tmp_path, row):
    path = tmp_path / "bad.csv"
    width = row.count(",") + 1
    path.write_text(",".join(["0.0"] * width) + f"\n{row}\n")
    with pytest.raises(ValueError, match="bad.csv:2: coordinates must be finite"):
        io.read_cloud_csv(path)


def test_mask_pbm_roundtrip(tmp_path):
    cells = RNG.random((9, 9)) < 0.5
    cells[4, 4] = True
    mask = BinaryMask(cells, (0.25, -1.5), 3.0)
    path = tmp_path / "mask.pbm"
    io.write_mask_pbm(path, mask)
    back = io.read_mask_pbm(path)
    assert np.array_equal(back.cells, mask.cells)
    assert np.allclose(back.origin, mask.origin)
    assert back.width == mask.width
    assert path.read_text().startswith("P1\n")


def test_mask_pbm_without_extent_comment(tmp_path):
    path = tmp_path / "plain.pbm"
    path.write_text("P1\n2 2\n1 0\n0 1\n")
    mask = io.read_mask_pbm(path)
    # raster rows run top to bottom: first row is the top (iy = 1)
    assert mask.cells[0, 1] and mask.cells[1, 0]
    assert not mask.cells[0, 0] and not mask.cells[1, 1]
    assert mask.width == 2.0


def test_mask_csv_grid(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1,0\n0,1\n")
    mask = io.read_mask_csv(path)
    assert mask.cells[0, 1] and mask.cells[1, 0]
    assert io.read_mask(path).cells.tolist() == mask.cells.tolist()


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,inf", "cells must be 0 or 1, got 'inf'"),
        ("1,nan", "cells must be 0 or 1, got 'nan'"),
        ("2,0", "cells must be 0 or 1, got '2'"),
        ("0.7,1", "cells must be 0 or 1, got '0.7'"),
        ("1,x", "cells must be 0 or 1, got 'x'"),
        ("1,", "cells must be 0 or 1, got ''"),
        ("1,0,1", "expected 2 cells, got 3"),
    ],
)
def test_mask_csv_rejects_bad_row(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,0\n{row}\n")
    with pytest.raises(ValueError, match=f"bad.csv:2: {message}"):
        io.read_mask_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("P1\n2.5 2\n1 0\n0 1\n", "width and height must be positive integers"),
        ("P1\n2 two\n1 0\n0 1\n", "width and height must be positive integers"),
        ("P1\n0 0\n", "width and height must be positive integers"),
        ("P1\n2 2\n1 x\n0 1\n", "pixels must be 0 or 1, got 'x'"),
        ("P1\n2 2\n1 0\n2 1\n", "pixels must be 0 or 1, got '2'"),
        ("P1\n# extent 0 0 wide\n2 2\n1 0\n0 1\n", "extent must be finite 'x0 y0 width' with width > 0, got '0 0 wide'"),
        ("P1\n# extent 0 nan 1\n2 2\n1 0\n0 1\n", "extent must be finite .* got '0 nan 1'"),
        ("P1\n# extent 0 0 0\n2 2\n1 0\n0 1\n", "extent must be finite .* got '0 0 0'"),
    ],
)
def test_mask_pbm_rejects_bad_file(tmp_path, text, message):
    path = tmp_path / "bad.pbm"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.pbm: {message}"):
        io.read_mask_pbm(path)


def test_diagram_csv_roundtrip(tmp_path):
    pd = PersistenceDiagram(
        np.array([[0, 0, math.inf], [0, 0, 2.0], [1, 1.0, math.sqrt(2)]])
    )
    path = tmp_path / "diagram.csv"
    io.write_diagram_csv(path, pd)
    text = path.read_text()
    assert "0,0.0,inf" in text
    assert "0,0.0,2.0" in text
    back = io.read_diagram_csv(path)
    assert back.multiset() == pd.multiset()


@pytest.mark.parametrize(
    "row, message",
    [
        ("x,0.1,inf", "dimension must be an integer"),
        ("0.5,0.1,inf", "dimension must be an integer"),
        ("1,abc,0.5", "could not convert"),
        ("1,0.1,abc", "could not convert"),
        ("1,nan,0.5", "birth and death must not be nan"),
        ("1,0.1,nan", "birth and death must not be nan"),
    ],
)
def test_diagram_csv_rejects_bad_row(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,0.0,inf\n{row}\n")
    with pytest.raises(ValueError, match=f"bad.csv:2: {message}"):
        io.read_diagram_csv(path)


def test_dataset_roundtrip_clouds(tmp_path):
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=25, seed=1)
    io.write_dataset(ds, tmp_path / "holes")
    back = io.read_dataset(tmp_path / "holes")
    assert len(back) == len(ds)
    assert np.array_equal(back.labels, ds.labels)
    assert back.meta["generator"] == "holes"
    for a, b in zip(ds.items, back.items):
        assert np.array_equal(a.points, b.points)


def test_dataset_roundtrip_polar(tmp_path):
    train, _ = gen_curvature_dataset(seed=2, clouds_per_kappa=1, points_per_cloud=10, test_count=1)
    io.write_dataset(train, tmp_path / "curv")
    back = io.read_dataset(tmp_path / "curv")
    assert isinstance(back.items[0], PolarCloud)
    assert back.items[0].curvature == train.labels[0]
    assert np.array_equal(back.items[0].coords, train.items[0].coords)


def test_dataset_roundtrip_masks(tmp_path):
    ds = gen_polygon_masks(6, 12, seed=0)
    io.write_dataset(ds, tmp_path / "masks")
    back = io.read_dataset(tmp_path / "masks")
    for a, b in zip(ds.items, back.items):
        assert np.array_equal(a.cells, b.cells)


def test_dataset_rerun_is_byte_identical(tmp_path):
    ds = gen_holes_dataset(clouds_per_shape=1, points_per_cloud=10, seed=9)
    p1 = io.write_dataset(ds, tmp_path / "a")
    p2 = io.write_dataset(ds, tmp_path / "b")
    assert p1.read_text() == p2.read_text()
    files = sorted(f.name for f in (tmp_path / "a").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        io.read_dataset(tmp_path)
