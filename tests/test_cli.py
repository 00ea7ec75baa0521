import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from tdalab import cli, datagen, io, pipelines
from tdalab.cli import main
from tdalab.complexes import cubical_complex, rips_complex, tubular_filtration, weighted_rips_complex
from tdalab.datagen import gen_random_convex_polygon
from tdalab.geometry import BinaryMask, PointCloud, dtm, euclidean_distance_matrix, rasterize
from tdalab.persistence import compute_ph
from tdalab.pipelines import LINE_NAMES, concavity_features


def run_cli(*args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_holes_counts(tmp_path, capsys):
    out = tmp_path / "holes"
    assert run_cli("generate", "holes", "--out", out, "--clouds-per-shape", 2,
                   "--points", 30, "--seed", 7) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 40
    assert len(list(out.glob("cloud_*.csv"))) == 40


def test_generate_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli("generate", "holes", "--out", out, "--clouds-per-shape", 1,
                "--points", 20, "--seed", 7)
    assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()


def test_generate_convexity_regular_counts(tmp_path):
    out = tmp_path / "conv"
    assert run_cli("generate", "convexity", "--out", out, "--kind", "regular",
                   "--points", 40, "--seed", 1) == 0
    manifest = json.loads((out / "regular" / "manifest.json").read_text())
    assert len(manifest["files"]) == 480


def test_generate_curvature_writes_train_test(tmp_path):
    out = tmp_path / "curv"
    assert run_cli("generate", "curvature", "--out", out, "--clouds-per-kappa", 1,
                   "--points", 15, "--test-kappas", 3, "--seed", 0) == 0
    assert (out / "train" / "manifest.json").exists()
    assert (out / "test" / "manifest.json").exists()


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("TDA_LAB_SEED", "7")
    a = tmp_path / "env"
    run_cli("generate", "holes", "--out", a, "--clouds-per-shape", 1, "--points", 20)
    b = tmp_path / "flag"
    run_cli("generate", "holes", "--out", b, "--clouds-per-shape", 1, "--points", 20,
            "--seed", 7)
    assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()


# the corpus a recording generator returns instead of the requested one
TINY = {
    "gen_holes_dataset": {"clouds_per_shape": 1, "points_per_cloud": 5},
    "gen_convexity_dataset": {"clouds_per_shape": 1, "points_per_cloud": 5, "polygons_per_class": 1},
}


class _Stop(Exception):
    """Raised by a recording generator to end the command after the call."""


def _record(monkeypatch, name, calls, stop=False):
    """Replace ``datagen.<name>`` by a recorder of the arguments it is passed,
    by parameter name, that returns a tiny real corpus (or stops the command)."""
    real = getattr(datagen, name)

    def recorder(*args, **kwargs):
        calls.append(dict(inspect.signature(real).bind(*args, **kwargs).arguments))
        if stop:
            raise _Stop
        return real(*args, **{**kwargs, **TINY[name]})

    monkeypatch.setattr(datagen, name, recorder)


@pytest.mark.parametrize("kind", sorted(cli.DESK))
def test_desk_keys_are_generator_parameters(kind):
    # the one size table names only what its generator takes
    generator = {
        "holes": datagen.gen_holes_dataset,
        "curvature": datagen.gen_curvature_dataset,
        "convexity": datagen.gen_convexity_dataset,
    }[kind]
    params = inspect.signature(generator).parameters
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    assert all(key in params and params[key].kind in keyword for key in cli.DESK[kind])


def test_generate_desk_sizes_reach_generator(tmp_path, monkeypatch):
    calls = []
    _record(monkeypatch, "gen_holes_dataset", calls)
    assert run_cli("generate", "holes", "--out", tmp_path / "h", "--seed", 4) == 0
    assert calls == [{"seed": 4, **cli.DESK["holes"]}]


def test_run_desk_sizes_reach_generator(tmp_path, monkeypatch):
    calls = []
    _record(monkeypatch, "gen_curvature_dataset", calls, stop=True)
    with pytest.raises(_Stop):
        run_cli("run", "curvature", "--out", tmp_path / "r.json", "--seed", 2)
    assert calls == [{"seed": 2, **cli.DESK["curvature"]}]


@pytest.mark.parametrize("command", ["generate", "run"])
def test_paper_scale_passes_no_size(tmp_path, monkeypatch, command):
    # the generators' own defaults are the paper's sizes
    calls = []
    _record(monkeypatch, "gen_holes_dataset", calls, stop=True)
    with pytest.raises(_Stop):
        run_cli(command, "holes", "--out", tmp_path / "out", "--paper-scale", "--seed", 1)
    assert calls == [{"seed": 1}]


def test_set_flag_overrides_desk_size(tmp_path, monkeypatch):
    calls = []
    _record(monkeypatch, "gen_convexity_dataset", calls)
    assert run_cli("generate", "convexity", "--out", tmp_path / "c", "--kind", "random",
                   "--clouds-per-shape", 2, "--seed", 0) == 0
    seed = pipelines.convexity_seed(0, "random")
    assert calls == [{"kind": "random", "seed": seed, **cli.DESK["convexity"], "clouds_per_shape": 2}]
    calls.clear()
    assert run_cli("generate", "convexity", "--out", tmp_path / "p", "--kind", "random",
                   "--paper-scale", "--points", 7, "--seed", 0) == 0
    assert calls == [{"kind": "random", "seed": seed, "points_per_cloud": 7}]


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "convexity", "--kind", "regular", "--clouds-per-shape", 0, "--points", 20),
        ("generate", "curvature", "--test-kappas", 0, "--points", 10),
        ("run", "convexity", "--grid-side", 0),
        ("run", "convexity-measure", "--grid-side", 0),
    ],
    ids=["clouds-per-shape", "test-kappas", "convexity-grid-side", "measure-grid-side"],
)
def test_zero_counts_are_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out, "--seed", 0) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# ph
# ---------------------------------------------------------------------------


def test_ph_two_point_cloud(tmp_path):
    src = tmp_path / "two.csv"
    src.write_text("0.0,0.0\n2.0,0.0\n")
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    assert "0,0.0,2.0" in rows
    assert "0,0.0,inf" in rows


def test_ph_unit_square_contains_sqrt2_death(tmp_path):
    src = tmp_path / "square.csv"
    src.write_text("0,0\n1,0\n1,1\n0,1\n")
    out = tmp_path / "pd.csv"
    run_cli("ph", src, "--out", out)
    pd = io.read_diagram_csv(out)
    d1 = pd.in_dim(1)
    assert len(d1) == 1
    assert d1[0, 1] == pytest.approx(math.sqrt(2))


def test_ph_mask_tubular_single_component(tmp_path):
    src = tmp_path / "full.pbm"
    src.write_text("P1\n4 4\n" + "\n".join("1 1 1 1" for _ in range(4)) + "\n")
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--filtration", "tubular", "--line", "bottom",
                   "--out", out, "--max-dim", 0) == 0
    pd = io.read_diagram_csv(out)
    assert len(pd.in_dim(0)) == 1
    assert math.isinf(pd.in_dim(0)[0, 1])


def test_ph_mask_diag_line_convex_single_component(tmp_path):
    # in physical units float rounding splits this convex mask into 8
    # components along the diagonal line; in cell units it has one
    src = tmp_path / "convex.pbm"
    io.write_mask_pbm(src, rasterize(gen_random_convex_polygon(0), 40))
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--filtration", "tubular", "--line", "diag",
                   "--out", out, "--max-dim", 0) == 0
    assert len(io.read_diagram_csv(out).intervals) == 1


def test_ph_mask_reads_what_concavity_features_read(tmp_path):
    # the U-mask of the pipeline tests, on cells of side 2.5
    cells = np.zeros((12, 12), dtype=bool)
    cells[:, :3] = cells[:3, :] = cells[-3:, :] = True
    mask = BinaryMask(cells, (1.0, -2.0), 30.0)
    src = tmp_path / "u.pbm"
    io.write_mask_pbm(src, mask)
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--filtration", "tubular", "--line", "top",
                   "--out", out, "--max-dim", 0) == 0
    spans = io.read_diagram_csv(out).lifespans(0)
    longest = spans[np.isfinite(spans)].max()
    assert longest == concavity_features(mask)[LINE_NAMES.index("top")] > 0


def test_ph_mask_dim1_annulus_one_essential_hole(tmp_path):
    y, x = np.mgrid[:24, :24] - 11.5
    r = np.hypot(x, y)
    mask = BinaryMask((r > 4) & (r < 10), (0.0, 0.0), 24.0)
    src = tmp_path / "annulus.pbm"
    io.write_mask_pbm(src, mask)
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--filtration", "tubular", "--line", "bottom",
                   "--out", out, "--max-dim", 1) == 0
    pd = io.read_diagram_csv(out)
    holes = pd.in_dim(1)
    assert int(np.isinf(holes[:, 1]).sum()) == 1
    read = io.read_mask(src)
    line = pipelines.default_lines(read).lines[LINE_NAMES.index("bottom")]
    cx = cubical_complex(read, lambda c: pipelines.cell_units(tubular_filtration(line)(c), read.cell_size))
    assert pd.multiset() == compute_ph(cx, max_dim=1).multiset()


def test_ph_mask_csv_bad_cell_fails(tmp_path, capsys):
    src = tmp_path / "mask.csv"
    src.write_text("1,1\n1,inf\n")
    assert run_cli("ph", src, "--filtration", "tubular") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mask.csv:2: cells must be 0 or 1" in err


def test_ph_height_zero_vector_fails(tmp_path):
    src = tmp_path / "full.pbm"
    src.write_text("P1\n2 2\n1 1\n1 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero norm
        with pytest.raises(SystemExit, match="--vector must be nonzero"):
            run_cli("ph", src, "--filtration", "height", "--vector", "0,0")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--filtration", "tubular", "--line", "foo"), "--line must be one of bottom, "),
        (("--filtration", "tubular", "--line", "0,0,1"), "--line must be one of bottom, "),
        (("--filtration", "height", "--vector", "1,x"), "--vector must be 'vx,vy', got '1,x'"),
        (("--filtration", "height", "--vector", "1,2,3"), "--vector must be 'vx,vy', got '1,2,3'"),
    ],
    ids=["line-word", "line-count", "vector-word", "vector-count"],
)
def test_ph_bad_flag_names_it(tmp_path, capsys, flags, message):
    src = tmp_path / "full.pbm"
    src.write_text("P1\n2 2\n1 1\n1 1\n")
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, *flags, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_ph_svg_output(tmp_path):
    src = tmp_path / "two.csv"
    src.write_text("0.0,0.0\n2.0,0.0\n")
    svg = tmp_path / "pd.svg"
    run_cli("ph", src, "--out", tmp_path / "pd.csv", "--svg", svg)
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "circle" in text


def test_ph_dtm_filtration(tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "cloud.csv"
    src.write_text("\n".join(f"{x},{y}" for x, y in rng.random((30, 2))) + "\n")
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--filtration", "dtm", "--m", "0.1", "--out", out) == 0
    assert len(io.read_diagram_csv(out)) > 0


@pytest.mark.parametrize("filtration", ["rips", "dtm"])
def test_ph_flag_equals_explicit_2_skeleton(tmp_path, filtration):
    points = np.random.default_rng(3).random((40, 2))
    src = tmp_path / "cloud.csv"
    io.write_cloud_csv(src, PointCloud(points))
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--filtration", filtration, "--m", 0.05, "--r-max", 0.3, "--out", out) == 0
    dm = euclidean_distance_matrix(io.read_cloud_csv(src))
    if filtration == "dtm":
        cx = weighted_rips_complex(dm, dtm(dm, 0.05), max_dim=2, r_max=0.3)
    else:
        cx = rips_complex(dm, max_dim=2, r_max=0.3)
    assert io.read_diagram_csv(out).multiset() == compute_ph(cx).multiset()


def test_ph_missing_file_fails(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("ph", tmp_path / "absent.csv")


def test_ph_malformed_file_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("1,2\nno,good,here,4\n")
    assert run_cli("ph", src) == 1
    assert "bad.csv" in capsys.readouterr().err


@pytest.mark.parametrize("filtration", ["rips", "dtm"])
def test_ph_nan_r_max_fails(tmp_path, capsys, filtration):
    src = tmp_path / "cloud.csv"
    io.write_cloud_csv(src, PointCloud(np.random.default_rng(0).random((30, 2))))
    out = tmp_path / "pd.csv"
    assert run_cli("ph", src, "--filtration", filtration, "--r-max", "nan", "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: r_max must not be NaN")
    assert not out.exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_holes_from_generated_dataset(tmp_path, capsys):
    data = tmp_path / "holes"
    run_cli("generate", "holes", "--out", data, "--clouds-per-shape", 1,
            "--points", 60, "--seed", 1)
    report_path = tmp_path / "report.json"
    assert run_cli("run", "holes", "--data", data, "--out", report_path,
                   "--subsample", 30, "--seed", 1) == 0
    payload = json.loads(report_path.read_text())
    names = [r["name"] for r in payload["regimes"]]
    assert names[0] == "clean"
    assert len(names) == 7  # clean + six perturbations
    out = capsys.readouterr().out
    assert "clean" in out


def test_run_holes_subsample_zero_keeps_every_point(tmp_path):
    # 0 reaches HolesConfig, which then subsamples nothing
    data = tmp_path / "holes"
    run_cli("generate", "holes", "--out", data, "--clouds-per-shape", 1,
            "--points", 25, "--seed", 2)
    report_path = tmp_path / "report.json"
    assert run_cli("run", "holes", "--data", data, "--out", report_path,
                   "--subsample", 0, "--seed", 2) == 0
    assert json.loads(report_path.read_text())["config"]["subsample"] == 0


def test_run_rerun_identical_json(tmp_path):
    data = tmp_path / "holes"
    run_cli("generate", "holes", "--out", data, "--clouds-per-shape", 1,
            "--points", 40, "--seed", 2)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for rp in (r1, r2):
        run_cli("run", "holes", "--data", data, "--out", rp, "--subsample", 20, "--seed", 5)
    assert r1.read_text() == r2.read_text()


def test_run_manifest_mismatch(tmp_path):
    curv = tmp_path / "curv"
    run_cli("generate", "curvature", "--out", curv, "--clouds-per-kappa", 1,
            "--points", 10, "--test-kappas", 1, "--seed", 0)
    # a holes run pointed at a curvature dataset must refuse
    with pytest.raises(SystemExit, match="curvature"):
        run_cli("run", "holes", "--data", curv / "train")
    # a missing dataset directory is an error exit, not a crash
    assert run_cli("run", "curvature", "--data", tmp_path / "absent") == 1


def test_run_convexity_measure_synthetic_masks(tmp_path):
    from tdalab.datagen import gen_polygon_masks
    from tdalab import io as tio

    mask_dir = tmp_path / "masks"
    mask_dir.mkdir()
    for i, mask in enumerate(gen_polygon_masks(24, 30, seed=0).items):
        tio.write_mask_pbm(mask_dir / f"mask_{i:03d}.pbm", mask)
    report_path = tmp_path / "report.json"
    assert run_cli("run", "convexity-measure", "--data", mask_dir,
                   "--out", report_path, "--seed", 0) == 0
    payload = json.loads(report_path.read_text())
    assert {r["name"] for r in payload["regimes"]} == {"mse", "spearman"}


def test_run_convexity_from_disk(tmp_path):
    data = tmp_path / "conv"
    run_cli("generate", "convexity", "--out", data, "--points", 300,
            "--clouds-per-shape", 2, "--polygons-per-class", 8, "--seed", 3)
    report_path = tmp_path / "report.json"
    assert run_cli("run", "convexity", "--data", data, "--out", report_path,
                   "--grid-side", 16, "--seed", 3) == 0
    payload = json.loads(report_path.read_text())
    names = [r["name"] for r in payload["regimes"]]
    assert names == ["regular/regular", "random/random", "regular/random", "random/regular"]


def test_run_convexity_from_generated_dataset_reproduces_run(tmp_path, monkeypatch):
    # `generate convexity` seeds each shape family as the experiment does, so
    # a run on the written corpus reports what a run generating it reports;
    # `run` takes no size flags, so its desk sizes are set to the same ones
    sizes = {"points_per_cloud": 50, "clouds_per_shape": 2, "polygons_per_class": 6}
    monkeypatch.setitem(cli.DESK, "convexity", sizes)
    data = tmp_path / "conv"
    assert run_cli("generate", "convexity", "--out", data, "--points", 50,
                   "--clouds-per-shape", 2, "--polygons-per-class", 6, "--seed", 3) == 0
    fresh, read = tmp_path / "fresh.json", tmp_path / "read.json"
    assert run_cli("run", "convexity", "--out", fresh, "--seed", 3) == 0
    assert run_cli("run", "convexity", "--data", data, "--out", read, "--seed", 3) == 0
    assert read.read_bytes() == fresh.read_bytes()


def test_run_convexity_from_data_echoes_its_sizes(tmp_path):
    # the report echoes the sizes the corpus was generated at, not the desk's
    data = tmp_path / "conv"
    assert run_cli("generate", "convexity", "--out", data, "--points", 50,
                   "--clouds-per-shape", 2, "--polygons-per-class", 6, "--seed", 3) == 0
    out = tmp_path / "read.json"
    assert run_cli("run", "convexity", "--data", data, "--out", out, "--seed", 3) == 0
    config = json.loads(out.read_text())["config"]
    sizes = {name: config[name] for name in ("points_per_cloud", "clouds_per_shape", "polygons_per_class")}
    assert sizes == {"points_per_cloud": 50, "clouds_per_shape": 2, "polygons_per_class": 6}


def test_run_convexity_rejects_manifests_that_disagree(tmp_path):
    data = tmp_path / "conv"
    for kind, points in (("regular", 50), ("random", 40)):
        assert run_cli("generate", "convexity", "--out", data, "--kind", kind, "--points", points,
                       "--clouds-per-shape", 1, "--polygons-per-class", 2) == 0
    out = tmp_path / "read.json"
    with pytest.raises(SystemExit, match="disagree on points_per_cloud"):
        run_cli("run", "convexity", "--data", data, "--out", out)
    assert not out.exists()


def test_run_csv_format(tmp_path):
    data = tmp_path / "holes"
    run_cli("generate", "holes", "--out", data, "--clouds-per-shape", 1,
            "--points", 30, "--seed", 0)
    out = tmp_path / "report.csv"
    assert run_cli("run", "holes", "--data", data, "--out", out, "--subsample", 15,
                   "--format", "csv") == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,metric,value"
    assert len(lines) == 8
