"""CLI subcommands and the exit-code contract."""

import json
import os
import shutil
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import vesselxyz
from vesselxyz import cli, read_depth_pfm, read_xyz_pfm, write_pfm, write_pgm
from vesselxyz.cli import (
    EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, _UsageError, main, parse_seeds,
)
from vesselxyz.manifest import manifest_name


@pytest.fixture(scope="module")
def gt_batch(tmp_path_factory):
    """Three small scenes generated once for the whole module."""
    out = tmp_path_factory.mktemp("gt")
    config = {
        "resolution": 64,
        "angular_segments": 32,
        "vertical_segments": 16,
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["generate", "--seeds", "1..3", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_OK
    return out


def _small_xyz(size: int) -> vesselxyz.XyzMap:
    """A valid size x size XYZ map one meter ahead of the camera."""
    coords = np.zeros((size, size, 3))
    coords[..., 2] = 1.0
    return vesselxyz.XyzMap(coords, np.ones((size, size), bool))


# Seed 2's absent objects and their reason codes per damaged prediction and
# eval mode.  Vessel-scale aligns every object by the vessel's similarity, so
# an unscorable vessel blocks all three rows there; content-scale aligns each
# object by itself.  A hidden object's GT mask is empty, so its row reads
# not-in-view whatever its prediction, but segmentation still scores a
# prediction mask against it.
_MODES = ("vessel-scale", "content-scale", "segmentation")


def _vessel(code):
    alone = {"vessel": code}
    blocked = {**alone, "content": "no-reference", "opening": "no-reference"}
    return {"vessel-scale": blocked, "content-scale": alone, "segmentation": alone}


ABSENT_ROWS = {
    "missing-vessel": _vessel("no-file"),
    "missing-content": dict.fromkeys(_MODES, {"content": "no-file"}),
    "missing-opening": dict.fromkeys(_MODES, {"opening": "no-file"}),
    "wrong-size-vessel": _vessel("unscorable"),
    # constant XYZ maps leave the masks intact, so segmentation scores them
    "constant-vessel": {**_vessel("unscorable"), "segmentation": {}},
    "constant-content": {**dict.fromkeys(_MODES, {}), "content-scale": {"content": "unscorable"}},
    "hidden-content": {**dict.fromkeys(_MODES, {"content": "not-in-view"}), "segmentation": {}},
    "hidden-missing-content": dict.fromkeys(_MODES, {"content": "not-in-view"}),
}


class TestParseSeeds:
    def test_forms(self):
        def seeds(text):
            return list(chain.from_iterable(parse_seeds(text)))

        assert seeds("5") == [5]
        assert seeds("1..4") == [1, 2, 3, 4]
        assert seeds("2-4") == [2, 3, 4]
        assert seeds("1,7,9") == [1, 7, 9]
        assert seeds("1..2,9") == [1, 2, 9]

    def test_empty_rejected(self):
        with pytest.raises(_UsageError):
            parse_seeds(",")

    def test_huge_range_is_not_materialized(self, tmp_path):
        # A child interpreter under a 1.5 GB address-space cap: a seed list
        # built in full would fail there, not in this process.
        taken = tmp_path / "file"
        taken.write_text("")
        code = (
            "import resource, sys; cap = 1536 << 20; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "from vesselxyz.cli import main; "
            f"sys.exit(main(['generate', '--seeds', '0..100000000000', '--out', {str(taken)!r}]))"
        )
        env = dict(os.environ)
        src = str(Path(vesselxyz.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == EXIT_DATA, out.stderr
        assert "Traceback" not in out.stderr


class TestGenerate:
    def test_produces_manifests_and_artifacts(self, gt_batch):
        for seed in (1, 2, 3):
            assert (gt_batch / manifest_name(seed)).exists()
            assert (gt_batch / f"{seed}_vessel_xyz.pfm").exists()
            assert (gt_batch / f"{seed}_content_mask.pgm").exists()
            assert (gt_batch / f"{seed}_opening_depth.pfm").exists()
            assert (gt_batch / f"{seed}_vessel_mesh.obj").exists()

    def test_unwritable_out_dir_fails_fast(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["generate", "--seeds", "1", "--out", str(blocker / "sub")])
        assert code == EXIT_DATA

    def test_partial_failure_exit_code(self, tmp_path):
        # a profile with no terms keeps its base radius, and a base radius
        # drawn from this range clears min_radius 0.005 about once in 1e9
        # draws, so every seed fails; the failures are reported per seed and
        # exit code 3 flags the batch
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {
            "base_radius": [0.004, 0.005000000001], "term_count": [0, 0], "max_retries": 5,
        }}))
        code = main(
            ["generate", "--seeds", "1..2", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_PARTIAL

    @pytest.mark.filterwarnings("error")
    def test_overflowing_focal_length_prints_no_warning(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"focal_px": 1e308}')
        code = main(["generate", "--seeds", "1", "--resolution", "32", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_usage_error(self):
        assert main(["generate", "--out", "/tmp/x"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_resolution_override(self, tmp_path):
        code = main(
            ["generate", "--seeds", "9", "--out", str(tmp_path), "--resolution", "32",
             "--no-meshes"]
        )
        assert code == EXIT_OK
        depth = read_depth_pfm(tmp_path / "9_vessel_depth.pfm")
        assert (depth.height, depth.width) == (32, 32)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"resolution": 64, "bogus": 1}', "bogus"),
            ('{"profile": {"samples": 64, "sample_count": 8}}', "profile.sample_count"),
            ('{"resolution": -5}', "resolution"),
            ('{"focal_px": 0}', "focal_px"),
            ('{"angular_segments": 2}', "angular_segments"),
            ('{"vertical_segments": 16.5}', "vertical_segments"),
            ("resolution: 64", None),
            ('{"profile": {"term_count": [4, 1]}}', "profile.term_count"),
            ('{"profile": {"height": [-0.1, 0.2]}}', "profile.height"),
            ('{"fill_fraction": [0.5, 1.5]}', "fill_fraction"),
            ('{"profile": {"poly_degrees": [-3, -2]}}', "profile.poly_degrees"),
            ('{"wall_clearance": 0.05}', "wall_clearance"),
            ('{"wall_clearance": -1e-4}', "wall_clearance"),
            ('{"camera_distance": [0.0, 0.5]}', "camera_distance"),
            ('{"ground_half_extent": -2.0}', "ground_half_extent"),
            ('{"profile": {"base_radius": [0.0, 0.05]}}', "profile.base_radius"),
            ('{"profile": {"min_radius": 0.0}}', "profile.min_radius"),
            ('{"profile": {"samples": 1}}', "profile.samples"),
            ('{"profile": {"max_retries": 0}}', "profile.max_retries"),
            ("[" * 100000, None),
            # above the size caps, and above what numpy can allocate
            ('{"resolution": 10000000000000000000}', "resolution"),
            ('{"angular_segments": 10000000000000000000}', "angular_segments"),
            ('{"vertical_segments": 10000000000000000000}', "vertical_segments"),
            ('{"profile": {"samples": 10000000000000000000}}', "profile.samples"),
            ('{"profile": {"poly_degrees": [100000000000000000000, 100000000000000000000], '
             '"term_count": [4, 4]}}', "profile.poly_degrees"),
            # finite ends whose width overflows a float
            ('{"profile": {"linear_slope": [-1e308, 1e308], "term_count": [4, 4]}}',
             "profile.linear_slope"),
            ('{"camera_azimuth_deg": [-1e308, 1e308]}', "camera_azimuth_deg"),
            # in the type's range, but the scene's geometry would overflow
            ('{"ground_half_extent": 1e308}', "ground_half_extent"),
            ('{"profile": {"height": [1e300, 1e300]}}', "profile.height"),
            ('{"profile": {"linear_slope": [1e300, 1e300], "term_count": [1, 1]}}',
             "profile.linear_slope"),
            ('{"camera_distance": [1e307, 1e308]}', "camera_distance"),
            # so small that the camera rays overflow
            ('{"focal_px": 1e-300}', "focal_px"),
            # no drawn profile can clear min_radius
            ('{"profile": {"min_radius": 1e300}}', "profile.min_radius"),
            ('{"profile": {"min_radius": 0.08}}', "profile.min_radius"),
            ('{"profile": {"base_radius": [1e-300, 1e-300]}}', "profile.base_radius"),
            # so small that the eye meets the target or the triangles degenerate
            ('{"camera_distance": [1e-300, 1e-300]}', "camera_distance"),
            ('{"ground_half_extent": 1e-300}', "ground_half_extent"),
            ('{"profile": {"height": [1e-300, 1e-300]}}', "profile.height"),
            # a range ending at -0.0 ends below its start 0.0
            ('{"camera_azimuth_deg": [0.0, -0.0]}', "camera_azimuth_deg"),
            ('{"fill_fraction": [0.0, -0.0]}', "fill_fraction"),
            # integers beyond the float range, and non-finite floats
            ('{"focal_px": 1' + "0" * 400 + "}", "focal_px"),
            ('{"camera_azimuth_deg": [0, 1' + "0" * 400 + "]}", "camera_azimuth_deg"),
            ('{"profile": {"min_radius": -1' + "0" * 400 + "}}", "profile.min_radius"),
            ('{"fill_fraction": [0, Infinity]}', "fill_fraction"),
            ('{"focal_px": NaN}', "focal_px"),
        ],
        ids=["unknown-key", "unknown-profile-key", "negative-resolution", "zero-focal",
             "too-few-angular-segments", "fractional-vertical-segments", "not-json",
             "reversed-term-count", "negative-height", "fill-above-one",
             "negative-poly-degrees", "clearance-above-min-radius", "negative-clearance",
             "zero-camera-distance", "negative-ground", "zero-base-radius",
             "zero-min-radius", "one-profile-sample", "no-retries", "nested-too-deep",
             "huge-resolution", "huge-angular-segments", "huge-vertical-segments",
             "huge-profile-samples", "huge-poly-degrees", "overflowing-slope-range",
             "overflowing-azimuth-range", "huge-ground", "huge-height", "huge-slope",
             "huge-camera-distance", "tiny-focal", "huge-min-radius",
             "min-radius-at-base-radius-top", "tiny-base-radius", "tiny-camera-distance",
             "tiny-ground", "tiny-height", "azimuth-ending-at-negative-zero",
             "fill-ending-at-negative-zero", "huge-int-focal", "huge-int-azimuth",
             "huge-negative-int-min-radius", "infinite-fill", "nan-focal"],
    )
    def test_bad_config_file_is_data_error(self, tmp_path, capsys, text, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        code = main(["generate", "--seeds", "1", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert (field or "not a JSON document") in err
        assert not (out / manifest_name(1)).exists()

    @pytest.mark.parametrize(
        "profile, field",
        [
            # a base radius at the positivity floor fails every retry
            ({"base_radius": [0.004, 0.004], "max_retries": 10**19}, "profile.max_retries"),
            ({"term_count": [1, 10**19]}, "profile.term_count"),
            ({"term_count": [-3, -1]}, "profile.term_count"),
        ],
        ids=["huge-retries", "huge-term-count", "negative-term-count"],
    )
    def test_profile_count_caps_fail_fast(self, tmp_path, capsys, profile, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": profile}))
        start = time.perf_counter()
        code = main(["generate", "--seeds", "1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(cfg) in err and repr(field) in err

    def test_nonpositive_resolution_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--seeds", "1", "--out", str(tmp_path), "--resolution", "0"])
        assert code == EXIT_USAGE
        assert "--resolution" in capsys.readouterr().err

    def test_huge_resolution_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--seeds", "1", "--out", str(tmp_path),
                     "--resolution", "10000000000000000000"])
        assert code == EXIT_USAGE
        assert "--resolution" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_exhausted_profile_retries_fail_per_seed(self, tmp_path, capsys):
        # one falling term takes a base radius just above min_radius below it,
        # so every retry fails: each seed fails on its own and the batch exits 3
        cfg = tmp_path / "cfg.json"
        profile = {"base_radius": [0.0051, 0.0051], "min_radius": 0.005, "term_count": [1, 1],
                   "linear_slope": [-0.5, -0.5], "poly_coefficient": [-0.3, -0.3],
                   "sin_amplitude_scale": [-5.0, -5.0], "max_retries": 3}
        cfg.write_text(json.dumps({"profile": profile}))
        code = main(
            ["generate", "--seeds", "1..3", "--config", str(cfg), "--resolution", "16",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_PARTIAL
        failed = [line for line in capsys.readouterr().err.splitlines() if "FAILED seed" in line]
        assert failed == [
            f"FAILED seed {seed}: no positive-radius profile within 3 retries (seed {seed})"
            for seed in (1, 2, 3)
        ]

    @pytest.mark.parametrize(
        "config",
        [
            # wall quads ~1.2e-10 m tall
            {"vertical_segments": 8192, "profile": {"height": [1e-6, 1e-6]}},
            # a vessel a few micrometers wide, its content half a micrometer
            {"profile": {"base_radius": [2e-6, 2e-6], "min_radius": 1.5e-6},
             "wall_clearance": 1e-6},
        ],
        ids=["micrometer-height", "micrometer-radius"],
    )
    def test_micrometer_scenes_generate_every_seed(self, tmp_path, capsys, config):
        # no area floor: every triangle of a scene this small is kept
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        code = main(["generate", "--seeds", "1..3", "--config", str(cfg), "--resolution", "16",
                     "--no-meshes", "--out", str(out)])
        assert code == EXIT_OK
        std = capsys.readouterr()
        assert std.out == f"generated 3/3 scenes in {out}\n" and std.err == ""

    def test_console_script_entrypoint(self):
        # runs the [project.scripts] entry point the way pip's generated
        # wrapper does, so no installed copy is needed
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["vesselxyz"]
        module, attr = target.split(":")
        wrapper = (
            f"import sys; from {module} import {attr} as f; "
            "sys.argv[0] = 'vesselxyz'; sys.exit(f())"
        )
        # the child imports the same vesselxyz as this test, whatever the cwd
        src = str(Path(vesselxyz.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run(*args):
            return subprocess.run(
                [sys.executable, "-c", wrapper, *args],
                capture_output=True, text=True, env=env, timeout=120,
            )

        out = run("--version")
        assert out.returncode == EXIT_OK, out.stderr
        assert out.stdout == f"vesselxyz {vesselxyz.__version__}\n"
        # the script exits with main's code, not just main returning it
        out = run("frobnicate")
        assert out.returncode == EXIT_USAGE
        assert "usage error" in out.stderr

    @pytest.mark.skipif(
        shutil.which("vesselxyz") is None, reason="vesselxyz console script not installed"
    )
    def test_installed_console_script(self):
        out = subprocess.run(
            ["vesselxyz", "--version"], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == EXIT_OK, out.stderr
        assert out.stdout == f"vesselxyz {vesselxyz.__version__}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["generate", "--seeds", "5..3"], "--seeds"),
        (["generate", "--seeds=-3"], "--seeds"),
        (["generate", "--seeds", "1,x"], "--seeds"),
        (["eval", "--mode", "content-scale", "--dilations", "4,2"], "--dilations"),
        (["loss", "--kind", "scale_invariant", "--dilations", "0,1"], "--dilations"),
        (["clean-depth", "--fx", "-1", "--fy", "100", "--cx", "1", "--cy", "1"], "--fx"),
        (["clean-depth", "--fx", "100", "--fy", "100", "--cx", "1e9", "--cy", "1"], "--cx"),
        # below the focal floor, where rays or back-projected points overflow
        (["clean-depth", "--fx", "1e-320", "--fy", "1", "--cx", "1", "--cy", "1"], "--fx"),
        (["clean-depth", "--fx", "1e-300", "--fy", "1", "--cx", "1", "--cy", "1"], "--fx"),
        (["clean-depth", "--fx", "100", "--fy", "100", "--cx", "1", "--cy", "1",
          "--max-offset=-1"], "--max-offset"),
        (["clean-depth", "--fx", "100", "--fy", "100", "--cx", "1", "--cy", "1",
          "--max-offset", "nan"], "--max-offset"),
    ],
    ids=["empty-seed-range", "negative-seed", "non-numeric-seed", "eval-decreasing-dilations",
         "loss-zero-dilation", "negative-fx", "cx-outside-image", "subnormal-fx", "tiny-fx",
         "negative-max-offset", "nan-max-offset"],
)
def test_bad_flag_is_usage_error(gt_batch, tmp_path, capsys, argv, flag):
    files = {
        "generate": ["--out", str(tmp_path / "o")],
        "eval": ["--gt", str(gt_batch), "--pred", str(gt_batch)],
        "loss": ["--pred", str(gt_batch / "1_vessel_xyz.pfm"),
                 "--gt", str(gt_batch / "1_vessel_xyz.pfm"),
                 "--mask", str(gt_batch / "1_vessel_mask.pgm")],
        "clean-depth": ["--depth", str(gt_batch / "1_vessel_depth.pfm"),
                        "--mask", str(gt_batch / "1_vessel_mask.pgm"),
                        "--out", str(tmp_path / "c.pfm")],
    }[argv[0]]
    assert main(argv + files) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_repeated_main_calls_share_no_flag_values(monkeypatch, capsys):
    # main reuses one parser per process: each call must see what a fresh
    # parser gives for its own argv, whatever ran before it, usage errors too
    seen = []
    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(
        cli._COMMANDS, lambda args: seen.append(vars(args)) or EXIT_OK))
    runs = [
        (["generate", "--seeds", "1..2", "--out", "a", "--config", "c.json",
          "--resolution", "32", "--no-meshes"], EXIT_OK),
        (["eval", "--gt", "g", "--pred", "p", "--mode", "segmentation",
          "--dilations", "1,2", "--out", "o"], EXIT_OK),
        (["eval", "--gt", "g", "--pred", "p", "--dilations", "3", "--mode", "bogus"], EXIT_USAGE),
        (["clean-depth", "--depth", "d", "--mask", "m", "--out", "o", "--fx", "5",
          "--max-offset", "0.5"], EXIT_OK),
        (["generate", "--seeds", "-4", "--out", "b", "--no-meshes"], EXIT_USAGE),
        (["generate", "--seeds", "7", "--out", "b"], EXIT_OK),
        (["eval", "--gt", "g", "--pred", "p", "--mode", "vessel-scale"], EXIT_OK),
        (["loss", "--pred", "p", "--gt", "g", "--mask", "m", "--kind", "scale_invariant"],
         EXIT_OK),
        (["clean-depth", "--depth", "d", "--mask", "m", "--out", "o"], EXIT_OK),
    ]
    fresh_parser = cli._build_parser.__wrapped__
    for argv, code in runs:
        assert main(argv) == code
        if code == EXIT_OK:
            assert seen.pop() == vars(fresh_parser().parse_args(argv))
    assert not seen
    assert "usage error" in capsys.readouterr().err
    assert cli._build_parser() is cli._build_parser()


class TestRender:
    def test_replay_matches(self, gt_batch, tmp_path):
        # render writes the files its manifest lists, meshes or none, byte for byte
        bare = tmp_path / "bare"
        assert main(["generate", "--seeds", "2", "--config", str(gt_batch / "config.json"),
                     "--no-meshes", "--out", str(bare)]) == EXIT_OK
        for gt in (gt_batch, bare):
            out = tmp_path / f"replay-{gt.name}"
            assert main(["render", "--manifest", str(gt / manifest_name(2)),
                         "--out", str(out)]) == EXIT_OK
            files = sorted(p.name for p in gt.glob("2_*"))
            assert sorted(p.name for p in out.iterdir()) == files
            assert any(name.endswith(".obj") for name in files) == (gt is gt_batch)
            for name in files:
                assert (out / name).read_bytes() == (gt / name).read_bytes(), name

    def test_bad_config_in_manifest_is_data_error(self, gt_batch, tmp_path, capsys):
        path = tmp_path / manifest_name(2)
        doc = json.loads((gt_batch / manifest_name(2)).read_text())
        doc["config"]["resolution"] = -5
        path.write_text(json.dumps(doc))
        code = main(["render", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and "'config'" in err and "'resolution'" in err

    @pytest.mark.parametrize(
        "field", ["resolution", "angular_segments", "vertical_segments", "profile.samples"]
    )
    def test_huge_config_size_in_manifest_is_data_error(self, gt_batch, tmp_path, capsys, field):
        path = tmp_path / manifest_name(2)
        doc = json.loads((gt_batch / manifest_name(2)).read_text())
        *parents, key = field.split(".")
        node = doc["config"]
        for parent in parents:
            node = node[parent]
        node[key] = 10**19  # above the cap and above what numpy can allocate
        path.write_text(json.dumps(doc))
        code = main(["render", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and "'config'" in err and repr(field) in err

    def test_seed_too_long_for_a_file_name_names_the_manifest(self, gt_batch, tmp_path, capsys):
        path = tmp_path / manifest_name(2)
        doc = json.loads((gt_batch / manifest_name(2)).read_text())
        doc["seed"] = 10**400  # a valid seed, but its artifact names pass the file-name limit
        doc["files"] = {key: f"{10**400}{name[1:]}" for key, name in doc["files"].items()}
        path.write_text(json.dumps(doc))
        code = main(["render", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("key, name", [("vessel_mesh", None), ("vessel_xyz", "custom.pfm")],
                             ids=["no-vessel-mesh", "renamed-vessel-xyz"])
    def test_files_other_than_generates_are_data_error(self, gt_batch, tmp_path, capsys, key, name):
        # render writes generate's file set, so a manifest listing another one is malformed
        path = tmp_path / manifest_name(2)
        doc = json.loads((gt_batch / manifest_name(2)).read_text())
        if name is None:
            del doc["files"][key]
        else:
            doc["files"][key] = name
        path.write_text(json.dumps(doc))
        code = main(["render", "--manifest", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and f"field 'files': {key}" in err
        assert not (tmp_path / "o").exists()


class TestEval:
    def test_gt_as_prediction_all_zero(self, gt_batch, tmp_path):
        code = main(
            [
                "eval", "--gt", str(gt_batch), "--pred", str(gt_batch),
                "--mode", "vessel-scale", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        csv = (tmp_path / "report.csv").read_text().splitlines()
        header = csv[0].split(",")
        mae_col = header.index("mae")
        r2_col = header.index("r_squared")
        data_rows = [r.split(",") for r in csv[1:] if r.split(",")[2] == "false"]
        assert data_rows
        for row in data_rows:
            assert float(row[mae_col]) == 0.0
            assert float(row[r2_col]) == 1.0

    def test_segmentation_mode_perfect(self, gt_batch, tmp_path):
        code = main(
            [
                "eval", "--gt", str(gt_batch), "--pred", str(gt_batch),
                "--mode", "segmentation", "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        csv = (tmp_path / "report.csv").read_text().splitlines()
        header = csv[0].split(",")
        iou_col = header.index("iou")
        for row in (r.split(",") for r in csv[1:]):
            if row[2] == "false":
                assert float(row[iou_col]) == 1.0

    def test_missing_predictions_marked_absent(self, gt_batch, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        # copy only seed-1 predictions; the others must be marked missing
        for f in gt_batch.glob("1_*_xyz.pfm"):
            shutil.copy(f, pred / f.name)
            shutil.copy(
                gt_batch / f.name.replace(".pfm", ".valid.pgm"),
                pred / f.name.replace(".pfm", ".valid.pgm"),
            )
        code = main(
            ["eval", "--gt", str(gt_batch), "--pred", str(pred), "--mode", "content-scale"]
        )
        assert code == EXIT_OK

    def test_missing_vessel_blocks_vessel_scale_rows(self, gt_batch, tmp_path, capsys):
        # without a vessel prediction there is no shared similarity, so the
        # scene's rows are all absent in vessel-scale mode
        pred = tmp_path / "pred"
        pred.mkdir()
        for seed in (1, 2, 3):
            for role in ("content", "opening"):
                name = f"{seed}_{role}_xyz.pfm"
                shutil.copy(gt_batch / name, pred / name)
                vname = name.replace(".pfm", ".valid.pgm")
                shutil.copy(gt_batch / vname, pred / vname)
        code = main(
            ["eval", "--gt", str(gt_batch), "--pred", str(pred), "--mode", "vessel-scale"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "no-file" in out and "no-reference" in out

    def test_no_manifests_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["eval", "--gt", str(empty), "--pred", str(empty), "--mode", "vessel-scale"])
        assert code == EXIT_DATA
        assert str(empty) in capsys.readouterr().err

    def test_missing_prediction_directory_is_data_error(self, gt_batch, tmp_path, capsys):
        missing = tmp_path / "nonexist"
        code = main(["eval", "--gt", str(gt_batch), "--pred", str(missing),
                     "--mode", "vessel-scale"])
        assert code == EXIT_DATA
        assert str(missing) in capsys.readouterr().err

    def test_unwritable_out_fails_before_scoring(self, gt_batch, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "report"
        code = main(["eval", "--gt", str(gt_batch), "--pred", str(gt_batch),
                     "--mode", "vessel-scale", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.out == ""
        assert str(out) in captured.err

    @pytest.mark.parametrize("mode", ["vessel-scale", "content-scale"])
    def test_nan_prediction_names_the_file(self, gt_batch, tmp_path, capsys, mode):
        # an all-NaN payload beside a validity mask that marks pixels valid
        pred = tmp_path / "pred"
        shutil.copytree(gt_batch, pred)
        bad = pred / "2_vessel_xyz.pfm"
        blob = bad.read_bytes()
        payload = 64 * 64 * 3 * 4
        bad.write_bytes(blob[:-payload] + np.full(payload // 4, np.nan, "<f4").tobytes())
        code = main(["eval", "--gt", str(gt_batch), "--pred", str(pred), "--mode", mode])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "finite" in err

    @pytest.mark.parametrize(
        "name, blob, mode",
        [
            ("1_vessel_xyz.pfm", b"PF\n100000 100000\n-1.0\n" + bytes(64), "content-scale"),
            ("1_vessel_xyz.pfm", b"PF\n4 0\n-1.0\n" + bytes(64), "content-scale"),
            ("1_vessel_mask.pgm", b"P5\n-4 4\n255\n" + bytes(16), "content-scale"),
            ("1_vessel_mask.pgm", b"P5\n100000 100000\n255\n" + bytes(16), "content-scale"),
            # only the prediction is corrupt; the GT copy stays intact
            ("pred/1_vessel_mask.pgm", b"P5\n-4 4\n255\n" + bytes(16), "segmentation"),
            ("pred/1_content_mask.pgm", b"P5\n100000 100000\n255\n" + bytes(16),
             "segmentation"),
        ],
        ids=["pfm-huge", "pfm-zero-height", "pgm-negative-width", "pgm-huge",
             "pred-pgm-negative-width", "pred-pgm-huge"],
    )
    def test_bad_header_sizes_are_data_errors(
        self, gt_batch, tmp_path, capsys, name, blob, mode
    ):
        gt = tmp_path / "gt"
        shutil.copytree(gt_batch, gt)
        pred = gt
        if name.startswith("pred/"):
            pred = tmp_path / "pred"
            shutil.copytree(gt_batch, pred)
            name = name.split("/", 1)[1]
        (pred / name).write_bytes(blob)
        code = main(["eval", "--gt", str(gt), "--pred", str(pred), "--mode", mode])
        assert code == EXIT_DATA
        assert str(pred / name) in capsys.readouterr().err

    def test_megabyte_header_token_is_data_error(self, gt_batch, tmp_path, capsys):
        # one 1 MB token: the reader gives up at the token cap instead of
        # growing the token byte by byte
        pred = tmp_path / "pred"
        shutil.copytree(gt_batch, pred)
        bad = pred / "1_vessel_xyz.pfm"
        bad.write_bytes(b"P" * (1 << 20))
        start = time.perf_counter()
        code = main(["eval", "--gt", str(gt_batch), "--pred", str(pred), "--mode", "vessel-scale"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DATA
        assert str(bad) in capsys.readouterr().err

    def test_whitespace_only_prediction_is_data_error(self, gt_batch, tmp_path, capsys):
        # 32 MB of header whitespace: the reader gives up at the whitespace
        # cap instead of reading the file byte by byte
        pred = tmp_path / "pred"
        shutil.copytree(gt_batch, pred)
        bad = pred / "1_vessel_xyz.pfm"
        bad.write_bytes(b" " * (32 << 20))
        start = time.perf_counter()
        code = main(["eval", "--gt", str(gt_batch), "--pred", str(pred), "--mode", "vessel-scale"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DATA
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("camera",), None),
            (("vessel_material", "ior"), 5.0),
            (("files", "vessel_xyz"), None),
            (("camera", "fx"), None),
            (("profile", "base_radius"), None),
        ],
        ids=["no-camera", "ior-out-of-range", "no-vessel-xyz-file", "no-camera-fx",
             "no-profile-base-radius"],
    )
    def test_malformed_manifest_is_data_error(self, gt_batch, tmp_path, capsys, keys, value):
        # None deletes the key; anything else replaces its value
        gt = tmp_path / "gt"
        shutil.copytree(gt_batch, gt)
        path = gt / manifest_name(1)
        doc = json.loads(path.read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        if value is None:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        path.write_text(json.dumps(doc))
        code = main(["eval", "--gt", str(gt), "--pred", str(gt), "--mode", "content-scale"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err
        assert keys[-1] in err

    @pytest.mark.parametrize("name", [
        "../outside/1_vessel_xyz.pfm", "/abs/1_vessel_xyz.pfm", "sub/1_vessel_xyz.pfm", "..", "",
        "1_vessel\0xyz.pfm", 7,
    ])
    def test_manifest_file_names_must_be_bare(self, gt_batch, tmp_path, capsys, name):
        # a path in "files" would make eval read outside --gt and --pred
        gt = tmp_path / "gt"
        shutil.copytree(gt_batch, gt)
        outside = tmp_path / "outside"
        outside.mkdir()
        shutil.copy(gt / "1_vessel_xyz.pfm", outside)
        shutil.copy(gt / "1_vessel_xyz.valid.pgm", outside)
        path = gt / manifest_name(1)
        doc = json.loads(path.read_text())
        doc["files"]["vessel_xyz"] = name
        path.write_text(json.dumps(doc))
        code = main(["eval", "--gt", str(gt), "--pred", str(gt), "--mode", "content-scale"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and "field 'files': vessel_xyz" in err

    def test_manifest_files_must_be_an_object(self, gt_batch, tmp_path, capsys):
        # dict() would take a list of [key, name] pairs
        gt = tmp_path / "gt"
        shutil.copytree(gt_batch, gt)
        path = gt / manifest_name(1)
        doc = json.loads(path.read_text())
        doc["files"] = [[key, name] for key, name in doc["files"].items()]
        path.write_text(json.dumps(doc))
        code = main(["eval", "--gt", str(gt), "--pred", str(gt), "--mode", "content-scale"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and "field 'files': expected a JSON object" in err

    def test_stray_manifest_name_is_data_error(self, gt_batch, tmp_path, capsys):
        gt = tmp_path / "gt"
        shutil.copytree(gt_batch, gt)
        stray = gt / "x_manifest.json"
        shutil.copy(gt / manifest_name(1), stray)
        code = main(["eval", "--gt", str(gt), "--pred", str(gt), "--mode", "content-scale"])
        assert code == EXIT_DATA
        assert str(stray) in capsys.readouterr().err

    def test_wrong_size_prediction_is_absent(self, gt_batch, tmp_path):
        # a readable 32x32 vessel prediction cannot be scored against 64x64 GT
        pred = tmp_path / "pred"
        shutil.copytree(gt_batch, pred)
        write_pfm(pred / "1_vessel_xyz.pfm", _small_xyz(32))
        code = main(
            ["eval", "--gt", str(gt_batch), "--pred", str(pred), "--mode", "content-scale",
             "--out", str(tmp_path / "report")]
        )
        assert code == EXIT_OK
        rows = [r.split(",") for r in (tmp_path / "report" / "report.csv").read_text().splitlines()]
        missing = {(r[0], r[1]): r[2] for r in rows[1:] if r[2] != "false"}
        assert missing == {("1", "vessel"): "unscorable"}

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("cause", list(ABSENT_ROWS))
    def test_absent_rows_per_cause_and_mode(self, gt_batch, tmp_path, cause, mode):
        # every prediction is the GT copy except seed 2's damaged ones
        gt, pred = gt_batch, tmp_path / "pred"
        shutil.copytree(gt_batch, pred)
        role = cause.split("-")[-1]
        stems = [f"2_{role}_xyz.pfm", f"2_{role}_xyz.valid.pgm", f"2_{role}_mask.pgm"]
        if cause.startswith("hidden"):  # the GT copy's mask of the object is all false
            gt = tmp_path / "gt"
            shutil.copytree(gt_batch, gt)
            write_pgm(gt / stems[2], vesselxyz.SegMask(np.zeros((64, 64), bool)))
        if "missing" in cause:
            for stem in stems:
                (pred / stem).unlink()
        elif cause.startswith("wrong-size"):
            write_pfm(pred / stems[0], _small_xyz(32))
            write_pgm(pred / stems[2], vesselxyz.SegMask(np.ones((32, 32), bool)))
        elif cause.startswith("constant"):  # no scale, so its similarity raises DegenerateScale
            xyz = read_xyz_pfm(gt_batch / stems[0])
            write_pfm(pred / stems[0], vesselxyz.XyzMap(np.full_like(xyz.coords, 0.5), xyz.valid))
        out = tmp_path / "report"
        code = main(
            ["eval", "--gt", str(gt), "--pred", str(pred), "--mode", mode, "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = [r.split(",") for r in (out / "report.csv").read_text().splitlines()[1:]]
        absent = {(r[0], r[1]): r[2] for r in rows if r[2] != "false"}
        assert absent == {("2", role): why for role, why in ABSENT_ROWS[cause][mode].items()}


class TestLoss:
    def test_identical_maps(self, gt_batch, capsys):
        xyz = str(gt_batch / "1_vessel_xyz.pfm")
        mask = str(gt_batch / "1_vessel_mask.pgm")
        code = main(
            ["loss", "--pred", xyz, "--gt", xyz, "--mask", mask, "--kind", "scale_invariant"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "value: 0.0" in out
        assert "k: 1.0" in out
        assert "control_term_active: False" in out

    def test_two_pixel_fixture_via_files(self, tmp_path, capsys):
        from vesselxyz import SegMask, XyzMap, write_pgm

        gt = np.zeros((1, 2, 3))
        gt[0, 1, 2] = 4.0
        pred = np.zeros((1, 2, 3))
        pred[0, 0, 2] = 1.0
        pred[0, 1, 2] = 2.0
        valid = np.ones((1, 2), bool)
        write_pfm(tmp_path / "gt.pfm", XyzMap(gt, valid))
        write_pfm(tmp_path / "pred.pfm", XyzMap(pred, valid))
        write_pgm(tmp_path / "m.pgm", SegMask(valid))
        code = main(
            [
                "loss", "--pred", str(tmp_path / "pred.pfm"), "--gt", str(tmp_path / "gt.pfm"),
                "--mask", str(tmp_path / "m.pgm"), "--kind", "translation_invariant",
                "--dilations", "1",
            ]
        )
        assert code == EXIT_OK
        assert "value: 1.0" in capsys.readouterr().out

    def test_scaled_prediction(self, gt_batch, tmp_path, capsys):
        src = read_xyz_pfm(gt_batch / "1_vessel_xyz.pfm")
        from vesselxyz import XyzMap

        doubled = XyzMap(
            np.where(src.valid[..., None], 2.0 * src.coords + 0.5, np.nan), src.valid
        )
        write_pfm(tmp_path / "pred.pfm", doubled)
        code = main(
            [
                "loss", "--pred", str(tmp_path / "pred.pfm"),
                "--gt", str(gt_batch / "1_vessel_xyz.pfm"),
                "--mask", str(gt_batch / "1_vessel_mask.pgm"),
                "--kind", "scale_invariant",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        k = float(out.split("k: ")[1].splitlines()[0])
        value = float(out.split("value: ")[1].splitlines()[0])
        assert k == pytest.approx(0.5, rel=1e-5)
        assert value < 1e-7

    def test_wrong_size_prediction_is_data_error(self, gt_batch, tmp_path, capsys):
        write_pfm(tmp_path / "pred.pfm", _small_xyz(32))
        code = main(
            [
                "loss", "--pred", str(tmp_path / "pred.pfm"),
                "--gt", str(gt_batch / "1_vessel_xyz.pfm"),
                "--mask", str(gt_batch / "1_vessel_mask.pgm"),
                "--kind", "scale_invariant",
            ]
        )
        assert code == EXIT_DATA
        assert "32x32" in capsys.readouterr().err

    def test_unreadable_file_is_data_error(self, tmp_path):
        code = main(
            [
                "loss", "--pred", str(tmp_path / "nope.pfm"), "--gt", str(tmp_path / "nope.pfm"),
                "--mask", str(tmp_path / "m.pgm"), "--kind", "translation_invariant",
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("case, message", [
        ("constant-prediction", "only 0 sign-consistent pair entries, need at least 8"),
        ("empty-mask", "cannot build pairs over an empty mask"),
        ("small-mask", "map 64x64 vs mask 5x5"),
    ], ids=["constant-prediction", "empty-mask", "small-mask"])
    def test_unscorable_inputs_name_their_files(self, gt_batch, tmp_path, capsys, case, message):
        gt = read_xyz_pfm(gt_batch / "1_vessel_xyz.pfm")
        pred, mask = gt_batch / "1_vessel_xyz.pfm", gt_batch / "1_vessel_mask.pgm"
        if case == "constant-prediction":
            pred = tmp_path / "pred.pfm"
            write_pfm(pred, vesselxyz.XyzMap(np.full_like(gt.coords, 0.5), gt.valid))
        else:
            mask = tmp_path / "mask.pgm"
            size = 64 if case == "empty-mask" else 5
            write_pgm(mask, vesselxyz.SegMask(np.full((size, size), case == "small-mask")))
        code = main(["loss", "--pred", str(pred), "--gt", str(gt_batch / "1_vessel_xyz.pfm"),
                     "--mask", str(mask), "--kind", "scale_invariant"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{pred}, {gt_batch / '1_vessel_xyz.pfm'}, {mask}: {message}" in err


class TestCleanDepth:
    def test_roundtrip_with_manifest_camera(self, gt_batch, tmp_path):
        out = tmp_path / "clean.pfm"
        code = main(
            [
                "clean-depth",
                "--depth", str(gt_batch / "1_vessel_depth.pfm"),
                "--mask", str(gt_batch / "1_vessel_mask.pgm"),
                "--manifest", str(gt_batch / manifest_name(1)),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        cleaned = read_depth_pfm(out)
        original = read_depth_pfm(gt_batch / "1_vessel_depth.pfm")
        assert cleaned.valid.sum() <= original.valid.sum()

    def test_wrong_size_mask_is_data_error(self, gt_batch, tmp_path):
        from vesselxyz import SegMask, write_pgm

        write_pgm(tmp_path / "m.pgm", SegMask(np.ones((32, 32), bool)))
        code = main(
            [
                "clean-depth",
                "--depth", str(gt_batch / "1_vessel_depth.pfm"),
                "--mask", str(tmp_path / "m.pgm"),
                "--manifest", str(gt_batch / manifest_name(1)),
                "--out", str(tmp_path / "x.pfm"),
            ]
        )
        assert code == EXIT_DATA

    def test_empty_mask_names_the_files(self, gt_batch, tmp_path, capsys):
        mask = tmp_path / "empty.pgm"
        write_pgm(mask, vesselxyz.SegMask(np.zeros((64, 64), bool)))
        depth = gt_batch / "1_vessel_depth.pfm"
        code = main(["clean-depth", "--depth", str(depth), "--mask", str(mask),
                     "--manifest", str(gt_batch / manifest_name(1)),
                     "--out", str(tmp_path / "x.pfm")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{depth}, {mask}, {gt_batch / manifest_name(1)}: " in err
        assert "mask selects no pixel" in err

    def test_camera_of_another_size_names_the_files(self, gt_batch, tmp_path, capsys):
        manifest = tmp_path / manifest_name(1)
        doc = json.loads((gt_batch / manifest_name(1)).read_text())
        doc["camera"]["width"] *= 2
        manifest.write_text(json.dumps(doc))
        depth = gt_batch / "1_vessel_depth.pfm"
        code = main(
            [
                "clean-depth",
                "--depth", str(depth),
                "--mask", str(gt_batch / "1_vessel_mask.pgm"),
                "--manifest", str(manifest),
                "--out", str(tmp_path / "x.pfm"),
            ]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(depth) in err and str(manifest) in err and "vs camera" in err

    def test_requires_camera_source(self, gt_batch, tmp_path):
        code = main(
            [
                "clean-depth",
                "--depth", str(gt_batch / "1_vessel_depth.pfm"),
                "--mask", str(gt_batch / "1_vessel_mask.pgm"),
                "--out", str(tmp_path / "x.pfm"),
            ]
        )
        assert code == EXIT_USAGE
