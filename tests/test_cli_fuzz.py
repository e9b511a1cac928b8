"""Property tests: no input file makes the CLI report a usage error or crash.

A bad file is a data error (exit 2), never a usage error (exit 1) and never
a traceback; a readable file passes (exit 0).  ``generate`` may also exit 3,
but only where a config in range runs out of profile retries for a seed.
"""

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselxyz import ProfileConfig, SceneConfig
from vesselxyz.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, main

FUZZ = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def tiny_gt(tmp_path_factory):
    """One 32x32 scene with every object in view."""
    out = tmp_path_factory.mktemp("gt")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(
        {"resolution": 32, "focal_px": 40.0, "angular_segments": 16, "vertical_segments": 8}
    ))
    assert main(["generate", "--seeds", "1", "--config", str(cfg), "--no-meshes",
                 "--out", str(out)]) == EXIT_OK
    cfg.unlink()
    return out


def _near(original: bytes):
    """Arbitrary bytes, and bytes made from ``original`` by cutting, patching or a new tail."""
    n = len(original)
    return st.one_of(
        st.binary(max_size=256),
        st.integers(0, n - 1).map(lambda i: original[:i]),
        st.tuples(st.integers(0, n - 1), st.binary(min_size=1, max_size=8)).map(
            lambda p: original[: p[0]] + p[1] + original[p[0] + len(p[1]):]
        ),
        st.tuples(st.integers(0, min(n, 48)), st.binary(max_size=64)).map(
            lambda p: original[: p[0]] + p[1]
        ),
    )


@pytest.mark.parametrize(
    "name, side, mode",
    [
        ("1_manifest.json", "gt", "vessel-scale"),
        ("1_vessel_xyz.pfm", "gt", "content-scale"),
        ("1_content_xyz.valid.pgm", "gt", "content-scale"),
        ("1_vessel_mask.pgm", "gt", "segmentation"),
        ("1_vessel_xyz.pfm", "pred", "vessel-scale"),
        ("1_opening_xyz.valid.pgm", "pred", "content-scale"),
        ("1_content_mask.pgm", "pred", "segmentation"),
    ],
)
@FUZZ
@given(data=st.data())
def test_eval_of_any_file_bytes(tiny_gt, name, side, mode, data):
    blob = data.draw(_near((tiny_gt / name).read_bytes()), label="bytes")
    with tempfile.TemporaryDirectory() as tmp:
        changed = Path(tmp) / "changed"
        shutil.copytree(tiny_gt, changed)
        (changed / name).write_bytes(blob)
        gt, pred = (changed, tiny_gt) if side == "gt" else (tiny_gt, changed)
        code = main(["eval", "--gt", str(gt), "--pred", str(pred), "--mode", mode])
    assert code in (EXIT_OK, EXIT_DATA)


def _like(default):
    """Values of the default's type and shape, on both sides of every bound."""
    if isinstance(default, tuple):
        return st.lists(_like(default[0]), min_size=2, max_size=2)
    if isinstance(default, int):
        return st.integers(-2, 40)
    return st.one_of(
        st.floats(-1.0, 1.0), st.sampled_from([1e-9, 0.005, 0.05, 2.0]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.builds(lambda sign, k: sign * 10.0**k, st.sampled_from([1, -1]), st.integers(-300, 300)),
        st.integers(2**1024, 10**400), st.integers(-(10**400), -(2**1024)),  # beyond a float
    )


def _some_keys(table):
    return st.lists(st.sampled_from(sorted(table)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: table[key] for key in keys})
    )


def _configs():
    """Config objects setting up to three scene and three profile fields, or an unknown key."""
    scene = {f.name: _like(getattr(SceneConfig(), f.name)) for f in fields(SceneConfig)}
    del scene["profile"]
    scene["bogus"] = st.just(1)
    profile = {f.name: _like(getattr(ProfileConfig(), f.name)) for f in fields(ProfileConfig)}
    return st.tuples(_some_keys(scene), _some_keys(profile)).map(
        lambda p: {**p[0], "profile": p[1]} if p[1] else p[0]
    )


@FUZZ
@given(blob=st.one_of(st.binary(max_size=128), _configs().map(lambda d: json.dumps(d).encode())))
def test_generate_with_any_config_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["generate", "--seeds", "1", "--config", str(cfg), "--resolution", "8",
                         "--no-meshes", "--out", str(Path(tmp) / "o")])
    assert code in (EXIT_OK, EXIT_DATA, EXIT_PARTIAL)
    failed = [line for line in err.getvalue().splitlines() if line.startswith("FAILED seed")]
    assert (code == EXIT_PARTIAL) == bool(failed)
    assert all("no positive-radius profile within" in line for line in failed), failed


def _key_paths(node, prefix=()):
    """The key path of every field of a JSON object, nested objects included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_DELETE = object()
_MANIFEST = "1_manifest.json"


def _manifest_cli_runs(gt, tmp, keys, value):
    """Exit code and stderr of render, eval and clean-depth on the manifest with one key changed.

    ``value`` replaces the field at ``keys``, or deletes it when it is ``_DELETE``.
    """
    changed = Path(tmp) / "gt"
    shutil.copytree(gt, changed)
    path = changed / _MANIFEST
    doc = json.loads(path.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    path.write_text(json.dumps(doc))
    runs = [
        ["render", "--manifest", str(path), "--out", str(Path(tmp) / "render")],
        ["eval", "--gt", str(changed), "--pred", str(gt), "--mode", "content-scale"],
        ["clean-depth", "--depth", str(gt / "1_vessel_depth.pfm"),
         "--mask", str(gt / "1_vessel_mask.pgm"), "--manifest", str(path),
         "--out", str(Path(tmp) / "clean.pfm")],
    ]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        yield argv[0], code, err.getvalue(), str(path)


_ODD_VALUES = st.sampled_from(
    [-3, 2.5, True, "x", float("nan"), float("inf"), [1], {"a": 1}, 10**19, 10**400]
)


@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_manifest_with_any_field_changed(tiny_gt, data):
    doc = json.loads((tiny_gt / _MANIFEST).read_text())
    nested = sorted(path for path in _key_paths(doc) if len(path) > 1)
    keys = data.draw(st.one_of(st.sampled_from([(key,) for key in doc]), st.sampled_from(nested)),
                     label="keys")
    keys, value = data.draw(st.one_of(
        st.just((keys, _DELETE)),
        st.just((keys[:-1] + ("bogus",), 1)),
        _ODD_VALUES.map(lambda v: (keys, v)),
    ), label="change")
    with tempfile.TemporaryDirectory() as tmp:
        for command, code, err, path in _manifest_cli_runs(tiny_gt, tmp, keys, value):
            assert code in (EXIT_OK, EXIT_DATA), (command, err)
            assert code == EXIT_OK or path in err, (command, err)


_POLYNOMIAL = {"kind": "PolynomialTerm", "coefficient": 0.1, "degree": 2}
_SINUSOID = {"kind": "SinusoidTerm", "amplitude": 0.01, "frequency": 1.0, "phase": 0.0}


@pytest.mark.parametrize(
    "keys, value",
    [
        (("camera", "bogus"), 1),
        (("vessel_material", "bogus"), 1),
        (("profile", "bogus"), 1),
        (("bogus",), 1),
        (("format_version",), 7),
        (("fill_fraction",), "0.5"),
        (("fill_fraction",), True),
        (("fill_fraction",), 5.0),
        (("seed",), -3),
        (("camera", "width"), 32.0),
        (("camera", "height"), 16.5),
        (("profile", "terms", 0, "kind"), "Cubic"),
        (("camera", "fx"), True),
        (("camera", "cx"), True),
        (("camera", "rotation", 0, 1), False),  # the entry is 0.0, so the matrix stays a rotation
        (("profile", "height"), True),
        (("profile", "terms", 0, "slope"), "0.1"),  # seed 1's first term is a LinearTerm
        (("vessel_material", "ior"), False),
        (("content_material", "roughness"), "0.5"),
        (("vessel_material", "rgb"), ["0.1", "0.2", "0.3"]),
        (("profile", "terms"), [_POLYNOMIAL | {"degree": -1}]),
        (("profile", "terms"), [_POLYNOMIAL | {"degree": 2.5}]),
        (("profile", "terms"), [_POLYNOMIAL | {"degree": 5000}]),  # above poly_degrees' 1024
        (("profile", "terms", 0, "slope"), float("nan")),
        (("profile", "terms"), [_SINUSOID | {"amplitude": float("inf")}]),
        # each above or below the range of the config field it is drawn from
        (("profile", "terms", 0, "slope"), 1e308),  # linear_slope's 1e6
        (("profile", "terms"), [_POLYNOMIAL | {"coefficient": -2e6}]),  # poly_coefficient's -1e6
        (("profile", "terms"), [_SINUSOID | {"frequency": 1e7}]),  # sin_frequency's 1e6
        (("profile", "terms"), [_SINUSOID | {"amplitude": 2e12}]),  # 1e6 scale x 1e6 radius
        (("profile", "base_radius"), 1e-7),  # base_radius' 1e-6
        (("profile", "height"), 2e6),  # height's 1e6
        (("camera", "fx"), 1e-300),  # below the focal floor 1e-6
    ],
    ids=["camera-unknown-key", "material-unknown-key", "profile-unknown-key",
         "top-level-unknown-key", "format-version-7", "fill-fraction-string",
         "fill-fraction-bool", "fill-fraction-above-1", "negative-seed",
         "float-camera-width", "fractional-camera-height", "unknown-term-kind",
         "bool-camera-fx", "bool-camera-cx", "bool-in-camera-rotation", "bool-profile-height",
         "string-term-slope", "bool-material-ior", "string-material-roughness",
         "strings-in-material-rgb", "negative-term-degree", "fractional-term-degree",
         "huge-term-degree", "nan-term-slope", "infinite-term-amplitude",
         "huge-term-slope", "huge-term-coefficient", "huge-term-frequency",
         "huge-term-amplitude", "tiny-base-radius", "huge-height", "tiny-camera-fx"],
)
def test_rejected_manifest_field_names_file_and_field(tiny_gt, tmp_path, keys, value):
    for command, code, err, path in _manifest_cli_runs(tiny_gt, tmp_path, keys, value):
        assert code == EXIT_DATA, (command, err)
        assert path in err and repr(keys[0]) in err, (command, err)
        assert all(key in err for key in keys[1:] if isinstance(key, str)), (command, err)
