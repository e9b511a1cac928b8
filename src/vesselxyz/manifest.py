"""Scene manifests: a self-contained, replayable record of one generated scene.

A manifest is a JSON document with a fixed field order holding the seed, the
full generation config, the camera, the drawn profile/materials/fill, and
the relative names of every emitted artifact.  Re-running generation with
the manifest's seed and config reproduces every artifact byte-for-byte.

File naming is fixed so evaluation needs no configuration:
``<seed>_<role>_<kind>.<ext>`` with role in {vessel, content, opening} and
kind in {depth, xyz, mask}; meshes are ``<seed>_<role>_mesh.obj`` and the
manifest itself is ``<seed>_manifest.json``.  A manifest's ``files`` lists
exactly these names for its seed, with every mesh or none.

``_FIELDS`` is the file's field list: each field's name, its writer and its
checked reader, in file order.  Nested records are built by their own
constructors, so an unknown key in one is an error, as is a missing one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import InvalidValue, MalformedDocument, VesselXyzError
from .formats import write_obj, write_pfm, write_pgm
from .geometry import MaterialVector, PinholeCamera
from .procgen import ProfileConfig, SceneConfig, VesselProfile, assemble_scene, like
from .renderer import render_scene

FORMAT_VERSION = 1
ROLES = ("vessel", "content", "opening")


def _drawn(name: str, scale=1) -> tuple:
    """The closed range of the ``ProfileConfig`` field ``name``, times ``scale``."""
    return tuple(scale * x for x in ProfileConfig.__dataclass_fields__[name].metadata["bounds"])


# A profile value's closed range, by its key: that of the config field it is
# drawn from.  A sinusoid's amplitude is drawn as a scale times base_radius.
_PROFILE_BOUNDS = {
    "base_radius": _drawn("base_radius"), "height": _drawn("height"),
    "slope": _drawn("linear_slope"), "coefficient": _drawn("poly_coefficient"),
    "degree": _drawn("poly_degrees"), "frequency": _drawn("sin_frequency"),
    "amplitude": _drawn("sin_amplitude_scale", _drawn("base_radius")[1]),
}


def artifact_name(seed: int, role: str, kind: str) -> str:
    ext = {"depth": "pfm", "xyz": "pfm", "mask": "pgm", "mesh": "obj"}[kind]
    return f"{seed}_{role}_{kind}.{ext}"


def _artifact_files(seed: int, meshes: bool) -> dict:
    """The ``files`` table of a scene: every role's depth, xyz and mask, then its mesh."""
    keys = [(role, kind) for role in ROLES for kind in ("depth", "xyz", "mask")]
    if meshes:
        keys += [(role, "mesh") for role in ROLES]
    return {f"{role}_{kind}": artifact_name(seed, role, kind) for role, kind in keys}


def manifest_name(seed: int) -> str:
    return f"{seed}_manifest.json"


def find_manifests(gt_dir) -> list:
    return sorted(Path(gt_dir).glob(manifest_name("*")), key=_manifest_seed)


def _manifest_seed(path: Path) -> int:
    try:
        return int(path.name.split("_", 1)[0])
    except ValueError as e:
        raise MalformedDocument(f"{path}: file name does not start with an integer seed") from e


def _camera_to_dict(camera: PinholeCamera) -> dict:
    arrays = {"rotation": camera.rotation.tolist(), "translation": camera.translation.tolist()}
    return {**asdict(camera), **arrays}


def _record(cls, build=None, bounds=None):
    """Reader of a nested record: an object holding every field of ``cls``.

    Every value is checked by ``_numbers`` against ``bounds`` first; then
    ``build`` (default ``cls(**d)``) makes the record, so an unknown key
    fails as the constructor's TypeError.
    """
    def parse(d):
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:  # a field with a default must still be in the file
            raise InvalidValue(f"missing key {missing[0]!r}")
        _numbers(d, "", bounds or {})
        return build(d) if build else cls(**d)
    return parse


def _numbers(value, where: str, bounds: dict) -> None:
    """InvalidValue naming the first value but a term's ``kind`` that is no finite number.

    A number is one by ``like``.  A value whose key is in ``bounds`` lies in
    that closed range, and a ``degree`` is also an integer.
    """
    low, high = bounds.get(where.rsplit(".", 1)[-1], (-math.inf, math.inf))
    integer = where.endswith(".degree")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            if key != "kind":  # a profile term's class name
                inner = f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]"
                _numbers(item, inner, bounds)
    elif not like(value, 0.0) or (isinstance(value, float) and not math.isfinite(value)):
        raise InvalidValue(f"{where.lstrip('.')}: expected a finite number, got {value!r}")
    elif not low <= value <= high or (integer and not like(value, 0)):
        kind = "an integer" if integer else "a number"
        raise InvalidValue(f"{where.lstrip('.')}: expected {kind} in [{low}, {high}], got {value}")


def _same(value):
    return value


def _format_version(value) -> int:
    if not like(value, 0) or value != FORMAT_VERSION:
        raise InvalidValue(f"expected {FORMAT_VERSION}, got {value!r}")
    return value


def _seed(value) -> int:
    if not like(value, 0) or value < 0:  # the rule --seeds applies
        raise InvalidValue(f"expected a non-negative integer, got {value!r}")
    return value


def _fraction(value) -> float:
    if not like(value, 0.0) or not 0.0 <= value <= 1.0:  # NaN too
        raise InvalidValue(f"expected a number in [0, 1], got {value!r}")
    return float(value)


def _files(value, seed: int) -> dict:
    """``value`` if it is the table ``emit_scene`` writes for ``seed``, with every mesh or none.

    Every name in that table is bare, which keeps eval inside --gt and --pred.
    """
    if not isinstance(value, dict):
        raise InvalidValue(f"expected a JSON object, got {type(value).__name__}")
    want = _artifact_files(seed, any(key.endswith("_mesh") for key in value))
    for key in dict.fromkeys([*want, *value]):
        if value.get(key) != want.get(key):
            raise InvalidValue(f"{key}: expected {want.get(key)!r}, got {value.get(key)!r}")
    return want


# The manifest's fields in file order, each as (name, to JSON, checked from JSON).
_FIELDS = (
    ("format_version", _same, _format_version),
    ("seed", _same, _seed),
    ("config", SceneConfig.to_dict, SceneConfig.from_dict),
    ("camera", _camera_to_dict, _record(PinholeCamera)),
    ("profile", VesselProfile.to_dict,
     _record(VesselProfile, VesselProfile.from_dict, _PROFILE_BOUNDS)),
    ("fill_fraction", _same, _fraction),
    ("vessel_material", asdict, _record(MaterialVector)),
    ("content_material", asdict, _record(MaterialVector)),
    ("files", dict, _files),
)


@dataclass(frozen=True)
class SceneManifest:
    """Everything needed to reproduce and evaluate one scene."""

    format_version: int
    seed: int
    config: SceneConfig
    camera: PinholeCamera
    profile: VesselProfile
    fill_fraction: float
    vessel_material: MaterialVector
    content_material: MaterialVector
    files: dict

    def to_dict(self) -> dict:
        return {name: dump(getattr(self, name)) for name, dump, _ in _FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "SceneManifest":
        """Parse a manifest document; MalformedDocument names the bad field."""
        values = {}
        for name, _, parse in _FIELDS:
            try:  # the file names depend on the seed, read before them
                values[name] = parse(d[name], values["seed"]) if parse is _files else parse(d[name])
            except (
                AttributeError, KeyError, OverflowError, TypeError, ValueError, VesselXyzError
            ) as e:
                why = f"missing key {e}" if isinstance(e, KeyError) else str(e)
                raise MalformedDocument(f"field {name!r}: {why}") from e
        unknown = sorted(set(d) - set(values))
        if unknown:
            raise MalformedDocument(f"field {unknown[0]!r}: unknown key")
        return cls(**values)


def write_manifest(manifest: SceneManifest, path) -> None:
    Path(path).write_text(json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8")


def read_document(path, parse):
    """``parse`` of the JSON document at ``path``; every MalformedDocument names the file."""
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, or nested too deep
        raise MalformedDocument(f"{path}: not a JSON document: {e}") from e
    try:
        return parse(d)
    except MalformedDocument as e:
        raise MalformedDocument(f"{path}: {e}") from e


def load_manifest(path) -> SceneManifest:
    return read_document(path, SceneManifest.from_dict)


def emit_scene(seed: int, config: SceneConfig, out_dir, write_meshes: bool = True) -> SceneManifest:
    """Assemble, render, and write one scene's artifacts plus its manifest."""
    scene = assemble_scene(seed, config)
    output = render_scene(scene)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _artifact_files(seed, write_meshes)
    for key, name in files.items():
        role, kind = key.split("_")
        if kind == "mesh":
            write_obj(out / name, getattr(scene, role))
        else:
            (write_pgm if kind == "mask" else write_pfm)(out / name, getattr(output, key))

    manifest = SceneManifest(
        FORMAT_VERSION, seed, config, scene.camera, scene.profile, scene.fill_fraction,
        scene.vessel_material, scene.content_material, files,
    )
    write_manifest(manifest, out / manifest_name(seed))
    return manifest

