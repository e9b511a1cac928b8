"""Scene manifests: a self-contained, replayable record of one generated scene.

A manifest is a JSON document with a fixed field order holding the seed, the
full generation config, the camera, the drawn profile/materials/fill, and
the relative names of every emitted artifact.  Re-running generation with
the manifest's seed and config reproduces every artifact byte-for-byte.

File naming is fixed so evaluation needs no configuration:
``<seed>_<role>_<kind>.<ext>`` with role in {vessel, content, opening} and
kind in {depth, xyz, mask}; meshes are ``<seed>_<role>_mesh.obj`` and the
manifest itself is ``<seed>_manifest.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidValue, MalformedManifest, VesselXyzError
from .formats import write_obj, write_pfm, write_pgm
from .geometry import MaterialVector, PinholeCamera
from .procgen import SceneConfig, VesselProfile, assemble_scene
from .renderer import render_scene

FORMAT_VERSION = 1
ROLES = ("vessel", "content", "opening")


def artifact_name(seed: int, role: str, kind: str) -> str:
    ext = {"depth": "pfm", "xyz": "pfm", "mask": "pgm", "mesh": "obj"}[kind]
    return f"{seed}_{role}_{kind}.{ext}"


def manifest_name(seed: int) -> str:
    return f"{seed}_manifest.json"


def _camera_to_dict(camera: PinholeCamera) -> dict:
    arrays = {"rotation": camera.rotation.tolist(), "translation": camera.translation.tolist()}
    return {**asdict(camera), **arrays}


def camera_from_dict(d: dict) -> PinholeCamera:
    return PinholeCamera(
        fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
        width=d["width"], height=d["height"],
        rotation=np.array(d["rotation"]), translation=np.array(d["translation"]),
    )


def material_from_dict(d: dict) -> MaterialVector:
    return MaterialVector(
        rgb=tuple(d["rgb"]),
        transmission=d["transmission"],
        roughness=d["roughness"],
        metallic=d["metallic"],
        ior=d["ior"],
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
        return {
            "format_version": self.format_version,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "camera": _camera_to_dict(self.camera),
            "profile": self.profile.to_dict(),
            "fill_fraction": self.fill_fraction,
            "vessel_material": asdict(self.vessel_material),
            "content_material": asdict(self.content_material),
            "files": dict(self.files),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneManifest":
        """Parse a manifest document; MalformedManifest names the bad field."""
        fields = {}
        for name, parse in _FIELD_PARSERS:
            try:
                fields[name] = parse(d[name])
            except (AttributeError, KeyError, TypeError, ValueError, VesselXyzError) as e:
                why = f"missing key {e}" if isinstance(e, KeyError) else str(e)
                raise MalformedManifest(f"field {name!r}: {why}") from e
        files = fields["files"]
        bad = [
            key for key in (f"{role}_{kind}" for role in ROLES for kind in ("xyz", "mask"))
            if not isinstance(files.get(key), str)
        ]
        if bad:
            raise MalformedManifest(f"field 'files': no file name for {', '.join(bad)}")
        return cls(**fields)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(f"expected an integer, got {value!r}")
    return value


_FIELD_PARSERS = (
    ("format_version", _integer),
    ("seed", _integer),
    ("config", SceneConfig.from_dict),
    ("camera", camera_from_dict),
    ("profile", VesselProfile.from_dict),
    ("fill_fraction", float),
    ("vessel_material", material_from_dict),
    ("content_material", material_from_dict),
    ("files", dict),
)


def write_manifest(manifest: SceneManifest, path) -> None:
    Path(path).write_text(json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8")


def load_manifest(path) -> SceneManifest:
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, or nested too deep
        raise MalformedManifest(f"{path}: not a JSON document: {e}") from e
    try:
        return SceneManifest.from_dict(d)
    except MalformedManifest as e:
        raise MalformedManifest(f"{path}: {e}") from e


def emit_scene(seed: int, config: SceneConfig, out_dir, write_meshes: bool = True) -> SceneManifest:
    """Assemble, render, and write one scene's artifacts plus its manifest."""
    scene = assemble_scene(seed, config)
    output = render_scene(scene)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = [
        (role, kind, write, getattr(output, f"{role}_{kind}"))
        for role in ROLES
        for kind, write in (("depth", write_pfm), ("xyz", write_pfm), ("mask", write_pgm))
    ]
    if write_meshes:
        artifacts += [(role, "mesh", write_obj, getattr(scene, role)) for role in ROLES]
    files = {}
    for role, kind, write, value in artifacts:
        name = artifact_name(seed, role, kind)
        write(out / name, value)
        files[f"{role}_{kind}"] = name

    manifest = SceneManifest(
        format_version=FORMAT_VERSION,
        seed=seed,
        config=config,
        camera=scene.camera,
        profile=scene.profile,
        fill_fraction=scene.fill_fraction,
        vessel_material=scene.vessel_material,
        content_material=scene.content_material,
        files=files,
    )
    write_manifest(manifest, out / manifest_name(seed))
    return manifest


def replay_manifest(manifest: SceneManifest, out_dir) -> SceneManifest:
    """Regenerate a manifest's scene from its seed and config echo."""
    return emit_scene(manifest.seed, manifest.config, out_dir)
