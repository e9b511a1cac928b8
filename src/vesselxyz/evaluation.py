"""Batch evaluation of predictions against generated ground truth.

Predictions live in a flat directory using the same naming scheme the
generator emits: per object an XYZ map ``<seed>_<role>_xyz.pfm`` (with its
validity sibling) or, in segmentation mode, a mask ``<seed>_<role>_mask.pgm``.

Alignment modes mirror the two ways of normalizing scale/translation before
scoring an object:

* ``vessel-scale``: every object is aligned by the similarity estimated on
  the vessel, so content placement errors relative to the vessel survive.
* ``content-scale``: each object is aligned by its own region, isolating
  shape error.
* ``segmentation``: mask IOU/precision/recall, no alignment.
"""

from __future__ import annotations

from pathlib import Path

from . import __version__
from .errors import InvalidValue, MalformedManifest, MissingPrediction, VesselXyzError
from .formats import read_pgm, read_xyz_pfm
from .geometry import SegMask, XyzMap, default_dilations, valid_region
from .manifest import ROLES, SceneManifest, load_manifest
from .metrics import evaluate_xyz, seg_eval, similarity_from_region
from .report import SEG_COLUMNS, XYZ_COLUMNS, ReportDocument

MODES = ("vessel-scale", "content-scale", "segmentation")


def find_manifests(gt_dir) -> list:
    return sorted(Path(gt_dir).glob("*_manifest.json"), key=_manifest_seed)


def _manifest_seed(path: Path) -> int:
    try:
        return int(path.name.split("_", 1)[0])
    except ValueError as e:
        raise MalformedManifest(f"{path}: file name does not start with an integer seed") from e


def _gt_xyz(manifest: SceneManifest, gt_dir: Path, role: str) -> XyzMap:
    return read_xyz_pfm(gt_dir / manifest.files[f"{role}_xyz"])


def _gt_mask(manifest: SceneManifest, gt_dir: Path, role: str) -> SegMask:
    return read_pgm(gt_dir / manifest.files[f"{role}_mask"])


def _read_prediction(pred_dir: Path, manifest: SceneManifest, role: str, kind: str, read):
    """The prediction read with ``read``, or None when its file is missing.

    A file that exists but cannot be read raises, like a bad GT file.
    """
    path = pred_dir / manifest.files[f"{role}_{kind}"]
    return read(path) if path.exists() else None


def evaluate_scene_xyz(
    manifest: SceneManifest, gt_dir, pred_dir, mode: str, dilations=None
) -> list:
    """Metric rows for one scene's vessel/content/opening predictions."""
    gt_dir, pred_dir = Path(gt_dir), Path(pred_dir)
    seed = manifest.seed
    if dilations is None:
        cam = manifest.camera
        dilations = default_dilations(cam.height, cam.width)

    gt_maps, gt_masks, pred_maps = {}, {}, {}
    rows = []
    for role in ROLES:
        gt_maps[role] = _gt_xyz(manifest, gt_dir, role)
        gt_masks[role] = _gt_mask(manifest, gt_dir, role)
        pred_maps[role] = _read_prediction(pred_dir, manifest, role, "xyz", read_xyz_pfm)

    vessel_transform = None
    if mode == "vessel-scale" and pred_maps["vessel"] is not None:
        try:
            region = valid_region(gt_masks["vessel"], gt_maps["vessel"], pred_maps["vessel"])
            vessel_transform = similarity_from_region(
                pred_maps["vessel"], gt_maps["vessel"], region, dilations
            )
        except VesselXyzError:
            vessel_transform = None

    for role in ROLES:
        pred = pred_maps[role]
        if pred is None or (mode == "vessel-scale" and vessel_transform is None):
            rows.append({"seed": seed, "object": role, "missing": True})
            continue
        try:
            mask = valid_region(gt_masks[role], gt_maps[role], pred)
            if mode == "vessel-scale":
                transform = vessel_transform
            else:
                transform = similarity_from_region(pred, gt_maps[role], mask, dilations)
            aligned = transform.apply(pred, mask)
            report = evaluate_xyz(aligned, gt_maps[role], mask)
        except VesselXyzError:
            rows.append({"seed": seed, "object": role, "missing": True})
            continue
        row = {"seed": seed, "object": role}
        row.update({col: getattr(report, col) for col in XYZ_COLUMNS})
        rows.append(row)
    return rows


def evaluate_scene_seg(manifest: SceneManifest, gt_dir, pred_dir) -> list:
    gt_dir, pred_dir = Path(gt_dir), Path(pred_dir)
    rows = []
    for role in ROLES:
        gt_mask = _gt_mask(manifest, gt_dir, role)
        pred_mask = _read_prediction(pred_dir, manifest, role, "mask", read_pgm)
        try:
            report = None if pred_mask is None else seg_eval(pred_mask, gt_mask)
        except VesselXyzError:  # readable, but cannot be scored against the GT
            report = None
        row = {"seed": manifest.seed, "object": role}
        if report is None:
            row["missing"] = True
        else:
            row.update({col: getattr(report, col) for col in SEG_COLUMNS})
        rows.append(row)
    return rows


def run_eval(gt_dir, pred_dir, mode: str, dilations=None) -> ReportDocument:
    """Evaluate every scene manifest in ``gt_dir`` against ``pred_dir``."""
    if mode not in MODES:
        raise InvalidValue(f"mode must be one of {MODES}, got {mode!r}")
    manifest_paths = find_manifests(gt_dir)
    if not manifest_paths:
        raise MissingPrediction(f"no *_manifest.json files under {gt_dir}")
    rows = []
    for path in manifest_paths:
        manifest = load_manifest(path)
        if mode == "segmentation":
            rows.extend(evaluate_scene_seg(manifest, Path(gt_dir), pred_dir))
        else:
            rows.extend(evaluate_scene_xyz(manifest, Path(gt_dir), pred_dir, mode, dilations))
    columns = SEG_COLUMNS if mode == "segmentation" else XYZ_COLUMNS
    return ReportDocument.build(mode, columns, rows, __version__)
