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

from .errors import InvalidValue, MalformedManifest, MissingPrediction, VesselXyzError
from .formats import read_pgm, read_xyz_pfm
from .geometry import valid_region
from .manifest import ROLES, SceneManifest, load_manifest
from .metrics import evaluate_xyz, seg_eval, similarity_from_region
from .report import SEG_COLUMNS, XYZ_COLUMNS, ReportDocument

COLUMNS = {"vessel-scale": XYZ_COLUMNS, "content-scale": XYZ_COLUMNS, "segmentation": SEG_COLUMNS}
MODES = tuple(COLUMNS)
REFERENCE = {  # per xyz mode, the role whose similarity aligns each role
    "vessel-scale": dict.fromkeys(ROLES, "vessel"),
    "content-scale": {role: role for role in ROLES},
}


def find_manifests(gt_dir) -> list:
    return sorted(Path(gt_dir).glob("*_manifest.json"), key=_manifest_seed)


def _manifest_seed(path: Path) -> int:
    try:
        return int(path.name.split("_", 1)[0])
    except ValueError as e:
        raise MalformedManifest(f"{path}: file name does not start with an integer seed") from e


def evaluate_scene(manifest: SceneManifest, gt_dir, pred_dir, mode: str, dilations=None) -> list:
    """Metric rows for one scene's vessel/content/opening predictions.

    Per role the GT xyz map (xyz modes only), the GT mask and the prediction
    are read first, so a file that exists but cannot be read raises.  A
    role's row is absent when its prediction file is missing or scoring it
    raises a VesselXyzError.

    In the xyz modes a role is aligned by its REFERENCE role's similarity,
    estimated once over ``valid_region(gt mask, gt xyz, prediction)``; when
    that prediction is missing or the estimate fails, every role it serves
    is absent.  Dilations default to the ladder for the map size.
    """
    gt_dir, pred_dir = Path(gt_dir), Path(pred_dir)
    xyz = mode != "segmentation"
    gt_maps, gt_masks, preds = {}, {}, {}
    for role in ROLES:
        if xyz:
            gt_maps[role] = read_xyz_pfm(gt_dir / manifest.files[f"{role}_xyz"])
        gt_masks[role] = read_pgm(gt_dir / manifest.files[f"{role}_mask"])
        path = pred_dir / manifest.files[f"{role}_{'xyz' if xyz else 'mask'}"]
        preds[role] = (read_xyz_pfm if xyz else read_pgm)(path) if path.exists() else None

    def region(role: str):
        return valid_region(gt_masks[role], gt_maps[role], preds[role])

    refs = REFERENCE.get(mode, {})
    transforms = {}  # reference role -> its similarity, when one could be estimated
    for ref in dict.fromkeys(refs.values()):
        if preds[ref] is not None:
            try:
                transforms[ref] = similarity_from_region(
                    preds[ref], gt_maps[ref], region(ref), dilations
                )
            except VesselXyzError:
                pass

    rows = []
    for role in ROLES:
        pred = preds[role]
        transform = transforms.get(refs.get(role))
        try:
            if pred is None or (xyz and transform is None):
                report = None
            elif xyz:
                mask = region(role)
                report = evaluate_xyz(transform.apply(pred, mask), gt_maps[role], mask)
            else:
                report = seg_eval(pred, gt_masks[role])
        except VesselXyzError:
            report = None
        row = {"seed": manifest.seed, "object": role}
        if report is None:
            row["missing"] = True
        else:
            row.update({col: getattr(report, col) for col in COLUMNS[mode]})
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
        rows.extend(evaluate_scene(load_manifest(path), gt_dir, pred_dir, mode, dilations))
    return ReportDocument.build(mode, COLUMNS[mode], rows)
